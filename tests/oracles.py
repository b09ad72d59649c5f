"""Independent brute-force oracles and hypothesis strategies for the tests.

Everything here deliberately avoids the code paths it is used to check:
string partitions are enumerated from the top row down (the package anchors
at the bottom row), loop-root membership is decided by exhaustive search
over placements, product characters are convolved monomial by monomial
(the package joins the factors' terms on bitsets), dominant spectra are
joined one anchor at a time (the package joins every KR anchor of a group
at once), the all-anchor join lists each walked term's candidate shifts and
multiplies ``LMonomial``s pair by pair (the package reads a shift mask bit
by bit and merges exponent tuples, one ``LMonomial`` per product), tableau monomials are multiplied out box by box (the package
sums exponents as it enumerates), the tableau search reads each
monomial off a slice of its exponent vector, one filling per loop step
(the package holds the live pairs and loops the last box in place), a
bounded search is the full search filtered term by term (the package
checks each key once its last box is placed and skips the subtree), the
resonance equations are written out once per variant (the package derives
them from two flags), a minimal affinization is recognised by its anchor ladder (the
package rebuilds the candidate's Drinfeld polynomial), a KR module by
its per-node rows of unit exponents (the package builds the one candidate
at the first variable), a monomial is decomposed into loop roots by its
weight's root coordinates and a rescan of a work dict per row (the
package peels a row map once, bottom-up), the chain check peels each
quotient at its own rows (the package moves it to row 0 and keeps one
answer per shift class), the highest
tableau's columns are read off the anchor ladder (the package reads them
off the Drinfeld polynomial, ``snake_shape``), q-characters are built by
the strict Frenkel–Mukhin algorithm (the package fills tableaux), the
closed-form D multiplies ``LMonomial``s with each gap member built at the
point's own anchor (the package moves the anchor-0 member by tau_r and
merges exponent tuples), a transported KR module is recognised at each
point (the package recognises it once per group and moves it), every
JSON value the CLI writes is a dict or list for
``json.dumps`` (the package writes each type's JSON text directly, in
``json_text``), and monomial generators build random inputs from scratch.
The column-gap, single-box-raise, weight-sum and root-coordinate helpers
serve only the tests, so they live here rather than in the package.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import compress, product
from operator import getitem

from hypothesis import strategies as st

from qcharlab import (
    InvalidInput,
    KRSpec,
    LMonomial,
    LRootDecomposition,
    MinAffSpec,
    QChar,
    Shape,
    StringList,
    Tableau,
    TensorReport,
    TheoremViolation,
    Weight,
    drinfeld_of_spec,
    expand_lroot_path,
    expand_simple_lroot,
    family_S,
    family_T,
    is_dominant,
    monomial_of_box,
    recognize_kr,
    recognize_minaff,
    resonance_window,
    transform,
    weight_of,
    y_string,
)
from qcharlab.lweight import _peel
from qcharlab.tableaux import box_support
from qcharlab.tensor import VARIANTS, Variant


def run_partitions_topdown(counts: dict[int, int]) -> list[tuple[tuple[int, int], ...]]:
    """All splittings of a row multiset into step-2 runs, anchored at the max.

    The run containing the largest remaining row must end there, so branch
    on that run's length.  Returns sorted tuples of (start, length).
    """
    if not counts:
        return [()]
    out = []
    top = max(counts)
    k = 1
    while True:
        rows = [top - 2 * l for l in range(k)]
        if any(counts.get(r, 0) < 1 for r in rows):
            break
        rest = dict(counts)
        for r in rows:
            rest[r] -= 1
            if not rest[r]:
                del rest[r]
        for tail in run_partitions_topdown(rest):
            out.append(tuple(sorted(((top - 2 * (k - 1), k),) + tail)))
        k += 1
    return sorted(set(out))


def product_qchar_reference(q1: QChar, q2: QChar) -> QChar:
    """Convolution product built from ``LMonomial`` products, pair by pair."""
    if q1.n != q2.n:
        raise InvalidInput(f"rank mismatch: {q1.n} != {q2.n}")
    terms2 = q2.terms()
    terms: dict[LMonomial, int] = {}
    for m1, c1 in q1.terms().items():
        for m2, c2 in terms2.items():
            m = m1 * m2
            terms[m] = terms.get(m, 0) + c1 * c2
    return QChar(q1.n, terms)


def dominant_join_reference(q1: QChar, q2: QChar) -> dict[LMonomial, int]:
    """The dominant terms of ``q1 * q2`` by one join at one anchor, as the
    package found D for each sweep point before it joined every anchor of a
    group at once.

    The smaller factor's positive exponents are indexed by key; each term of
    the larger factor intersects the sets of indexed terms that cover its
    negative exponents, and a candidate is kept if the walked term covers
    the candidate's negative exponents in turn.
    """
    t1, t2 = list(q1.terms().items()), list(q2.terms().items())
    small, large = (t1, t2) if len(t1) <= len(t2) else (t2, t1)
    covers: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for j, (m, _) in enumerate(small):
        for key, e in m.items():
            if e > 0:
                covers.setdefault(key, []).append((e, j))
    out: dict[LMonomial, int] = {}
    for m, c in large:
        cand = set(range(len(small)))
        for key, e in m.items():
            if e < 0:
                cand &= {j for t, j in covers.get(key, ()) if t >= -e}
        exps = dict(m.items())
        for j in cand:
            partner, c2 = small[j]
            if all(exps.get(key, 0) >= -e for key, e in partner.items() if e < 0):
                p = partner * m
                out[p] = out.get(p, 0) + c * c2
    return out



def _bitset_reference(indices: list[int], size: int) -> int:
    buf = bytearray((size + 7) // 8)
    for j in indices:
        buf[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(buf, "little")


def _at_least_reference(masks: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    ts = sorted(masks)
    acc, out = 0, []
    for t in reversed(ts):
        acc |= masks[t]
        out.append(acc)
    return tuple(ts), tuple(reversed(out))


def _bits_reference(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class _JoinIndexReference:
    """The join index as ``anchor_join_reference`` reads it: term ``j`` is
    bit ``j``, with its ``LMonomial`` in ``monos``, its negative pairs in
    ``needs``, and ``cover`` / ``rows`` as in ``minaff._JoinIndex``."""

    def __init__(self, terms: dict[LMonomial, int]):
        self.monos = list(terms)
        self.mults = list(terms.values())
        self.needs = [tuple(kv for kv in m.items() if kv[1] < 0) for m in self.monos]
        at: dict[tuple[int, int], dict[int, list[int]]] = {}
        for j, m in enumerate(self.monos):
            for key, e in m.items():
                if e > 0:
                    at.setdefault(key, {}).setdefault(e, []).append(j)
        size = len(self.monos)
        self.cover = {
            key: _at_least_reference({e: _bitset_reference(js, size) for e, js in by_e.items()})
            for key, by_e in at.items()
        }
        self.top = top = max((s for _, s in at), default=0)
        reach: dict[int, dict[int, int]] = {}
        for (i, s), (ts, _) in self.cover.items():
            by_t = reach.setdefault(i, {})
            by_t[ts[-1]] = by_t.get(ts[-1], 0) | 1 << (top - s)
        self.rows = {i: _at_least_reference(by_t) for i, by_t in reach.items()}

    def covering(self, need: list, shift: int = 0) -> int:
        """Bitset of the terms that cover ``need`` once ``tau_shift`` moves them."""
        if shift:
            need = [((i, s - shift), e) for (i, s), e in need]
        bits = (1 << len(self.monos)) - 1
        for key, e in need:
            entry = self.cover.get(key)
            if entry is None:
                return 0
            ts, bitsets = entry
            at = bisect_left(ts, -e)
            if at == len(ts):
                return 0
            bits &= bitsets[at]
            if not bits:
                return 0
        return bits

    def shifts(self, need: list) -> list[int]:
        """The shifts at which each pair of ``need``, on its own, meets a term
        with ``-e`` or more: one AND of row masks, as a list."""
        s0 = need[0][0][1]
        mask = -1
        for (i, s), e in need:
            entry = self.rows.get(i)
            if entry is None:
                return []
            ts, masks = entry
            at = bisect_left(ts, -e)
            if at == len(ts):
                return []
            mask &= masks[at] << (s - s0) if s >= s0 else masks[at] >> (s0 - s)
            if not mask:
                return []
        return [b + s0 - self.top for b in _bits_reference(mask)]


def anchor_join_reference(
    walked: QChar, indexed: QChar, anchor: int | None = None
) -> dict[int, dict[LMonomial, int]]:
    """``minaff.anchor_join`` as the package ran it before it joined on
    exponent tuples in one pass per walked term: a list of candidate shifts
    per walked term, a ``covering`` call with a shifted copy of the need
    list at each, a shifted exponent dict per (term, shift) and an
    ``LMonomial`` product (``transform`` then ``*``) per dominant pair."""
    if walked.n != indexed.n:
        raise InvalidInput(f"rank mismatch: {walked.n} != {indexed.n}")
    index = _JoinIndexReference(indexed.terms())
    imonos, imults, ineeds = index.monos, index.mults, index.needs
    n = walked.n
    out: dict[int, dict[LMonomial, int]] = {} if anchor is None else {anchor: {}}
    tops: list[tuple[LMonomial, int]] = []

    def join(m: LMonomial, c: int, r: int, cand: int) -> None:
        exps = {(i, s - r): e for (i, s), e in m.items()}
        for j in _bits_reference(cand):
            for key, e in ineeds[j]:
                if exps.get(key, 0) < -e:
                    break
            else:
                p = m * transform(imonos[j], "tau", r)
                found = out.setdefault(r, {})
                found[p] = found.get(p, 0) + c * imults[j]

    for m, c in walked.terms().items():
        need = [kv for kv in m.items() if kv[1] < 0]
        if not need:
            tops.append((m, c))
            for j, jneed in enumerate(ineeds):
                if jneed:
                    (i0, s0), e0 = jneed[0]
                    for (i, s), e in m.items():
                        if i == i0 and e >= -e0 and (anchor is None or anchor == s - s0):
                            join(m, c, s - s0, 1 << j)
            continue
        for r in (index.shifts(need) if anchor is None else (anchor,)):
            cand = index.covering(need, r)
            if cand:
                join(m, c, r, cand)
    itops = [(m, c) for m, c, need in zip(imonos, imults, ineeds) if not need]
    for r, found in out.items():
        for m1, c1 in tops:
            for m2, c2 in itops:
                p = m1 * transform(m2, "tau", r)
                found[p] = found.get(p, 0) + c1 * c2
    return out

def monomial_of_tableau_reference(t: Tableau) -> LMonomial:
    """Tableau monomial as the product of its box monomials, one box at a time."""
    m = LMonomial.identity(t.n)
    for content, s in t.boxes():
        m = m * monomial_of_box(t.n, content, s)
    return m


def within_bound_reference(fillings, bound: dict) -> list:
    """The ``(contents, exponent tuple)`` pairs of ``fillings`` whose
    exponent at every key is at least ``-bound.get(key, 0)``: the search
    under ``bound``, as a filter on the full search's list."""
    return [(c, t) for c, t in fillings if all(e >= -bound.get(key, 0) for key, e in t)]


def cover_bound_reference(qc: QChar) -> dict:
    """Each key's largest positive exponent over the terms of ``qc``: the
    bound a partner in a product puts on the other factor's search (the
    package reads it off the partner's join index)."""
    top: dict = {}
    for m in qc.terms():
        for key, e in m.items():
            if e > top.get(key, 0):
                top[key] = e
    return top


def semistandard_fillings_reference(n: int, shape: Shape):
    """The tableau search as it read each monomial off its exponent vector.

    Every filling, complete or not, is a step of one backtracking loop, and
    each complete one slices the exponent vector and keeps its nonzero
    entries (the package keeps the live pairs and runs the last box in an
    inner loop).  Same order, same live ``contents`` buffer.
    """
    supports: list[int] = []
    top_caps: list[int] = []
    lefts: list[int] = []
    first_rows: set[int] = set()
    prev: dict[int, int] = {}
    for k, s in shape:
        here: dict[int, int] = {}
        first_rows.add(len(supports))
        for row in range(1, k + 1):
            supp = box_support(k, s, row)
            here[supp] = len(supports)
            supports.append(supp)
            top_caps.append(n + 1 - (k - row))
            lefts.append(prev.get(supp + 2, -1))
        prev = here
    nboxes = len(supports)
    if nboxes == 0:
        yield [], LMonomial.identity(n)
        return

    keys = sorted(
        {(c, s + c - 1) for s in supports for c in range(1, n + 1)}
        | {(c - 1, s + c) for s in supports for c in range(2, n + 2)}
    )
    slot = {key: j for j, key in enumerate(keys)}
    spare = len(keys)
    exponents = [*range(nboxes + 1), *range(-nboxes, 0)]
    pairs = [[(key, e) for e in exponents] for key in keys]
    up = [[spare] + [slot.get((c, s + c - 1), spare) for c in range(1, n + 2)] for s in supports]
    down = [[spare] + [slot.get((c - 1, s + c), spare) for c in range(1, n + 2)] for s in supports]
    exps = [0] * (spare + 1)

    contents = [0] * nboxes
    caps = [0] * nboxes
    last = nboxes - 1
    p = 0
    caps[0] = top_caps[0]
    while True:
        c = contents[p] + 1
        if c > caps[p]:
            if p == 0:
                return
            p -= 1
            c = contents[p]
            exps[up[p][c]] -= 1
            exps[down[p][c]] += 1
            continue
        contents[p] = c
        u, d = up[p][c], down[p][c]
        exps[u] += 1
        exps[d] -= 1
        if p == last:
            values = exps[:spare]
            yield contents, LMonomial(
                n, tuple(map(getitem, compress(pairs, values), filter(None, values)))
            )
            exps[u] -= 1
            exps[d] += 1
        else:
            p += 1
            contents[p] = 0 if p in first_rows else contents[p - 1]
            cap = top_caps[p]
            left = lefts[p]
            if left >= 0 and contents[left] < cap:
                cap = contents[left]
            caps[p] = cap


def column_gaps(col) -> list[tuple[int, int]]:
    """Gap positions of a strictly increasing column.

    A gap sits at row j when the content jumps by more than one from the row
    above (the virtual row 0 has content 0, so content > 1 in row 1 is a
    gap).  Returns (row, size) pairs with size = jump - 1.
    """
    if any(a >= b for a, b in zip(col, col[1:])):
        raise InvalidInput("column contents must be strictly increasing")
    gaps = []
    prev = 0
    for row, c in enumerate(col, start=1):
        if c - prev > 1:
            gaps.append((row, c - prev - 1))
        prev = c
    return gaps


def raise_box(t: Tableau, col: int, row: int, target: int) -> tuple[Tableau, LMonomial]:
    """Replace the content of one box by ``target + 1``.

    Returns the modified tableau together with the expanded loop-root path
    ``A[i, target, s + 2(k-row) + i - 1]`` (``i`` the old content) whose
    inverse relates the two tableau monomials:
    ``monomial_of_tableau(new) == monomial_of_tableau(t) * path.inverse()``.
    """
    if not 1 <= col <= len(t.cols):
        raise InvalidInput(f"column index {col} out of range")
    k, s = t.shape.columns[col - 1]
    if not 1 <= row <= k:
        raise InvalidInput(f"row index {row} out of range")
    i = t.cols[col - 1][row - 1]
    if i > t.n:
        raise InvalidInput(f"content {i} cannot be raised past {t.n + 1}")
    if not i <= target <= t.n:
        raise InvalidInput(f"target {target} must lie in {i}..{t.n}")
    path = expand_lroot_path(t.n, i, target, s + 2 * (k - row) + i - 1)
    new_cols = list(t.cols)
    new_col = list(new_cols[col - 1])
    new_col[row - 1] = target + 1
    new_cols[col - 1] = tuple(new_col)
    return Tableau(t.n, t.shape, tuple(new_cols)), path


# The JSON schemas, one function per type: ``cli._dumps`` of each result is
# the text that the type's ``json_text`` writes directly.


def monomial_json_reference(m: LMonomial) -> dict:
    return {"n": m.n, "Y": [[i, r, e] for (i, r), e in m.items()]}


def spec_json_reference(spec: MinAffSpec) -> dict:
    return {"n": spec.n, "lambda": list(spec.lam), "dir": spec.direction, "shift": spec.shift}


def kr_json_reference(kr: KRSpec) -> dict:
    return {"n": kr.n, "node": kr.node, "r": kr.r, "k": kr.k}


def qchar_json_reference(qc: QChar) -> list:
    return [{"monomial": monomial_json_reference(m), "mult": c} for m, c in qc.sorted_terms()]


def strings_json_reference(strings: StringList) -> dict:
    return {"strings": [[r, k] for r, k in strings.strings]}


def report_json_reference(rep: TensorReport) -> dict:
    """A tensor report as a dict, field by field through the references
    above; ``json.dumps`` of it with sorted keys is the report line that
    ``TensorReport.json_text`` assembles from text pieces."""
    mono = monomial_json_reference
    return {
        "n": rep.spec.n,
        "variant": rep.variant,
        "spec": spec_json_reference(rep.spec),
        "kr": kr_json_reference(rep.kr),
        "lambda": mono(rep.lam),
        "D": [{"m": mono(m), "mult": c} for m, c in rep.D],
        "totally_ordered": rep.totally_ordered,
        "case": rep.tag.case_json(),
        "p": rep.tag.p,
        "kprime": rep.tag.kprime,
        "resonance": None
        if rep.resonance is None
        else {
            "kind": rep.resonance.kind,
            "kprime": rep.resonance.kprime,
            "p": rep.resonance.p,
        },
        "lambda_prime": None if rep.lambda_prime is None else mono(rep.lambda_prime),
        "socle_head": {
            order: {"socle": mono(s), "head": mono(h)}
            for order, (s, h) in rep.socle_head.items()
        },
    }


def add_weights(a: Weight, b: Weight) -> Weight:
    """Coordinatewise sum of two weights of the same rank."""
    if a.n != b.n:
        raise InvalidInput("rank mismatch")
    return Weight(a.n, tuple(x + y for x, y in zip(a.coords, b.coords)))


def resonance_reference(variant: str, spec: MinAffSpec, kr: KRSpec):
    """The variant's two resonance equations, each written out explicitly.

    Returns ``(kind, kprime, p)`` or None, like ``tensor._resonance``.  Kind
    "i" at a supported node p needs 1 <= k' <= lam_p, kind "ii" needs
    1 <= k' <= k; kind "ii" takes p from the suffix (normal, c) or prefix
    (a, b) sums of lam.  Raises ValueError when the solution is not unique.
    """
    n, lam = spec.n, spec.lam
    anchors = spec.anchors()
    r, k = kr.r, kr.k
    i0, i1 = spec.i0, spec.i1

    cands_i = []
    for p in spec.supp():
        if variant == "normal":
            num = r + 2 * k + n - p + 2 - anchors[p]
        elif variant == "a":
            num = r + 2 * k + p + 1 - anchors[p]
        elif variant == "b":
            num = anchors[p] + 2 * lam[p - 1] + p + 1 - r
        else:  # "c"
            num = anchors[p] + 2 * lam[p - 1] + n - p + 2 - r
        if num % 2 == 0 and 1 <= num // 2 <= lam[p - 1]:
            cands_i.append(("i", num // 2, p))

    if variant == "normal":
        num = anchors[i0] + 2 * lam[i0 - 1] + n - i0 + 2 - r
    elif variant == "a":
        num = anchors[i1] + 2 * lam[i1 - 1] + i1 + 1 - r
    elif variant == "b":
        num = r + 2 * k + i1 + 1 - anchors[i1]
    else:  # "c"
        num = r + 2 * k + n - i0 + 2 - anchors[i0]
    cands_ii = []
    if num % 2 == 0 and 1 <= num // 2 <= k:
        kp = num // 2
        if kp > sum(lam):
            p = None
        elif variant in ("normal", "c"):
            p = max(i for i in range(1, n + 1) if sum(lam[i - 1 :]) >= kp)
        else:
            p = min(i for i in range(1, n + 1) if sum(lam[:i]) >= kp)
        cands_ii.append(("ii", kp, p))

    cands = cands_i + cands_ii
    if len(cands) > 1:
        raise ValueError(f"resonance not unique: {cands}")
    return cands[0] if cands else None


def expected_dominants_reference(spec: MinAffSpec, kr: KRSpec, resonance) -> list[LMonomial]:
    """``tensor.expected_dominants`` as ``LMonomial`` products, each gap
    member built by ``family_T`` at the point's own anchor."""
    omega = drinfeld_of_spec(spec)
    varpi = kr.drinfeld()
    if resonance is None:
        return [omega * varpi]
    total = spec.total
    out: list[LMonomial] = []
    if resonance.kind == "ii":
        for f in range(resonance.kprime + 1):
            out.append(family_S(spec, 1, min(f, total), spec.n + 1)[1] * varpi)
    else:
        p, kp = resonance.p, resonance.kprime
        c = 1 + _seg_reference(spec.lam, p, spec.n)
        m_max = min(kr.k, _seg_reference(spec.lam, 1, p - 1) + kp)
        for m in range(m_max + 1):
            gap_part = family_T(kr, m, p)[1]
            for eps in (1, 0):
                f = c + m - kp - eps
                s_part = omega if f < c else family_S(spec, c, min(f, total), p)[1]
                out.append(s_part * gap_part)
    return list(dict.fromkeys(out))


def transported_reference(variant: Variant, spec: MinAffSpec, kr: KRSpec) -> tuple[MinAffSpec, int, KRSpec]:
    """``tensor._transported`` with the point's own KR module recognised:
    (spec_t at shift 0, its shift t, kr_t at tau_{-t} of the KR module's
    transport), raising TheoremViolation as the package does."""
    spec_t = recognize_minaff(transform(drinfeld_of_spec(spec), variant.inverse), "inc")
    if spec_t is None:
        raise TheoremViolation("transported affinization is not increasing")
    kr_t = recognize_kr(transform(kr.drinfeld(), variant.inverse, -spec_t.shift))
    if kr_t is None or kr_t.node != spec.n:
        raise TheoremViolation("transported KR module is not at the last node")
    return MinAffSpec(spec_t.n, spec_t.lam), spec_t.shift, kr_t


def _seg_reference(lam: tuple[int, ...], a: int, b: int) -> int:
    """Sum lam[a..b] with 1-based inclusive bounds; empty when a > b."""
    if a > b:
        return 0
    return sum(lam[a - 1 : b])


def _p_ladder(lam: tuple[int, ...], i: int, j: int) -> int:
    """The ladder step between nodes i < j used in the recognition test."""
    return _seg_reference(lam, i + 1, j) + _seg_reference(lam, i, j - 1) + (j - i)


def recognize_minaff_reference(m: LMonomial):
    """Recognise a dominant monomial as the Drinfeld polynomial of a minimal
    affinization by the anchor ladder, pair by pair.

    Each supported node must carry a single multiplicity-one string of step
    two, and consecutive string anchors must follow the ladder relation with
    one sign for all pairs.  Returns ``(lam, epsilons, anchor)``, where
    ``epsilons`` lists the admissible ladder signs, (-1,) increasing, (+1,)
    decreasing, or both when the support is a single node, and ``anchor`` is
    the spectral anchor of the top supported node string; None when the
    pattern does not match.  (The package instead rebuilds the one candidate
    spec's Drinfeld polynomial and compares.)
    """
    if not is_dominant(m):
        raise InvalidInput("recognition requires a dominant monomial")
    n = m.n
    rows: dict[int, list[int]] = {}
    for (i, r), e in m.items():
        if e != 1:
            return None
        rows.setdefault(i, []).append(r)
    if not rows:
        return None
    lam = [0] * n
    anchors: dict[int, int] = {}
    for i, rs in rows.items():
        rs.sort()
        if any(b - a != 2 for a, b in zip(rs, rs[1:])):
            return None
        lam[i - 1] = len(rs)
        anchors[i] = rs[0]
    supp = sorted(anchors)
    lam_t = tuple(lam)
    if len(supp) == 1:
        return lam_t, (-1, 1), anchors[supp[0]]
    # a_i = q^(r_i + lam_i - 1); compare consecutive supported nodes
    eps_ok = []
    for eps in (-1, 1):
        ok = True
        for i, j in zip(supp, supp[1:]):
            lhs = (anchors[i] + lam[i - 1] - 1) - (anchors[j] + lam[j - 1] - 1)
            if lhs != eps * _p_ladder(lam_t, i, j):
                ok = False
                break
        if ok:
            eps_ok.append(eps)
    if not eps_ok:
        return None
    return lam_t, tuple(eps_ok), anchors[supp[-1]]


def recognize_kr_reference(m: LMonomial):
    """The KR module at node 1 or n whose Drinfeld polynomial is the dominant
    monomial ``m``, read off its rows: every exponent must be 1 and every
    variable sit at one extreme node, whose lowest parameter is the anchor."""
    if not is_dominant(m):
        raise InvalidInput("recognition requires a dominant monomial")
    rows: dict[int, list[int]] = {}
    for (i, r), e in m.items():
        if e != 1:
            return None
        rows.setdefault(i, []).append(r)
    if list(rows) not in ([1], [m.n]):
        return None
    ((node, rs),) = rows.items()
    kr = KRSpec(m.n, node, rs[0], len(rs))
    return kr if kr.drinfeld() == m else None


def scaled_root_coords(w: Weight) -> tuple[int, ...]:
    """``n + 1`` times the simple-root coordinates of ``w``, in integers.

    Row ``i`` of ``n + 1`` times the inverse Cartan matrix is
    ``min(i, j) * (n + 1 - max(i, j))``.
    """
    h = w.n + 1
    return tuple(
        sum(min(i, j) * (h - max(i, j)) * c for j, c in enumerate(w.coords, start=1))
        for i in range(1, h)
    )


def simple_root_coords(w: Weight) -> tuple[Fraction, ...]:
    """Coordinates of a weight in the simple-root basis (inverse Cartan matrix)."""
    h = w.n + 1
    return tuple(Fraction(t, h) for t in scaled_root_coords(w))


def root_height(m: LMonomial) -> Fraction:
    """Sum of the simple-root coordinates of ``weight_of(m)``; strictly
    monotone along the loop-root order."""
    return Fraction(sum(scaled_root_coords(weight_of(m))), m.n + 1)


def lroot_decompose_reference(m: LMonomial):
    """Write ``m`` as a product of nonnegative powers of simple loop roots,
    or None.  The per-node factor totals are forced by the weight (inverse
    Cartan matrix, scaled by ``n + 1``); the factors are then forced row by
    row from the bottom, each row found by a ``min`` over the whole work dict."""
    n = m.n
    h = n + 1
    scaled = scaled_root_coords(weight_of(m))
    if any(t < 0 or t % h for t in scaled):
        return None
    budget = sum(scaled) // h
    work: dict[tuple[int, int], int] = dict(m.items())
    factors: dict[tuple[int, int], int] = {}
    consumed = 0
    while work:
        r0 = min(r for (_, r) in work)
        bottom = [(i, e) for (i, r), e in work.items() if r == r0]
        if any(e < 0 for _, e in bottom):
            return None
        consumed += sum(e for _, e in bottom)
        if consumed > budget:
            return None
        for i, e in bottom:
            factors[(i, r0 + 1)] = factors.get((i, r0 + 1), 0) + e
            # divide out A[i, r0+1]^e
            for key, de in (
                ((i, r0), -e),
                ((i, r0 + 2), -e),
                ((i - 1, r0 + 1), e),
                ((i + 1, r0 + 1), e),
            ):
                if not 1 <= key[0] <= n:
                    continue
                new = work.get(key, 0) + de
                if new:
                    work[key] = new
                else:
                    work.pop(key, None)
    return LRootDecomposition(n, tuple(sorted(factors.items())))


def le_reference(m1: LMonomial, m2: LMonomial) -> bool:
    """``m1 <= m2`` without a memo: the quotient ``m2 / m1`` as a dict
    built from the two exponent tuples, peeled at its own rows."""
    if m1.n != m2.n:
        raise InvalidInput(f"rank mismatch: {m1.n} != {m2.n}")
    quotient = dict(m2.items())
    for key, e in m1.items():
        e = quotient.get(key, 0) - e
        if e:
            quotient[key] = e
        else:
            del quotient[key]
    return _peel(m1.n, quotient.items(), None)


def highest_shape_reference(spec: MinAffSpec) -> Shape:
    """The highest tableau's shape read off the anchor ladder.

    Columns are full increasing columns 1..i; the block of node i has lam_i
    columns, the j-th starting at r_i + 2(lam_i - j) - i + 1.  Increasing
    specs order the blocks from the top node down, decreasing specs the
    other way around.
    """
    anchors = spec.anchors()
    nodes = spec.supp()
    if spec.direction == "inc":
        nodes = nodes[::-1]
    return Shape(
        tuple(
            (i, anchors[i] + 2 * (spec.lam[i - 1] - j) - i + 1)
            for i in nodes
            for j in range(1, spec.lam[i - 1] + 1)
        )
    )


def _sl2_strings(points: list[int]) -> list[tuple[int, int]]:
    """The q-strings ``(start, length)`` in general position whose product
    is the rank-1 monomial with the parameters ``points`` (with repeats):
    from the lowest point left, the longest step-2 run, one copy each."""
    left = Counter(points)
    out = []
    while left:
        a = min(left)
        k = 0
        while left[a + 2 * k]:
            left[a + 2 * k] -= 1
            k += 1
        out.append((a, k))
        left = +left
    return out


def _sl2_lowerings(points: list[int]) -> Counter:
    """The rank-1 simple character of ``points``, as the multiset of
    ``A[b]^-1`` parameters of each term below the top: the product of the
    string characters, where a string (a, k) lowers its top j points."""
    options = [
        [tuple(a + 2 * (k - l) - 1 for l in range(j)) for j in range(k + 1)]
        for a, k in _sl2_strings(points)
    ]
    out: Counter = Counter()
    for choice in product(*options):
        bs = tuple(sorted(b for part in choice for b in part))
        if bs:
            out[bs] += 1
    return out


def fm_reference(m: LMonomial) -> dict[LMonomial, int]:
    """The q-character of L(m) by the strict Frenkel–Mukhin algorithm.

    Each monomial carries a multiplicity and one colour per node.  The
    monomials are taken level by level (the number of ``A^-1`` factors
    below ``m``); at node i a monomial whose colour is below its
    multiplicity must be i-dominant, and its rank-1 character at node i,
    times the missing colour, is added to the i-colours of the monomials
    below it.  A monomial's multiplicity is its largest colour.  A colour
    break, or a dominant monomial reached below ``m``, raises
    ``InvalidInput``: the result is exact when L(m) is special, as snake
    modules are, and then neither happens.
    """
    if not is_dominant(m):
        raise InvalidInput(f"the algorithm starts from a dominant monomial, got {m}")
    n = m.n
    mult = {m: 1}
    colour = {m: [0] * (n + 1)}
    levels: dict[int, list[LMonomial]] = {0: [m]}
    level = 0
    while level <= max(levels):
        for cur in levels.get(level, ()):
            for i in range(1, n + 1):
                missing = mult[cur] - colour[cur][i]
                if not missing:
                    continue
                points = []
                for (j, r), e in cur.items():
                    if j == i:
                        if e < 0:
                            raise InvalidInput(f"Frenkel–Mukhin fails: {cur} is not {i}-dominant")
                        points += [r] * e
                for bs, c in _sl2_lowerings(points).items():
                    low = cur
                    for b in bs:
                        low = low / expand_simple_lroot(n, i, b)
                    if low not in mult:
                        if is_dominant(low):
                            raise InvalidInput(f"Frenkel–Mukhin fails: {m} reaches the dominant {low}")
                        mult[low] = 0
                        colour[low] = [0] * (n + 1)
                        levels.setdefault(level + len(bs), []).append(low)
                    colour[low][i] += missing * c
                    mult[low] = max(mult[low], colour[low][i])
                colour[cur][i] = mult[cur]
        level += 1
    return mult


@st.composite
def snakes(draw, max_n: int = 4, max_points: int = 4):
    """Random snakes whose tableau columns touch: points (i, r), (i', r')
    consecutive in r with ``r' - r`` in ``[|i' - i| + 2, i + i']`` and of
    the parity of ``i' - i``."""
    n = draw(st.integers(1, max_n))
    i, r = draw(st.integers(1, n)), draw(st.integers(-4, 4))
    pairs = [((i, r), 1)]
    for _ in range(draw(st.integers(0, max_points - 1))):
        j = draw(st.integers(1, n))
        gap = draw(st.sampled_from(range(abs(j - i) + 2, i + j + 1, 2)))
        i, r = j, r + gap
        pairs.append(((i, r), 1))
    return LMonomial(n, pairs)


def in_lroot_cone_bruteforce(m: LMonomial, max_total: int = 5) -> bool:
    """Decide membership in the positive loop-root cone by exhaustive peeling.

    Divides out one simple loop root at a time, trying every slot in the
    spectral window of ``m`` widened by one step per remaining factor.
    Exponential, only for small test inputs.
    """
    if m.is_identity:
        return True
    rows = m.rows()
    lo, hi = rows[0] - 1 - max_total, rows[-1] + 1 + max_total
    seen: set[tuple[LMonomial, int]] = set()

    def peel(cur: LMonomial, budget: int) -> bool:
        if cur.is_identity:
            return True
        if budget == 0 or (cur, budget) in seen:
            return False
        seen.add((cur, budget))
        for i in range(1, m.n + 1):
            for r in range(lo, hi + 1):
                if peel(cur / expand_simple_lroot(m.n, i, r), budget - 1):
                    return True
        return False

    return peel(m, max_total)


def weyl_dim_oracle(n: int, lam: tuple[int, ...]) -> int:
    """Weyl dimension formula via row lengths, written independently."""
    row = [sum(lam[i:]) for i in range(n)] + [0]
    num = 1
    den = 1
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            num *= row[i] - row[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


@st.composite
def lmonomials(
    draw, max_n: int = 4, max_factors: int = 6, row_span: int = 8, exponents=(-1, 1), min_n: int = 1
):
    """Random monomials as products of Y[i,r]^e, e drawn from ``exponents``,
    of a rank in ``min_n..max_n``."""
    n = draw(st.integers(min_n, max_n))
    count = draw(st.integers(0, max_factors))
    pairs = []
    for _ in range(count):
        i = draw(st.integers(1, n))
        r = draw(st.integers(-row_span, row_span))
        e = draw(st.sampled_from(exponents))
        pairs.append(((i, r), e))
    return LMonomial(n, pairs)


@st.composite
def characters(draw, n: int, max_terms: int = 5, row_span: int = 3):
    """Random characters of rank n: up to ``max_terms`` monomials with
    exponents in -3..3 and multiplicities in 1..3."""
    terms: dict[LMonomial, int] = {}
    for _ in range(draw(st.integers(0, max_terms))):
        pairs = [
            ((draw(st.integers(1, n)), draw(st.integers(-row_span, row_span))), draw(st.integers(-3, 3)))
            for _ in range(draw(st.integers(0, 4)))
        ]
        m = LMonomial(n, pairs)
        terms[m] = terms.get(m, 0) + draw(st.integers(1, 3))
    return QChar(n, terms)


@st.composite
def lroot_products(draw, max_n: int = 3, max_factors: int = 4, row_span: int = 4):
    """Random elements of the positive loop-root cone with their factor maps."""
    n = draw(st.integers(1, max_n))
    count = draw(st.integers(0, max_factors))
    factors: dict[tuple[int, int], int] = {}
    m = LMonomial.identity(n)
    for _ in range(count):
        i = draw(st.integers(1, n))
        r = draw(st.integers(-row_span, row_span))
        factors[(i, r)] = factors.get((i, r), 0) + 1
        m = m * expand_simple_lroot(n, i, r)
    return n, m, factors


@st.composite
def lroot_quotients(draw, max_n: int = 4):
    """A random element of the positive loop-root cone times random noise
    of the same rank (exponents -2..2), so that quotients inside the cone,
    weight-test failures and peels that fail on a high row all occur."""
    n, m, _ = draw(lroot_products(max_n=max_n, max_factors=6))
    noise = draw(lmonomials(min_n=n, max_n=n, max_factors=3, row_span=4, exponents=(-2, -1, 1, 2)))
    return m * noise


@st.composite
def dominant_monomials(draw, max_n: int = 4, max_factors: int = 5, row_span: int = 6):
    """Random dominant monomials (products of positive Y powers)."""
    n = draw(st.integers(1, max_n))
    count = draw(st.integers(0, max_factors))
    pairs = []
    for _ in range(count):
        i = draw(st.integers(1, n))
        r = draw(st.integers(-row_span, row_span))
        pairs.append(((i, r), 1))
    return LMonomial(n, pairs)


@st.composite
def right_negative_monomials(draw, max_n: int = 3):
    """Random right-negative monomials: force an inverted top row."""
    m = draw(lmonomials(max_n=max_n))
    n = m.n
    top = (max(r for (_, r), _ in m.items()) if not m.is_identity else 0) + 1
    i = draw(st.integers(1, n))
    return m * LMonomial.y(n, i, top, -1)


def rank1_monomial(rows: dict[int, int]) -> LMonomial:
    m = LMonomial.identity(1)
    for r, e in rows.items():
        m = m * y_string(1, 1, r, 1) ** e
    return m


def all_weights(n: int, total_max: int):
    """Every nonzero weight vector of rank n with entries summing to <= total_max."""
    for lam in product(range(total_max + 1), repeat=n):
        if 0 < sum(lam) <= total_max:
            yield lam


@st.composite
def minaff_kr_pairs(draw, max_n: int = 3, max_total: int = 3, max_k: int = 3):
    """A minimal affinization of either direction and an extreme-node KR
    module of the same rank, at independent spectral positions."""
    n = draw(st.integers(1, max_n))
    lam = draw(
        st.lists(st.integers(0, max_total), min_size=n, max_size=n).filter(
            lambda v: 0 < sum(v) <= max_total
        )
    )
    spec = MinAffSpec(
        n, tuple(lam), draw(st.sampled_from(("inc", "dec"))), draw(st.integers(-4, 4))
    )
    kr = KRSpec(n, draw(st.sampled_from((1, n))), draw(st.integers(-8, 8)), draw(st.integers(1, max_k)))
    return spec, kr


@st.composite
def sweep_points(draw, max_n: int = 3, max_total: int = 3, max_k: int = 3, pad: int = 2):
    """A point of a four-variant sweep grid at any spectral shift: a row of
    ``VARIANTS``, a weight, a KR length, and a KR anchor anywhere in the
    resonance window padded by ``pad``."""
    row = VARIANTS[draw(st.sampled_from(sorted(VARIANTS)))]
    n = draw(st.integers(1, max_n))
    lam = draw(
        st.lists(st.integers(0, max_total), min_size=n, max_size=n).filter(
            lambda v: 0 < sum(v) <= max_total
        )
    )
    spec = MinAffSpec(n, tuple(lam), row.direction, draw(st.integers(-3, 3)))
    node = 1 if row.first else n
    k = draw(st.integers(1, max_k))
    return spec, KRSpec(n, node, draw(st.sampled_from(resonance_window(spec, node, k, pad))), k)
