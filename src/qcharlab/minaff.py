"""Minimal affinizations and Kirillov-Reshetikhin modules for type A_n.

A minimal affinization is specified symbolically by (rank, highest weight,
direction, global spectral shift).  Its Drinfeld polynomial is a product of
node strings ``Y[i, r_i, lam_i]`` whose anchors satisfy a ladder relation:
with ``i0`` the top supported node and base anchor ``r_{i0} = 1 - lam_{i0}``,

    increasing:  r_i = r_{i0} - 2 * sum(lam[i..i0-1]) + i - i0
    decreasing:  r_i = r_{i0} + 2 * sum(lam[i+1..i0]) + i0 - i

The ladder is written only in ``MinAffSpec.anchors``, and the columns of
the highest tableau only in ``tableaux.snake_shape``, which reads them off
the Drinfeld polynomial; recognition reads a monomial's weight and top
anchor and accepts the one candidate spec iff its Drinfeld polynomial is
that monomial.

The q-character is the set of monomials of the semi-standard fillings of
the Drinfeld polynomial's snake shape, read off the search without building
the tableaux; for a KR module at the last node an independent
partition-indexed formula provides the same set of terms.

``anchor_join`` is the one dominant-pair join: it gives the whole dominant
part of ``walked * tau_r(indexed)``, the products of two dominant terms
included, at one shift ``r`` or at every shift.  Only the indexed character
gets a join index; the walked one is read term by term.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional

from .errors import InvalidInput, InvariantViolation, require_int, require_rank
from .lweight import (
    Key,
    LMonomial,
    expand_lroot_path,
    is_dominant,
    monomial_sort_key,
    transform,
    y_string,
)
from .tableaux import Tableau, semistandard_fillings, snake_shape

# not used here since ``qchar`` reads monomials only, but still looked up
# in this module by the benchmark's tracer (``perfbench/spans.py``)
from .tableaux import enumerate_semistandard, monomial_of_tableau  # noqa: F401

Direction = str  # "inc" | "dec"


def _check_direction(direction) -> None:
    if direction not in ("inc", "dec"):
        raise InvalidInput(f"direction must be 'inc' or 'dec', got {direction!r}")


def _seg(lam: tuple[int, ...], a: int, b: int) -> int:
    """Sum lam[a..b] with 1-based inclusive bounds; empty when a > b."""
    if a > b:
        return 0
    return sum(lam[a - 1 : b])


def _require_weight(n: int, lam) -> tuple[int, ...]:
    """``lam`` as a tuple, checked to be a dominant weight of rank ``n``: a
    positive integer rank, and one nonnegative plain ``int`` per node."""
    require_rank(n)
    if not isinstance(lam, (tuple, list)):
        raise InvalidInput(f"weight must be a tuple or list of integers, got {lam!r}")
    lam = tuple(lam)
    for v in lam:
        require_int("weight entry", v)
    if len(lam) != n:
        raise InvalidInput("weight vector length must equal the rank")
    if any(v < 0 for v in lam):
        raise InvalidInput("weight entries must be nonnegative")
    return lam


@dataclass(frozen=True)
class MinAffSpec:
    """Symbolic minimal affinization: rank, weight, direction, spectral shift."""

    n: int
    lam: tuple[int, ...]
    direction: Direction = "inc"
    shift: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lam", _require_weight(self.n, self.lam))
        require_int("spectral shift", self.shift)
        if not any(self.lam):
            raise InvalidInput("weight must not be zero")
        _check_direction(self.direction)

    @property
    def total(self) -> int:
        return sum(self.lam)

    def supp(self) -> list[int]:
        return [i for i in range(1, self.n + 1) if self.lam[i - 1]]

    @property
    def i0(self) -> int:
        return max(self.supp())

    @property
    def i1(self) -> int:
        return min(self.supp())

    def anchors(self) -> dict[int, int]:
        """Spectral anchor r_i (shift included) of each supported node string."""
        i0 = self.i0
        base = 1 - self.lam[i0 - 1]
        out = {}
        for i in self.supp():
            if self.direction == "inc":
                r = base - 2 * _seg(self.lam, i, i0 - 1) + i - i0
            else:
                r = base + 2 * _seg(self.lam, i + 1, i0) + i0 - i
            out[i] = r + self.shift
        return out

    def json_text(self) -> str:
        """The spec as compact sorted-key JSON, ``{"dir","lambda","n","shift"}``."""
        lam = ",".join(map(str, self.lam))
        return f'{{"dir":"{self.direction}","lambda":[{lam}],"n":{self.n},"shift":{self.shift}}}'


@dataclass(frozen=True)
class KRSpec:
    """Kirillov-Reshetikhin module at an extreme node: Y[node, r, k]."""

    n: int
    node: int
    r: int
    k: int

    def __post_init__(self):
        require_rank(self.n)
        require_int("KR node", self.node)
        require_int("KR anchor", self.r)
        require_int("string length", self.k)
        if self.node not in (1, self.n):
            raise InvalidInput(f"node must be extreme (1 or {self.n}), got {self.node}")
        if self.k < 1:
            raise InvalidInput(f"string length must be positive, got {self.k}")

    def drinfeld(self) -> LMonomial:
        """The string ``Y[node, r, k]``, cached by value (``_kr_drinfeld``)."""
        return _kr_drinfeld(self.n, self.node, self.r, self.k)

    def as_minaff(self) -> MinAffSpec:
        lam = tuple(self.k if i == self.node else 0 for i in range(1, self.n + 1))
        # singleton support: direction is immaterial, anchor fixes the shift
        return MinAffSpec(self.n, lam, "inc", self.r - (1 - self.k))

    def json_text(self) -> str:
        """The module as compact sorted-key JSON, ``{"k","n","node","r"}``."""
        return f'{{"k":{self.k},"n":{self.n},"node":{self.node},"r":{self.r}}}'


class QChar:
    """A q-character: finite multiset of loop-weight monomials.

    A character is held either as a dict of monomials or, for a product
    character, as its two factors (``product``).  A product answers
    ``dominant_terms`` by ``anchor_join`` at anchor 0, walking the larger
    factor's terms against the join index of the smaller one, without
    forming the product; everything else on it convolves the factors once,
    on first use.  The rank must be a positive plain ``int``
    (``require_rank``) and every multiplicity a positive one.
    """

    __slots__ = ("n", "_terms", "_factors", "_index")

    def __init__(self, n: int, terms: dict[LMonomial, int]):
        require_rank(n)
        for m, mult in terms.items():
            if m.n != n:
                raise InvalidInput("term rank mismatch")
            if type(mult) is not int or mult <= 0:
                require_int("multiplicity", mult)
                raise InvalidInput("multiplicities must be positive")
        self.n = n
        self._terms = dict(terms)
        self._factors = None
        self._index = None

    @classmethod
    def product(cls, q1: "QChar", q2: "QChar") -> "QChar":
        """The product character ``q1 * q2``, held as its two factors."""
        if q1.n != q2.n:
            raise InvalidInput(f"rank mismatch: {q1.n} != {q2.n}")
        qc = object.__new__(cls)
        qc.n = q1.n
        qc._terms = None
        qc._factors = (q1, q2)
        qc._index = None
        return qc

    def _all_terms(self) -> dict[LMonomial, int]:
        if self._terms is None:
            self._terms = _convolve(*self._factors)
        return self._terms

    def _join_index(self) -> "_JoinIndex":
        if self._index is None:
            self._index = _JoinIndex(self._all_terms())
        return self._index

    def terms(self) -> dict[LMonomial, int]:
        return dict(self._all_terms())

    def __len__(self) -> int:
        return len(self._all_terms())

    @property
    def dimension(self) -> int:
        return sum(self._all_terms().values())

    def dominant_terms(self) -> list[tuple[LMonomial, int]]:
        if self._factors is None:
            out = [(m, c) for m, c in self._terms.items() if is_dominant(m)]
        else:
            small, large = sorted(self._factors, key=lambda q: len(q._all_terms()))
            out = list(anchor_join(large, small, 0)[0].items())
        out.sort(key=lambda mc: monomial_sort_key(mc[0]))
        return out

    def sorted_terms(self) -> list[tuple[LMonomial, int]]:
        return sorted(self._all_terms().items(), key=lambda mc: monomial_sort_key(mc[0]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QChar)
            and self.n == other.n
            and self._all_terms() == other._all_terms()
        )

    def __repr__(self) -> str:
        return f"QChar(n={self.n}, terms={len(self)}, dim={self.dimension})"

    def json_text(self) -> str:
        """The terms in ``sorted_terms`` order as compact JSON,
        ``[{"monomial":...,"mult":c},...]``."""
        terms = [f'{{"monomial":{m.json_text()},"mult":{c}}}' for m, c in self.sorted_terms()]
        return f"[{','.join(terms)}]"


def _convolve(q1: QChar, q2: QChar) -> dict[LMonomial, int]:
    """Every term of ``q1 * q2``: all pairs multiplied, multiplicities summed."""
    terms2 = q2._all_terms().items()
    terms: dict[LMonomial, int] = {}
    for m1, c1 in q1._all_terms().items():
        for m2, c2 in terms2:
            m = m1 * m2
            terms[m] = terms.get(m, 0) + c1 * c2
    return terms


def _bitset(indices: list[int], size: int) -> int:
    """The bitset of ``indices``, built in one pass over ``size`` bits."""
    buf = bytearray((size + 7) // 8)
    for j in indices:
        buf[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(buf, "little")


def _at_least(masks: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The thresholds ``t`` of ``masks``, ascending, each paired with the OR
    of the masks at ``t`` and above."""
    ts = sorted(masks)
    acc, out = 0, []
    for t in reversed(ts):
        acc |= masks[t]
        out.append(acc)
    return tuple(ts), tuple(reversed(out))


class _JoinIndex:
    """The indexed character of ``anchor_join``: term ``j`` is bit ``j``.

    ``needs[j]`` holds term ``j``'s own pairs ``(key, e)`` with ``e < 0``
    (shared with the term, not copied): a partner must have ``-e`` or more
    at each such ``key``.  ``cover[key]`` pairs the positive exponents ``t``
    at ``key``, ascending, with the bitsets of the terms whose exponent at
    ``key`` is ``>= t``.  ``rows[i]`` pairs the positive exponents ``t`` at
    node ``i`` with a mask of the rows ``s`` at which some term reaches
    ``t``, as bit ``top - s`` (``top`` is the highest such row).
    """

    __slots__ = ("monos", "mults", "needs", "cover", "rows", "top")

    def __init__(self, terms: dict[LMonomial, int]):
        self.monos = list(terms)
        self.mults = list(terms.values())
        self.needs = [tuple(kv for kv in m.items() if kv[1] < 0) for m in self.monos]
        at: dict[Key, dict[int, list[int]]] = {}
        for j, m in enumerate(self.monos):
            for key, e in m.items():
                if e > 0:
                    at.setdefault(key, {}).setdefault(e, []).append(j)
        size = len(self.monos)
        self.cover = {
            key: _at_least({e: _bitset(js, size) for e, js in by_e.items()})
            for key, by_e in at.items()
        }
        self.top = top = max((s for _, s in at), default=0)
        reach: dict[int, dict[int, int]] = {}
        for (i, s), (ts, _) in self.cover.items():
            by_t = reach.setdefault(i, {})
            by_t[ts[-1]] = by_t.get(ts[-1], 0) | 1 << (top - s)
        self.rows = {i: _at_least(by_t) for i, by_t in reach.items()}

    def covering(self, need: list, shift: int = 0) -> int:
        """Bitset of the terms whose exponent is ``>= -e`` at ``(i, s - shift)``
        for every ``((i, s), e)`` of ``need``: the terms that cover ``need``
        once ``tau_shift`` moves them."""
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
        """The shifts ``r`` at which, for each ``((i, s), e)`` of ``need`` on
        its own, some term has ``-e`` or more at ``(i, s - r)``: one AND of
        row masks, each moved to bit ``r + top - s0`` (``s0`` the first
        pair's row).  A shift below ``s0 - top`` is out of the first pair's
        reach, so the bits a mask moved right loses are never needed."""
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
        return [b + s0 - self.top for b in _bits(mask)]


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def anchor_join(
    walked: QChar, indexed: QChar, anchor: Optional[int] = None
) -> dict[int, dict[LMonomial, int]]:
    """The dominant part of ``walked * tau_r(indexed)``, by shift ``r``.

    ``m1 * tau_r(m2)`` is dominant iff each term covers every negative
    exponent of the other with a positive one.  Only ``indexed`` is indexed
    (``_JoinIndex``, kept on the character); each walked term's negative
    pairs are taken as it is walked.  They give its candidate shifts
    (``_JoinIndex.shifts``, or ``anchor`` alone), and at each candidate one
    ``covering`` call gives the indexed terms that cover them; each is kept
    if the walked term covers that term's shifted negative keys in turn.  A
    dominant walked term meets each non-dominant indexed term at the shifts
    that carry that term's first negative key onto one of its own keys, and
    each dominant indexed term at every shift: the top products.

    Returns ``{r: {product: multiplicity}}``, each dict the whole dominant
    part at ``r``, top products included.  With ``anchor``, ``anchor`` is
    the one key.  Without it, the keys are the shifts at which a pair other
    than two dominant terms is dominant; at every other shift the dominant
    part is the top products alone.
    """
    if walked.n != indexed.n:
        raise InvalidInput(f"rank mismatch: {walked.n} != {indexed.n}")
    index = indexed._join_index()
    imonos, imults, ineeds = index.monos, index.mults, index.needs
    out: dict[int, dict[LMonomial, int]] = {} if anchor is None else {anchor: {}}
    tops: list[tuple[LMonomial, int]] = []

    def join(m: LMonomial, c: int, r: int, cand: int) -> None:
        # keep the candidates whose negative keys, moved by r, the walked term covers
        exps = {(i, s - r): e for (i, s), e in m.items()} if r else dict(m.items())
        for j in _bits(cand):
            for key, e in ineeds[j]:
                if exps.get(key, 0) < -e:
                    break
            else:
                p = m * transform(imonos[j], "tau", r)
                found = out.setdefault(r, {})
                found[p] = found.get(p, 0) + c * imults[j]

    for m, c in walked._all_terms().items():
        need = [kv for kv in m.items() if kv[1] < 0]
        if not need:
            tops.append((m, c))
            # the shifts that carry a term's first negative key onto a key of m
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


# Bound on each cache: the q-characters (each with its join index once a
# join indexes it), the Drinfeld polynomials of affinizations and of KR
# modules, and in ``tensor`` the normal-form reports, the per-group spectra
# of ``spectra_by_anchor`` with the group's transported affinization and
# resonance table, and the members of the two tableau families.  A sweep
# builds KR characters at anchor 0 only; the ``tensor`` command builds its
# point's KR character at its own anchor.  The golden sweep holds 72
# characters, 122 affinization and 327 KR polynomials, 1,455 reports, 354
# groups (87 transported specs), 152 raised-column and 302 gap members; the
# n_max=lambda_sum_max=k_max=4 sweep 263, 475 and 792, 9,592 reports,
# 1,904 groups (355 transported specs), 802 and 1,150 members.  Only its
# reports evict.
CACHE_SIZE = 2048


@lru_cache(maxsize=CACHE_SIZE)
def drinfeld_of_spec(spec: MinAffSpec) -> LMonomial:
    """Drinfeld polynomial of the spec: product of its node strings."""
    m = LMonomial.identity(spec.n)
    for i, r in spec.anchors().items():
        m = m * y_string(spec.n, i, r, spec.lam[i - 1])
    return m


@lru_cache(maxsize=CACHE_SIZE)
def _kr_drinfeld(n: int, node: int, r: int, k: int) -> LMonomial:
    """Drinfeld polynomial of ``KRSpec(n, node, r, k)``, whose fields that
    constructor has checked: the string ``Y[node, r, k]``."""
    return y_string(n, node, r, k)


def highest_tableau(spec: MinAffSpec) -> Tableau:
    """The semi-standard tableau whose monomial is the Drinfeld polynomial:
    the polynomial's ``snake_shape`` filled with the columns 1..i."""
    shape = snake_shape(drinfeld_of_spec(spec))
    return Tableau(spec.n, shape, tuple(tuple(range(1, k + 1)) for k, _ in shape))


@lru_cache(maxsize=CACHE_SIZE)
def qchar(spec: MinAffSpec) -> QChar:
    """q-character of a minimal affinization via tableau enumeration.

    The terms are the monomials of ``semistandard_fillings`` over the
    Drinfeld polynomial's ``snake_shape``; no tableau is built.  Two checks
    follow, and a failure signals an implementation bug, never bad input:
    the character is thin (no monomial repeats; only when the term count
    falls short is the first repeated monomial looked for, to name it), and
    its unique dominant term is the Drinfeld polynomial.
    """
    omega = drinfeld_of_spec(spec)
    monos = [m for _, m in semistandard_fillings(spec.n, snake_shape(omega))]
    terms = dict.fromkeys(monos, 1)
    if len(terms) != len(monos):
        seen: set[LMonomial] = set()
        for m in monos:
            if m in seen:
                raise InvariantViolation(f"thinness violated: duplicate term {m}")
            seen.add(m)
    dominants = [m for m in terms if is_dominant(m)]
    if len(dominants) != 1 or dominants[0] != omega:
        raise InvariantViolation(
            f"expected a unique dominant term equal to the Drinfeld polynomial, got {dominants}"
        )
    return QChar(spec.n, terms)


def qchar_kr(kr: KRSpec) -> QChar:
    return qchar(kr.as_minaff())


def kr_qchar_by_partitions(n: int, r: int, k: int) -> QChar:
    """Independent q-character of the KR module Y[n,r,k] at the last node.

    Terms are indexed by partitions (j_1 >= ... >= j_k, 0 <= j_l <= n): the
    term of a partition multiplies the highest term by the inverse loop-root
    paths from node n down to n+1-j_l at spectral parameter r+2(k-l), the
    zero part contributing nothing.  The arguments are checked as
    ``KRSpec(n, n, r, k)`` checks them.
    """
    KRSpec(n, n, r, k)
    top = y_string(n, n, r, k)
    terms: dict[LMonomial, int] = {}

    def emit(prefix: list[int], m: LMonomial, l: int):
        if l > k:
            if m in terms:
                raise InvariantViolation(f"partition terms collide at {m}")
            terms[m] = 1
            return
        hi = prefix[-1] if prefix else n
        for j in range(hi, -1, -1):
            if j == 0:
                factor = LMonomial.identity(n)
            else:
                factor = expand_lroot_path(n, n, n + 1 - j, r + 2 * (k - l)).inverse()
            emit(prefix + [j], m * factor, l + 1)

    emit([], top, 1)
    if len(terms) != comb(n + k, k):
        raise InvariantViolation("partition count mismatch")
    return QChar(n, terms)


def _unit_rows(m: LMonomial) -> dict[int, list[int]] | None:
    """Node -> ascending parameters of ``m``'s variables; None unless each exponent is 1."""
    if not is_dominant(m):
        raise InvalidInput("recognition requires a dominant monomial")
    rows: dict[int, list[int]] = {}
    for (i, r), e in m.items():
        if e != 1:
            return None
        rows.setdefault(i, []).append(r)
    return rows or None


def recognize_minaff(m: LMonomial, direction: Direction) -> MinAffSpec | None:
    """The minimal affinization of ``direction`` whose Drinfeld polynomial is
    the dominant monomial ``m``, or None if there is none.

    The weight counts the variables at each node, and the top node's lowest
    spectral parameter is its anchor; together they fix the only candidate
    spec, which is returned if its Drinfeld polynomial is ``m``.  A
    ``direction`` other than "inc" or "dec" is invalid input, whatever ``m`` is.
    """
    _check_direction(direction)
    rows = _unit_rows(m)
    if rows is None:
        return None
    lam = tuple(len(rows.get(i, ())) for i in range(1, m.n + 1))
    i0 = max(rows)
    spec = MinAffSpec(m.n, lam, direction, rows[i0][0] - (1 - lam[i0 - 1]))
    return spec if drinfeld_of_spec(spec) == m else None


def recognize_kr(m: LMonomial) -> KRSpec | None:
    """The KR module at node 1 or n whose Drinfeld polynomial is the dominant
    monomial ``m`` (its lowest variable is the anchor), or None if there is none."""
    rows = _unit_rows(m)
    if rows is None or list(rows) not in ([1], [m.n]):
        return None
    ((node, rs),) = rows.items()
    kr = KRSpec(m.n, node, rs[0], len(rs))
    return kr if kr.drinfeld() == m else None


def weyl_dim(n: int, lam: tuple[int, ...]) -> int:
    """Dimension of the sl_{n+1} irreducible with highest weight ``lam``,
    which is checked as ``MinAffSpec`` checks its weight (zero allowed)."""
    lam = _require_weight(n, lam)
    num = 1
    den = 1
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            num *= _seg(lam, i, j) + j - i + 1
            den *= j - i + 1
    if num % den:
        raise InvariantViolation(f"Weyl dimension {num}/{den} is not an integer")
    return num // den
