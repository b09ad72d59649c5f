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
the tableaux; a whole search runs from the longer end of the shape.  For a
KR module at the last node an independent partition-indexed formula
provides the same set of terms.  A ``QChar`` holds its terms as the
search's canonical exponent tuples and builds ``LMonomial`` objects only
where a caller reads monomials; a held one (``held_qchar``) runs the
search only when read, and in a product only for the terms its partner can
cover; of two held factors, the second is searched under the first's raise
bound, and the first under the terms found, so neither is searched whole.

``anchor_join`` is the one dominant-pair join: it gives the whole dominant
part of ``walked * tau_r(indexed)``, the products of two dominant terms
included, at one shift ``r`` or at every shift.  Only the indexed character
gets a join index, built on its exponent tuples; the walked one is read
tuple by tuple, in one pass per term, and the products are merged as
exponent tuples, with one ``LMonomial`` per distinct product.
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
    dominant_exps,
    expand_lroot_path,
    is_dominant,
    monomial_sort_key,
    product_exps,
    y_string,
)
from .tableaux import (
    Shape,
    Tableau,
    filling_pairs,
    longer_at_end,
    mirrored_terms,
    raise_bound,
    snake_shape,
)

# not used here since ``qchar`` reads exponent tuples only, but still looked up
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
    # a valid tuple passes one test; only a failing weight runs the checks that name it
    if type(n) is int and n >= 1 and type(lam) is tuple and len(lam) == n:
        if all(type(v) is int and v >= 0 for v in lam):
            return lam
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


# sets a field of a frozen dataclass
_setattr = object.__setattr__


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
        # every cache of a sweep is keyed on a spec: hash the fields once
        _setattr(self, "_hash", hash((self.n, self.lam, self.direction, self.shift)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through the constructor: the hash of ``direction``, a str,
        # depends on the process's hash seed
        return (MinAffSpec, (self.n, self.lam, self.direction, self.shift))

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
        n, node, k = self.n, self.node, self.k
        # valid fields pass one test; only a failing one runs the checks that name it
        if type(n) is type(node) is type(self.r) is type(k) is int and n >= 1 and node in (1, n) and k >= 1:
            return
        require_rank(self.n)
        require_int("KR node", self.node)
        require_int("KR anchor", self.r)
        require_int("string length", self.k)
        if self.node not in (1, self.n):
            raise InvalidInput(f"node must be extreme (1 or {self.n}), got {self.node}")
        if self.k < 1:
            raise InvalidInput(f"string length must be positive, got {self.k}")

    def _at(self, r: int) -> "KRSpec":
        """This module moved to anchor ``r``: the other fields, checked when
        this one was built, are copied, and only ``r`` is checked."""
        if type(r) is not int:
            require_int("KR anchor", r)
        kr = object.__new__(KRSpec)
        # field by field, as the dataclass's own __init__ sets them
        _setattr(kr, "n", self.n)
        _setattr(kr, "node", self.node)
        _setattr(kr, "r", r)
        _setattr(kr, "k", self.k)
        return kr

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

    The terms are a dict from each monomial's canonical exponent tuple
    (``LMonomial.items()``) to its multiplicity; ``QChar(n, {LMonomial: c})``
    converts its keys once.  ``len``, ``dimension`` and ``==`` read the
    tuples; ``terms``, ``sorted_terms``, ``dominant_terms`` and
    ``json_text`` build ``LMonomial``s on each call.

    Two other forms hold no terms until something reads them all.  A held
    character (``held_qchar``) keeps its Drinfeld polynomial and runs the
    tableau search with ``qchar``'s checks on the first full read (``len``,
    ``terms``, ``dimension``, ``==``, the join index); ``qchar`` is that form
    searched at once.  A product character (``product``) holds its two
    factors and answers ``dominant_terms`` by ``anchor_join`` at anchor 0
    without forming the product.  With an unsearched held factor it walks
    that factor, searched only for the terms the other factor can cover
    (``filling_pairs`` under the other's top exponent at each key), against
    the other's join index, and leaves the held factor unsearched.  If the
    other factor is held and unsearched too, it is first searched only for
    the terms the held factor can cover (under the held factor's
    ``raise_bound``), and the walk runs against the index of those terms
    alone, so both factors stay unsearched.  With no held factor it
    walks the larger factor against the smaller one's index.  Everything
    else on a product convolves the factors once, on first use.  The rank
    must be a positive plain ``int`` (``require_rank``), the terms a dict
    keyed by ``LMonomial``s of that rank and every multiplicity a positive
    plain ``int``.
    """

    __slots__ = ("n", "_terms", "_factors", "_index", "_drinfeld")

    def __init__(self, n: int, terms: dict[LMonomial, int]):
        require_rank(n)
        if not isinstance(terms, dict):
            raise InvalidInput(f"terms must be a dict from LMonomial to multiplicity, got {terms!r}")
        for m, mult in terms.items():
            if not isinstance(m, LMonomial):
                raise InvalidInput(f"a term must be an LMonomial, got {m!r}")
            if m.n != n:
                raise InvalidInput("term rank mismatch")
            if type(mult) is not int or mult <= 0:
                require_int("multiplicity", mult)
                raise InvalidInput("multiplicities must be positive")
        self.n = n
        self._terms = {m.items(): mult for m, mult in terms.items()}
        self._factors = None
        self._index = None
        self._drinfeld = None

    @classmethod
    def _of(
        cls, n: int, terms: dict[tuple, int] | None, factors=None, drinfeld=None
    ) -> "QChar":
        """An unchecked character: exponent-tuple ``terms``, two ``factors``,
        or the ``drinfeld`` polynomial whose search gives the terms."""
        qc = object.__new__(cls)
        qc.n = n
        qc._terms = terms
        qc._factors = factors
        qc._index = None
        qc._drinfeld = drinfeld
        return qc

    @classmethod
    def product(cls, q1: "QChar", q2: "QChar") -> "QChar":
        """The product character ``q1 * q2``, held as its two factors; each
        factor must be a ``QChar``."""
        for q in (q1, q2):
            if not isinstance(q, QChar):
                raise InvalidInput(f"a product factor must be a QChar, got {q!r}")
        if q1.n != q2.n:
            raise InvalidInput(f"rank mismatch: {q1.n} != {q2.n}")
        return cls._of(q1.n, None, (q1, q2))

    def _all_terms(self) -> dict[tuple, int]:
        if self._terms is None:
            if self._factors is None:
                self._terms = _searched_terms(self._drinfeld)
            else:
                self._terms = _convolve(*self._factors)
        return self._terms

    def _unsearched(self) -> bool:
        """Held by its Drinfeld polynomial, with no full search run yet."""
        return self._terms is None and self._factors is None

    def _join_index(self) -> "_JoinIndex":
        if self._index is None:
            self._index = _JoinIndex(self._all_terms())
        return self._index

    def terms(self) -> dict[LMonomial, int]:
        n, make = self.n, LMonomial._make
        return {make(n, t): c for t, c in self._all_terms().items()}

    def __len__(self) -> int:
        return len(self._all_terms())

    @property
    def dimension(self) -> int:
        return sum(self._all_terms().values())

    def dominant_terms(self) -> list[tuple[LMonomial, int]]:
        n = self.n
        if self._factors is None:
            make = LMonomial._make
            out = [(make(n, t), c) for t, c in self._all_terms().items() if dominant_exps(t)]
        else:
            held, other = self._factors
            if not held._unsearched():
                held, other = other, held
            if held._unsearched():
                shape = snake_shape(held._drinfeld)
                if other._unsearched():
                    # no exponent of ``held`` exceeds its raise bound, so only the
                    # terms of ``other`` whose negative exponents it clears can
                    # meet a dominant product: search those, and index them alone
                    bound = raise_bound(n, shape)
                    other = QChar._of(n, _searched_terms(other._drinfeld, bound))
                # a term of ``held`` meets a dominant product only if ``other``
                # covers each of its negative exponents: search only those
                top = {key: ts[-1] for key, (ts, _) in other._join_index().cover.items()}
                walked, indexed = QChar._of(n, _searched_terms(held._drinfeld, top, shape)), other
            else:
                indexed, walked = sorted(self._factors, key=len)
            out = list(anchor_join(walked, indexed, 0)[0].items())
        out.sort(key=lambda mc: monomial_sort_key(mc[0]))
        return out

    def sorted_terms(self) -> list[tuple[LMonomial, int]]:
        return sorted(self.terms().items(), key=lambda mc: monomial_sort_key(mc[0]))

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


def _convolve(q1: QChar, q2: QChar) -> dict[tuple, int]:
    """Every term of ``q1 * q2``: all pairs' exponent tuples multiplied
    (``product_exps``), multiplicities summed; no ``LMonomial`` is built."""
    terms2 = q2._all_terms().items()
    terms: dict[tuple, int] = {}
    for t1, c1 in q1._all_terms().items():
        for t2, c2 in terms2:
            t = product_exps(t1, t2)
            terms[t] = terms.get(t, 0) + c1 * c2
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

    ``exps[j]`` and ``mults[j]`` are term ``j``'s canonical exponent tuple
    and multiplicity.  ``needs[j]`` holds the tuple's own pairs ``(key, e)``
    with ``e < 0`` (shared with the tuple, not copied): a partner must have
    ``-e`` or more at each such ``key``.  ``cover[key]`` pairs the positive
    exponents ``t`` at ``key``, ascending, with the bitsets of the terms
    whose exponent at ``key`` is ``>= t``.  ``rows[i]`` pairs the positive
    exponents ``t`` at node ``i`` with a mask of the rows ``s`` at which
    some term reaches ``t``, as bit ``top - s`` (``top`` is the highest
    such row).  No ``LMonomial`` is built.
    """

    __slots__ = ("exps", "mults", "needs", "cover", "rows", "top")

    def __init__(self, terms: dict[tuple, int]):
        self.exps = list(terms)
        self.mults = list(terms.values())
        self.needs = [tuple(kv for kv in t if kv[1] < 0) for t in self.exps]
        at: dict[Key, dict[int, list[int]]] = {}
        for j, t in enumerate(self.exps):
            for key, e in t:
                if e > 0:
                    at.setdefault(key, {}).setdefault(e, []).append(j)
        size = len(self.exps)
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

    def shifts(self, need: list) -> int:
        """The shifts ``r`` at which, for each ``((i, s), e)`` of ``need`` on
        its own, some term has ``-e`` or more at ``(i, s - r)``, as a mask:
        bit ``b`` is the shift ``b + s0 - top`` (``s0`` the first pair's
        row).  One AND of row masks, each moved by its pair's row less
        ``s0``.  A shift below ``s0 - top`` is out of the first pair's
        reach, so the bits a mask moved right loses are never needed."""
        s0 = need[0][0][1]
        mask = -1
        for (i, s), e in need:
            entry = self.rows.get(i)
            if entry is None:
                return 0
            ts, masks = entry
            at = bisect_left(ts, -e)
            if at == len(ts):
                return 0
            mask &= masks[at] << (s - s0) if s >= s0 else masks[at] >> (s0 - s)
            if not mask:
                return 0
        return mask


def _add_product(products: dict, t: tuple, x: tuple, r: int, c: int) -> None:
    """Add ``c`` to ``products`` at the exponent tuple of ``t * tau_r(x)``:
    ``x`` moved by ``r`` (which keeps its key order), merged with ``t``."""
    if r:
        x = tuple([((i, s + r), e) for (i, s), e in x])
    p = product_exps(t, x)
    products[p] = products.get(p, 0) + c


def anchor_join(
    walked: QChar, indexed: QChar, anchor: Optional[int] = None
) -> dict[int, dict[LMonomial, int]]:
    """The dominant part of ``walked * tau_r(indexed)``, by shift ``r``.

    ``m1 * tau_r(m2)`` is dominant iff each term covers every negative
    exponent of the other with a positive one.  Only ``indexed`` is indexed
    (``_JoinIndex``, kept on the character); the walked terms are read as
    exponent tuples in one pass each.  A walked term's negative pairs give
    its candidate shifts as one mask (``_JoinIndex.shifts``, or ``anchor``
    alone), read bit by bit; at each candidate the AND of the ``cover``
    bitsets at the pairs moved by ``-r`` gives the indexed terms that cover
    them, and each is kept if the walked term has ``-e`` or more at
    ``(i, s + r)`` for each of that term's negative pairs ``((i, s), e)``,
    read off one exponent dict per walked term, built only once the term
    has a candidate.  A dominant walked term meets each non-dominant
    indexed term at the shifts that carry that term's first negative key
    onto one of its own keys, and each dominant indexed term at every
    shift: the top products.

    Each product is the merge (``product_exps``) of the walked tuple with
    the partner's tuple moved by ``r``; multiplicities are summed on those
    tuples, and one ``LMonomial`` is built for each distinct product at the
    end.  Nothing of the walk is kept on either character.

    Returns ``{r: {product: multiplicity}}``, each dict the whole dominant
    part at ``r``, top products included.  Both characters must be
    ``QChar``s.  With ``anchor``, which must be a plain ``int``, ``anchor``
    is the one key.  Without it, the keys are the
    shifts at which a pair other than two dominant terms is dominant; at
    every other shift the dominant part is the top products alone.
    """
    for q in (walked, indexed):
        if not isinstance(q, QChar):
            raise InvalidInput(f"a joined character must be a QChar, got {q!r}")
    if anchor is not None:
        require_int("join anchor", anchor)
    if walked.n != indexed.n:
        raise InvalidInput(f"rank mismatch: {walked.n} != {indexed.n}")
    index = indexed._join_index()
    iexps, imults, ineeds, cover = index.exps, index.mults, index.needs, index.cover
    everyone = (1 << len(iexps)) - 1
    found: dict[int, dict[tuple, int]] = {} if anchor is None else {anchor: {}}
    tops: list[tuple[tuple, int]] = []

    for t, c in walked._all_terms().items():
        need = [kv for kv in t if kv[1] < 0]
        if not need:
            tops.append((t, c))
            # the shifts that carry a term's first negative key onto a key of t
            exps = dict(t)
            for j, jneed in enumerate(ineeds):
                if jneed:
                    (i0, s0), e0 = jneed[0]
                    for (i, s), e in t:
                        r = s - s0
                        if i == i0 and e >= -e0 and (anchor is None or anchor == r):
                            for (i1, s1), e1 in jneed:
                                if exps.get((i1, s1 + r), 0) < -e1:
                                    break
                            else:
                                _add_product(found.setdefault(r, {}), t, iexps[j], r, c * imults[j])
            continue
        if anchor is None:
            mask = index.shifts(need)
            base = need[0][0][1] - index.top
        else:
            mask, base = 1, anchor
        exps = None
        while mask:
            low = mask & -mask
            mask ^= low
            r = base + low.bit_length() - 1
            # the indexed terms that, moved by r, cover every negative pair of t
            cand = everyone
            for (i, s), e in need:
                entry = cover.get((i, s - r))
                if entry is None:
                    break
                ts, bitsets = entry
                at = bisect_left(ts, -e)
                if at == len(ts):
                    break
                cand &= bitsets[at]
                if not cand:
                    break
            else:
                if exps is None:
                    exps = dict(t)
                # keep the candidates whose negative pairs, moved by r, t covers
                while cand:
                    low = cand & -cand
                    cand ^= low
                    j = low.bit_length() - 1
                    for (i, s), e in ineeds[j]:
                        if exps.get((i, s + r), 0) < -e:
                            break
                    else:
                        _add_product(found.setdefault(r, {}), t, iexps[j], r, c * imults[j])
    itops = [(x, c) for x, c, need in zip(iexps, imults, ineeds) if not need]
    for r, products in found.items():
        for t1, c1 in tops:
            for t2, c2 in itops:
                _add_product(products, t1, t2, r, c1 * c2)
    n, make = walked.n, LMonomial._make
    return {r: {make(n, p): c for p, c in products.items()} for r, products in found.items()}


# Bound on each cache: the q-characters (each with its join index once a
# join indexes it), the Drinfeld polynomials of affinizations and of KR
# modules, the Weyl dimensions, the sweep's shared specs (62 golden, 242 at
# n <= 4), and in ``tensor`` the normal-form reports, the per-group spectra
# of ``spectra_by_anchor`` with the group's transported problem at anchor 0
# and resonance table, the quiet report templates, and the members of the
# two tableau families (gap members at anchor 0 only).  A sweep builds KR
# characters at anchor 0 only, and its quiet lines add no report; the
# texts its points share (``tensor.SweepGroup``: the loud anchors, the
# template, the spec and KR texts and omega's JSON entries) are held in a
# cache of one record (``maxsize=1``), not of this bound, and the chain
# check's answers per shift class of quotients in ``lweight``'s memo of at
# most ``PEEL_CACHE_SIZE`` (26 classes for the golden sweep, 101 at n <= 4),
# which ``tensor.clear_caches`` empties with these.  The ``tensor`` command
# caches no character, holding both of its point's modules.  The golden
# sweep holds 72 characters, 122 affinization and 266 KR polynomials, 511
# reports, 354 groups (261 transported problems), 10 templates, 152
# raised-column and 54 gap members; the n_max=lambda_sum_max=k_max=4 sweep
# 263, 475 and 680, asks for 3,631 distinct reports in 3,911 misses, 1,904
# groups (1,420 transported problems), 14 templates, 802 and 140 members.
# Only its reports evict.
CACHE_SIZE = 2048


@lru_cache(maxsize=CACHE_SIZE)
def _shared_spec(n: int, lam: tuple[int, ...], direction: Direction) -> MinAffSpec:
    """The one ``MinAffSpec(n, lam, direction)`` at shift 0 that the sweep's
    plan and its transports share, so that a cache keyed on a spec finds it
    by identity, not by ``==``; it persists across commands, as the caches
    of this module keyed on it do."""
    return MinAffSpec(n, lam, direction)


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


def _searched_terms(
    omega: LMonomial, bound: Optional[dict] = None, shape: Optional[Shape] = None
) -> dict[tuple, int]:
    """The terms of the snake ``omega``'s character: the exponent tuples of
    ``filling_pairs`` over its ``snake_shape``, under ``bound`` if given.
    A caller that holds that shape already passes it as ``shape``.  An
    unbounded search of a shape whose last column is longer than its first
    runs from that end (``mirrored_terms``): the same terms, in another
    order, from fewer box placements.

    No tableau or ``LMonomial`` is built.  Two checks on the tuples follow,
    and a failure signals an implementation bug, never bad input: no term
    repeats (only when the term count falls short is the first repeated
    term looked for, to name it), and the one dominant term is ``omega``,
    which no bound removes, having no negative exponent.
    """
    n, make = omega.n, LMonomial._make
    if shape is None:
        shape = snake_shape(omega)
    if bound is None and longer_at_end(shape):
        found = mirrored_terms(n, shape)
    else:
        found = [t for _, t in filling_pairs(n, shape, bound)]
    terms = dict.fromkeys(found, 1)
    if len(terms) != len(found):
        seen: set[tuple] = set()
        for t in found:
            if t in seen:
                raise InvariantViolation(f"thinness violated: duplicate term {make(n, t)}")
            seen.add(t)
    dominants = [t for t in terms if dominant_exps(t)]
    if dominants != [omega.items()]:
        raise InvariantViolation(
            "expected a unique dominant term equal to the Drinfeld polynomial, "
            f"got {[make(n, t) for t in dominants]}"
        )
    return terms


def held_qchar(spec: MinAffSpec) -> QChar:
    """q-character of a minimal affinization held by its Drinfeld
    polynomial: the tableau search runs on the first full read, and a
    product's ``dominant_terms`` searches only the terms the other factor
    can cover."""
    return QChar._of(spec.n, None, drinfeld=drinfeld_of_spec(spec))


@lru_cache(maxsize=CACHE_SIZE)
def qchar(spec: MinAffSpec) -> QChar:
    """q-character of a minimal affinization via tableau enumeration: the
    ``held_qchar`` of ``spec``, searched at once (``_searched_terms``), from
    the longer end of its shape.  The terms are those of ``filling_pairs``;
    their order is that search's only when the first column is at least as
    long as the last."""
    qc = held_qchar(spec)
    qc._all_terms()
    return qc


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
    # factors[l][j - 1]: the path of part j at the (l + 1)-th string step
    factors = [
        [expand_lroot_path(n, n, n + 1 - j, r + 2 * (k - l - 1)).inverse() for j in range(1, n + 1)]
        for l in range(k)
    ]
    terms: dict[LMonomial, int] = {}
    # a depth-first walk over the positive parts, from n down, with no
    # recursion: an entry is a term, its l positive parts so far and its
    # largest next part; hi = 0 marks a term whose extensions are done, as
    # the zero parts contribute nothing
    stack = [(y_string(n, n, r, k), 0, n)]
    while stack:
        m, l, hi = stack.pop()
        if hi and l < k:
            stack.append((m, l, 0))
            stack.extend([(m * factors[l][j - 1], l + 1, j) for j in range(1, hi + 1)])
            continue
        if m in terms:
            raise InvariantViolation(f"partition terms collide at {m}")
        terms[m] = 1
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
    monomial ``m``, or None: the one candidate has the node and parameter of
    ``m``'s first variable and one string step per variable."""
    if not is_dominant(m):
        raise InvalidInput("recognition requires a dominant monomial")
    if m.is_identity:
        return None
    (node, r), _ = m.items()[0]
    if node not in (1, m.n):
        return None
    kr = KRSpec(m.n, node, r, len(m.items()))
    return kr if kr.drinfeld() == m else None


def weyl_dim(n: int, lam: tuple[int, ...]) -> int:
    """Dimension of the sl_{n+1} irreducible with highest weight ``lam``,
    which is checked as ``MinAffSpec`` checks its weight (zero allowed).
    Cached per checked weight (at most ``CACHE_SIZE``): the check runs
    first, so an equal weight of another type never reads the cache."""
    return _weyl_dim(n, _require_weight(n, lam))


@lru_cache(maxsize=CACHE_SIZE)
def _weyl_dim(n: int, lam: tuple[int, ...]) -> int:
    num = 1
    den = 1
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            num *= _seg(lam, i, j) + j - i + 1
            den *= j - i + 1
    if num % den:
        raise InvariantViolation(f"Weyl dimension {num}/{den} is not an integer")
    return num // den
