"""Minimal affinizations and Kirillov-Reshetikhin modules for type A_n.

A minimal affinization is specified symbolically by (rank, highest weight,
direction, global spectral shift).  Its Drinfeld polynomial is a product of
node strings ``Y[i, r_i, lam_i]`` whose anchors satisfy a ladder relation:
with ``i0`` the top supported node and base anchor ``r_{i0} = 1 - lam_{i0}``,

    increasing:  r_i = r_{i0} - 2 * sum(lam[i..i0-1]) + i - i0
    decreasing:  r_i = r_{i0} + 2 * sum(lam[i+1..i0]) + i0 - i

The q-character is the set of monomials of the semi-standard fillings of
the highest tableau's shape, read off the search without building the
tableaux; for a KR module at the last node an independent
partition-indexed formula provides the same set of terms.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import InvalidInput, InvariantViolation
from .lweight import (
    Key,
    LMonomial,
    expand_lroot_path,
    is_dominant,
    monomial_sort_key,
    y_string,
)
from .tableaux import Shape, Tableau, semistandard_fillings

# not used here since ``qchar`` reads monomials only, but still looked up
# in this module by the benchmark's tracer (``perfbench/spans.py``)
from .tableaux import enumerate_semistandard, monomial_of_tableau  # noqa: F401

Direction = str  # "inc" | "dec"


def _seg(lam: tuple[int, ...], a: int, b: int) -> int:
    """Sum lam[a..b] with 1-based inclusive bounds; empty when a > b."""
    if a > b:
        return 0
    return sum(lam[a - 1 : b])


def _require_int(what: str, value) -> None:
    """Reject anything but a plain ``int`` (a ``bool`` included) rather than coerce it."""
    if type(value) is not int:
        raise InvalidInput(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class MinAffSpec:
    """Symbolic minimal affinization: rank, weight, direction, spectral shift."""

    n: int
    lam: tuple[int, ...]
    direction: Direction = "inc"
    shift: int = 0

    def __post_init__(self):
        _require_int("rank", self.n)
        if not isinstance(self.lam, (tuple, list)):
            raise InvalidInput(f"weight must be a tuple or list of integers, got {self.lam!r}")
        object.__setattr__(self, "lam", tuple(self.lam))
        for v in self.lam:
            _require_int("weight entry", v)
        _require_int("spectral shift", self.shift)
        if self.n < 1:
            raise InvalidInput(f"rank must be positive, got {self.n}")
        if len(self.lam) != self.n:
            raise InvalidInput("weight vector length must equal the rank")
        if any(v < 0 for v in self.lam):
            raise InvalidInput("weight entries must be nonnegative")
        if not any(self.lam):
            raise InvalidInput("weight must not be zero")
        if self.direction not in ("inc", "dec"):
            raise InvalidInput(f"direction must be 'inc' or 'dec', got {self.direction!r}")

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
        _require_int("rank", self.n)
        _require_int("KR node", self.node)
        _require_int("KR anchor", self.r)
        _require_int("string length", self.k)
        if self.n < 1:
            raise InvalidInput(f"rank must be positive, got {self.n}")
        if self.node not in (1, self.n):
            raise InvalidInput(f"node must be extreme (1 or {self.n}), got {self.node}")
        if self.k < 1:
            raise InvalidInput(f"string length must be positive, got {self.k}")

    def drinfeld(self) -> LMonomial:
        return y_string(self.n, self.node, self.r, self.k)

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
    ``dominant_terms`` by a join that walks the larger factor's terms
    against cover bitsets of the smaller one (see ``_dominant_join``),
    without forming the product; everything else on it convolves the
    factors once, on first use.
    """

    __slots__ = ("n", "_terms", "_factors", "_index")

    def __init__(self, n: int, terms: dict[LMonomial, int]):
        for m, mult in terms.items():
            if m.n != n:
                raise InvalidInput("term rank mismatch")
            if mult <= 0:
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
            out = list(_dominant_join(*self._factors).items())
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


class _JoinIndex:
    """One character's terms for ``_dominant_join``: term ``j`` is bit ``j``.

    ``needs[j]`` holds term ``j``'s own pairs ``(key, e)`` with ``e < 0``
    (shared with the term, not copied): a partner must have ``-e`` or more
    at each such ``key``.  ``cover`` is built on the first ``covering``
    call, so only for the factor a join indexes: ``cover[key]`` pairs the
    positive exponents ``t`` at ``key``, ascending, with the bitsets of the
    terms whose exponent at ``key`` is ``>= t``.
    """

    __slots__ = ("monos", "mults", "needs", "cover")

    def __init__(self, terms: dict[LMonomial, int]):
        self.monos = list(terms)
        self.mults = list(terms.values())
        self.needs = [tuple(kv for kv in m.items() if kv[1] < 0) for m in self.monos]
        self.cover = None

    def _build_cover(self) -> dict[Key, tuple[tuple[int, ...], tuple[int, ...]]]:
        at: dict[Key, dict[int, list[int]]] = {}
        for j, m in enumerate(self.monos):
            for key, e in m.items():
                if e > 0:
                    at.setdefault(key, {}).setdefault(e, []).append(j)
        size = len(self.monos)
        cover = {}
        for key, by_e in at.items():
            ts = sorted(by_e)
            acc, bitsets = 0, []
            for t in reversed(ts):
                acc |= _bitset(by_e[t], size)
                bitsets.append(acc)
            cover[key] = (tuple(ts), tuple(reversed(bitsets)))
        return cover

    def covering(self, need: tuple) -> int:
        """Bitset of the terms whose exponent is ``>= -e`` at every ``(key, e)`` of ``need``."""
        if self.cover is None:
            self.cover = self._build_cover()
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


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _dominant_join(q1: QChar, q2: QChar) -> dict[LMonomial, int]:
    """The dominant terms of ``q1 * q2``, from the dominant pairs only.

    ``m1 * m2`` is dominant iff each term covers every negative exponent of
    the other with a positive one.  The join indexes only the factor with
    fewer terms: for each term of the other factor, one AND of bitsets gives
    the indexed terms that cover its signature, and each of those is kept
    if the walked term covers its own signature in turn.
    """
    small, large = q1._join_index(), q2._join_index()
    if len(large.monos) < len(small.monos):
        small, large = large, small
    smonos, smults, sneeds = small.monos, small.mults, small.needs
    out: dict[LMonomial, int] = {}
    for m, c, need in zip(large.monos, large.mults, large.needs):
        cand = small.covering(need)
        if not cand:
            continue
        exps = dict(m.items())
        for j in _bits(cand):
            for key, e in sneeds[j]:
                if exps.get(key, 0) < -e:
                    break
            else:
                p = smonos[j] * m
                out[p] = out.get(p, 0) + smults[j] * c
    return out


# Bound on the q-characters (each with its join index once it joins, and the
# index's cover bitsets once it is the smaller factor of a join) and the
# Drinfeld polynomials kept in memory.  The four-variant sweep with
# n_max=lambda_sum_max=k_max=4 requests 1,196 distinct specs of each
# (the 5,820-point sweep with n_max=3 requests 412), so it never evicts.
CACHE_SIZE = 2048


@lru_cache(maxsize=CACHE_SIZE)
def drinfeld_of_spec(spec: MinAffSpec) -> LMonomial:
    """Drinfeld polynomial of the spec: product of its node strings."""
    m = LMonomial.identity(spec.n)
    anchors = spec.anchors()
    for i in spec.supp():
        m = m * y_string(spec.n, i, anchors[i], spec.lam[i - 1])
    return m


def highest_shape(spec: MinAffSpec) -> Shape:
    """The shape of the semi-standard tableau whose monomial is the Drinfeld polynomial.

    Columns are full increasing columns 1..i; block of node i has lam_i
    columns, the j-th starting at r_i + 2(lam_i - j) - i + 1.  Increasing
    specs order blocks from the top node down (longest columns first),
    decreasing specs the other way around; consecutive support starts differ
    by exactly 2 either way.
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


def highest_tableau(spec: MinAffSpec) -> Tableau:
    """The semi-standard tableau whose monomial is the Drinfeld polynomial:
    ``highest_shape`` filled with the columns 1..i."""
    shape = highest_shape(spec)
    return Tableau(spec.n, shape, tuple(tuple(range(1, k + 1)) for k, _ in shape))


@lru_cache(maxsize=CACHE_SIZE)
def qchar(spec: MinAffSpec) -> QChar:
    """q-character of a minimal affinization via tableau enumeration.

    The terms are the monomials of ``semistandard_fillings`` over the
    highest shape; no tableau is built.  Two checks follow, and a failure
    signals an implementation bug, never bad input: the character is thin
    (no monomial repeats; only when the term count falls short is the first
    repeated monomial looked for, to name it), and its unique dominant term
    is the Drinfeld polynomial.
    """
    monos = [m for _, m in semistandard_fillings(spec.n, highest_shape(spec))]
    terms = dict.fromkeys(monos, 1)
    if len(terms) != len(monos):
        seen: set[LMonomial] = set()
        for m in monos:
            if m in seen:
                raise InvariantViolation(f"thinness violated: duplicate term {m}")
            seen.add(m)
    dominants = [m for m in terms if is_dominant(m)]
    if len(dominants) != 1 or dominants[0] != drinfeld_of_spec(spec):
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
    zero part contributing nothing.
    """
    if k < 1:
        raise InvalidInput(f"string length must be positive, got {k}")
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


@dataclass(frozen=True)
class MinAffRecognition:
    """Result of recognising a dominant monomial as a minimal affinization.

    ``epsilons`` lists the admissible ladder signs: (-1,) increasing,
    (+1,) decreasing, or both when the support is a single node.  ``anchor``
    is the spectral anchor of the top supported node string.
    """

    n: int
    lam: tuple[int, ...]
    epsilons: tuple[int, ...]
    anchor: int

    def spec(self, direction: Direction) -> MinAffSpec:
        eps = -1 if direction == "inc" else 1
        if eps not in self.epsilons:
            raise InvalidInput(f"monomial does not admit direction {direction!r}")
        i0 = max(i for i in range(1, self.n + 1) if self.lam[i - 1])
        return MinAffSpec(self.n, self.lam, direction, self.anchor - (1 - self.lam[i0 - 1]))


def _p_ladder(lam: tuple[int, ...], i: int, j: int) -> int:
    """The ladder step between nodes i < j used in the recognition test."""
    return _seg(lam, i + 1, j) + _seg(lam, i, j - 1) + (j - i)


def recognize_minaff(m: LMonomial) -> MinAffRecognition | None:
    """Recognise a dominant monomial as the Drinfeld polynomial of a minimal
    affinization.

    Each supported node must carry a single multiplicity-one string of step
    two, and consecutive string anchors must follow the ladder relation with
    one sign for all pairs.  Returns None when the pattern does not match.
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
        return MinAffRecognition(n, lam_t, (-1, 1), anchors[supp[0]])
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
    return MinAffRecognition(n, lam_t, tuple(eps_ok), anchors[supp[-1]])


def recognize_kr(m: LMonomial) -> KRSpec | None:
    """Recognise a dominant monomial as a single extreme-node string."""
    rec = recognize_minaff(m)
    if rec is None:
        return None
    supp = [i for i in range(1, m.n + 1) if rec.lam[i - 1]]
    if len(supp) != 1 or supp[0] not in (1, m.n):
        return None
    return KRSpec(m.n, supp[0], rec.anchor, rec.lam[supp[0] - 1])


def weyl_dim(n: int, lam: tuple[int, ...]) -> int:
    """Dimension of the sl_{n+1} irreducible with highest weight ``lam``."""
    num = 1
    den = 1
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            num *= _seg(tuple(lam), i, j) + j - i + 1
            den *= j - i + 1
    if num % den:
        raise InvariantViolation(f"Weyl dimension {num}/{den} is not an integer")
    return num // den
