"""Minimal affinizations and Kirillov-Reshetikhin modules for type A_n.

A minimal affinization is specified symbolically by (rank, highest weight,
direction, global spectral shift).  Its Drinfeld polynomial is a product of
node strings ``Y[i, r_i, lam_i]`` whose anchors satisfy a ladder relation:
with ``i0`` the top supported node and base anchor ``r_{i0} = 1 - lam_{i0}``,

    increasing:  r_i = r_{i0} - 2 * sum(lam[i..i0-1]) + i - i0
    decreasing:  r_i = r_{i0} + 2 * sum(lam[i+1..i0]) + i0 - i

The q-character is computed by enumerating the semi-standard tableaux with
the shape of the highest tableau; for a KR module at the last node an
independent partition-indexed formula provides the same set of terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

from .errors import InvalidInput, InvariantViolation
from .lweight import (
    LMonomial,
    PackedLayout,
    exponent_support,
    expand_lroot_path,
    is_dominant,
    monomial_sort_key,
    y_string,
)
from .tableaux import Shape, Tableau, enumerate_semistandard, monomial_of_tableau

Direction = str  # "inc" | "dec"


def _seg(lam: tuple[int, ...], a: int, b: int) -> int:
    """Sum lam[a..b] with 1-based inclusive bounds; empty when a > b."""
    if a > b:
        return 0
    return sum(lam[a - 1 : b])


@dataclass(frozen=True)
class MinAffSpec:
    """Symbolic minimal affinization: rank, weight, direction, spectral shift."""

    n: int
    lam: tuple[int, ...]
    direction: Direction = "inc"
    shift: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(int(v) for v in self.lam))
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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lambda": list(self.lam),
            "dir": self.direction,
            "shift": self.shift,
        }

    @classmethod
    def from_json(cls, data: dict) -> "MinAffSpec":
        return cls(
            int(data["n"]),
            tuple(int(v) for v in data["lambda"]),
            str(data.get("dir", "inc")),
            int(data.get("shift", 0)),
        )


@dataclass(frozen=True)
class KRSpec:
    """Kirillov-Reshetikhin module at an extreme node: Y[node, r, k]."""

    n: int
    node: int
    r: int
    k: int

    def __post_init__(self):
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

    def to_json(self) -> dict:
        return {"n": self.n, "node": self.node, "r": self.r, "k": self.k}

    @classmethod
    def from_json(cls, data: dict) -> "KRSpec":
        return cls(int(data["n"]), int(data["node"]), int(data["r"]), int(data["k"]))


class QChar:
    """A q-character: finite multiset of loop-weight monomials.

    A character is held either as a dict of monomials or, for product
    characters, as a dict of bit-packed integers with its ``PackedLayout``
    (see ``from_packed``).  A packed character answers ``len``,
    ``dimension`` and ``dominant_terms`` from the integers, decoding only
    the dominant terms; everything else decodes the whole dict once, on
    first use.  A character used as a factor keeps its own packings, one
    per field width (``packed_into``).
    """

    __slots__ = ("n", "_terms", "_packed", "_layout", "_support", "_packings")

    def __init__(self, n: int, terms: dict[LMonomial, int]):
        for m, mult in terms.items():
            if m.n != n:
                raise InvalidInput("term rank mismatch")
            if mult <= 0:
                raise InvalidInput("multiplicities must be positive")
        self.n = n
        self._terms = dict(terms)
        self._packed = None
        self._layout = None
        self._support = None
        self._packings = {}

    @classmethod
    def from_packed(cls, layout: PackedLayout, packed: dict[int, int]) -> "QChar":
        """A product character given as packed products with multiplicities.

        Distinct integers decode to distinct monomials, so ``packed`` is
        taken over as is; multiplicities must be positive.
        """
        qc = object.__new__(cls)
        qc.n = layout.n
        qc._terms = None
        qc._packed = packed
        qc._layout = layout
        qc._support = None
        qc._packings = {}
        return qc

    def _decoded(self) -> dict[LMonomial, int]:
        if self._terms is None:
            unpack = self._layout.unpack
            self._terms = {unpack(x): c for x, c in self._packed.items()}
        return self._terms

    def terms(self) -> dict[LMonomial, int]:
        return dict(self._decoded())

    def support(self) -> tuple[int, int, int]:
        """``exponent_support`` of the terms, computed once."""
        if self._support is None:
            self._support = exponent_support(self._decoded())
        return self._support

    def packed_into(self, layout: PackedLayout) -> list[tuple[int, int]]:
        """Terms with multiplicities, packed unbiased into ``layout``.

        The layout's rows must cover ``support()``.  The terms are packed
        once per field width, from the character's own lowest row, and
        shifted into place.
        """
        lo, hi, _ = self.support()
        own = self._packings.get(layout.width)
        if own is None:
            pack = PackedLayout(self.n, lo, hi, layout.width).pack
            own = self._packings[layout.width] = [
                (pack(m), c) for m, c in self._decoded().items()
            ]
        shift = layout.shift(lo)
        return [(x << shift, c) for x, c in own]

    def multiplicity(self, m: LMonomial) -> int:
        return self._decoded().get(m, 0)

    def __contains__(self, m: LMonomial) -> bool:
        return m in self._decoded()

    def __len__(self) -> int:
        return len(self._terms if self._packed is None else self._packed)

    @property
    def dimension(self) -> int:
        return sum((self._terms if self._packed is None else self._packed).values())

    def dominant_terms(self) -> list[tuple[LMonomial, int]]:
        if self._packed is None:
            out = [(m, c) for m, c in self._terms.items() if is_dominant(m)]
        else:
            layout = self._layout
            top = layout.top
            out = [(layout.unpack(x), c) for x, c in self._packed.items() if x & top == top]
        out.sort(key=lambda mc: monomial_sort_key(mc[0]))
        return out

    def sorted_terms(self) -> list[tuple[LMonomial, int]]:
        return sorted(self._decoded().items(), key=lambda mc: monomial_sort_key(mc[0]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QChar)
            and self.n == other.n
            and self._decoded() == other._decoded()
        )

    def __repr__(self) -> str:
        return f"QChar(n={self.n}, terms={len(self)}, dim={self.dimension})"

    def to_json(self) -> list:
        return [{"monomial": m.to_json(), "mult": c} for m, c in self.sorted_terms()]


@cache
def drinfeld_of_spec(spec: MinAffSpec) -> LMonomial:
    """Drinfeld polynomial of the spec: product of its node strings."""
    m = LMonomial.identity(spec.n)
    anchors = spec.anchors()
    for i in spec.supp():
        m = m * y_string(spec.n, i, anchors[i], spec.lam[i - 1])
    return m


def highest_tableau(spec: MinAffSpec) -> Tableau:
    """The semi-standard tableau whose monomial is the Drinfeld polynomial.

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
    shape_cols = []
    cols = []
    for i in nodes:
        r_i = anchors[i]
        for j in range(1, spec.lam[i - 1] + 1):
            shape_cols.append((i, r_i + 2 * (spec.lam[i - 1] - j) - i + 1))
            cols.append(tuple(range(1, i + 1)))
    return Tableau(spec.n, Shape(tuple(shape_cols)), tuple(cols))


@cache
def qchar(spec: MinAffSpec) -> QChar:
    """q-character of a minimal affinization via tableau enumeration.

    Checks as it goes that the character is thin (no monomial collision) and
    that the unique dominant term is the Drinfeld polynomial; a failure
    signals an implementation bug, never bad input.
    """
    top = highest_tableau(spec)
    terms: dict[LMonomial, int] = {}
    for t in enumerate_semistandard(spec.n, top.shape):
        m = monomial_of_tableau(t)
        if m in terms:
            raise InvariantViolation(f"thinness violated: duplicate term {m}")
        terms[m] = 1
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

    def spec(self, direction: Direction | None = None) -> MinAffSpec:
        if direction is None:
            direction = "inc" if -1 in self.epsilons else "dec"
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
