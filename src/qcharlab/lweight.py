"""Exact arithmetic on the lattice of loop weights for type A_n.

A loop weight is a Laurent monomial in formal variables ``Y[i,r]`` where
``i`` is a Dynkin node in ``1..n`` and ``r`` an integer spectral exponent
(the power of ``q``).  Everything in this module is exact integer
combinatorics: no symbolic ``q``, no floating point.

The simple loop roots ``A[i,r]`` expand into Y-variables as

    A[i,r] = Y[i,r-1] * Y[i,r+1] * Y[i-1,r]^-1 * Y[i+1,r]^-1

with the boundary convention ``Y[0,r] = Y[n+1,r] = 1``.  The partial order
on monomials is ``m1 <= m2`` iff ``m2 / m1`` is a product of nonnegative
powers of the ``A[i,r]``; such a decomposition is unique when it exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import InvalidInput, require_int, require_rank

Key = tuple[int, int]  # (node i, spectral exponent r)


def _canonical(pairs: Iterable[tuple[Key, int]], n: int) -> tuple[tuple[Key, int], ...]:
    acc: dict[Key, int] = {}
    for (i, r), e in pairs:
        if not (type(i) is type(r) is type(e) is int):
            for what, v in (("node", i), ("spectral parameter", r), ("exponent", e)):
                require_int(what, v)
        if not 1 <= i <= n:
            raise InvalidInput(f"node {i} out of range 1..{n}")
        if e == 0:
            continue
        key = (i, r)
        new = acc.get(key, 0) + e
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)
    return tuple(sorted(acc.items()))


class LMonomial:
    """Immutable Laurent monomial in the ``Y[i,r]`` over rank ``n``.

    Canonical form: zero exponents are never stored and keys are sorted by
    ``(i, r)``, so equality and hashing are structural.  The rank and every
    node, parameter and exponent must be a plain ``int`` (``require_int``).
    """

    __slots__ = ("n", "_exps", "_hash")

    def __init__(self, n: int, pairs: Iterable[tuple[Key, int]] = ()):
        require_rank(n)
        exps = _canonical(pairs, n)
        _set_n(self, n)
        _set_exps(self, exps)
        _set_hash(self, hash((n, exps)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("LMonomial is immutable")

    def __reduce__(self):
        # the default slot-state restore would go through __setattr__
        return (LMonomial, (self.n, self._exps))

    @classmethod
    def identity(cls, n: int) -> "LMonomial":
        return cls(n)

    @classmethod
    def y(cls, n: int, i: int, r: int, e: int = 1) -> "LMonomial":
        return cls(n, (((i, r), e),))

    # -- mapping-style access ------------------------------------------------

    def items(self) -> tuple[tuple[Key, int], ...]:
        return self._exps

    def exponent(self, i: int, r: int) -> int:
        for key, e in self._exps:
            if key == (i, r):
                return e
        return 0

    @property
    def is_identity(self) -> bool:
        return not self._exps

    def rows(self) -> list[int]:
        """Distinct spectral exponents carrying a nonzero Y-exponent."""
        return sorted({r for (_, r), _ in self._exps})

    # -- group structure -----------------------------------------------------

    def __mul__(self, other: "LMonomial") -> "LMonomial":
        if self.n != other.n:
            raise InvalidInput(f"rank mismatch: {self.n} != {other.n}")
        a, b = self._exps, other._exps
        if not a:
            return other
        if not b:
            return self
        out = []
        ia = ib = 0
        la, lb = len(a), len(b)
        while ia < la and ib < lb:
            ka, ea = a[ia]
            kb, eb = b[ib]
            if ka == kb:
                e = ea + eb
                if e:
                    out.append((ka, e))
                ia += 1
                ib += 1
            elif ka < kb:
                out.append(a[ia])
                ia += 1
            else:
                out.append(b[ib])
                ib += 1
        out.extend(a[ia:])
        out.extend(b[ib:])
        return LMonomial._make(self.n, tuple(out))

    def inverse(self) -> "LMonomial":
        return LMonomial._make(self.n, tuple((k, -e) for k, e in self._exps))

    @staticmethod
    def _make(n: int, exps: tuple[tuple[Key, int], ...]) -> "LMonomial":
        """Build from exponents already in canonical form (sorted keys, no
        zero exponent), skipping the checks: the library's own results."""
        m = _new(LMonomial)
        _set_n(m, n)
        _set_exps(m, exps)
        _set_hash(m, hash((n, exps)))
        return m

    def __pow__(self, c: int) -> "LMonomial":
        require_int("exponent", c)
        if c == 0:
            return LMonomial.identity(self.n)
        return LMonomial(self.n, ((k, e * c) for k, e in self._exps))

    def __truediv__(self, other: "LMonomial") -> "LMonomial":
        return self * other.inverse()

    # -- comparisons / rendering ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LMonomial)
            and self.n == other.n
            and self._exps == other._exps
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LMonomial({self.n}, {self._exps!r})"

    def __str__(self) -> str:
        if not self._exps:
            return "1"
        parts = []
        for (i, r), e in self._exps:
            parts.append(f"Y[{i},{r}]" if e == 1 else f"Y[{i},{r}]^{e}")
        return " ".join(parts)

    def json_text(self) -> str:
        """The monomial as compact sorted-key JSON, ``{"Y":[[i,r,e],...],"n":N}``."""
        ys = ",".join([f"[{i},{r},{e}]" for (i, r), e in self._exps])
        return f'{{"Y":[{ys}],"n":{self.n}}}'

    @classmethod
    def from_json(cls, data: dict) -> "LMonomial":
        """The monomial of parsed ``json_text``; it must be an object whose
        keys are exactly ``n`` and ``Y``, and every number must be a JSON
        integer (exact types: true is not 1, and 1.5 or "1" is not 1)."""
        if not isinstance(data, dict):
            got = json.dumps(data, separators=(",", ":"))
            raise InvalidInput(f"a monomial must be a JSON object, got {got}")
        unknown = set(data) - {"n", "Y"}
        if unknown:
            raise InvalidInput(f"unknown monomial keys: {sorted(unknown)}")
        missing = sorted({"n", "Y"} - set(data))
        if missing:
            raise InvalidInput(f"monomial is missing keys {missing}")
        n, ys = data["n"], data["Y"]
        if type(n) is not int or type(ys) is not list:
            raise InvalidInput("n must be an integer and Y a list")
        for y in ys:
            if type(y) is not list or len(y) != 3 or any(type(v) is not int for v in y):
                raise InvalidInput(f"each Y entry must be three integers [i, r, e], got {y!r}")
        return cls(n, (((i, r), e) for i, r, e in ys))


# the slots' own setters, which bypass the immutable ``__setattr__``
_new = object.__new__
_set_n = LMonomial.n.__set__
_set_exps = LMonomial._exps.__set__
_set_hash = LMonomial._hash.__set__


@dataclass(frozen=True)
class Weight:
    """Integral weight of sl_{n+1} as its values on the coroots h_1..h_n."""

    n: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.n:
            raise InvalidInput("coordinate vector length must equal the rank")


@dataclass(frozen=True)
class LRootDecomposition:
    """Exponents of a monomial written as a product of simple loop roots.

    ``factors`` maps ``(i, r)`` to the (positive) exponent of ``A[i,r]``.
    Uniqueness follows from the multiplicative independence of the loop
    roots, so two decompositions of the same monomial are identical.
    """

    n: int
    factors: tuple[tuple[Key, int], ...]

    @property
    def total(self) -> int:
        return sum(c for _, c in self.factors)

    def expand(self) -> LMonomial:
        m = LMonomial.identity(self.n)
        for (i, r), c in self.factors:
            m = m * (expand_simple_lroot(self.n, i, r) ** c)
        return m


def y_string(n: int, i: int, r: int, k: int) -> LMonomial:
    """Product Y[i,r] Y[i,r+2] ... Y[i,r+2(k-1)]; ``k = 0`` gives the identity."""
    if not (type(n) is type(i) is type(r) is type(k) is int):
        for what, v in (("rank", n), ("node", i), ("spectral parameter", r), ("string length", k)):
            require_int(what, v)
    if not 1 <= i <= n:
        raise InvalidInput(f"node {i} out of range 1..{n}")
    if k < 0:
        raise InvalidInput(f"string length must be nonnegative, got {k}")
    return LMonomial._make(n, tuple([((i, r + 2 * l), 1) for l in range(k)]))


def expand_simple_lroot(n: int, i: int, r: int) -> LMonomial:
    """The simple loop root A[i,r] expanded into Y-variables."""
    if not 1 <= i <= n:
        raise InvalidInput(f"node {i} out of range 1..{n}")
    pairs = [((i, r - 1), 1), ((i, r + 1), 1)]
    if i - 1 >= 1:
        pairs.append(((i - 1, r), -1))
    if i + 1 <= n:
        pairs.append(((i + 1, r), -1))
    return LMonomial(n, pairs)


def expand_lroot_path(n: int, from_node: int, to_node: int, r: int) -> LMonomial:
    """Expanded product of simple loop roots along a Dynkin path.

    Ascending (``from_node <= to_node``): prod_{k=from}^{to} A[k, r+k-from+1].
    Descending (``from_node > to_node``): prod_{k=to}^{from} A[from+to-k, r+k-to+1].
    Equal endpoints give the single factor A[from, r+1].
    """
    if not (type(n) is type(from_node) is type(to_node) is type(r) is int):
        for what, v in (("rank", n), ("node", from_node), ("node", to_node), ("spectral parameter", r)):
            require_int(what, v)
    for node in (from_node, to_node):
        if not 1 <= node <= n:
            raise InvalidInput(f"node {node} out of range 1..{n}")
    m = LMonomial.identity(n)
    if from_node <= to_node:
        for k in range(from_node, to_node + 1):
            m = m * expand_simple_lroot(n, k, r + k - from_node + 1)
    else:
        for k in range(to_node, from_node + 1):
            m = m * expand_simple_lroot(n, from_node + to_node - k, r + k - to_node + 1)
    return m


def weight_of(m: LMonomial) -> Weight:
    """Weight of a monomial: coordinate i is the sum of all Y[i,*] exponents."""
    coords = [0] * m.n
    for (i, _), e in m.items():
        coords[i - 1] += e
    return Weight(m.n, tuple(coords))


def is_dominant(m: LMonomial) -> bool:
    """True iff no inverted Y-variable appears (all stored exponents positive)."""
    return all(e > 0 for _, e in m.items())


def right_negativity(m: LMonomial) -> tuple[int, bool]:
    """Maximal spectral exponent of ``m`` and whether ``m`` is right negative.

    Right negative means every Y-variable at the maximal spectral exponent
    appears inverted.  Undefined for the identity monomial.
    """
    if m.is_identity:
        raise InvalidInput("right negativity is undefined for the identity monomial")
    r_max = max(r for (_, r), _ in m.items())
    rn = all(e < 0 for (_, r), e in m.items() if r == r_max)
    return r_max, rn


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
    """Sum of the simple-root coordinates of ``weight_of(m)``.

    Strictly monotone along the loop-root order: ``m1 < m2`` implies
    ``root_height(m1) < root_height(m2)``, which makes it a valid sort key
    for chains of dominant monomials.
    """
    return Fraction(sum(scaled_root_coords(weight_of(m))), m.n + 1)


def lroot_decompose(m: LMonomial) -> Optional[LRootDecomposition]:
    """Write ``m`` as a product of nonnegative powers of simple loop roots.

    Returns ``None`` when no such decomposition exists.  The per-node factor
    totals are forced by the weight (inverse Cartan matrix, in integers
    scaled by ``n + 1``); the spectral placement is then forced row by row
    from the bottom: at the minimal occupied spectral exponent r0 only
    factors A[i,r0+1] can contribute, with multiplicity equal to the stored
    exponent at (i,r0).
    """
    n = m.n
    h = n + 1
    scaled = scaled_root_coords(weight_of(m))
    if any(t < 0 or t % h for t in scaled):
        return None
    budget = sum(scaled) // h
    work: dict[Key, int] = dict(m.items())
    factors: dict[Key, int] = {}
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


def le(m1: LMonomial, m2: LMonomial) -> bool:
    """Partial order: ``m1 <= m2`` iff ``m2 / m1`` lies in the positive root cone."""
    if m1.n != m2.n:
        raise InvalidInput(f"rank mismatch: {m1.n} != {m2.n}")
    return lroot_decompose(m2 / m1) is not None


def restrict(m: LMonomial, nodes: Iterable[int]) -> LMonomial:
    """Project onto a subdiagram: keep nodes in ``nodes``, relabelled to 1..|J|."""
    nodes = list(nodes)
    for i in nodes:
        require_int("node", i)
    J = sorted(set(nodes))
    if not J:
        raise InvalidInput("restriction to the empty subdiagram is not defined")
    if J[0] < 1 or J[-1] > m.n:
        raise InvalidInput(f"nodes {J} not contained in 1..{m.n}")
    relabel = {i: pos + 1 for pos, i in enumerate(J)}
    keep = set(J)
    return LMonomial(
        len(J),
        (((relabel[i], r), e) for (i, r), e in m.items() if i in keep),
    )


_TRANSFORM_KINDS = ("star", "star_inv", "minus", "kappa", "tau")


def transform(m: LMonomial, kind: str, t: int = 0) -> LMonomial:
    """Apply one of the duality maps to a monomial, generator by generator.

    With h = n+1:

    * ``star``:     Y[i,r] -> Y[n+1-i, r-h]   (dual Drinfeld polynomial)
    * ``star_inv``: Y[i,r] -> Y[n+1-i, r+h]
    * ``minus``:    Y[i,r] -> Y[i,-r]         (inverted spectral parameters)
    * ``kappa``:    Y[i,r] -> Y[n+1-i, -r-h]  (star of minus; an involution)
    * ``tau``:      Y[i,r] -> Y[i,r+t]        (global spectral shift by ``t``)

    ``t`` must be a plain ``int``.  Each map is a bijection of keys, so
    the result needs no merge: ``tau`` keeps the key order and is built as
    it stands (it is the one spectral shift of the package), and the other
    kinds sort their mapped pairs once.
    """
    if kind not in _TRANSFORM_KINDS:
        raise InvalidInput(f"unknown transform kind {kind!r}")
    require_int("shift", t)
    n = m.n
    if kind == "tau":
        if not t:
            return m
        return LMonomial._make(n, tuple([((i, r + t), e) for (i, r), e in m.items()]))
    h = n + 1
    if kind == "star":
        pairs = [((h - i, r - h), e) for (i, r), e in m.items()]
    elif kind == "star_inv":
        pairs = [((h - i, r + h), e) for (i, r), e in m.items()]
    elif kind == "minus":
        pairs = [((i, -r), e) for (i, r), e in m.items()]
    else:
        pairs = [((h - i, -r - h), e) for (i, r), e in m.items()]
    pairs.sort()
    return LMonomial._make(n, tuple(pairs))


def monomial_sort_key(m: LMonomial) -> tuple:
    """Deterministic total order refining the loop-root order downwards.

    The first entry is ``-2 * root_height(m)``, computed in integers: node
    ``i`` has height ``i * (n + 1 - i) / 2`` times its weight coordinate.
    """
    h = m.n + 1
    return (-sum(e * i * (h - i) for (i, _), e in m.items()), m.items())
