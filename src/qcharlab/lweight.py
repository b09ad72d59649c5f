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
from functools import lru_cache
from typing import Iterable, Optional

from .errors import InvalidInput, require_int, require_rank

Key = tuple[int, int]  # (node i, spectral exponent r)


def _canonical(pairs: Iterable[tuple[Key, int]], n: int) -> tuple[tuple[Key, int], ...]:
    acc: dict[Key, int] = {}
    try:
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
    except InvalidInput:
        raise
    except (TypeError, ValueError):
        raise InvalidInput(f"pairs must be ((i, r), e) pairs, got {pairs!r}") from None
    return tuple(sorted(acc.items()))


class LMonomial:
    """Immutable Laurent monomial in the ``Y[i,r]`` over rank ``n``.

    Canonical form: zero exponents are never stored and keys are sorted by
    ``(i, r)``, so equality and hashing are structural.  The rank and every
    node, parameter and exponent must be a plain ``int`` (``require_int``),
    and ``pairs`` an iterable of ``((i, r), e)``; a malformed structure is
    ``InvalidInput`` too.
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
        # tested inline, so a product pays no call for the check
        if not isinstance(other, LMonomial):
            _require_monomial(other)
        if self.n != other.n:
            raise InvalidInput(f"rank mismatch: {self.n} != {other.n}")
        if not self._exps:
            return other
        if not other._exps:
            return self
        return LMonomial._make(self.n, product_exps(self._exps, other._exps))

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
        _require_monomial(other)
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
    """Integral weight of sl_{n+1} as its values on the coroots h_1..h_n:
    a positive plain ``int`` rank and one plain ``int`` per node, given as a
    tuple or list and stored as a tuple."""

    n: int
    coords: tuple[int, ...]

    def __post_init__(self):
        require_rank(self.n)
        if not isinstance(self.coords, (tuple, list)) or len(self.coords) != self.n:
            raise InvalidInput(f"weight of rank {self.n} needs {self.n} coordinates, got {self.coords!r}")
        object.__setattr__(self, "coords", tuple(self.coords))
        for v in self.coords:
            require_int("weight coordinate", v)


@dataclass(frozen=True)
class LRootDecomposition:
    """Exponents of a monomial written as a product of simple loop roots.

    ``factors`` maps ``(i, r)`` to the (positive) exponent of ``A[i,r]``.
    Uniqueness follows from the multiplicative independence of the loop
    roots, so two decompositions of the same monomial are identical.  The
    rank, nodes, parameters and exponents must be plain ``int``s, with nodes
    in ``1..n`` and exponents positive; a malformed structure is
    ``InvalidInput`` too.
    """

    n: int
    factors: tuple[tuple[Key, int], ...]

    def __post_init__(self):
        require_rank(self.n)
        try:
            factors = tuple(((i, r), c) for (i, r), c in self.factors)
        except (TypeError, ValueError):
            raise InvalidInput(f"factors must be ((i, r), c) pairs, got {self.factors!r}") from None
        object.__setattr__(self, "factors", factors)
        for (i, r), c in factors:
            for what, v in (("node", i), ("spectral parameter", r), ("exponent", c)):
                require_int(what, v)
            if not 1 <= i <= self.n or c < 1:
                raise InvalidInput(f"A[{i},{r}]^{c} needs a node in 1..{self.n} and a positive exponent")

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
    """The simple loop root A[i,r] expanded into Y-variables; ``n``, ``i``
    and ``r`` must be plain ``int``, with ``i`` in ``1..n``."""
    if not (type(n) is type(i) is type(r) is int):
        for what, v in (("rank", n), ("node", i), ("spectral parameter", r)):
            require_int(what, v)
    if not 1 <= i <= n:
        raise InvalidInput(f"node {i} out of range 1..{n}")
    pairs = [((i, r - 1), 1), ((i, r + 1), 1)]
    if i > 1:
        pairs.insert(0, ((i - 1, r), -1))
    if i < n:
        pairs.append(((i + 1, r), -1))
    return LMonomial._make(n, tuple(pairs))


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
    _require_monomial(m)
    coords = [0] * m.n
    for (i, _), e in m.items():
        coords[i - 1] += e
    return Weight(m.n, tuple(coords))


def is_dominant(m: LMonomial) -> bool:
    """True iff no inverted Y-variable appears (all stored exponents positive)."""
    _require_monomial(m)
    return dominant_exps(m._exps)


def product_exps(
    a: tuple[tuple[Key, int], ...], b: tuple[tuple[Key, int], ...]
) -> tuple[tuple[Key, int], ...]:
    """The canonical exponent tuple of the product of the monomials whose
    canonical exponent tuples are ``a`` and ``b``: one merge of the two
    sorted tuples, exponents summed on a shared key and a zero sum dropped.
    ``LMonomial.__mul__`` and ``minaff.anchor_join`` multiply here, and
    ``le`` divides here."""
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
    return tuple(out)


def dominant_exps(exps: tuple[tuple[Key, int], ...]) -> bool:
    """``is_dominant`` of the monomial whose canonical exponent tuple is ``exps``.

    A plain loop that returns at the first negative exponent: stored
    exponents are never zero, so that is the first one not positive."""
    for _, e in exps:
        if e < 0:
            return False
    return True


def right_negativity(m: LMonomial) -> tuple[int, bool]:
    """Maximal spectral exponent of ``m`` and whether ``m`` is right negative.

    Right negative means every Y-variable at the maximal spectral exponent
    appears inverted.  Undefined for the identity monomial.
    """
    _require_monomial(m)
    if m.is_identity:
        raise InvalidInput("right negativity is undefined for the identity monomial")
    r_max = max(r for (_, r), _ in m.items())
    rn = all(e < 0 for (_, r), e in m.items() if r == r_max)
    return r_max, rn


def _peel(n: int, pairs: Iterable[tuple[Key, int]], factors: Optional[dict[Key, int]]) -> bool:
    """Whether the monomial of the distinct ``pairs`` is a product of simple
    loop roots; each factor A[i,r] found is stored in ``factors`` if given.

    The rows ``{r: {i: e}}`` are visited once, ascending: at the lowest row
    only A[i,r+1]^e cancels Y[i,r]^e, and dividing it out touches rows r+1
    and r+2 only.  False at a negative exponent on the bottom row; True when
    every row is cleared.

    The peel ends by row R + n + 1, R the top row.  Past R the vectors y_r of
    factors peeled at row r obey y_{r+1} = Adj y_r - y_{r-1} (Adj the A_n
    adjacency matrix; the recurrence of the inverse quantum Cartan matrix,
    Hernandez-Leclerc, arXiv 1109.0862), whose solutions have the Coxeter
    periodicity y_{r+h} = -w(y_r), h = n + 1 and w(i) = h - i the diagram
    flip.  Peeled rows are nonnegative, so row R + n turns negative if
    y_{R-1} != 0, row R + n + 1 if y_{R-1} = 0 != y_R, and nothing is left
    above R if both are zero.
    """
    rows: dict[int, dict[int, int]] = {}
    for (i, r), e in pairs:
        row = rows.get(r)
        if row is None:
            rows[r] = {i: e}
        else:
            row[i] = e
    while rows:
        r = min(rows)
        up = None
        for i, e in rows.pop(r).items():
            if e <= 0:
                if e:
                    return False
                continue
            if up is None:
                up = rows.setdefault(r + 1, {})
                top = rows.setdefault(r + 2, {})
            top[i] = top.get(i, 0) - e
            if i > 1:
                up[i - 1] = up.get(i - 1, 0) + e
            if i < n:
                up[i + 1] = up.get(i + 1, 0) + e
            if factors is not None:
                factors[(i, r + 1)] = e
    return True


def _require_monomial(m) -> None:
    if not isinstance(m, LMonomial):
        raise InvalidInput(f"a monomial must be an LMonomial, got {m!r}")


def lroot_decompose(m: LMonomial) -> Optional[LRootDecomposition]:
    """Write ``m`` as a product of nonnegative powers of simple loop roots.

    Returns ``None`` when no such decomposition exists.  One bottom-up peel
    of ``m``'s rows (``_peel``) decides it and collects the factors; each
    row forces its factors, so the decomposition is unique.  ``m`` must be
    an ``LMonomial``.
    """
    _require_monomial(m)
    factors: dict[Key, int] = {}
    if not _peel(m.n, m._exps, factors):
        return None
    return LRootDecomposition(m.n, tuple(sorted(factors.items())))


# The most shift classes of quotients that ``le`` keeps answers for
# (``_peel_class``): a sweep's chain checks peel 26 classes on the
# golden grid and 101 on the n_max=lambda_sum_max=k_max=4 grid.
# ``tensor.clear_caches`` empties the memo.
PEEL_CACHE_SIZE = 1024


@lru_cache(maxsize=PEEL_CACHE_SIZE)
def _peel_class(n: int, quotient: tuple[tuple[Key, int], ...]) -> bool:
    """``_peel`` of a quotient whose lowest row is row 0, kept per quotient."""
    return _peel(n, quotient, None)


def le(m1: LMonomial, m2: LMonomial) -> bool:
    """Partial order: ``m1 <= m2`` iff ``m2 / m1`` lies in the positive root
    cone; ``m1`` and ``m2`` must have one rank.

    The quotient's pairs are one merge (``product_exps``) of the two sorted
    exponent tuples, ``m1``'s negated, and are moved to row 0 by
    subtracting the quotient's lowest row; the peel of ``lroot_decompose``
    decides the moved quotient, through a memo (``_peel_class``).  The
    memo is exact: the spectral shift tau_t maps A[i,r] to A[i,r+t], so q
    is a product of simple loop roots iff tau_t(q) is, and the moved
    quotient is the same for every member of q's shift class.  A sweep's
    chain checks fall into few such classes (26 for the golden sweep's
    2,502 calls), although few pairs repeat.  ``m1`` and ``m2`` that are
    not ``LMonomial``s are ``InvalidInput``.
    """
    if not (isinstance(m1, LMonomial) and isinstance(m2, LMonomial)):
        _require_monomial(m1)
        _require_monomial(m2)
    if m1.n != m2.n:
        raise InvalidInput(f"rank mismatch: {m1.n} != {m2.n}")
    out = product_exps(m2._exps, tuple([(key, -e) for key, e in m1._exps]))
    if not out:
        return True
    low = min([r for (_, r), _ in out])
    return _peel_class(m1.n, tuple([((i, r - low), e) for (i, r), e in out]))


def restrict(m: LMonomial, nodes: Iterable[int]) -> LMonomial:
    """Project onto a subdiagram: keep nodes in ``nodes``, relabelled to 1..|J|."""
    _require_monomial(m)
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
    """Apply one of the duality maps to a monomial, generator by generator,
    then the global spectral shift tau_t.

    With h = n+1:

    * ``star``:     Y[i,r] -> Y[n+1-i, r-h]   (dual Drinfeld polynomial)
    * ``star_inv``: Y[i,r] -> Y[n+1-i, r+h]
    * ``minus``:    Y[i,r] -> Y[i,-r]         (inverted spectral parameters)
    * ``kappa``:    Y[i,r] -> Y[n+1-i, -r-h]  (star of minus; an involution)
    * ``tau``:      no map, the shift alone

    After the map, every kind applies tau_t: Y[i,r] -> Y[i,r+t] (``t = 0``
    is no shift).  So ``transform(m, kind, t)`` equals
    ``transform(transform(m, kind), "tau", t)``, and a map followed by a
    shift costs one pass over the monomial.  ``m`` must be an ``LMonomial``
    and ``t`` a plain ``int``.
    Each map is a bijection of keys, so the result needs no merge: ``tau``
    keeps the key order and is built as it stands, and the other kinds sort
    their mapped pairs once.
    """
    _require_monomial(m)
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
        pairs = [((h - i, r - h + t), e) for (i, r), e in m.items()]
    elif kind == "star_inv":
        pairs = [((h - i, r + h + t), e) for (i, r), e in m.items()]
    elif kind == "minus":
        pairs = [((i, t - r), e) for (i, r), e in m.items()]
    else:
        pairs = [((h - i, t - r - h), e) for (i, r), e in m.items()]
    pairs.sort()
    return LMonomial._make(n, tuple(pairs))


def monomial_sort_key(m: LMonomial) -> tuple:
    """Deterministic total order refining the loop-root order downwards.

    The first entry is minus twice the root height of ``m`` (the sum of its
    weight's simple-root coordinates), computed in integers: node ``i`` has
    height ``i * (n + 1 - i) / 2`` times its weight coordinate.
    """
    h = m.n + 1
    return (-sum(e * i * (h - i) for (i, _), e in m.items()), m.items())
