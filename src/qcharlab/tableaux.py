"""Column tableaux with integer supports and their loop-weight monomials.

A column of length k with support starting at s holds boxes at the spectral
exponents s, s+2, ..., s+2(k-1); the box in row j (1-based, row 1 on top)
sits at support s+2(k-j).  A box with content c at support s carries the
monomial ``Y[c-1, s+c]^-1 * Y[c, s+c-1]`` (boundary factors dropped), and a
tableau's monomial is the product over its boxes.

Semi-standard means: columns strictly increase top to bottom, support starts
weakly decrease left to right, and whenever a box (c, s) in one column has a
neighbour (c', s-2) in the next column then c >= c'.

``enumerate_semistandard`` keeps a running exponent vector while it places
boxes, so every tableau it yields already carries its monomial.  It builds
each ``((i, r), e)`` pair once per search, in one table, so the terms of a
character share their pairs instead of each holding copies.
``monomial_of_tableau`` returns that monomial, and computes (and remembers)
it in one pass over the boxes for a tableau built any other way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import getitem
from typing import Iterator

from .errors import InvalidInput
from .lweight import LMonomial


@dataclass(frozen=True)
class Shape:
    """Ordered columns given as (length, support-start) pairs.

    Construction rejects shapes whose picture would be disconnected: supports
    must share one parity and consecutive columns must at least touch
    diagonally (top of the next column no lower than one row below the
    bottom of the previous one).
    """

    columns: tuple[tuple[int, int], ...]

    def __post_init__(self):
        cols = tuple((int(k), int(s)) for k, s in self.columns)
        object.__setattr__(self, "columns", cols)
        for k, _ in cols:
            if k < 1:
                raise InvalidInput(f"column length must be positive, got {k}")
        for (k1, s1), (k2, s2) in zip(cols, cols[1:]):
            if s2 > s1:
                raise InvalidInput("support starts must be weakly decreasing")
            if (s1 - s2) % 2 != 0:
                raise InvalidInput("all supports must have the same parity")
            if s2 + 2 * (k2 - 1) < s1 - 2:
                raise InvalidInput("disconnected shape: columns do not touch")

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)


def box_support(length: int, start: int, row: int) -> int:
    """Support of the box in 1-based ``row`` of a column ``(length, start)``."""
    return start + 2 * (length - row)


@dataclass(frozen=True)
class Tableau:
    """A filling of a Shape with contents in 1..n+1.

    Contents need not be increasing: intermediate results of single-box
    raises are representable.  Semi-standardness is a predicate, not a
    construction invariant.

    ``_monomial`` memoizes ``monomial_of_tableau``.  It is a plain class
    attribute, not a field, so it takes no part in ``==``, ``hash`` or
    ``repr``.
    """

    n: int
    shape: Shape
    cols: tuple[tuple[int, ...], ...]
    _monomial = None

    @classmethod
    def _make(cls, n: int, shape: Shape, cols, monomial: LMonomial) -> "Tableau":
        """Build from already valid contents with a known monomial, skipping the checks."""
        t = object.__new__(cls)
        t.__dict__.update(n=n, shape=shape, cols=cols, _monomial=monomial)
        return t

    def __post_init__(self):
        cols = tuple(tuple(int(c) for c in col) for col in self.cols)
        object.__setattr__(self, "cols", cols)
        if len(cols) != len(self.shape):
            raise InvalidInput("number of content columns must match the shape")
        for (k, _), col in zip(self.shape, cols):
            if len(col) != k:
                raise InvalidInput("column entries must match the shape lengths")
            for c in col:
                if not 1 <= c <= self.n + 1:
                    raise InvalidInput(f"content {c} out of range 1..{self.n + 1}")

    def boxes(self) -> Iterator[tuple[int, int]]:
        """All (content, support) pairs, column by column, top to bottom."""
        for (k, s), col in zip(self.shape, self.cols):
            for row, c in enumerate(col, start=1):
                yield c, box_support(k, s, row)

    def column_boxes(self, j: int) -> dict[int, int]:
        """Support -> content map of the 1-based column ``j``."""
        k, s = self.shape.columns[j - 1]
        return {
            box_support(k, s, row): c
            for row, c in enumerate(self.cols[j - 1], start=1)
        }

    def __str__(self) -> str:
        if not self.cols:
            return "(empty tableau)"
        per_col = [self.column_boxes(j) for j in range(1, len(self.cols) + 1)]
        supports = sorted({s for col in per_col for s in col}, reverse=True)
        width = len(str(self.n + 1))
        lines = []
        for s in supports:
            cells = []
            for col in per_col:
                cells.append(str(col[s]).rjust(width) if s in col else " " * width)
            lines.append("|" + "|".join(cells) + f"|  s={s}")
        return "\n".join(lines)


def monomial_of_box(n: int, content: int, s: int) -> LMonomial:
    """Monomial of one box: Y[content-1, s+content]^-1 * Y[content, s+content-1]."""
    if not 1 <= content <= n + 1:
        raise InvalidInput(f"content {content} out of range 1..{n + 1}")
    pairs = []
    if content - 1 >= 1:
        pairs.append(((content - 1, s + content), -1))
    if content <= n:
        pairs.append(((content, s + content - 1), 1))
    return LMonomial(n, pairs)


def monomial_of_tableau(t: Tableau) -> LMonomial:
    """Product of the box monomials of ``t``.

    Tableaux yielded by ``enumerate_semistandard`` carry their monomial
    already.  For any other tableau the exponents are summed in one pass
    over the boxes and the result is memoized on ``t``.
    """
    m = t._monomial
    if m is None:
        n = t.n
        acc: dict[tuple[int, int], int] = {}
        for c, s in t.boxes():
            if c <= n:
                key = (c, s + c - 1)
                acc[key] = acc.get(key, 0) + 1
            if c >= 2:
                key = (c - 1, s + c)
                acc[key] = acc.get(key, 0) - 1
        m = LMonomial._make(n, tuple(sorted(kv for kv in acc.items() if kv[1])))
        object.__setattr__(t, "_monomial", m)
    return m


def is_semistandard(t: Tableau) -> bool:
    for col in t.cols:
        if any(a >= b for a, b in zip(col, col[1:])):
            return False
    for j in range(1, len(t.cols)):
        left = t.column_boxes(j)
        right = t.column_boxes(j + 1)
        for s, c_right in right.items():
            c_left = left.get(s + 2)
            if c_left is not None and c_left < c_right:
                return False
    return True


def enumerate_semistandard(n: int, shape: Shape) -> Iterator[Tableau]:
    """Yield every semi-standard tableau of ``shape`` with contents in 1..n+1.

    Deterministic order: depth-first over columns left to right, within a
    column top to bottom, contents ascending (lexicographic in the
    concatenated content sequence).

    The search runs over the boxes in that order without recursion and keeps
    the exponents of the boxes placed so far in a vector indexed by the
    ``(i, r)`` keys the shape can reach, sorted.  Each yielded tableau
    carries its monomial, read off the nonzero entries of that vector.
    """
    # per box, in search order: its support, its largest content, and the
    # index of the box at support + 2 in the previous column (or -1)
    supports: list[int] = []
    top_caps: list[int] = []
    lefts: list[int] = []
    columns: list[slice] = []
    prev: dict[int, int] = {}
    for k, s in shape:
        here: dict[int, int] = {}
        columns.append(slice(len(supports), len(supports) + k))
        for row in range(1, k + 1):
            supp = box_support(k, s, row)
            here[supp] = len(supports)
            supports.append(supp)
            # leave room for the strictly increasing boxes below
            top_caps.append(n + 1 - (k - row))
            lefts.append(prev.get(supp + 2, -1))
        prev = here
    first_rows = {col.start for col in columns}
    nboxes = len(supports)
    if nboxes == 0:
        yield Tableau._make(n, shape, (), LMonomial._make(n, ()))
        return

    # up[p][c] / down[p][c]: slot of the +1 / -1 factor of content c at box p;
    # boundary factors go to a spare last slot that is never read back
    keys = sorted(
        {(c, s + c - 1) for s in supports for c in range(1, n + 1)}
        | {(c - 1, s + c) for s in supports for c in range(2, n + 2)}
    )
    slot = {key: j for j, key in enumerate(keys)}
    spare = len(keys)
    # pairs[j][e] is the one (keys[j], e) every yielded monomial shares; each
    # box moves one slot by +1 and another by -1, so |e| <= nboxes, and a
    # negative e indexes from the end
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
            yield Tableau._make(
                n,
                shape,
                tuple(map(tuple, map(contents.__getitem__, columns))),
                LMonomial._make(n, tuple(map(getitem, compress(pairs, values), filter(None, values)))),
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
