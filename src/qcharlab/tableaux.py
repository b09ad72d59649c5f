"""Column tableaux with integer supports and their loop-weight monomials.

A column of length k with support starting at s holds boxes at the spectral
exponents s, s+2, ..., s+2(k-1); the box in row j (1-based, row 1 on top)
sits at support s+2(k-j).  A box with content c at support s carries the
monomial ``Y[c-1, s+c]^-1 * Y[c, s+c-1]`` (boundary factors dropped), and a
tableau's monomial is the product over its boxes.

Semi-standard means: columns strictly increase top to bottom, support starts
weakly decrease left to right, and whenever a box (c, s) in one column has a
neighbour (c', s-2) in the next column then c >= c'.

``Shape`` and ``Tableau`` are plain validated values: every column length,
support start and content must be a plain ``int``, a malformed structure
is ``InvalidInput`` too, and a ``Tableau`` is built only through its
constructor.

``snake_shape`` is the one column rule: a dominant snake monomial has one
column ``(i, r - i + 1)`` per variable ``Y[i, r]``, and every highest
tableau's shape is the snake shape of its Drinfeld polynomial.

``filling_pairs`` is the one search.  It places boxes without recursion
and yields each filling's contents with its monomial's canonical exponent
tuple, building no tableau and no ``LMonomial``; ``qchar`` keeps only the
tuples.  Beside a running exponent vector it holds the live pairs: one
``((i, r), e)`` per nonzero slot, taken from a table built once per search,
so the terms of a character share their pairs and a term is the held pairs
in key order.  The last box runs in one inner loop at each complete prefix,
so a filling costs little more than its tuple.  Two views of the same
search, in the same order: ``semistandard_fillings`` wraps each tuple in an
``LMonomial``, and ``enumerate_semistandard`` builds a ``Tableau`` from each
filling's contents.  ``monomial_of_tableau`` sums a tableau's box exponents
in one pass and keeps no state.

``mirrored_terms`` runs the same search loop over the mirror of a shape:
columns right to left, each bottom to top, content ``c`` placed as
``n + 2 - c``.  The mirror is a bijection on semi-standard fillings.  A
column's contents increase strictly top to bottom exactly when its placed
contents increase strictly bottom to top.  A box ``(c, s)`` and its
neighbour ``(c', s - 2)`` in the next column satisfy ``c >= c'`` exactly
when ``n + 2 - c <= n + 2 - c'``, so each box is still capped by its
neighbour in the column placed just before it.  Each box and content still
moves the keys of its own ``(i, r)``, so a filling gives the same canonical
tuple in either order.  Only the size of the search tree depends on the
order: the search places fewer boxes per term from the longer end of a
shape.  The order rule is that an unbounded search (``qchar``) runs mirrored
exactly when the last column is longer than the first (``longer_at_end``),
as on a decreasing snake, and a bounded search always runs left to right.

``filling_pairs`` also takes a ``bound``: for each key ``(i, r)`` the
largest positive exponent a partner character has there.  A term can make
a dominant product with some partner term only if each of its negative
exponents is covered, so under the bound the search yields only the
fillings whose exponent at every key is at least ``-bound.get(key, 0)``,
the same ones in the same order as the full search filtered afterwards.
A key is checked once it is settled: every box that can move it has been
placed.  The last such box is always one that can lower it, since below a
box that can raise ``(i, r)`` sits, in its own column, a box that can lower
it whenever an earlier column can; so the check is made right after that
box, and a subtree below the floor is skipped whole.

``raise_bound`` is the other side of that bound: for each key ``(i, r)``
the number of boxes of a shape that can raise it, which no filling's
exponent there exceeds.  A product of two held characters searches one
factor under the other's raise bound, so neither is searched whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidInput, require_int, require_rank
from .lweight import LMonomial, is_dominant


@dataclass(frozen=True)
class Shape:
    """Ordered columns given as (length, support-start) pairs of plain ``int``s.

    Construction rejects shapes whose picture would be disconnected: supports
    must share one parity and consecutive columns must at least touch
    diagonally (top of the next column no lower than one row below the
    bottom of the previous one).
    """

    columns: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:
            cols = tuple((k, s) for k, s in self.columns)
        except (TypeError, ValueError):
            raise InvalidInput(
                f"shape columns must be (length, start) pairs, got {self.columns!r}"
            ) from None
        object.__setattr__(self, "columns", cols)
        for k, s in cols:
            require_int("column length", k)
            require_int("support start", s)
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


def snake_shape(m: LMonomial) -> Shape:
    """The shape of the snake ``m``: one column ``(i, r - i + 1)`` per
    variable ``Y[i, r]``, counted with its exponent, support starts decreasing.

    ``m`` must be dominant, and each two consecutive points ``(i, r)`` and
    ``(i', r')``, sorted by ``r``, must satisfy ``r' - r >= |i' - i| + 2``;
    ``Shape`` adds its own parity and touch rules.
    """
    if not is_dominant(m):
        raise InvalidInput(f"a snake must be dominant, got {m}")
    points = sorted(((i, r) for (i, r), e in m.items() for _ in range(e)), key=lambda p: p[1])
    for (i, r), (j, s) in zip(points, points[1:]):
        if s - r < abs(j - i) + 2:
            raise InvalidInput(f"not a snake: Y[{j},{s}] is too close to Y[{i},{r}]")
    return Shape(tuple((i, r - i + 1) for i, r in reversed(points)))


def box_support(length: int, start: int, row: int) -> int:
    """Support of the box in 1-based ``row`` of a column ``(length, start)``."""
    return start + 2 * (length - row)


@dataclass(frozen=True)
class Tableau:
    """A filling of a Shape with contents in 1..n+1.

    The shape must be a ``Shape`` and every content a plain ``int``; the
    columns may be given as lists and are stored as tuples.  Contents need
    not be increasing: intermediate results of single-box raises are
    representable.  Semi-standardness is a predicate, not a construction
    invariant.
    """

    n: int
    shape: Shape
    cols: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        require_rank(self.n)
        if not isinstance(self.shape, Shape):
            raise InvalidInput(f"tableau shape must be a Shape, got {self.shape!r}")
        try:
            cols = tuple(map(tuple, self.cols))
        except TypeError:
            raise InvalidInput(
                f"tableau columns must be sequences of contents, got {self.cols!r}"
            ) from None
        object.__setattr__(self, "cols", cols)
        if len(cols) != len(self.shape):
            raise InvalidInput("number of content columns must match the shape")
        for (k, _), col in zip(self.shape, cols):
            if len(col) != k:
                raise InvalidInput("column entries must match the shape lengths")
            for c in col:
                require_int("tableau content", c)
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
    """Product of the box monomials of ``t``, its exponents summed in one
    pass over the boxes."""
    n = t.n
    acc: dict[tuple[int, int], int] = {}
    for c, s in t.boxes():
        if c <= n:
            key = (c, s + c - 1)
            acc[key] = acc.get(key, 0) + 1
        if c >= 2:
            key = (c - 1, s + c)
            acc[key] = acc.get(key, 0) - 1
    return LMonomial._make(n, tuple(sorted(kv for kv in acc.items() if kv[1])))


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


def semistandard_fillings(n: int, shape: Shape) -> Iterator[tuple[list[int], LMonomial]]:
    """Yield ``(contents, monomial)`` for every semi-standard filling of ``shape``.

    ``contents`` lists the box contents in search order (column by column,
    top to bottom) and is the search's live buffer: it is overwritten as
    the search goes on, so copy it before the next step.  ``monomial`` is
    the ``LMonomial`` of the exponent tuple ``filling_pairs`` yields.  The
    rank must be a positive plain ``int`` and the shape a ``Shape``; both
    are checked once, before the first filling.
    """
    make = LMonomial._make
    for contents, exps in filling_pairs(n, shape):
        yield contents, make(n, exps)


def filling_pairs(
    n: int, shape: Shape, bound: dict | None = None
) -> Iterator[tuple[list[int], tuple]]:
    """The one search: ``semistandard_fillings`` with each monomial given
    as its canonical exponent tuple.

    Deterministic order: depth-first over columns left to right, within a
    column top to bottom, contents ascending (lexicographic in the
    concatenated content sequence).

    The search runs over the boxes in that order without recursion.  Beside
    the exponent vector of the boxes placed so far, indexed by the sorted
    ``(i, r)`` keys the shape can reach, it keeps the live pairs: slot ``j``
    holds ``(keys[j], e)`` for its exponent ``e``, or ``None`` at ``e = 0``,
    and each placed or removed box updates the two slots it moves.  A
    filling's exponent tuple is then the held pairs with the ``None``
    entries dropped, already in key order.  The last box is not a step of
    the search: at each complete prefix one loop runs its contents and
    yields a filling per content.

    ``bound`` maps keys ``(i, r)`` to nonnegative ``int``s; with it the
    search yields only the fillings whose exponent at every key is at least
    its floor, ``-bound.get(key, 0)``, in the same order.  The exponent at
    ``(i, r)`` moves only when a box lands at support ``r - i + 1`` with
    content ``i`` (+1) or at support ``r - i - 1`` with content ``i + 1``
    (-1).  If any box can lower it, the last box in search order that can
    move it is one that lowers it: a lowering box in an earlier column than
    a raising one starts at ``r - i - 1`` or below, so the raising box's
    column, starting no higher, has a box at ``r - i - 1`` right below it,
    which can take content ``i + 1``.  Once that last lowering box is placed
    the exponent is final, so the search checks it there and skips the
    subtree when it is below its floor.  A key that cannot fall below its
    floor is never checked, and without a bound none is.
    """
    return _search(n, shape, bound, False)


def longer_at_end(shape: Shape) -> bool:
    """Whether the last column of ``shape`` is longer than its first: then
    the mirrored search (``mirrored_terms``) places fewer boxes per term."""
    if not isinstance(shape, Shape):
        raise InvalidInput(f"the search needs a Shape, got {shape!r}")
    cols = shape.columns
    return bool(cols) and cols[-1][0] > cols[0][0]


def mirrored_terms(n: int, shape: Shape) -> list[tuple]:
    """The exponent tuples of every semi-standard filling of ``shape``, the
    ones ``filling_pairs`` yields, from the mirrored search: columns right
    to left, each bottom to top, content ``c`` placed as ``n + 2 - c``.

    Each box and content still moves the keys of its own ``(i, r)``, so
    every filling gives its own canonical tuple, once; only the order of
    the list differs.  The rank and shape are checked as ``filling_pairs``
    checks them.
    """
    return [t for _, t in _search(n, shape, None, True)]


def _search(
    n: int, shape: Shape, bound: dict | None, mirror: bool
) -> Iterator[tuple[list[int], tuple]]:
    """The one search loop: ``filling_pairs`` under ``bound``, or, with
    ``mirror`` and no bound, the search of ``mirrored_terms``, whose
    yielded contents are the placed ones, in its own box order."""
    require_rank(n)
    if not isinstance(shape, Shape):
        raise InvalidInput(f"the search needs a Shape, got {shape!r}")
    bounded = bound is not None
    if bounded:
        if not isinstance(bound, dict):
            raise InvalidInput(f"a search bound must be a dict, got {bound!r}")
        for key, b in bound.items():
            require_int("search bound", b)
            if b < 0:
                raise InvalidInput(f"a search bound must be nonnegative, got {b} at {key}")
    # mirrored, the column placed just before a box's own is the one to its
    # right, where its neighbour sits at support - 2
    cols, step = (shape.columns[::-1], -2) if mirror else (shape.columns, 2)
    # per box, in search order: its support, its largest and smallest
    # placed contents, and the index of its neighbour, the box at support
    # + step in the previous column (or -1)
    supports: list[int] = []
    top_caps: list[int] = []
    lows: list[int] = []
    lefts: list[int] = []
    first_rows: set[int] = set()
    prev: dict[int, int] = {}
    for k, s in cols:
        here: dict[int, int] = {}
        first_rows.add(len(supports))
        for pos in range(1, k + 1):
            # the pos-th box placed in the column: row pos, or row k + 1 - pos mirrored
            supp = box_support(k, s, k + 1 - pos if mirror else pos)
            here[supp] = len(supports)
            supports.append(supp)
            # leave room for the strictly increasing boxes placed after it
            top_caps.append(n + 1 - (k - pos))
            lows.append(pos)
            lefts.append(prev.get(supp + step, -1))
        prev = here
    nboxes = len(supports)
    if nboxes == 0:
        yield [], ()
        return

    # one pass over the contents each box can take: content c at support s
    # raises (c, s + c - 1) if c <= n and lowers (c - 1, s + c) if c >= 2;
    # the tables are indexed by the placed content, n + 2 - c mirrored;
    # raises / lowers count the boxes that can move each key so
    up_keys: list[list] = []
    down_keys: list[list] = []
    raises: dict = {}
    lowers: dict = {}
    for s, low, top in zip(supports, lows, top_caps):
        ups: list = [None] * (n + 2)
        downs: list = [None] * (n + 2)
        for placed in range(low, top + 1):
            c = n + 2 - placed if mirror else placed
            if c <= n:
                ups[placed] = key = (c, s + c - 1)
                raises[key] = raises.get(key, 0) + 1
            if c >= 2:
                downs[placed] = key = (c - 1, s + c)
                lowers[key] = lowers.get(key, 0) + 1
        up_keys.append(ups)
        down_keys.append(downs)
    # up[p][c] / down[p][c]: slot of the +1 / -1 factor of placed content c
    # at box p; boundary factors, and contents the box cannot take, go to a
    # spare last slot whose pairs are all None
    keys = sorted(raises.keys() | lowers.keys())
    slot: dict = {key: j for j, key in enumerate(keys)}
    spare = slot[None] = len(keys)
    up = [[slot[key] for key in ups] for ups in up_keys]
    down = [[slot[key] for key in downs] for downs in down_keys]
    # pairs[j][e] is the one (keys[j], e) every yielded monomial shares, and
    # None at e = 0; e lies between minus the boxes that can lower the key
    # and the boxes that can raise it, and a negative e indexes from the
    # end.  The spare slot takes every boundary factor, so its row spans
    # -nboxes..nboxes.
    pairs = [
        [(key, e) if e else None for e in (*range(raises.get(key, 0) + 1), *range(-lowers.get(key, 0), 0))]
        for key in keys
    ]
    pairs.append([None] * (2 * nboxes + 1))
    exps = [0] * (spare + 1)
    held: list = [None] * (spare + 1)

    # floors[p]: (slot, floor) for each key that box p is the last to lower,
    # when the boxes that can lower it can take it below its floor; the
    # search reads them only under a bound
    floors: list[list] = [[] for _ in range(nboxes)]
    if bounded:
        last_lower = {key: p for p, downs in enumerate(down_keys) for key in downs if key}
        for key, p in last_lower.items():
            b = bound.get(key, 0)
            if b < lowers[key]:
                floors[p].append((slot[key], -b))

    contents = [0] * nboxes
    caps = [0] * nboxes
    last = nboxes - 1
    up_last, down_last, last_floors = up[last], down[last], floors[last]
    p = 0
    caps[0] = top_caps[0]
    while True:
        if p == last:
            # the prefix is complete: every content of the last box that
            # leaves each key it last lowers at its floor or above is a
            # filling (a box never raises a key it can lower)
            for c in range(contents[p] + 1, caps[p] + 1):
                contents[p] = c
                u, d = up_last[c], down_last[c]
                if last_floors and not all(exps[k] - (k == d) >= f for k, f in last_floors):
                    continue
                held_u, held_d = held[u], held[d]
                held[u] = pairs[u][exps[u] + 1]
                held[d] = pairs[d][exps[d] - 1]
                yield contents, tuple(filter(None, held))
                held[u], held[d] = held_u, held_d
            # contents[p] >= caps[p] now, so the search backs up
        c = contents[p] + 1
        if c > caps[p]:
            if p == 0:
                return
            p -= 1
            c = contents[p]
            u, d = up[p][c], down[p][c]
            exps[u] -= 1
            held[u] = pairs[u][exps[u]]
            exps[d] += 1
            held[d] = pairs[d][exps[d]]
            continue
        contents[p] = c
        u, d = up[p][c], down[p][c]
        exps[u] += 1
        held[u] = pairs[u][exps[u]]
        exps[d] -= 1
        held[d] = pairs[d][exps[d]]
        p += 1
        contents[p] = 0 if p in first_rows else contents[p - 1]
        cap = top_caps[p]
        left = lefts[p]
        if left >= 0 and contents[left] < cap:
            cap = contents[left]
        caps[p] = cap
        if bounded:
            for k, f in floors[p - 1]:
                if exps[k] < f:
                    caps[p] = 0  # box p - 1 left a key below its floor: back up at once
                    break


def raise_bound(n: int, shape: Shape) -> dict[tuple[int, int], int]:
    """For each key ``(i, r)`` some box of ``shape`` can raise, the number of
    boxes that can: an upper bound on every filling's exponent there.

    A box raises ``(i, r)`` only at support ``r - i + 1`` with content
    ``i``, and the box in ``row`` of a column of length ``k`` takes the
    contents ``row .. n + 1 - (k - row)``, the ranges ``filling_pairs``
    searches; content ``n + 1`` raises nothing.
    """
    require_rank(n)
    if not isinstance(shape, Shape):
        raise InvalidInput(f"the bound needs a Shape, got {shape!r}")
    bound: dict[tuple[int, int], int] = {}
    for k, s in shape:
        for row in range(1, k + 1):
            supp = box_support(k, s, row)
            for c in range(row, min(n + 1 - (k - row), n) + 1):
                key = (c, supp + c - 1)
                bound[key] = bound.get(key, 0) + 1
    return bound


def enumerate_semistandard(n: int, shape: Shape) -> Iterator[Tableau]:
    """Yield every semi-standard tableau of ``shape`` with contents in 1..n+1.

    A view of the one search (``filling_pairs``): the same order, each
    filling's contents cut into columns and passed to the ``Tableau``
    constructor.
    """
    columns: list[slice] = []
    start = 0
    for k, _ in shape:
        columns.append(slice(start, start + k))
        start += k
    for contents, _ in filling_pairs(n, shape):
        yield Tableau(n, shape, [contents[cut] for cut in columns])
