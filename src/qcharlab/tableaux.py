"""Column tableaux with integer supports and their loop-weight monomials.

A column of length k with support starting at s holds boxes at the spectral
exponents s, s+2, ..., s+2(k-1); the box in row j (1-based, row 1 on top)
sits at support s+2(k-j).  Semi-standard means: columns strictly increase
top to bottom, support starts weakly decrease left to right, and whenever a
box (c, s) in one column has a neighbour (c', s-2) in the next column then
c >= c'.  ``Shape`` and ``Tableau`` are plain validated values (plain
``int``s, else ``InvalidInput``), and a ``Tableau`` is built only through
its constructor.

Each rule is written once.  The box rule, ``_box_keys``: content c at
support s raises the key (c, s + c - 1) if c <= n and lowers (c - 1, s + c)
if c >= 2, so a box carries ``Y[c-1, s+c]^-1 * Y[c, s+c-1]`` and a tableau
the product over its boxes; row j of a column of length k holds the
contents j..n+1-(k-j).  The box monomials, the search's tables and
``raise_bound`` read it with one call per box.  The column rule,
``snake_shape``: a dominant snake has one column ``(i, r - i + 1)`` per
variable ``Y[i, r]``, and every highest tableau's shape is the snake shape
of its Drinfeld polynomial.  The search order, ``filling_terms``: a bounded
search runs left to right, and an unbounded one runs mirrored exactly when
the last column is longer than the first (``longer_at_end``).

``filling_pairs`` is the one search.  It places boxes without recursion,
depth-first over columns left to right, each top to bottom, contents
ascending, and yields each filling's contents with its monomial's
canonical exponent tuple, building no tableau and no ``LMonomial``.
Beside the exponent vector of the boxes placed so far, indexed by the
sorted keys the shape can reach, it holds the live pairs: slot ``j`` holds
``(keys[j], e)``, or ``None`` at ``e = 0``, from a table built once per
search, so the terms of a character share their pairs and a term is the
held pairs in key order.  The last box runs in one inner loop at each
complete prefix, so a filling costs little more than its tuple.
``semistandard_fillings`` and ``enumerate_semistandard`` are views of the
same search, in the same order.

``mirrored_terms`` runs the same loop over the mirror of a shape: columns
right to left, each bottom to top, content ``c`` placed as ``n + 2 - c``.
The mirror is a bijection on semi-standard fillings.  A column's contents
increase strictly top to bottom exactly when its placed contents increase
strictly bottom to top, and a box ``(c, s)`` and its neighbour
``(c', s - 2)`` satisfy ``c >= c'`` exactly when ``n + 2 - c <= n + 2 - c'``,
so each box is still capped by its neighbour in the column placed just
before it.  Each box and content still moves the keys of its own
``(i, r)``, so a filling gives the same tuple in either order; only the
search tree shrinks, from the longer end of a shape, as on a decreasing
snake.

Settled keys.  Under a ``bound``, for each key ``(i, r)`` the largest
positive exponent a partner character has there, the search yields only
the fillings whose exponent at every key is at least its floor,
``-bound.get(key, 0)``: a term makes a dominant product with some partner
term only if each of its negative exponents is covered.  The exponent at
``(i, r)`` moves only when a box lands at support ``r - i + 1`` with
content ``i`` (+1) or at support ``r - i - 1`` with content ``i + 1``
(-1).  If any box can lower it, the last box in left-to-right order that
can move it is one that lowers it: a lowering box in an earlier column
than a raising one starts at ``r - i - 1`` or below, so the raising box's
column, starting no higher, has a box at ``r - i - 1`` right below it,
which can take content ``i + 1``.  Once that last lowering box is placed
the exponent is final, so the search checks it there and skips the
subtree when it is below its floor; a key that cannot fall below its floor
is never checked.  The proof is written for the left-to-right order, so a
bounded search runs left to right.

``raise_bound`` is the other side of that bound: for each key the number of
boxes that can raise it, which no filling's exponent there exceeds.  A
product of two held characters searches one factor under the other's raise
bound, so neither is searched whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidInput, require_int, require_rank, require_type
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
        require_type("tableau shape", self.shape, Shape)
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


def _box_keys(n: int, s: int, k: int, row: int) -> tuple[range, list, list]:
    """The box rule for the box at support ``s`` in ``row`` of a column of
    length ``k``: the contents it can take in a semi-standard filling,
    ``row .. n + 1 - (k - row)`` (in a full column, of length n + 1, row c
    holds content c alone), and, indexed by content, ``ups[c]``, the key
    ``c`` raises, ``(c, s + c - 1)`` if ``c <= n``, and ``downs[c]``, the
    key it lowers, ``(c - 1, s + c)`` if ``c >= 2``.  Every other entry of
    the two lists, indexed ``0 .. n + 2``, is ``None``, so a list reversed
    is indexed by the mirrored content ``n + 2 - c``."""
    contents = range(row, n + 2 - (k - row))
    ups: list = [None] * (n + 3)
    downs: list = [None] * (n + 3)
    for c in contents:
        if c <= n:
            ups[c] = (c, s + c - 1)
        if c >= 2:
            downs[c] = (c - 1, s + c)
    return contents, ups, downs


def monomial_of_box(n: int, content: int, s: int) -> LMonomial:
    """Monomial of one box: Y[content-1, s+content]^-1 * Y[content, s+content-1]."""
    require_rank(n)
    require_int("box content", content)
    require_int("box support", s)
    if not 1 <= content <= n + 1:
        raise InvalidInput(f"content {content} out of range 1..{n + 1}")
    _, ups, downs = _box_keys(n, s, n + 1, content)
    return LMonomial(n, [(key, e) for key, e in ((downs[content], -1), (ups[content], 1)) if key])


def monomial_of_tableau(t: Tableau) -> LMonomial:
    """Product of the box monomials of ``t``, its exponents summed in one
    pass over the boxes."""
    require_type("a tableau", t, Tableau)
    n = t.n
    acc: dict[tuple[int, int], int] = {}
    for c, s in t.boxes():
        _, ups, downs = _box_keys(n, s, n + 1, c)
        for key, e in ((ups[c], 1), (downs[c], -1)):
            if key:
                acc[key] = acc.get(key, 0) + e
    return LMonomial._make(n, tuple(sorted(kv for kv in acc.items() if kv[1])))


def is_semistandard(t: Tableau) -> bool:
    require_type("a tableau", t, Tableau)
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
    as its canonical exponent tuple, in the deterministic order of the
    module notes (lexicographic in the concatenated content sequence).

    ``bound`` maps keys ``(i, r)`` to nonnegative ``int``s; with it the
    search yields only the fillings whose exponent at every key is at least
    ``-bound.get(key, 0)``, in the same order, checking each key once it is
    settled (the module notes).
    """
    return _search(n, shape, bound, False)


def _require_shape(shape, user: str = "search") -> None:
    if not isinstance(shape, Shape):
        raise InvalidInput(f"the {user} needs a Shape, got {shape!r}")


def longer_at_end(shape: Shape) -> bool:
    """Whether the last column of ``shape`` is longer than its first: then
    the mirrored search (``mirrored_terms``) places fewer boxes per term."""
    _require_shape(shape)
    cols = shape.columns
    return bool(cols) and cols[-1][0] > cols[0][0]


def filling_terms(n: int, shape: Shape, bound: dict | None = None) -> list[tuple]:
    """The exponent tuples ``filling_pairs(n, shape, bound)`` yields, from
    the end of ``shape`` the order rule picks: a bounded search runs left
    to right, in ``filling_pairs`` order, and an unbounded one runs
    mirrored (``mirrored_terms``) exactly when ``longer_at_end(shape)``."""
    if bound is None and longer_at_end(shape):
        return mirrored_terms(n, shape)
    return [t for _, t in filling_pairs(n, shape, bound)]


def mirrored_terms(n: int, shape: Shape) -> list[tuple]:
    """The exponent tuples ``filling_pairs`` yields, each once, in the
    order of the mirrored search (the module notes); the rank and shape
    are checked as ``filling_pairs`` checks them."""
    return [t for _, t in _search(n, shape, None, True)]


def _search(
    n: int, shape: Shape, bound: dict | None, mirror: bool
) -> Iterator[tuple[list[int], tuple]]:
    """The one search loop: ``filling_pairs`` under ``bound``, or, with
    ``mirror`` and no bound, the search of ``mirrored_terms``, whose
    yielded contents are the placed ones, in its own box order."""
    require_rank(n)
    _require_shape(shape)
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
    # per box, in search order: its largest placed content, the keys each
    # placed content raises and lowers (``_box_keys``, indexed by the placed
    # content, n + 2 - c mirrored), and the index of its neighbour, the box
    # at support + step in the previous column (or -1); raises / lowers
    # count the boxes that can move each key
    top_caps: list[int] = []
    up_keys: list[list] = []
    down_keys: list[list] = []
    lefts: list[int] = []
    raises: dict = {}
    lowers: dict = {}
    first_rows: set[int] = set()
    prev: dict[int, int] = {}
    for k, s in cols:
        here: dict[int, int] = {}
        first_rows.add(len(lefts))
        for pos in range(1, k + 1):
            # the pos-th box placed in the column: row pos, or row k + 1 - pos mirrored
            row = k + 1 - pos if mirror else pos
            supp = box_support(k, s, row)
            contents, ups, downs = _box_keys(n, supp, k, row)
            for c in contents:
                if ups[c]:
                    raises[ups[c]] = raises.get(ups[c], 0) + 1
                if downs[c]:
                    lowers[downs[c]] = lowers.get(downs[c], 0) + 1
            if mirror:
                ups, downs = ups[::-1], downs[::-1]
            top_caps.append(n + 2 - contents.start if mirror else contents.stop - 1)
            up_keys.append(ups)
            down_keys.append(downs)
            here[supp] = len(lefts)
            lefts.append(prev.get(supp + step, -1))
        prev = here
    nboxes = len(lefts)
    if nboxes == 0:
        yield [], ()
        return
    # up[p][c] / down[p][c]: slot of the +1 / -1 factor of placed content c
    # at box p; boundary factors, and contents the box cannot take, go to a
    # spare last slot whose pairs are all None
    keys = sorted(raises.keys() | lowers.keys())
    slot: dict = {key: j for j, key in enumerate(keys)}
    spare = slot[None] = len(keys)
    at = slot.__getitem__
    up = [[*map(at, ups)] for ups in up_keys]
    down = [[*map(at, downs)] for downs in down_keys]
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

    Each box counts the keys its contents raise (``_box_keys``) over the
    contents its row can take, the ranges ``filling_pairs`` searches.
    """
    require_rank(n)
    _require_shape(shape, "bound")
    bound: dict[tuple[int, int], int] = {}
    for k, s in shape:
        for row in range(1, k + 1):
            for key in _box_keys(n, box_support(k, s, row), k, row)[1]:
                if key:
                    bound[key] = bound.get(key, 0) + 1
    return bound


def enumerate_semistandard(n: int, shape: Shape) -> Iterator[Tableau]:
    """Yield every semi-standard tableau of ``shape`` with contents in 1..n+1.

    A view of the one search (``filling_pairs``): the same order, each
    filling's contents cut into columns and passed to the ``Tableau``
    constructor.
    """
    _require_shape(shape)
    columns: list[slice] = []
    start = 0
    for k, _ in shape:
        columns.append(slice(start, start + k))
        start += k
    for contents, _ in filling_pairs(n, shape):
        yield Tableau(n, shape, [contents[cut] for cut in columns])
