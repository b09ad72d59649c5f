"""q-factorization of rank-1 dominant monomials into general-position strings.

A string (r, k) denotes Y[1,r] Y[1,r+2] ... Y[1,r+2(k-1)].  Two strings are
in general position when, writing each as a module parameter a = q^(r+k-1),
the exponent difference of the two parameters avoids +-(k1+k2-2p) for every
0 <= p < min(k1, k2).  Every dominant rank-1 monomial splits uniquely into
pairwise general-position strings; strings in general position tensor
irreducibly, so the factorization is the irreducibility criterion at rank 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput, InvariantViolation
from .lweight import LMonomial, is_dominant, y_string


@dataclass(frozen=True)
class StringList:
    """Strings (anchor, length) multiplying back to the factorized monomial."""

    strings: tuple[tuple[int, int], ...]

    def expand(self, n: int = 1) -> LMonomial:
        m = LMonomial.identity(n)
        for r, k in self.strings:
            m = m * y_string(n, 1, r, k)
        return m

    def json_text(self) -> str:
        """The strings as compact JSON, ``{"strings":[[r,k],...]}``."""
        strings = ",".join([f"[{r},{k}]" for r, k in self.strings])
        return f'{{"strings":[{strings}]}}'


def in_general_position(s1: tuple[int, int], s2: tuple[int, int]) -> bool:
    r1, k1 = s1
    r2, k2 = s2
    d = (r1 + k1) - (r2 + k2)
    return all(d != sign * (k1 + k2 - 2 * p) for p in range(min(k1, k2)) for sign in (1, -1))


def _string_partitions(counts: dict[int, int]) -> set[tuple[tuple[int, int], ...]]:
    """All ways to split a row multiset into step-2 runs, as sorted tuples.

    Some run must start at the smallest remaining row, so the recursion
    branches only on that run's length; repeated rows can reproduce the same
    multiset of runs along different branches, hence the set.
    """
    if not counts:
        return {()}
    out = set()
    r0 = min(counts)
    k = 1
    while True:
        rows = [r0 + 2 * l for l in range(k)]
        if any(counts.get(r, 0) < 1 for r in rows):
            break
        rest = dict(counts)
        for r in rows:
            rest[r] -= 1
            if not rest[r]:
                del rest[r]
        for tail in _string_partitions(rest):
            out.add(tuple(sorted(((r0, k),) + tail)))
        k += 1
    return out


def q_factorize(m: LMonomial) -> StringList:
    """Unique splitting of a dominant rank-1 monomial into general-position strings.

    Searches every partition of the Y-multiset into step-2 runs and keeps
    those whose strings are pairwise in general position; exactly one must
    survive.  The identity factorizes into the empty list.
    """
    if m.n != 1:
        raise InvalidInput(f"q-factorization is defined at rank 1, got rank {m.n}")
    if not is_dominant(m):
        raise InvalidInput("q-factorization requires a dominant monomial")
    counts = {r: e for (_, r), e in m.items()}
    valid = []
    for part in sorted(_string_partitions(counts)):
        if all(
            in_general_position(part[a], part[b])
            for a in range(len(part))
            for b in range(a + 1, len(part))
        ):
            valid.append(part)
    if len(valid) != 1:
        raise InvariantViolation(
            f"expected exactly one general-position splitting of {m}, found {len(valid)}"
        )
    return StringList(valid[0])
