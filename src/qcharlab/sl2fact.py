"""q-factorization of rank-1 dominant monomials into general-position strings.

A string (r, k) denotes Y[1,r] Y[1,r+2] ... Y[1,r+2(k-1)].  Two strings are
in general position when, writing each as a module parameter a = q^(r+k-1),
the exponent difference of the two parameters avoids +-(k1+k2-2p) for every
0 <= p < min(k1, k2).  Every dominant rank-1 monomial splits uniquely into
pairwise general-position strings; strings in general position tensor
irreducibly, so the factorization is the irreducibility criterion at rank 1
(Chari-Pressley).  ``q_factorize`` builds that splitting directly, in one
pass over the rows; the exhaustive search over all step-2 run partitions
survives only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidInput, InvariantViolation
from .lweight import LMonomial, _require_monomial, is_dominant, y_string


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


def q_factorize(m: LMonomial) -> StringList:
    """Unique splitting of a dominant rank-1 monomial into general-position strings.

    Built in one pass over the rows, lowest first: take the longest step-2
    run that starts at the lowest remaining row, remove it, and repeat.  The
    row just past a taken run is absent, so every later run either lies
    inside it or starts past the gap, and no two runs are linked; the
    distinct strings are still checked pairwise.  The identity factorizes
    into the empty list.
    """
    _require_monomial(m)
    if m.n != 1:
        raise InvalidInput(f"q-factorization is defined at rank 1, got rank {m.n}")
    if not is_dominant(m):
        raise InvalidInput("q-factorization requires a dominant monomial")
    counts = {r: e for (_, r), e in m.items()}
    strings = []
    for r0 in sorted(counts):
        while counts[r0]:
            k = 0
            while counts.get(r0 + 2 * k):
                counts[r0 + 2 * k] -= 1
                k += 1
            strings.append((r0, k))
    strings.sort()
    # equal strings are always in general position, so distinct pairs suffice
    for s1, s2 in combinations(sorted(set(strings)), 2):
        if not in_general_position(s1, s2):
            raise InvariantViolation(f"strings {s1} and {s2} of {m} are not in general position")
    return StringList(tuple(strings))
