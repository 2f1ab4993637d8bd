"""Brute-force enumeration used as ground truth.

Everything here works by exhaustive scan with the generic occurrence search
from :mod:`vincular.perms`; nothing is memoized or derived from the
recurrences, so these counts are what the faster engines are checked
against.  Runtimes are factorial in n; sizes up to 9 or 10 are practical.

The enumeration partitions naturally by leading letters and touches no
shared mutable state, so the functions are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _permutations
from typing import Iterable, Iterator

from .perms import (
    VincularPattern,
    Word,
    avoids_circular,
    avoids_linear,
    circular_classes,
    standardize,
)

# The circular pattern under study: 2341 with its first two letters bonded
# (grammar spelling "23-4-1").
CIRCULAR_PATTERN = VincularPattern((2, 3, 4, 1), bonds={0})

# Deleting the letter 1 from a circular word turns avoidance of the pattern
# above into linear avoidance of this pair ("12-3" and "4-1-23").
REDUCED_PATTERNS = (
    VincularPattern((1, 2, 3), bonds={0}),
    VincularPattern((4, 1, 2, 3), bonds={2}),
)

# Pair avoided by the v-array's permutations ("12-3" and "1-23").
LAST_LETTER_PATTERNS = (
    VincularPattern((1, 2, 3), bonds={0}),
    VincularPattern((1, 2, 3), bonds={1}),
)


def held_out(n: int) -> Word:
    """The word (n-1)(n-2)...1n, treated separately by the b/c split."""
    return tuple(range(n - 1, 0, -1)) + (n,)


def iter_words(n: int) -> Iterator[Word]:
    return _permutations(range(1, n + 1))


def count_linear_avoiders(n: int, patterns: Iterable[VincularPattern]) -> int:
    patterns = tuple(patterns)
    return sum(1 for w in iter_words(n) if avoids_linear(w, patterns))


def count_L(n: int) -> int:
    """Number of words of [n] avoiding both reduced patterns."""
    return count_linear_avoiders(n, REDUCED_PATTERNS)


def count_circular_avoiders(
    n: int, patterns: Iterable[VincularPattern] = (CIRCULAR_PATTERN,)
) -> int:
    """Number of cyclic classes of [n] all of whose rotations avoid patterns."""
    patterns = tuple(patterns)
    return sum(1 for rep in circular_classes(n) if avoids_circular(rep, patterns))


def _classify(w: Word, n: int) -> str | None:
    """'b' when 1 is right of n, 'c' when 1 left of n and 2 right of n.

    Returns None for the remaining split members (handled by deletion in
    the counting identities).
    """
    pos_one = w.index(1)
    pos_n = w.index(n)
    if pos_one > pos_n:
        return "b"
    if n >= 3 and w.index(2) > pos_n:
        return "c"
    return None


def marginals_by_last(cells: dict[tuple[int, int], int], n: int) -> tuple[int, ...]:
    """Sum cells over the penultimate letter; index = final letter."""
    out = [0] * (n + 1)
    for (_, j), cnt in cells.items():
        out[j] += cnt
    return tuple(out)


@dataclass(frozen=True)
class OracleReport:
    """Every brute-force count for one size, from a single scan of n!."""

    n: int
    count_l: int
    count_circular: int
    v: tuple[int, ...]
    b_cells: dict[tuple[int, int], int]
    c_cells: dict[tuple[int, int], int]

    @property
    def b_by_last(self) -> tuple[int, ...]:
        return marginals_by_last(self.b_cells, self.n)

    @property
    def c_by_last(self) -> tuple[int, ...]:
        return marginals_by_last(self.c_cells, self.n)


def oracle_report(n: int) -> OracleReport:
    """Compute count_L, the circular count, and all v/b/c cells at size n.

    Single pass over the n! words plus one pass over the (n-1)! cyclic
    classes; the per-word tests are the same dumb scans the standalone
    functions use.
    """
    if n < 1:
        raise ValueError("n must be positive")
    count_l = 0
    v = [0] * (n + 1)
    b_cells = {(i, j): 0 for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    c_cells = {k: 0 for k in b_cells}
    skip = held_out(n)
    for w in iter_words(n):
        if avoids_linear(w, REDUCED_PATTERNS):
            count_l += 1
            if w != skip:
                klass = _classify(w, n)
                if klass == "b":
                    b_cells[(w[-2], w[-1])] += 1
                elif klass == "c":
                    c_cells[(w[-2], w[-1])] += 1
        if avoids_linear(w, LAST_LETTER_PATTERNS):
            v[w[-1]] += 1
    return OracleReport(
        n=n,
        count_l=count_l,
        count_circular=count_circular_avoiders(n),
        v=tuple(v),
        b_cells=b_cells,
        c_cells=c_cells,
    )


def delete_smallest(word: Word) -> Word:
    """Remove the letter 1 and standardize; the circular-to-linear map."""
    return standardize(tuple(x for x in word if x != 1))


def reduction_counterexample(n: int) -> Word | None:
    """First canonical word where circular avoidance of the studied pattern
    disagrees with linear avoidance of the reduced pair after deleting 1.

    Returns None when the equivalence holds for every cyclic class of [n].
    """
    for rep in circular_classes(n):
        circ = avoids_circular(rep, (CIRCULAR_PATTERN,))
        lin = avoids_linear(delete_smallest(rep), REDUCED_PATTERNS)
        if circ != lin:
            return rep
    return None


def weighted_circular_sum(n: int, v0, u0):
    """Sum of v0^(s-2) * u0^(t-2) over avoiding cyclic classes of [n].

    s and t are the two letters directly before 1 when reading the
    canonical word cyclically (its last two letters).  Sizes 1 and 2 have
    no such pair of letters distinct from 1; their classes weigh 1.
    """
    total = 0
    for rep in circular_classes(n):
        if avoids_circular(rep, (CIRCULAR_PATTERN,)):
            if n >= 3:
                total += v0 ** (rep[-2] - 2) * u0 ** (rep[-1] - 2)
            else:
                total += 1
    return total
