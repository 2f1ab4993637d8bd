"""Brute-force enumeration used as ground truth.

Everything here is an exhaustive scan, pruned only by containment itself:
nothing is memoized or derived from the recurrences, so these counts are
what the faster engines are checked against.

Words are grown one letter at a time (:func:`iter_avoiders`) and a prefix
is dropped as soon as the compiled test :func:`vincular.perms.closes`
finds an occurrence ending at its last letter.  That loses no avoider: an
occurrence inside a prefix is an occurrence in every extension of it,
since bonds ask only for adjacent positions and a prefix keeps them
adjacent.  So a scan visits the prefixes of avoiders instead of all n!
words.  One walk can serve several pattern sets: it drops a prefix on a
pattern that all of them hold and keeps a flag per set for the rest, so
the two linear pairs of :func:`oracle_report`, which share 12-3, are
grown together.  Runtimes are still exponential in n: on one core of a
2-core machine with Python 3.11, ``oracle_report(10)`` takes about 4.4 s
and ``oracle_report(11)`` about 31 s, so sizes up to 11 are practical.

The enumeration partitions naturally by leading letters and shares no
mutable state but the cache of compiled tests, whose entries never change
once made, so the functions are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Sequence

# avoids_linear and avoids_circular stay bound here for the benchmark tracer.
from .perms import (
    VincularPattern,
    Word,
    avoids_circular,
    avoids_linear,
    closes,
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


def _walk(
    n: int, sets: tuple[tuple[VincularPattern, ...], ...], first: Word = ()
) -> Iterator[tuple[Word, int]]:
    """Words of [n] that start with first and avoid every pattern of at
    least one of sets, in lexicographic order, each with the bit mask of
    the sets it avoids (bit k for sets[k]).

    One walk serves all the sets.  A prefix is dropped as soon as a
    pattern common to every set closes it.  Any other pattern that closes
    it clears the bits of its sets, and the prefix is dropped once no bit
    is left.  The walk keeps its own stack, so each word reaches the
    caller through one generator only.
    """
    shared = [p for p in sets[0] if all(p in s for s in sets[1:])]
    prune = tuple(closes(p) for p in shared)
    flags = tuple((1 << k, closes(p))
                  for k, s in enumerate(sets) for p in s if p not in shared)

    def survives(word: Word, alive: int) -> int:
        """alive less the bits of the sets that a pattern closing word
        belongs to; 0 when word is dropped."""
        for test in prune:
            if test(word):
                return 0
        for bit, test in flags:
            if alive & bit and test(word):
                alive ^= bit
        return alive

    alive = (1 << len(sets)) - 1
    for m in range(len(first) + 1):
        alive = survives(first[:m], alive)
        if not alive:
            return
    stack = [(first, tuple(x for x in range(1, n + 1) if x not in first), alive)]
    while stack:
        prefix, rest, alive = stack.pop()
        if len(rest) <= 2:
            # At most two words lie below: finish them here rather than
            # push and pop one more node for each.
            for tail in permutations(rest):
                word, bits = prefix, alive
                for x in tail:
                    word += (x,)
                    bits = survives(word, bits)
                    if not bits:
                        break
                else:
                    yield word, bits
            continue
        # Pushed from the largest letter down, so popped in lexicographic order.
        for i in range(len(rest) - 1, -1, -1):
            word = prefix + (rest[i],)
            bits = survives(word, alive)
            if bits:
                stack.append((word, rest[:i] + rest[i + 1:], bits))


def iter_avoiders(
    n: int, patterns: Iterable[VincularPattern], first: Sequence[int] = ()
) -> Iterator[Word]:
    """Words of [n] that start with first and avoid every pattern linearly,
    in lexicographic order.

    A prefix is extended only while no pattern closes it, so each word is
    built from avoiding prefixes alone.
    """
    first = tuple(first)
    if len(set(first)) != len(first) or not all(1 <= x <= n for x in first):
        raise ValueError(f"first must be distinct letters of 1..{n}: {first!r}")
    for word, _ in _walk(n, (tuple(patterns),), first):
        yield word


def count_linear_avoiders(n: int, patterns: Iterable[VincularPattern]) -> int:
    return sum(1 for _ in iter_avoiders(n, patterns))


def _circular_avoiders(n: int, patterns: tuple[VincularPattern, ...]) -> Iterator[Word]:
    """Canonical words (first letter 1) of the cyclic classes of [n] whose
    rotations all avoid patterns.

    The walk prunes on the canonical rotation, which must avoid too, and
    so has found rotation 0 not closed; each survivor then gets the closed
    test on rotations 1..n-1 (see :func:`vincular.perms.avoids_circular`).
    """
    if n < 1:
        raise ValueError("n must be positive")
    tests = [closes(p) for p in patterns]
    for rep in iter_avoiders(n, patterns, first=(1,)):
        if not any(test(rep[m:] + rep[:m]) for m in range(1, n) for test in tests):
            yield rep


def count_circular_avoiders(
    n: int, patterns: Iterable[VincularPattern] = (CIRCULAR_PATTERN,)
) -> int:
    """Number of cyclic classes of [n] all of whose rotations avoid patterns."""
    return sum(1 for _ in _circular_avoiders(n, tuple(patterns)))


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


@dataclass(frozen=True)
class OracleReport:
    """Every brute-force count for one size, from pruned scans of [n];
    circular lists the canonical circular avoiders in lexicographic order."""

    n: int
    count_l: int
    circular: tuple[Word, ...]
    v: tuple[int, ...]
    b_cells: dict[tuple[int, int], int]
    c_cells: dict[tuple[int, int], int]

    @property
    def count_circular(self) -> int:
        return len(self.circular)


def oracle_report(n: int) -> OracleReport:
    """Compute count_l, the circular avoiders, and all v/b/c cells at size n.

    One pruned walk grows the avoiders of the reduced pair and those of
    the last-letter pair together.  The first give count_l and the b/c
    cells, the second v.  A pass over the canonical words gives the
    circular avoiders.
    """
    if n < 1:
        raise ValueError("n must be positive")
    count_l = 0
    v = [0] * (n + 1)
    b_cells = {(i, j): 0 for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    c_cells = {k: 0 for k in b_cells}
    skip = held_out(n)
    for w, avoided in _walk(n, (REDUCED_PATTERNS, LAST_LETTER_PATTERNS)):
        if avoided & 1:
            count_l += 1
            if w != skip:
                klass = _classify(w, n)
                if klass == "b":
                    b_cells[(w[-2], w[-1])] += 1
                elif klass == "c":
                    c_cells[(w[-2], w[-1])] += 1
        if avoided & 2:
            v[w[-1]] += 1
    return OracleReport(
        n=n,
        count_l=count_l,
        circular=tuple(_circular_avoiders(n, (CIRCULAR_PATTERN,))),
        v=tuple(v),
        b_cells=b_cells,
        c_cells=c_cells,
    )


def delete_smallest(word: Word) -> Word:
    """Remove the letter 1 and standardize; the circular-to-linear map."""
    return standardize(tuple(x for x in word if x != 1))


def weighted_circular_sum(report: OracleReport, v0, u0):
    """Sum of v0^(s-2) * u0^(t-2) over the report's circular avoiders.

    s and t are the two letters directly before 1 when reading the
    canonical word cyclically (its last two letters).  Sizes 1 and 2 have
    no such pair of letters distinct from 1; their classes weigh 1.
    """
    if report.n < 3:
        return report.count_circular
    return sum(v0 ** (w[-2] - 2) * u0 ** (w[-1] - 2) for w in report.circular)
