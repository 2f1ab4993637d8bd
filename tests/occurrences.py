"""The plain backtracking occurrence search, the reference the compiled
tests of :mod:`vincular.perms` are checked against.

Kept with the tests, since no route of the package calls it; pytest
collects no tests from this module.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from vincular.perms import VincularPattern, Word


def iter_occurrences(host: Sequence[int], pattern: VincularPattern) -> Iterator[Word]:
    """Yield the 0-based index tuples of occurrences, lexicographically.

    An occurrence is a strictly increasing index tuple whose host values are
    order-isomorphic to the pattern and which honors every bond.  The search
    is plain backtracking over index tuples; the only shortcuts are the
    forced next index under a bond and abandoning prefixes that already
    violate the relative order.
    """
    entries = pattern.entries
    bonds = pattern.bonds
    k = len(entries)
    n = len(host)
    if k == 0:
        yield ()
        return
    chosen: list[int] = []

    def consistent(pos: int, idx: int) -> bool:
        val = host[idx]
        pv = entries[pos]
        for m, prev_idx in enumerate(chosen):
            if (entries[m] < pv) != (host[prev_idx] < val):
                return False
        return True

    def extend(pos: int) -> Iterator[Word]:
        if pos == k:
            yield tuple(chosen)
            return
        if pos > 0 and (pos - 1) in bonds:
            candidates: Iterable[int] = (chosen[-1] + 1,)
        else:
            start = chosen[-1] + 1 if pos > 0 else 0
            candidates = range(start, n)
        for idx in candidates:
            if idx >= n:
                break
            if consistent(pos, idx):
                chosen.append(idx)
                yield from extend(pos + 1)
                chosen.pop()

    yield from extend(0)
