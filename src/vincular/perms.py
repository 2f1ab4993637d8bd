"""Words, rotations, and vincular pattern containment.

A permutation is handled as a tuple of the integers 1..n in one-line
notation ("word" form).  A vincular pattern is a pattern word together
with a set of bonds: positions where two consecutive pattern letters must
sit in adjacent host positions in any occurrence.

Circular permutations are identified with the set of words obtained by
repeatedly moving the last letter to the front; a circular word contains a
pattern when at least one of those rotations contains it linearly.

Avoidance runs on compiled tests.  :func:`closes` turns a pattern, once,
into a predicate that is true when some occurrence ends at the word's last
position: nested ``for`` loops generated from the pattern's integers, in
which a bonded position is a forced index and each letter is compared only
with its value neighbours among the letters placed before it.  A word
contains a pattern iff one of its prefixes is closed by it, and a circular
word iff one of its rotations is.  The same generator makes
:func:`threshold_scan`, which gives the least top (or greatest bottom)
letter of those occurrences instead of a yes or no.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Sequence

Word = tuple[int, ...]


def standardize(values: Sequence[int]) -> Word:
    """Replace each entry by its rank, smallest -> 1.

    >>> standardize((5, 2, 9))
    (2, 1, 3)
    >>> standardize((7, 3, 8, 1))
    (3, 2, 4, 1)
    """
    if len(set(values)) != len(values):
        raise ValueError(f"cannot standardize, entries not distinct: {values!r}")
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
    return tuple(rank[v] for v in values)


@dataclass(frozen=True, slots=True)
class VincularPattern:
    """A pattern word plus adjacency bonds.

    ``entries`` is a permutation of 1..k.  ``bonds`` is a set of 0-based
    positions t meaning pattern positions t and t+1 must occupy adjacent
    host positions in an occurrence.  No bonds gives a classical pattern;
    all k-1 bonds give a subword pattern.
    """

    entries: Word
    bonds: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        entries, bonds = tuple(self.entries), frozenset(self.bonds)
        k = len(entries)
        if sorted(entries) != list(range(1, k + 1)):
            raise ValueError(f"not a permutation of 1..{k}: {entries!r}")
        if any(t < 0 or t >= k - 1 for t in bonds):
            raise ValueError(f"bond positions must lie in 0..{k - 2}: {sorted(bonds)}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "bonds", bonds)


def closes(pattern: VincularPattern) -> Callable[[Sequence[int]], bool]:
    """The compiled test of pattern: true on a word of distinct letters
    when some occurrence ends at its last position.

    Compiled once per (entries, bonds) and cached.  The empty pattern
    closes every word, the empty word included.

    >>> closes(VincularPattern((1, 2, 3), bonds={0}))((1, 2, 4, 3))
    True
    >>> closes(VincularPattern((1, 2, 3), bonds={0}))((2, 3, 4, 1))
    False
    """
    return _compiled(pattern.entries, pattern.bonds)


def threshold_scan(pattern: VincularPattern, side: int) -> Callable[[Sequence[int], int], int]:
    """The compiled threshold scan of pattern, side 1 or -1: on a word w of
    distinct letters and a bound t, the least letter filling pattern's
    largest place (side 1) or the greatest filling its smallest (side -1)
    over the occurrences ending at w's last position, when it is below t
    (above t); else t.

    Folded over the prefixes of a word from t = +inf (-inf), it gives the
    least top (greatest bottom) letter of any occurrence in the word.

    >>> threshold_scan(VincularPattern((1, 2), bonds={0}), 1)((3, 1, 4), 9)
    4
    >>> threshold_scan(VincularPattern((1, 2, 3), bonds={0}), -1)((2, 5, 1, 3, 6), 0)
    2
    """
    if side not in (1, -1):
        raise ValueError(f"side must be 1 or -1, not {side!r}")
    return _compiled(pattern.entries, pattern.bonds, side)


@cache
def _compiled(entries: Word, bonds: frozenset[int], side: int = 0) -> Callable:
    namespace: dict = {}
    exec(_closes_source(entries, bonds, side), namespace)
    return namespace["closes" if side == 0 else "scan"]


def _closes_source(entries: Word, bonds: frozenset[int], side: int = 0) -> str:
    """Source of the closes test (side 0) or of the threshold scan (side 1
    or -1, see :func:`threshold_scan`); it holds no value taken from the
    pattern but positions in range(k) and the comparisons their order
    implies.

    Letter t of the pattern lives in a{t} at host index i{t}.  The last
    letter sits at n-1, and a bonded run ending there is fixed too; the
    other positions run left to right, each a loop over its free range or
    the index forced by a bond.  The scan compares the letter it tracks
    with the bound as soon as it is placed, and an occurrence found
    becomes the new bound; when that letter is fixed, the first one found
    is the answer.
    """
    k = len(entries)
    if k == 0:
        return "def closes(w):\n    return True\n"
    fixed = k - 1
    while fixed > 0 and fixed - 1 in bonds:
        fixed -= 1
    if side == 0:
        head, miss, tracked = "def closes(w):", "return False", None
    else:
        head, miss = "def scan(w, bound):", "return bound"
        tracked = entries.index(k if side == 1 else 1)
    lines = [head, "    n = len(w)", f"    if n < {k}:", f"        {miss}"]
    final = miss
    placed: list[int] = []
    pad = "    "

    def place(t: int, index: str) -> None:
        lines.append(f"{pad}a{t} = w[{index}]")
        below = [q for q in placed if entries[q] < entries[t]]
        above = [q for q in placed if entries[q] > entries[t]]
        terms = []
        if below:
            terms.append(f"a{max(below, key=entries.__getitem__)} < a{t}")
        if above:
            terms.append(f"a{t} < a{min(above, key=entries.__getitem__)}")
        if t == tracked:
            terms.append(f"a{t} < bound" if side == 1 else f"bound < a{t}")
        if terms:
            lines.append(f"{pad}if not ({' and '.join(terms)}):")
            lines.append(f"{pad}    {miss}")
        placed.append(t)

    for t in range(k - 1, fixed - 1, -1):
        place(t, f"n - {k - t}")
    for t in range(fixed):
        if t > 0 and t - 1 in bonds:
            lines.append(f"{pad}i{t} = i{t - 1} + 1")
        else:
            start = f"i{t - 1} + 1" if t > 0 else "0"
            lines.append(f"{pad}for i{t} in range({start}, n - {k - 1 - t}):")
            pad, miss = pad + "    ", "continue"
        place(t, f"i{t}")
    if tracked is None:
        lines.append(f"{pad}return True")
    elif tracked >= fixed:
        lines.append(f"{pad}return a{tracked}")
    else:
        lines.append(f"{pad}bound = a{tracked}")
    if fixed > 0:
        lines.append(f"    {final}")
    return "\n".join(lines) + "\n"


def avoids_linear(host: Sequence[int], patterns: Iterable[VincularPattern]) -> bool:
    """True when host contains none of the given patterns, i.e. when no
    prefix of host is closed by one of them."""
    host = tuple(host)
    tests = [closes(p) for p in patterns]
    return not any(test(host[:m]) for m in range(len(host) + 1) for test in tests)


def avoids_circular(word: Sequence[int], patterns: Iterable[VincularPattern]) -> bool:
    """True when every rotation of word avoids every given pattern.

    An occurrence in a rotation that ends at letter x is also one in the
    rotation ending with x, so it is enough that no rotation is closed.
    """
    word = tuple(word)
    tests = [closes(p) for p in patterns]
    return not any(
        test(word[m:] + word[:m]) for m in range(len(word) or 1) for test in tests)
