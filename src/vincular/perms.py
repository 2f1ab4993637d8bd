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
word iff one of its rotations is.  The same generator makes the
threshold scan, which gives the least top (or greatest bottom) letter of
those occurrences instead of a yes or no, and both as blocks of code that
the walks of :mod:`vincular.oracle` inline (:func:`_closes_block`).
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
    closes every word, the empty word included.  A pattern with more
    free loops than Python nests (about 20) raises ValueError.

    >>> closes(VincularPattern((1, 2, 3), bonds={0}))((1, 2, 4, 3))
    True
    >>> closes(VincularPattern((1, 2, 3), bonds={0}))((2, 3, 4, 1))
    False
    """
    return _compiled(pattern.entries, pattern.bonds)


@cache
def _compiled(entries: Word, bonds: frozenset[int]) -> Callable:
    return _define(_closes_source(entries, bonds), "closes",
                   f"pattern {entries} with bonds {sorted(bonds)}")


def _define(source: str, name: str, what: str) -> Callable:
    """The function name that source defines.  Each free loop of a pattern
    is one statically nested block, so Python refuses the source of a
    pattern with too many; that is a ValueError naming what."""
    namespace: dict = {}
    try:
        exec(source, namespace)
    except SyntaxError as exc:
        if exc.msg != "too many statically nested blocks":
            raise
        raise ValueError(f"{what} needs more nested loops than Python's limit "
                         "on statically nested blocks") from None
    return namespace[name]


def _closes_source(entries: Word, bonds: frozenset[int], side: int = 0) -> str:
    """Source of the closes test (side 0), or of the threshold scan (side 1
    or -1): scan(w, bound) gives the least letter filling the pattern's
    largest place (side 1), or the greatest filling its smallest (side
    -1), over the occurrences ending at w's last position, when it is
    below (above) bound; else bound.  Folded over the prefixes of a word
    from bound = +inf (-inf), it gives the least top (greatest bottom)
    letter of any occurrence in the word.

    Both wrap the block of :func:`_closes_block`, which reads the word as
    w[:m] followed by the letter x; the walks of :mod:`vincular.oracle`
    inline the same block.

    The block holds no value taken from the pattern but positions in
    range(k) and the comparisons their order implies.  Letter t of the
    pattern lives in a{t} at host index i{t}, the last one in x.  A bonded
    run ending at x is fixed too; the other positions run left to right,
    each a loop over its free range or the index forced by a bond.  The
    scan compares the letter it tracks with the bound as soon as it is
    placed, and an occurrence found becomes the new bound; when that
    letter is fixed, the first one found is the answer.

    Leftmost choice: a loop stops at the first letter that passes its own
    comparisons when its next gap is unbonded, no letter placed after it
    is compared with it, and it is not the letter the scan tracks.  A
    later position is then bounded by it only through its index, so a
    later index can only lose choices, and whatever an occurrence
    through it would find, the leftmost letter finds too.  This makes the
    test of 4-1-23 one pass over the word, where it would be a double
    loop.
    """
    k = len(entries)
    if side == 0:
        head, miss, target = "def closes(w):", "return False", "return True"
    else:
        head, miss, target = "def scan(w, bound):", "return bound", "bound"
    if k == 0:
        return f"{head}\n    return True\n"
    body = ["m = len(w) - 1", f"if m < {k - 1}:", f"    {miss}", "x = w[m]",
            *_closes_block(entries, bonds, side, target), miss]
    return "\n    ".join([head, *body]) + "\n"


def _closes_block(entries: Word, bonds: frozenset[int], side: int, target: str,
                  back: Callable[[int], str] = "w[m - {}]".format) -> list[str]:
    """The lines, unindented, of the test of :func:`_closes_source` on the
    word w[:m] followed by x, m >= k - 1; they run the statement target
    on an occurrence ending at x (side 0), or lower (side 1) or raise
    (side -1) the variable named target to its tracked letter.  Every
    loop is left once an occurrence has decided the block, so control
    always falls through to the line after it.  back(j) is the expression
    the block reads w[m - j] by, for the j < k it needs."""
    k = len(entries)
    fixed = k - 1
    while fixed > 0 and fixed - 1 in bonds:
        fixed -= 1
    tracked = None if side == 0 else entries.index(k if side == 1 else 1)
    order = [*range(k - 1, fixed - 1, -1), *range(fixed)]
    name = {t: "x" if t == k - 1 else f"a{t}" for t in order}
    compared: dict[int, list[str]] = {}
    later: set[int] = set()  # positions compared with a later-placed one
    for r, t in enumerate(order):
        before = order[:r]
        below = [q for q in before if entries[q] < entries[t]]
        above = [q for q in before if entries[q] > entries[t]]
        terms = compared[t] = []
        if below:
            q = max(below, key=entries.__getitem__)
            terms.append(f"{name[q]} < {name[t]}")
            later.add(q)
        if above:
            q = min(above, key=entries.__getitem__)
            terms.append(f"{name[t]} < {name[q]}")
            later.add(q)
        if t == tracked:
            terms.append(f"{name[t]} < {target}" if side == 1 else f"{target} < {name[t]}")

    def exits(t: int) -> bool:
        # an occurrence found inside loop t ends it, except in a scan whose
        # tracked letter is placed after the fixed run: a loop placed up to
        # that letter goes on, for a better bound
        return tracked is None or tracked >= fixed or t > tracked

    lines: list[str] = []
    pad = ""
    loops: list[tuple[str, int, bool]] = []  # open loops: indent, t, leftmost
    for t in order:
        terms = compared[t]
        if t == k - 1:
            pass
        elif t >= fixed:
            lines.append(f"{pad}a{t} = {back(k - 1 - t)}")
        elif t > 0 and t - 1 in bonds:
            lines.append(f"{pad}a{t} = w[i{t - 1} + 1]")
            if t + 1 < fixed:
                lines.append(f"{pad}i{t} = i{t - 1} + 1")
        else:
            start = f"i{t - 1} + 1" if t > 0 else "0"
            stop = f"m - {k - 2 - t}" if t < k - 2 else "m"
            lines.append(f"{pad}for i{t} in range({start}, {stop}):")
            lines.append(f"{pad}    a{t} = w[i{t}]")
            leftmost = t not in bonds and t not in later and t != tracked
            if leftmost and loops:
                # the first letter that passes is the only one tried; on
                # none, the enclosing loop moves on, or stops if it too
                # tries its leftmost letter only
                lines += [f"{pad}    if {' and '.join(terms)}:", f"{pad}        break",
                          f"{pad}else:", f"{pad}    {'break' if loops[-1][2] else 'continue'}"]
                continue
            loops.append((pad, t, leftmost))
            pad += "    "
        if terms:
            lines.append(f"{pad}if {' and '.join(terms)}:")
            pad += "    "
    lines.append(f"{pad}{target}" if tracked is None else f"{pad}{target} = {name[tracked]}")
    if loops and (exits(loops[-1][1]) or loops[-1][2]):
        lines.append(f"{pad}break")
    for (inner_pad, inner, _), (_, outer, leftmost) in zip(loops[:0:-1], loops[-2::-1]):
        if leftmost:
            lines.append(f"{inner_pad}break")
        elif exits(inner) and exits(outer):
            lines += [f"{inner_pad}else:", f"{inner_pad}    continue", f"{inner_pad}break"]
    return lines


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
