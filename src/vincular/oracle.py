"""Brute-force enumeration used as ground truth.

Everything here is an exhaustive scan, pruned only by containment itself:
nothing is memoized or derived from the recurrences, so these counts are
what the faster engines are checked against.

Words are grown one letter at a time (:func:`_walk`) and a prefix
is dropped as soon as every word that extends it must contain a pattern.
An occurrence inside the prefix is one reason: the compiled test
:func:`vincular.perms.closes` finds it ending at the prefix's last letter,
and it stays an occurrence in every extension, since bonds ask only for
adjacent positions and a prefix keeps them adjacent.  Two lemmas see
occurrences that are already decided but not yet complete.  Both rest on
containment alone and hold for any pattern P.

* Lookahead (both walks).  Let P's last gap be unbonded and its last
  letter be its largest.  If P closes the prefix followed by some
  unplaced letter x, every extension contains P: x comes later, and the
  gap before it asks for no adjacency.  Let P' be P less its last
  letter.  P closes the prefix followed by x iff some occurrence of P'
  in the prefix has its top letter below x, so the walk carries T, the
  least top letter over all occurrences of P' in the prefix, down its
  stack, and drops the prefix iff its largest unplaced letter is above
  T.  A child's T is the least of its parent's and of the top letters
  of the occurrences ending at its last letter, one threshold scan
  (:func:`vincular.perms._closes_source`) with one loop fewer than the
  test of P: for 12-3 it reads two letters.  When P's last letter is its
  smallest, T is the greatest bottom letter instead, against the
  smallest unplaced letter.  For such a P this replaces the direct
  test: the prefix's parent passed it, and so no letter it could still
  place, the prefix's last letter among them, closed P.  Other patterns
  keep the direct test.  Here it serves 12-3 and 1-23-4 (largest
  letter).
* Seam (circular walk).  A circular word is grown from a fixed first
  letter, so the unplaced letters sit between the prefix's last letter
  and its first.  Rotate P at an unbonded gap g: letters g+1..k-1, then
  0..g, keeping P's bonds.  An occurrence of the rotated pattern in the
  prefix, read linearly, is one of P in every completion read from the
  letter taking P's first place: gap g, which needs no adjacency, spans
  the seam.  So canonical words are grown against P's rotations, for
  23-4-1 against 4-1-23 and 1-23-4.  They are grown against P itself
  too, unless P's last letter is 1 and its last gap unbonded, as in
  23-4-1: then an occurrence of P in a canonical word is, with the
  leading 1 in front, one of P's rotation at its last gap.  The lemma
  cannot see an occurrence whose bond spans the seam of the complete
  word.  The letter after that seam is the canonical word's 1, so only
  a P with a bond g into its letter 1 (entries[g+1] == 1) gives its
  survivors the rotation test; 23-4-1 has no such bond.

So a scan visits far fewer prefixes than the n! words: at n = 10 the
linear walk of :func:`oracle_report` tests 314219 prefixes and the
circular walk 64162 (856371 and 629642 without the lemmas).  One
walk can serve several pattern sets: it drops a prefix on a pattern that
all of them hold and keeps a flag per set for the rest, so the two linear
pairs of :func:`oracle_report`, which share 12-3, are grown together.
Each walk is one generated function (:func:`_walker`), made once for
its sets.  Its child loop reads each child as the parent's word followed
by one letter and runs every check inline, as the block of code that
:func:`vincular.perms._closes_block` generates for the pattern: a direct
test clears the bits of its sets, a scan lowers (or raises) its
threshold, and no check is a function call.  Only a child that keeps a
bit is pushed, with its bits and thresholds as plain fields of the stack
entry.  Every child, a complete word too, takes this one path; a
complete one skips only the lookahead.  Runtimes are still exponential
in n; the README gives measured times.

The enumeration partitions naturally by leading letters and shares no
mutable state but the caches of compiled tests and walks, whose entries
never change once made, so the functions are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Iterator

# avoids_linear and avoids_circular stay bound here for the benchmark tracer.
from .perms import (
    VincularPattern,
    Word,
    _closes_block,
    _define,
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


def _lookahead(pattern: VincularPattern) -> int | None:
    """Where the walk's sorted unplaced letters hold the one letter that a
    prefix's threshold is compared with: -1 (the largest) when pattern's
    last letter is its largest, 0 (the smallest) when it is its smallest,
    and None, for the direct test, when its last gap is bonded or it has
    no last gap."""
    k = len(pattern.entries)
    if k < 2 or k - 2 in pattern.bonds:
        return None
    last = pattern.entries[-1]
    return -1 if last == k else 0 if last == 1 else None


@cache
def _walker(sets: tuple[tuple[VincularPattern, ...], ...]) -> Callable:
    """The generated walk of :func:`_walk` against sets: walk(n, first).

    The checks are (mask, pattern) pairs, run in order: each pattern that
    every set holds, with the mask of all sets, then the others, each with
    the bit of its set (bit k for sets[k]).  The walk pops a node (w,
    rest, alive, t0, t1, ...): the word, the sorted tuple of its unplaced
    letters, the bits of the sets it still avoids and one threshold per
    lookahead check.  The letters at the end of w that the checks read by
    position are read once per node.  The child loop reads child w + (x,)
    as w followed by x, starts from the node's bits and thresholds, and
    runs every check inline on it, as the block that
    :func:`vincular.perms._closes_block` generates:

    * a direct check clears its bits when the pattern closes the child;
    * a lookahead check lowers (raises) its threshold T to the least top
      (greatest bottom) letter of the occurrences of P' (the pattern less
      its last letter) ending at x, and clears its bits iff the largest
      (smallest) letter left is above (below) T: exactly when the pattern
      closes the child followed by that letter.  A complete child runs
      no lookahead: its parent's has already covered its last letter.

    A check whose bits are all cleared is skipped, its threshold left
    stale, as no later node reads it.  A child that keeps a bit is pushed,
    its unplaced letters sliced out only then, or yielded when complete.
    The root's thresholds lie past every letter: n + 1 for a least top
    letter, 0 for a greatest bottom one.  The letters of first are placed,
    each as the one child of its parent, by the same lines before the
    stack walk starts.
    """
    full = (1 << len(sets)) - 1
    shared = [p for p in sets[0] if all(p in s for s in sets[1:])]
    checks = [(full, p) for p in shared] + [
        (1 << k, p) for k, s in enumerate(sets) for p in s if p not in shared]
    root, starts, child, back = full, [], [], set()

    def read(j: int) -> str:
        # w[m - j], the same for every child of a node, is read once per node
        back.add(j)
        return f"y{j}"

    for mask, p in checks:
        k = len(p.entries)
        drop = f"bits &= {full & ~mask}"
        pick = _lookahead(p)
        if pick is None:
            if k == 0:  # the empty pattern closes the empty word too
                root &= ~mask
            guard = [f"bits & {mask}", *([f"m > {k - 2}"] if k > 1 else [])]
            block = _closes_block(p.entries, p.bonds, 0, drop, read)
        else:
            # the letter left after child x = rest[i] that T is compared with
            letter, beyond = (("rest[-1] if i < last else rest[-2]", ">") if pick == -1
                              else ("rest[0] if i else rest[1]", "<"))
            u = f"u{len(starts)}"
            starts.append("n + 1" if pick == -1 else "0")
            front = VincularPattern(standardize(p.entries[:-1]), p.bonds)
            side = 1 if pick == -1 else -1
            guard = [f"bits & {mask}", "last", *([f"m > {k - 3}"] if k > 2 else [])]
            block = [*_closes_block(front.entries, front.bonds, side, u, read),
                     f"if ({letter}) {beyond} {u}:", f"    {drop}"]
        child += [f"if {' and '.join(guard)}:", *("    " + line for line in block)]
    ts = [f"t{j}" for j in range(len(starts))]
    us = [f"u{j}" for j in range(len(starts))]
    state = ", ".join(["w", "rest", "alive", *ts])
    # the node (w, rest, alive, t0, ...): m letters placed, last + 1 to place
    node = ["m = len(w)", "last = len(rest) - 1",
            *(f"y{j} = w[-{j}] if m >= {j} else 0" for j in sorted(back))]
    # its child w + (x,), x = rest[i]
    test = ["bits = alive", *(f"{u} = {t}" for u, t in zip(us, ts)), *child]
    push = ", ".join(["w + (x,)", "rest[:i] + rest[i + 1:]", "bits", *us])
    source = "\n".join([
        "def walk(n, first):",
        f"    alive = {root}",
        "    if not alive:",
        "        return",
        *(f"    {t} = {start}" for t, start in zip(ts, starts)),
        "    w, rest = (), tuple(range(1, n + 1))",
        "    for x in first:",
        *("        " + line for line in node),
        "        i = rest.index(x)",
        *("        " + line for line in test),
        "        if not bits:",
        "            return",
        "        w, rest, alive = w + (x,), rest[:i] + rest[i + 1:], bits",
        *(f"        {t} = {u}" for t, u in zip(ts, us)),
        "    if not rest:",
        "        yield w, alive",
        "        return",
        f"    stack = [({state},)]",
        "    while stack:",
        f"        {state} = stack.pop()",
        *("        " + line for line in node),
        # pushed from the largest letter down, so popped in lexicographic order
        "        for i in range(last, -1, -1):",
        "            x = rest[i]",
        *("            " + line for line in test),
        "            if bits:",
        "                if last:",
        f"                    stack.append(({push}))",
        "                else:",
        "                    yield w + (x,), bits",
    ]) + "\n"
    longest = max(len(p.entries) for _, p in checks) if checks else 0
    return _define(source, "walk", f"the walk over patterns of up to {longest} letters")


def _walk(
    n: int, sets: tuple[tuple[VincularPattern, ...], ...], first: Word = ()
) -> Iterator[tuple[Word, int]]:
    """Words of [n] that start with first and avoid every pattern of at
    least one of sets, in lexicographic order, each with the bit mask of
    the sets it avoids (bit k for sets[k]).

    One walk serves all the sets.  A pattern that decides a prefix
    (closes it, or, under the lookahead lemma, closes it followed by the
    unplaced letter that :func:`_lookahead` picks) clears the bits of the
    sets that hold it, all of them for a pattern common to every set, and
    the prefix is dropped once no bit is left.  Every node, a complete
    word too, takes one path: the child loop of the generated
    :func:`_walker` runs its checks, and a complete word that keeps a bit
    is yielded.  The walk keeps its own stack, so each word reaches the
    caller through one generator only.
    """
    return _walker(sets)(n, first)


def count_linear_avoiders(n: int, patterns: Iterable[VincularPattern]) -> int:
    return sum(1 for _ in _walk(n, (tuple(patterns),)))


def _seam_rotations(pattern: VincularPattern) -> tuple[VincularPattern, ...]:
    """pattern rotated at each unbonded gap g: its letters g+1..k-1, then
    0..g, keeping its bonds, with none at the junction.

    >>> [(p.entries, sorted(p.bonds)) for p in _seam_rotations(CIRCULAR_PATTERN)]
    [((4, 1, 2, 3), [2]), ((1, 2, 3, 4), [1])]
    """
    k = len(pattern.entries)
    return tuple(
        VincularPattern(pattern.entries[g + 1:] + pattern.entries[:g + 1],
                        {(t - g - 1) % k for t in pattern.bonds})
        for g in range(k - 1) if g not in pattern.bonds)


def _symmetry_class(pattern: VincularPattern) -> tuple[VincularPattern, ...]:
    """pattern and every pattern reached from it by reversing, by
    complementing and by :func:`_seam_rotations`, in the order found.
    Each of these maps the cyclic classes that avoid one pattern onto
    those that avoid the other, so all members have the same circular
    counts.

    >>> [p.entries for p in _symmetry_class(CIRCULAR_PATTERN)]
    [(2, 3, 4, 1), (1, 4, 3, 2), (3, 2, 1, 4), (4, 1, 2, 3), (1, 2, 3, 4), (4, 3, 2, 1)]
    >>> [sorted(p.bonds) for p in _symmetry_class(CIRCULAR_PATTERN)]
    [[0], [2], [0], [2], [1], [1]]
    """
    k = len(pattern.entries)
    found = [pattern]
    for p in found:  # found grows as it is read
        for q in (VincularPattern(p.entries[::-1], {k - 2 - t for t in p.bonds}),
                  VincularPattern(tuple(k + 1 - e for e in p.entries), p.bonds),
                  *_seam_rotations(p)):
            if q not in found:
                found.append(q)
    return tuple(found)


def _circular_avoiders(n: int, patterns: tuple[VincularPattern, ...]) -> Iterator[Word]:
    """Canonical words (first letter 1) of the cyclic classes of [n] whose
    rotations all avoid patterns.

    The walk grows the canonical words against the :func:`_seam_rotations`
    of patterns (seam lemma) and against each pattern itself, unless its
    last letter is 1 and its last gap unbonded: an occurrence of such a
    pattern in a canonical word is, with the leading 1 in front, one of
    its rotation at its last gap, which is grown.  A survivor can still
    contain a pattern through an occurrence with a bond across the seam
    of the complete word, and the letter after the seam is 1, so only a
    pattern with a bond into its own letter 1 needs the closed test on
    rotations 1..n-1 (see :func:`vincular.perms.avoids_circular`).  With
    no such pattern, as for 23-4-1, the walk's words are the answer.
    """
    if n < 1:
        raise ValueError("n must be positive")
    grown = tuple(q for p in patterns for q in (
        (p,) if _lookahead(p) != 0 else ()) + _seam_rotations(p))
    tests = [closes(p) for p in patterns if any(p.entries[g + 1] == 1 for g in p.bonds)]
    reps = (rep for rep, _ in _walk(n, (grown,), (1,)))
    if not tests:
        return reps
    return (rep for rep in reps
            if not any(test(rep[m:] + rep[:m]) for m in range(1, n) for test in tests))


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
