"""Brute-force counts and cell classifications, frozen at small sizes."""

import gc
import hashlib
from collections import Counter
from itertools import permutations

import pytest

from vincular import oracle
from vincular.checks import ORACLE_CAP, REFERENCE_A
from vincular.cli import parse_pattern
from vincular.oracle import (
    CIRCULAR_PATTERN,
    LAST_LETTER_PATTERNS,
    REDUCED_PATTERNS,
    OracleReport,
    count_circular_avoiders,
    count_linear_avoiders,
    delete_smallest,
    held_out,
    oracle_report,
    weighted_circular_sum,
)
from vincular.perms import VincularPattern, avoids_linear, closes
from vincular.powerseries import Q

from occurrences import iter_occurrences

# a_1..a_8, also the circular counts shifted one size up.
SMALL_A = (1, 2, 5, 15, 50, 180, 690, 2792)


def test_count_l_small():
    for n, want in enumerate(SMALL_A, start=1):
        assert count_linear_avoiders(n, REDUCED_PATTERNS) == want


def test_circular_counts_shift():
    assert count_circular_avoiders(1) == 1
    assert count_circular_avoiders(2) == 1
    for n in range(2, 8):
        assert count_circular_avoiders(n) == SMALL_A[n - 2]
    assert count_circular_avoiders(9, (CIRCULAR_PATTERN,)) == 2792


def test_held_out_word():
    assert held_out(5) == (4, 3, 2, 1, 5)
    # the held-out word itself avoids both patterns but is excluded from
    # the b/c split; the count re-assembles from b at size n plus c at
    # every size from 2 to n
    rep = oracle_report(5)
    c_sizes = sum(
        sum(oracle_report(m).c_cells.values()) for m in range(2, 6))
    assert rep.count_l == 1 + sum(rep.b_cells.values()) + c_sizes


def counted_split_word(w, n):
    """w avoids the reduced pair and is not the held-out word."""
    return avoids_linear(w, REDUCED_PATTERNS) and w != held_out(n)


def test_b_cell_and_members_at_532():
    assert oracle_report(5).b_cells[(3, 2)] == 3
    # three distinct b-type words ending in 3, 2, so these are all of them
    for w in [(4, 5, 1, 3, 2), (5, 1, 4, 3, 2), (5, 4, 1, 3, 2)]:
        assert counted_split_word(w, 5) and w.index(1) > w.index(5)


def test_b_cells_tiny():
    b2 = oracle_report(2).b_cells
    assert b2[(2, 1)] == 1 and b2[(1, 2)] == 0
    b3 = oracle_report(3).b_cells
    ones = {(1, 2), (2, 1), (3, 1)}
    for key, value in b3.items():
        assert value == (1 if key in ones else 0)


def test_c_cell_and_members_at_524():
    assert oracle_report(5).c_cells[(2, 4)] == 2
    # two distinct c-type words ending in 2, 4, so these are all of them
    for w in [(1, 5, 3, 2, 4), (3, 1, 5, 2, 4)]:
        assert counted_split_word(w, 5)
        assert w.index(1) < w.index(5) < w.index(2)


def test_c_cells_tiny():
    c3 = oracle_report(3).c_cells
    for key, value in c3.items():
        assert value == (1 if key == (3, 2) else 0)
    for n in range(4, 8):
        assert oracle_report(n).c_cells[(n, 2)] == 1


def test_v_column():
    assert oracle_report(4).v == (0, 5, 5, 3, 1)
    assert oracle_report(1).v == (0, 1)
    for n in range(1, 8):
        assert oracle_report(n).v[n] == 1


def test_reduction_small():
    # deleting 1 maps the circular avoiders of [n] onto the linear avoiders
    # of the reduced pair on [n-1]; every class agrees, avoider or not
    for n in range(2, 7):
        avoiders = set(oracle_report(n).circular)
        for rest in permutations(range(2, n + 1)):
            rep = (1,) + rest
            lin = avoids_linear(delete_smallest(rep), REDUCED_PATTERNS)
            assert (rep in avoiders) == lin
        assert len(avoiders) == oracle_report(n - 1).count_l


def test_report_consistency():
    # penultimate/final marginals of the cells must re-sum to the counts
    for n in range(2, 7):
        rep = oracle_report(n)
        for cells in (rep.b_cells, rep.c_cells):
            assert sum(cells.values()) == sum(
                cnt for (_, j), cnt in cells.items() if 1 <= j <= n)
        assert rep.count_l == count_linear_avoiders(n, REDUCED_PATTERNS)
        assert rep.count_circular == count_circular_avoiders(n)


def test_weighted_sum_at_unit_weights():
    for n in range(3, 7):
        assert weighted_circular_sum(oracle_report(n), 1, 1) == count_circular_avoiders(n)


def test_weighted_sum_rational_weights():
    # n=3: both classes avoid; canonical words 123 (ends 2,3 -> weight u)
    # and 132 (ends 3,2 -> weight v), so the total is v + u.
    rep = oracle_report(3)
    assert rep.circular == ((1, 2, 3), (1, 3, 2))
    assert weighted_circular_sum(rep, Q(1, 2), Q(1, 3)) == Q(5, 6)
    assert weighted_circular_sum(rep, 1, 1) == 2


def test_patterns_are_the_documented_ones():
    assert CIRCULAR_PATTERN.entries == (2, 3, 4, 1)
    assert CIRCULAR_PATTERN.bonds == frozenset({0})
    assert tuple(p.entries for p in REDUCED_PATTERNS) == ((1, 2, 3), (4, 1, 2, 3))


def _full_scan_avoids(word, patterns):
    return all(next(iter_occurrences(word, p), None) is None for p in patterns)


def _rotations(word):
    return [word[m:] + word[:m] for m in range(len(word))]


def _full_scan_report(n):
    """oracle_report(n) rebuilt over all n! words with the backtracking
    search, without pruning or compiled tests; the circular avoiders are
    the canonical words in lexicographic order."""
    count_l = 0
    v = [0] * (n + 1)
    cells = {"b": {}, "c": {}}
    for w in permutations(range(1, n + 1)):
        if _full_scan_avoids(w, REDUCED_PATTERNS):
            count_l += 1
            pos_one, pos_n = w.index(1), w.index(n)
            if w == held_out(n):
                kind = None
            elif pos_one > pos_n:
                kind = "b"
            elif n >= 3 and w.index(2) > pos_n:
                kind = "c"
            else:
                kind = None
            if kind:
                key = (w[-2], w[-1])
                cells[kind][key] = cells[kind].get(key, 0) + 1
        if _full_scan_avoids(w, LAST_LETTER_PATTERNS):
            v[w[-1]] += 1
    circular = [
        (1,) + rest for rest in permutations(range(2, n + 1))
        if all(_full_scan_avoids(r, (CIRCULAR_PATTERN,)) for r in _rotations((1,) + rest))]
    return count_l, tuple(v), cells["b"], cells["c"], circular


@pytest.mark.parametrize("n", range(1, 8))
def test_pruned_report_matches_full_scan(n):
    rep = oracle_report(n)
    count_l, v, b_cells, c_cells, circular = _full_scan_report(n)
    assert (rep.count_l, rep.v, list(rep.circular)) == (count_l, v, circular)
    assert rep.count_circular == len(circular)
    assert {k: c for k, c in rep.b_cells.items() if c} == b_cells
    assert {k: c for k, c in rep.c_cells.items() if c} == c_cells


def test_pruned_linear_counts_match_full_scan():
    for pat in (VincularPattern((2, 3, 1), bonds={1}), VincularPattern((1, 2, 3), bonds={0})):
        for n in range(8):
            want = sum(1 for w in permutations(range(1, n + 1)) if _full_scan_avoids(w, (pat,)))
            assert count_linear_avoiders(n, (pat,)) == want


@pytest.mark.parametrize("patterns", [
    (VincularPattern((3, 1, 4, 2), bonds={2}),),
    (CIRCULAR_PATTERN, VincularPattern((1, 3, 2, 4), bonds={1})),
], ids=["3-1-42", "23-4-1+1-32-4"])
def test_circular_counts_match_rotation_scan(patterns):
    # the circular pass tests rotations 1..n-1 of each word the walk grew,
    # and leaves rotation 0 to the walk
    for n in range(1, 8):
        want = sum(
            1 for rest in permutations(range(2, n + 1))
            if all(_full_scan_avoids(r, patterns) for r in _rotations((1,) + rest)))
        assert count_circular_avoiders(n, patterns) == want


def test_symmetry_class_of_23_4_1_shares_its_circular_counts():
    # reversing, complementing and rotating at an unbonded gap keep the
    # circular counts; the six members take every kind of check of the walk
    members = oracle._symmetry_class(CIRCULAR_PATTERN)
    assert set(members) == {parse_pattern(text) for text in (
        "23-4-1", "4-1-23", "1-23-4", "32-1-4", "1-4-32", "4-32-1")}
    assert Counter(oracle._lookahead(p) for p in members) == {-1: 2, 0: 2, None: 2}
    for n in range(2, 10):
        for p in members:
            assert count_circular_avoiders(n, (p,)) == REFERENCE_A[n - 2], (p, n)


def test_walk_with_first_letters():
    # 23-4-1 and 1-23-4 look ahead to the smallest and the largest
    # unplaced letter, 12-3 to the largest
    grown = (CIRCULAR_PATTERN, *oracle._seam_rotations(CIRCULAR_PATTERN))
    found = 0
    for patterns in (REDUCED_PATTERNS, grown):
        for first in ((3, 1), (1,), (6,), (1, 6), (6, 5), (2, 5, 1)):
            words = [w for w, _ in oracle._walk(6, (patterns,), first)]
            want = [w for w in permutations(range(1, 7))
                    if w[:len(first)] == first and avoids_linear(w, patterns)]
            assert words == want, (patterns, first)
            found += bool(words)
    # all but one: after 2, 5 the unplaced 6 completes a 12-3
    assert found == 11
    # a first prefix that already contains a pattern yields nothing
    assert list(oracle._walk(5, (REDUCED_PATTERNS,), (1, 2, 3))) == []
    assert list(oracle._walk(3, ((),), (2, 3, 1))) == [((2, 3, 1), 1)]


def test_complete_word_runs_no_lookahead_scan():
    # the parent's lookahead covered a complete word's last letter, so the
    # walk yields it with its thresholds u0, u1, ... left at its parent's
    # t0, t1, ...
    def yielded(sets, n):
        walk = oracle._walker(sets)(n, ())
        for w, _ in walk:
            local = walk.gi_frame.f_locals
            checks = range(sum(name[0] == "t" and name[1:].isdigit() for name in local))
            yield w, [local[f"t{j}"] for j in checks], [local[f"u{j}"] for j in checks]

    for sets in ((REDUCED_PATTERNS,), ((CIRCULAR_PATTERN,),),
                 (REDUCED_PATTERNS, LAST_LETTER_PATTERNS, (CIRCULAR_PATTERN,))):
        words = list(yielded(sets, 7))
        assert words and all(parent and parent == child for _, parent, child in words)
    # 12 holds a 12 whose top letter 2 is below the start 3, and 123 a 12-3
    # whose bottom letter 1 is above the start 0: a scan would move both
    assert next(yielded((REDUCED_PATTERNS,), 2)) == ((1, 2), [3], [3])
    assert next(yielded(((CIRCULAR_PATTERN,),), 3)) == ((1, 2, 3), [0], [0])


def _unpruned_walk(n, sets, first=()):
    """oracle._walk as a list, without the lookahead lemma: a prefix is
    tested only by whether a pattern closes it, and each word by all its
    prefixes."""
    tests = [[closes(p) for p in s] for s in sets]
    out = []

    def avoided(word, alive):
        for k, ts in enumerate(tests):
            if alive >> k & 1 and any(test(word) for test in ts):
                alive ^= 1 << k
        return alive

    def grow(prefix, alive):
        alive = avoided(prefix, alive)
        if not alive:
            return
        if len(prefix) == n:
            out.append((prefix, alive))
        for x in range(1, n + 1):
            if x not in prefix:
                grow(prefix + (x,), alive)

    alive = (1 << len(sets)) - 1
    for m in range(len(first)):
        alive = avoided(first[:m], alive)
    if alive:
        grow(tuple(first), alive)
    return out


def _unpruned_circular(n, patterns, linear=None):
    """oracle._circular_avoiders without the seam lemma: the canonical
    words that avoid patterns, each then tested on rotations 1..n-1.
    linear, when given, is the list of all linear avoiders of patterns."""
    if linear is None:
        linear = [w for w, _ in _unpruned_walk(n, (patterns,), (1,))]
    tests = [closes(p) for p in patterns]
    return [w for w in linear if w[0] == 1 and not any(
        test(w[m:] + w[:m]) for m in range(1, n) for test in tests)]


def _three_pass_report(n):
    """oracle_report(n) from one unpruned walk per linear pair and the
    unpruned circular pass."""
    count_l = 0
    v = [0] * (n + 1)
    b_cells = {(i, j): 0 for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    c_cells = dict(b_cells)
    for w, _ in _unpruned_walk(n, (REDUCED_PATTERNS,)):
        count_l += 1
        if w != held_out(n):
            klass = oracle._classify(w, n)
            if klass == "b":
                b_cells[(w[-2], w[-1])] += 1
            elif klass == "c":
                c_cells[(w[-2], w[-1])] += 1
    for w, _ in _unpruned_walk(n, (LAST_LETTER_PATTERNS,)):
        v[w[-1]] += 1
    circular = tuple(_unpruned_circular(n, (CIRCULAR_PATTERN,)))
    return OracleReport(n, count_l, circular, tuple(v), b_cells, c_cells)


@pytest.mark.parametrize("n", range(1, 10))
def test_one_walk_report_matches_three_passes(n):
    assert oracle_report(n) == _three_pass_report(n)


def test_report_at_the_default_verify_cap_is_pinned():
    # oracle_report(10), the largest report a default verify reads, field
    # for field: a sha256 of its fields, the cells in key order
    assert ORACLE_CAP == 10
    rep = oracle_report(10)
    fields = (rep.n, rep.count_l, rep.circular, rep.v,
              sorted(rep.b_cells.items()), sorted(rep.c_cells.items()))
    assert (rep.count_l, rep.count_circular) == (52633, 11857)
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == (
        "01550816f9814f90d78d164c393d4f8899a56fa01bc767dad26b3ac1175d5cbb")


def test_last_letter_avoiders_avoid_the_reduced_pair():
    # an occurrence of 4-1-23 holds a 1-23 in its last three letters, so the
    # one walk of oracle_report grows no prefix outside the reduced pair's tree
    for n in range(1, 9):
        last_letter = {w for w, _ in oracle._walk(n, (LAST_LETTER_PATTERNS,))}
        assert last_letter <= {w for w, _ in oracle._walk(n, (REDUCED_PATTERNS,))}


@pytest.mark.parametrize("sets", [
    (REDUCED_PATTERNS, LAST_LETTER_PATTERNS),
    (REDUCED_PATTERNS, LAST_LETTER_PATTERNS, (CIRCULAR_PATTERN,)),
    # flags that look ahead: 23-4-1 to the smallest unplaced letter, 1-23-4
    # to the largest
    (REDUCED_PATTERNS, (REDUCED_PATTERNS[0], CIRCULAR_PATTERN),
     (REDUCED_PATTERNS[0], VincularPattern((1, 2, 3, 4), bonds={1}))),
], ids=["shared-12-3", "nothing-shared", "lookahead-flags"])
def test_walk_marks_each_avoided_set(sets):
    for n in range(7):
        for first in ((), (2,), (2, 1), (1, 2, 3), (4, 1)):
            if max(first, default=0) > n:
                continue
            want = []
            for w in permutations(range(1, n + 1)):
                bits = sum(1 << k for k, s in enumerate(sets) if avoids_linear(w, s))
                if w[:len(first)] == first and bits:
                    want.append((w, bits))
            assert list(oracle._walk(n, sets, first)) == want


def test_scans_leave_no_reference_cycles():
    # a cycle would keep each report's cell dicts alive until the cyclic
    # collector runs, which shows as peak memory in a loop of reports
    for p in (*REDUCED_PATTERNS, *LAST_LETTER_PATTERNS, CIRCULAR_PATTERN):
        closes(p)
    gc.collect()
    gc.disable()
    try:
        oracle_report(6)
        count_linear_avoiders(7, REDUCED_PATTERNS)
        count_circular_avoiders(7)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_too_many_free_loops_is_a_one_line_error():
    # each free loop of a pattern is one statically nested block: past
    # Python's limit (about 20 loops) the compiled test and the generated
    # walk raise a ValueError naming the limit, not a SyntaxError
    closes(VincularPattern(tuple(range(1, 21))))
    wide = VincularPattern(tuple(range(1, 31)))
    limit = "needs more nested loops than Python's limit on statically nested blocks"
    for build in (lambda: closes(wide), lambda: count_linear_avoiders(2, (wide,))):
        with pytest.raises(ValueError, match=limit) as info:
            build()
        assert "\n" not in str(info.value)


# Every pattern of length 0 to 4 with every bond set.
ALL_SMALL_PATTERNS = [
    VincularPattern(entries, {t for t in range(k - 1) if mask >> t & 1})
    for k in range(5) for entries in permutations(range(1, k + 1))
    for mask in range(1 << max(k - 1, 0))]


def test_lemmas_lose_no_avoider_of_any_small_pattern():
    # the lookahead (both walks) and the seam lemma (circular walk) give
    # the unpruned lists, as words and in order
    assert len(ALL_SMALL_PATTERNS) == 222
    for p in ALL_SMALL_PATTERNS:
        for n in range(1, 7):
            linear = [w for w, _ in _unpruned_walk(n, ((p,),))]
            assert [w for w, _ in oracle._walk(n, ((p,),))] == linear, (p, n)
            assert list(oracle._circular_avoiders(n, (p,))) == _unpruned_circular(
                n, (p,), linear), (p, n)


def test_lookahead_applies_to_the_documented_patterns():
    # -1: the largest unplaced letter, 0: the smallest, None: direct test
    grown = (CIRCULAR_PATTERN, *oracle._seam_rotations(CIRCULAR_PATTERN))
    assert [oracle._lookahead(p) for p in grown] == [0, None, -1]
    assert [oracle._lookahead(p) for p in (*REDUCED_PATTERNS, LAST_LETTER_PATTERNS[1])] == [
        -1, None, None]
