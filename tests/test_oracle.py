"""Brute-force counts and cell classifications, frozen at small sizes."""

import pytest

from vincular.oracle import (
    CIRCULAR_PATTERN,
    REDUCED_PATTERNS,
    count_L,
    count_circular_avoiders,
    held_out,
    oracle_report,
    reduction_counterexample,
    weighted_circular_sum,
)
from vincular.perms import avoids_linear
from vincular.powerseries import Q

# a_1..a_8, also the circular counts shifted one size up.
SMALL_A = (1, 2, 5, 15, 50, 180, 690, 2792)


def test_count_l_small():
    for n, want in enumerate(SMALL_A, start=1):
        assert count_L(n) == want


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
    for n in range(2, 7):
        assert reduction_counterexample(n) is None


def test_report_consistency():
    # penultimate/final marginals of the cells must re-sum to the counts
    for n in range(2, 7):
        rep = oracle_report(n)
        assert sum(rep.b_cells.values()) == sum(rep.b_by_last[1:])
        assert sum(rep.c_cells.values()) == sum(rep.c_by_last[1:])
        assert rep.count_l == count_L(n)
        assert rep.count_circular == count_circular_avoiders(n)


def test_weighted_sum_at_unit_weights():
    for n in range(3, 7):
        assert weighted_circular_sum(n, 1, 1) == count_circular_avoiders(n)


def test_weighted_sum_rational_weights():
    # n=3: both classes avoid; canonical words 123 (ends 2,3 -> weight u)
    # and 132 (ends 3,2 -> weight v), so the total is v + u.
    assert weighted_circular_sum(3, Q(1, 2), Q(1, 3)) == Q(5, 6)
    assert weighted_circular_sum(3, 1, 1) == 2


def test_patterns_are_the_documented_ones():
    assert CIRCULAR_PATTERN.entries == (2, 3, 4, 1)
    assert CIRCULAR_PATTERN.bonds == frozenset({0})
    assert tuple(p.entries for p in REDUCED_PATTERNS) == ((1, 2, 3), (4, 1, 2, 3))
