"""Acceptance gate: every headline exactness claim, at full scale.

One test per criterion, each ending in a printed PASS line so that
``pytest -s tests/test_acceptance.py`` reads as a checklist.  Everything
here is exact integer or rational comparison; there are no tolerances.
The brute-force comparisons run to n = 9; ``vincular verify`` at its
defaults also covers n = 10.
"""

import time

import pytest

from vincular import checks, genfun
from vincular.checks import REFERENCE_A
from vincular.oracle import oracle_report
from vincular.tables import build_tables, check_conjectures

ORACLE_TOP = 9


@pytest.fixture(scope="module")
def timed_tables():
    t0 = time.perf_counter()
    tables = build_tables(30)
    return tables, time.perf_counter() - t0


@pytest.fixture(scope="module")
def reports():
    return {n: oracle_report(n) for n in range(2, ORACLE_TOP + 1)}


def test_c1_reference_table_by_recurrence_and_series(timed_tables):
    tables, build_seconds = timed_tables
    assert tuple(tables.a[1:31]) == REFERENCE_A
    assert tables.a[30] == 362092868720288824992
    assert build_seconds < 10.0
    genfun.clear_caches()
    t0 = time.perf_counter()
    a = genfun.a_from_series(genfun.A_series(31))
    series_seconds = time.perf_counter() - t0
    assert tuple(a[1:31]) == REFERENCE_A
    assert series_seconds < 60.0
    print(f"PASS criterion-1: a_1..a_30 exact by recurrence "
          f"({build_seconds:.2f}s) and by series ({series_seconds:.2f}s)")


def test_c2_oracle_recurrence_equivalence(timed_tables, reports):
    tables, _ = timed_tables
    t0 = time.perf_counter()
    for n in range(2, ORACLE_TOP + 1):
        res = checks.check_oracle_dp(tables, n)
        assert res.passed, res.detail
        assert reports[n].count_l == tables.a[n]
        assert reports[n].count_circular == tables.a[n - 1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"PASS criterion-2: every cell and count matches brute force "
          f"for 2 <= n <= {ORACLE_TOP} ({elapsed:.0f}s)")


def test_c3_reduction():
    for n in range(2, 9):
        res = checks.check_reduction(n)
        assert res.passed, res.detail
    print("PASS criterion-3: circular avoidance reduces to the linear "
          "pair for 2 <= n <= 8")


def test_c4_series_identities_at_order_32():
    for res in (
        checks.check_v0_shift(32),
        checks.check_c1u_at_one(32),
        checks.check_b1u_at_one(32),
        checks.check_a_vu_diagonal(32),
    ):
        assert res.passed, res.name
    print("PASS criterion-4: first-letter shift and weight-1 "
          "specializations hold to order 32")


def test_c5_weighted_marginals(timed_tables):
    tables, _ = timed_tables
    res = checks.check_weighted_marginals(tables, us=(2, 3, 5), n_max=12)
    assert res.passed, res.detail
    print("PASS criterion-5: weighted series match weighted recurrence "
          "marginals for u in {2,3,5}, n <= 12")


def test_c6_integrality_to_order_32():
    res = checks.check_integrality(32)
    assert res.passed, res.detail
    print("PASS criterion-6: A, B11, C11, V1 have non-negative integer "
          "coefficients to order 32")


def test_c7_power_inequality(timed_tables):
    tables, _ = timed_tables
    rep = check_conjectures(tables.a)
    assert rep.n_checked == 30
    assert rep.power_inequality_holds
    assert rep.first_power_failure is None
    print("PASS criterion-7: a_n^(n+1) < a_(n+1)^n exactly for all "
          "n < 30 (checked, not proven)")


def test_c8_bivariate_against_oracle():
    res = checks.check_bivariate_oracle(n_max=8, v=2, u=3)
    assert res.passed, res.detail
    print("PASS criterion-8: two-variable series matches brute-force "
          "weighted sums at (v,u)=(2,3) for 3 <= n <= 8")
