"""Each cross-route comparison fails on a one-off input and names the spot."""

import pytest

from vincular import checks, genfun, oracle
from vincular.powerseries import Q, Series
from vincular.tables import build_tables


def bump_table(field, *index):
    """Add one to a recurrence value, e.g. ``bump_table("a", 7)``."""
    def corrupt(tables, monkeypatch):
        row = getattr(tables, field)
        for k in index[:-1]:
            row = row[k]
        row[index[-1]] += 1
    return corrupt


def bump_series(name, k):
    """Make the genfun builder ``name`` return its series with x^k raised by one."""
    def corrupt(tables, monkeypatch):
        build = getattr(genfun, name)

        def bumped(*args):
            s = build(*args)
            return Series(c + (i == k) for i, c in enumerate(s.coeffs))

        monkeypatch.setattr(genfun, name, bumped)
    return corrupt


def keep(tables, monkeypatch):
    """No corruption: the case corrupts what its check reads instead."""


def change_circular(n, change):
    """A reports function whose report at size n holds change(circular)."""
    def reports(m):
        rep = oracle.oracle_report(m)
        return rep._replace(circular=change(rep.circular)) if m == n else rep
    return reports


CASES = [
    ("dp-reference-table", bump_table("a", 7), checks.check_dp_reference, "a_7"),
    ("series-reference-table", bump_series("A_series", 8),
     lambda t: checks.check_series_reference(), "a_7"),
    ("oracle-dp-n7", bump_table("a", 7),
     lambda t: checks.check_oracle_dp(t, 7), "a_7"),
    ("oracle-dp-n8", bump_table("a", 7),
     lambda t: checks.check_oracle_dp(t, 8), "|A_8|"),
    ("reduction-n6", keep,
     lambda t: checks.check_reduction(
         6, reports=change_circular(6, lambda ws: ws[1:])), "count"),
    # 1234567 contains 23-4-1 in its rotation 2345671, and 123456 contains 12-3
    ("reduction-n7", keep,
     lambda t: checks.check_reduction(
         7, reports=change_circular(7, lambda ws: ws + ((1, 2, 3, 4, 5, 6, 7),))),
     "(1, 2, 3, 4, 5, 6, 7)"),
    # V1 enters the right-hand side x + x*V1 one order up
    ("series-v0-shift", bump_series("V1_series", 5),
     lambda t: checks.check_v0_shift(), "x^6"),
    # at u = 1, C1u is built from C11, so a bumped C11 would move both sides
    ("series-c-weight-one", bump_series("C1u_series", 5),
     lambda t: checks.check_c1u_at_one(), "x^5"),
    ("series-b-weight-one", bump_series("B1u_series", 5),
     lambda t: checks.check_b1u_at_one(), "x^5"),
    ("series-bivariate-diagonal", bump_series("A_vu_series", 5),
     lambda t: checks.check_a_vu_diagonal(), "x^5"),
    ("weighted-marginals", bump_table("b_last", 5, 2),
     checks.check_weighted_marginals, "b u=2 n=5"),
    ("bivariate-oracle", bump_series("A_vu_series", 5),
     lambda t: checks.check_bivariate_oracle(8), "(v,u)=(2,3) n=5"),
]


@pytest.mark.parametrize("name, corrupt, check, label", CASES,
                         ids=[case[0] for case in CASES])
def test_comparison_fails_at_the_bumped_value(monkeypatch, name, corrupt, check, label):
    tables = build_tables(12)
    corrupt(tables, monkeypatch)
    res = check(tables)
    assert res.name == name
    assert not res.passed
    assert res.detail.startswith(f"{label}: "), res.detail


def test_run_all_scans_each_size_once(monkeypatch):
    # the oracle-dp, reduction and bivariate checks share one report per size
    seen = []
    scan = oracle._circular_avoiders

    def counted(n, patterns):
        seen.append(n)
        return scan(n, patterns)

    monkeypatch.setattr(oracle, "_circular_avoiders", counted)
    results = checks.run_all(oracle_max=6)
    assert all(res.passed for res in results)
    assert sorted(seen) == list(range(1, 7))


def test_check_result_defaults_and_line():
    res = checks.CheckResult("x", True)
    assert (res.detail, res.seconds) == ("", 0.0)
    assert res.line() == "PASS x (0.0s)"
    failed = checks.CheckResult(name="y", passed=False, detail="a_7", seconds=1.5)
    assert failed.line() == "FAIL y: a_7 (1.5s)"


# every check run_all can reach, found by name so that a new check is
# covered too; check_conjectures is reached through check_power_inequality
CHECK_NAMES = sorted(name for name in dir(checks) if name.startswith("check_"))


@pytest.fixture(scope="module")
def clean_row_names():
    # module scope: made before any test's monkeypatch breaks a check
    return [res.name for res in checks.run_all(oracle_max=3)]


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_a_check_that_raises_keeps_its_row_label(clean_row_names, monkeypatch, name):
    # run_all writes each label a second time for a row that raised, so a
    # label drifting from the check's own shows here as a renamed row
    def broken(*args, **kwargs):
        raise RuntimeError(f"{name} broken")

    monkeypatch.setattr(checks, name, broken)
    results = checks.run_all(oracle_max=3)
    assert [res.name for res in results] == clean_row_names
    failed = [res for res in results if not res.passed]
    assert failed
    assert all(res.detail == f"raised RuntimeError: {name} broken" for res in failed)


@pytest.mark.parametrize("check", [
    lambda: checks.check_bivariate_oracle(1),
    lambda: checks.check_weighted_marginals(build_tables(1)),
], ids=["bivariate-oracle", "weighted-marginals"])
def test_comparison_of_nothing_fails(check):
    # both size ranges start at n = 2, so these compare no row at all
    res = check()
    assert not res.passed
    assert res.detail == "no rows to compare"


def test_series_of_different_orders_disagree():
    # a bare zip would stop at the shorter series and pass
    res = checks._same_series("s", "left", Series([1, 2, 3]), "right", Series([1, 2]))
    assert not res.passed
    assert res.detail == "x^2: left=3 right=None"


def test_integrality_names_the_first_bad_coefficient(monkeypatch):
    # the passing run caches C11 and B11, so the bumped V1 reaches no other
    # series and the first bad coefficient is its own
    assert checks.check_integrality().passed
    build = genfun.V1_series
    monkeypatch.setattr(genfun, "V1_series", lambda N: Series(
        c + Q(1, 2) * (i == 5) for i, c in enumerate(build(N).coeffs)))
    res = checks.check_integrality()
    assert (res.name, res.passed) == ("series-integrality", False)
    assert res.detail == f"V1[5] = {build(5)[5] + Q(1, 2)}"


def test_power_inequality_names_the_first_failure():
    # a_8 = a_7 breaks a_7^8 < a_8^7 and leaves every earlier n alone
    tables = build_tables(12)
    tables.a[8] = tables.a[7]
    res = checks.check_power_inequality(tables)
    assert (res.name, res.passed) == ("conjecture-power-inequality", False)
    assert res.detail == "fails first at n=7"
