"""Each cross-route comparison fails on a one-off input and names the spot."""

import pytest

from vincular import checks, genfun
from vincular.powerseries import Series
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


CASES = [
    ("dp-reference-table", bump_table("a", 7), checks.check_dp_reference, "a_7"),
    ("series-reference-table", bump_series("A_series", 8),
     lambda t: checks.check_series_reference(12), "a_7"),
    ("oracle-dp-n7", bump_table("a", 7),
     lambda t: checks.check_oracle_dp(t, 7), "a_7"),
    ("oracle-dp-n8", bump_table("a", 7),
     lambda t: checks.check_oracle_dp(t, 8), "|A_8|"),
    # V1 enters the right-hand side x + x*V1 one order up
    ("series-v0-shift", bump_series("V1_series", 5),
     lambda t: checks.check_v0_shift(12), "x^6"),
    # at u = 1, C1u is built from C11, so a bumped C11 would move both sides
    ("series-c-weight-one", bump_series("C1u_series", 5),
     lambda t: checks.check_c1u_at_one(12), "x^5"),
    ("series-b-weight-one", bump_series("B1u_series", 5),
     lambda t: checks.check_b1u_at_one(12), "x^5"),
    ("series-bivariate-diagonal", bump_series("A_vu_series", 5),
     lambda t: checks.check_a_vu_diagonal(12), "x^5"),
    ("weighted-marginals", bump_table("b_last", 5, 2),
     lambda t: checks.check_weighted_marginals(t, n_max=8), "b u=2 n=5"),
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


def test_series_of_different_orders_disagree():
    # a bare zip would stop at the shorter series and pass
    res = checks._same_series("s", "left", Series([1, 2, 3]), "right", Series([1, 2]))
    assert not res.passed
    assert res.detail == "x^2: left=3 right=None"
