"""Recurrence tables against the oracle and the reference sequence."""

import hashlib
import subprocess
import sys
from itertools import accumulate
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import vincular
from vincular.checks import REFERENCE_A, apply_fault, check_oracle_dp
from vincular.oracle import oracle_report
from vincular.tables import (
    CELLS_MAX, ConjectureReport, Tables, _marginal, _steps, build_tables,
    check_conjectures, compute_c, compute_v)

T12 = build_tables(12)

# sha256 digests of build_tables(130), pinned from the O(N^4) build that
# summed every cell: a_1..a_130 joined by commas, and the b_last, c_last
# and v rows for n = 1..130, each row joined by commas and rows by ";".
PINS_130 = {
    "a": "12ddb49e0273c3914db25644e67f17b4e73c5e3f25685afc9a5213b230001d08",
    "b_last": "b9a5763ff23f013c27612241bfb054269691a6e6f1a96a1020ab074476e50149",
    "c_last": "2a2cf7f92a12ff816c064a82a96564945c992581d0aa40ba9bb75143c88bfd72",
    "v": "5b6317d8c19b6f64bd21da082c58a55c98af1fc4c6a3f20e4419c63b1061bce7",
}
PINS_300 = {
    "a": "d08f25379fd2d6a84e5d369a0e1279ca8d4e4a8dc8fcece9b033411df3ebd13e",
    "b_last": "2e78a03c7a8f347b9c33aac76151204e48de16cf8b2da0a5b569d17a831d8549",
    "c_last": "f37303583ef6a26a152024a86703b8fa377bf15ae5faa298d22ad71ed4ab3ccf",
    "v": "372c72166816870acf97de8340ccd9ee644d3e11fc523d918f1006df8794a26b",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _rows(rows):
    return ";".join(",".join(map(str, row)) for row in rows[1:])


def _digests(N):
    t = build_tables(N)
    return {
        "a": _sha(",".join(map(str, t.a[1:N + 1]))),
        "b_last": _sha(_rows(t.b_last)),
        "c_last": _sha(_rows(t.c_last)),
        "v": _sha(_rows(t.v)),
    }


def test_pinned_digests_at_130():
    assert _digests(130) == PINS_130


def test_pinned_digests_at_300():
    assert _digests(300) == PINS_300


def _prefix(row):
    return list(accumulate(row[1:], initial=0))


def _zeros(n):
    return [[0] * (n + 1) for _ in range(n + 1)]


def _column_sums(cells):
    return [sum(col) for col in zip(*cells)]


def _direct_sum_tables(N):
    """The tables with every sum over d written out with math.comb
    weights, full cell tables at every size and marginals summed from
    those tables."""
    v, vpre = [[], [0, 1]], [[], [0, 1]]
    for n in range(2, N + 1):
        row = [0] * (n + 1)
        row[1], row[n] = vpre[n - 1][n - 1], 1
        for j in range(2, n):
            row[j] = vpre[n - 1][n - 1] - vpre[n - 1][j - 1] + sum(
                comb(j - 2, d - 2) * (vpre[n - d][n - d] - vpre[n - d][j - d])
                for d in range(2, j + 1))
        v.append(row)
        vpre.append(_prefix(row))

    c_cells, c_last = [_zeros(0), _zeros(1)], [[0], [0, 0]]
    for n in range(2, N + 1):
        cur = _zeros(n)
        if n >= 3:
            cur[n][2] = 1
        for i in range(3, n):
            cur[i][2] = sum(c_last[n - i + d][d] for d in range(2, i))
        if n >= 4:
            cur[2][n - 1] = 2 ** (n - 4)
        for j in range(3, n - 1):
            cur[2][j] = sum(
                comb(j - 3, s - 3) * 2 ** (s - 3)
                * (vpre[n - s - 1][n - s - 1] - vpre[n - s - 1][j - s])
                for s in range(3, j + 1))
        for i in range(4, n):
            for j in range(3, i):
                cur[i][j] = c_last[n - 1][i - 1]
        c_cells.append(cur)
        c_last.append(_column_sums(cur))

    def P(delta, t):  # sum over s in [2, t] of c(delta+s, s)
        return sum(c_last[delta + s][s] for s in range(2, t + 1))

    def R(m, x):  # sum over delta in [1, x] of P(delta, m-delta)
        return sum(P(delta, m - delta) for delta in range(1, x + 1))

    b_cells, b_last, bpre = [_zeros(0), _zeros(1)], [[0], [0, 0]], [[0], [0, 0]]
    for n in range(2, N + 1):
        cur = _zeros(n)
        cur[n][1] = 1
        for i in range(2, n):
            cur[i][1] = b_last[n - 1][i - 1] + P(n - i, i - 1)
        for j in range(2, n):
            cur[1][j] = 2 ** (j - 2) + sum(
                comb(j - 2, d - 2)
                * (bpre[n - d][n - d - 1] - bpre[n - d][j - d] + R(n - d, n - j - 1))
                for d in range(2, j + 1))
        for i in range(3, n):
            for j in range(2, i):
                cur[i][j] = b_last[n - 1][i - 1]
        b_cells.append(cur)
        b_last.append(_column_sums(cur))
        bpre.append(_prefix(b_last[n]))

    a = [0, 1] + [1 + sum(b_last[n][1:]) + sum(sum(c_last[m][1:]) for m in range(2, n + 1))
                  for n in range(2, N + 1)]
    return v, c_cells, c_last, b_cells, b_last, a


DIRECT_40 = _direct_sum_tables(40)


@pytest.mark.parametrize("N", range(1, 41))
def test_matches_direct_sums(N):
    v, c_cells, c_last, b_cells, b_last, a = DIRECT_40
    kept = min(N, CELLS_MAX) + 1
    want = Tables(N=N, v=v[:N + 1], c_cells=c_cells[:kept], c_last=c_last[:N + 1],
                  b_cells=b_cells[:kept], b_last=b_last[:N + 1], a=a[:N + 1])
    assert build_tables(N) == want


@pytest.mark.parametrize("N", [1, 2, 7, CELLS_MAX, CELLS_MAX + 1, 40])
def test_cells_kept_up_to_cutoff(N):
    t = build_tables(N)
    kept = min(N, CELLS_MAX)
    for cells in (t.b_cells, t.c_cells):
        assert len(cells) == kept + 1
        for n, grid in enumerate(cells):
            assert len(grid) == n + 1 and all(len(row) == n + 1 for row in grid)
    assert len(t.b_last) == len(t.c_last) == len(t.v) == N + 1


def test_cell_checks_stop_at_cutoff():
    t = build_tables(CELLS_MAX + 2)
    with pytest.raises(ValueError, match="kept only"):
        check_oracle_dp(t, CELLS_MAX + 1)
    with pytest.raises(ValueError, match="never read"):
        apply_fault(t, f"b:{CELLS_MAX + 1}:3:2")


def test_c_columns_past_cutoff():
    # build_tables keeps c cells only to CELLS_MAX; the direct sums keep them all
    _, c_cells, *_ = DIRECT_40
    cols = compute_c(40, compute_v(40))[2]
    assert cols[:2] == [[0], [0, 0]]
    assert cols[2:] == [[row[2] for row in c_cells[n]] for n in range(2, 41)]


def test_invariants_raise_under_optimize():
    # a negative v entry drives a c cell negative, a negative c column
    # entry a b cell; the checks must not be asserts, which python -O strips
    src = str(Path(vincular.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from vincular.tables import compute_b, compute_c, compute_v\n"
        "v = compute_v(8)\n"
        "cols = compute_c(8, v)[2]\n"
        "v[3][2] = cols[5][3] = -1000\n"
        "for build in (lambda: compute_c(8, v), lambda: compute_b(8, cols)):\n"
        "    try:\n"
        "        build()\n"
        "    except RuntimeError as exc:\n"
        "        print(exc)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code, src],
                         capture_output=True, text=True, timeout=60, check=True)
    assert "recurrence invariant broken: negative c(" in out.stdout
    assert "recurrence invariant broken: negative b(" in out.stdout


_ROWS = st.integers(1, 9).flatmap(lambda m: st.tuples(*(
    st.lists(st.just(0) | st.integers(-10**30, 10**30), min_size=n, max_size=n)
    for n in range(1, m + 1))))


@given(_ROWS)
@example(([0],))
@example(([0], [0, 0], [0, 0, 0]))
@example(([5], [0, 7], [3, 0, 0]))
def test_run_of_run_values_is_the_doubled_binomial_transform(ys):
    # ys[n-1][k] is the y fed at size n to the run in position k, which
    # started at size n-k; a second run fed the first run's values has,
    # at J = k, the doubled transform sum_s C(k, s) 2^(k-s) y_s that c's
    # row needs
    runs, doubled = [], []
    for n, row in enumerate(ys, 1):
        runs, sums = _steps(runs, row)
        doubled, sums = _steps(doubled, sums)
        assert sums == [
            sum(comb(k, s) * 2 ** (k - s) * ys[n - 1 - k + s][s] for s in range(k + 1))
            for k in range(n)]


def test_sequence_prefix():
    assert tuple(T12.a[1:13]) == REFERENCE_A[:12]


def test_every_cell_matches_oracle_up_to_7():
    for n in range(2, 8):
        rep = oracle_report(n)
        assert tuple(T12.v[n]) == rep.v
        for (i, j), want in rep.b_cells.items():
            assert T12.b_cells[n][i][j] == want, f"b({n},{i},{j})"
        for (i, j), want in rep.c_cells.items():
            assert T12.c_cells[n][i][j] == want, f"c({n},{i},{j})"
        for last, cells in ((T12.b_last, rep.b_cells), (T12.c_last, rep.c_cells)):
            by_last = [0] * (n + 1)
            for (_, j), cnt in cells.items():
                by_last[j] += cnt
            assert list(last[n]) == by_last


def test_pinned_cells():
    assert T12.v[4][2] == 5
    assert T12.b_cells[5][3][2] == 3
    assert T12.c_cells[5][2][4] == 2
    for n in range(3, 13):
        assert T12.c_cells[n][n][2] == 1
        assert T12.b_cells[n][n][1] == 1
    # final letter n-1 after penultimate 2: closed power-of-two count
    for n in range(4, 13):
        assert T12.c_cells[n][2][n - 1] == 2 ** (n - 4)


def test_structural_zeros():
    for n in range(2, 13):
        for j in range(1, n + 1):
            assert T12.c_cells[n][1][j] == 0
            assert T12.c_cells[n][j][1] == 0
            assert T12.c_cells[n][j][n] == 0
            assert T12.b_cells[n][j][n] == 0
        for i in range(3, n):
            for j in range(i + 1, n):
                assert T12.c_cells[n][i][j] == 0
        for i in range(2, n):
            for j in range(i + 1, n):
                assert T12.b_cells[n][i][j] == 0


def test_marginals_resum():
    for n in range(2, 13):
        for j in range(1, n + 1):
            assert T12.b_last[n][j] == sum(
                T12.b_cells[n][i][j] for i in range(1, n + 1))
            assert T12.c_last[n][j] == sum(
                T12.c_cells[n][i][j] for i in range(1, n + 1))


@given(st.data())
def test_marginal_leaves_the_boundary_zero(data):
    # a marginal never counts a final letter below its low letter, nor n
    # (for n > low), whatever the column, row and size-(n-1) marginal hold
    low = data.draw(st.sampled_from((1, 2)))
    n = data.draw(st.integers(low + 1, 20))
    ints = st.integers(-10**6, 10**6)
    col = data.draw(st.lists(ints, min_size=n + 1, max_size=n + 1))
    row = data.draw(st.lists(ints, min_size=n + 1, max_size=n + 1))
    prev = data.draw(st.lists(ints, min_size=n, max_size=n))
    marg = _marginal(n, low, col, row, prev)
    assert len(marg) == n + 1
    assert not any(marg[:low]) and marg[n] == 0


def test_v_row_sums_recur():
    # ending anywhere at size n = ending in 1 at size n+1
    v = compute_v(9)
    for n in range(1, 9):
        assert sum(v[n][1:]) == v[n + 1][1]
    for n in range(1, 10):
        assert v[n][n] == 1


def test_count_reassembles():
    for n in range(2, 13):
        c_running = sum(
            sum(T12.c_last[m][1:]) for m in range(2, n + 1))
        assert T12.a[n] == 1 + sum(T12.b_last[n][1:]) + c_running


def test_full_reference_table():
    tables = build_tables(30)
    assert tuple(tables.a[1:31]) == REFERENCE_A


def test_conjecture_report():
    rep = check_conjectures(build_tables(30).a)
    assert rep.first_power_failure is None
    assert rep.power_holds == (True,) * 29
    assert rep.ratios_increasing


def test_conjecture_report_keeps_every_verdict():
    # 100^5 < 101^4 fails at n = 4; the verdict after it is still recorded
    rep = check_conjectures([0, 1, 2, 3, 100, 101, 10**9])
    assert rep.power_holds == (True, True, True, False, True)
    assert rep.first_power_failure == 4


def _exact_report(a):
    # the rule with every power raised exactly, as the report states it
    N = len(a) - 1
    holds = tuple(a[n] ** (n + 1) < a[n + 1] ** n for n in range(1, N))
    first = next((n for n, ok in enumerate(holds, 1) if not ok), None)
    ratios = all(a[n + 1] * a[n - 1] > a[n] * a[n] for n in range(2, N))
    return ConjectureReport(holds, first, ratios)


def test_conjecture_report_decides_an_exact_tie():
    # a_n = 2^n gives a_n^(n+1) = a_(n+1)^n at every n, which logarithms
    # cannot tell from less; the exact test must say it does not hold
    rep = check_conjectures([2**n for n in range(60)])
    assert rep.power_holds == (False,) * 58
    assert rep.first_power_failure == 1


def test_conjecture_report_decides_near_ties():
    # one entry of 2^n moved by one: a relative gap near 2^-k, on either
    # side of the float test's margin as k grows
    for k in range(1, 60):
        for step in (1, -1):
            a = [2**n for n in range(60)]
            a[k] += step
            assert check_conjectures(a) == _exact_report(a), (k, step)


def test_conjecture_report_matches_exact_powers_on_the_sequence():
    a = build_tables(130).a
    assert check_conjectures(a) == _exact_report(a)


@given(st.lists(st.integers(-3, 10**40), min_size=3, max_size=30))
def test_conjecture_report_matches_exact_powers(a):
    assert check_conjectures(a) == _exact_report(a)


def test_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        compute_v(0)
