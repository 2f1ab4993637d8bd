"""Recurrence evaluation of the v, c, b arrays and the counting sequence.

The three arrays are built bottom-up in the only order their recurrences
allow: every v row first, then every c row (cells consume c marginals of
smaller sizes and v rows), then every b row (cells consume b marginals
of smaller sizes and c columns of sizes n and n-1).  All values are plain
Python ints, so the arithmetic is exact at any size.

At size n only one column and one row of each cell table are computed;
every other nonzero cell copies a marginal of size n-1, so each marginal
by final letter is that computed column or row plus a suffix sum of the
size-(n-1) marginal.  The sums inside the computed cells are folded
through per-row prefix sums of v and b and, for c, through the closed form
sum_d C(j-3, d-3) C(j-d, s-d) = C(j-3, s-3) 2^(s-3), without touching the
recurrences themselves.  b reads c only through the final-letter-2 column
c(n, i, 2) = sum over d in [2, i-1] of c(n-i+d, d), which the c build
computes anyway: that sum is b's column term, and b's row term sums the
column of size n-1 over i in [j, n-2].  What is left of each computed cell
is a binomial transform, taken at a J that grows by one with n, of a
sequence fixed by the gap g between n and the cell's letter.  The runs of
partial sums of all gaps move one size at a time: :func:`_steps` extends
every run by its next entry in one pass and starts the run of the new gap,
and the computed row is written as one slice.  c needs the doubled
transform sum_s C(J, s) 2^(J-s) y_s, which is the transform applied
twice, so c's run is the plain transform of v's run values.  A
build does O(N^3) big-integer additions inside ``accumulate``, no
multiplications in the inner sums, and stores O(N^2) integers.  Full cell
tables, which only the oracle comparison and the tests read, are kept for
n <= CELLS_MAX.
"""

from __future__ import annotations

from itertools import accumulate
from math import log
from operator import add
from typing import NamedTuple

Row = list[int]
Cells = list[list[int]]

# Largest size whose full b and c cell tables are kept.  The oracle
# comparison that reads them is bounded by its run time, which grows about
# fivefold with each size; the README gives measured times.
CELLS_MAX = 12


def _require(ok: bool, what: str) -> None:
    """Raise on a broken exactness invariant (unlike assert, also under -O)."""
    if not ok:
        raise RuntimeError(f"recurrence invariant broken: {what}")


def _steps(runs: list[Row], ys: list[int]) -> tuple[list[Row], list[int]]:
    """Extend every gap's binomial transform by one size; return the new
    runs and their values at the new J.

    runs holds, by letter, a_i = sum_t C(i, t) y_(J-t), i = 0..J; each
    next run starts at its y and adds the a_i term by term.  The first y
    starts the run of the new gap (J = 0), in front.
    """
    runs = [list(accumulate(run, initial=y)) for run, y in zip([[], *runs], ys)]
    return runs, [run[-1] for run in runs]


def _prefix(row: Row) -> Row:
    """out[idx] = row[1] + ... + row[idx]; row[0] is padding."""
    return list(accumulate(row[1:], initial=0))


def compute_v(N: int) -> list[Row]:
    """Rows v[n][j] for 1 <= j <= n <= N; v[n][0] is padding."""
    if N < 1:
        raise ValueError("N must be positive")
    v: list[Row] = [[], [0, 1]]
    # prefix rows of sizes n-1 and n-2, the only ones size n reads
    last, before = _prefix(v[1]), _prefix(v[0])
    runs: list[Row] = []
    for n in range(2, N + 1):
        row = [0] * (n + 1)
        row[n] = 1
        # ending in 1: anything of size n-1 with 1 appended
        top = row[1] = last[n - 1]
        # 2 <= j < n: C(j-2, d-2)-weighted sum over d of v(n-d, i-d),
        # i in [j+1, n]; gap n-j, J = j-2, new y = that suffix sum at d = 2
        suffix = before[n - 2]
        runs, sums = _steps(runs, [suffix - x for x in before[:n - 2]])
        row[2:n] = [top - x + t for x, t in zip(last[1:n - 1], sums)]
        _require(min(row) >= 0, f"negative v({n}, .)")
        v.append(row)
        before, last = last, _prefix(row)
    return v


def _empty_cells(n: int) -> Cells:
    return [[0] * (n + 1) for _ in range(n + 1)]


def _marginal(n: int, low: int, col: Row, row: Row, prev: Row) -> Row:
    """Sums by final letter of the size-n cells, in O(n).

    Column ``low`` holds col[i] (low < i <= n), row ``low`` holds row[j]
    (low < j < n), each cell (i, j) with low < j < i < n is the copy
    prev[i - 1] of the size-(n-1) marginal (a final letter below the
    penultimate one is removable), and every other cell is zero.
    """
    marg = [0] * (n + 1)
    marg[low] = sum(col)
    tail = 0  # the copies in column j: prev[j] + ... + prev[n-2]
    for j in range(n - 1, low, -1):
        marg[j] = row[j] + tail
        tail += prev[j - 1]
    return marg


def _close(cells: list[Cells], last: list[Row], n: int, low: int, col: Row,
           row: Row, name: str) -> None:
    """Check the size-n column and row laid out as in :func:`_marginal`,
    append their marginal to ``last`` and, for n <= CELLS_MAX, the full
    cell table to ``cells``."""
    _require(min(col) >= 0 and min(row) >= 0, f"negative {name}({n}, ., .)")
    prev = last[n - 1]
    marg = _marginal(n, low, col, row, prev)
    if n <= CELLS_MAX:
        cur = _empty_cells(n)
        for i in range(low + 1, n + 1):
            cur[i][low] = col[i]
        for j in range(low + 1, n):
            cur[low][j] = row[j]
        for i in range(low + 2, n):
            cur[i][low + 1:i] = [prev[i - 1]] * (i - low - 1)
        sums = [sum(cur[i][j] for i in range(n + 1)) for j in range(n + 1)]
        _require(sums == marg, f"{name}({n}, ., .) cells do not resum to the marginals")
        cells.append(cur)
    last.append(marg)


def compute_c(N: int, v: list[Row]) -> tuple[list[Cells], list[Row], list[Row]]:
    """Cell tables c[n][i][j] for n <= CELLS_MAX, marginals by final
    letter and the final-letter-2 columns c(n, ., 2) for every n <= N.

    Cells with i == 1, j == 1 or j == n stay zero, as does the wedge
    3 <= i < j <= n-1; the remaining cells follow the three recurrences
    plus the two closed-form boundary columns.
    """
    runs: list[Row] = []
    cells: list[Cells] = [_empty_cells(i) for i in range(min(N, 1) + 1)]
    last: list[Row] = [[0] * (i + 1) for i in range(min(N, 1) + 1)]
    cols: list[Row] = [row[:] for row in last]
    for n in range(2, N + 1):
        prev, prev_col = last[n - 1], cols[n - 1]
        col = [0] * (n + 1)  # final letter 2: cells (i, 2)
        # penultimate letter n forces the word (n-1)...1n2
        if n >= 3:
            col[n] = 1
        # 3 <= i < n, final letter 2: strip the interval [2, d] off smaller
        # members, sum over d in [2, i-1] of c(n-i+d, d); all but the last
        # term is the same sum at size n-1
        col[3:n] = map(add, prev_col[2:n - 1], prev[2:n - 1])
        row = [0] * (n + 1)  # penultimate letter 2: cells (2, j)
        if n >= 4:
            row[n - 1] = 2 ** (n - 4)
        if n >= 5:
            # 3 <= j < n-1: split off a decreasing prefix (d-3 letters) and
            # a decreasing insert (e letters) before a last-letter avoider;
            # the (d, e) weights with d + e = s sum to C(j-3, s-3) 2^(s-3),
            # and the k-sum folds through the v prefix rows.  Gap n-1-j,
            # J = j-3: each gap's y (the v suffix sum of the s = 3 term) is
            # v's y at size n-2, so c's run is over v's run values there,
            # read back from its row (module docstring)
            vpre = _prefix(v[n - 3])
            vals = [x - vpre[n - 3] + p for x, p in zip(v[n - 2][2:n - 2], vpre[1:n - 3])]
            runs, row[3:n - 1] = _steps(runs, vals)
        _close(cells, last, n, 2, col, row, "c")
        cols.append(col)
    return cells, last, cols


def compute_b(N: int, c_cols: list[Row]) -> tuple[list[Cells], list[Row]]:
    """Cell tables b[n][i][j] for n <= CELLS_MAX and marginals by final
    letter for every n <= N, from the c columns c(n, ., 2) of
    :func:`compute_c`."""
    cells: list[Cells] = [_empty_cells(i) for i in range(min(N, 1) + 1)]
    last: list[Row] = [[0] * (i + 1) for i in range(min(N, 1) + 1)]
    runs: list[Row] = []
    for n in range(2, N + 1):
        prev = last[n - 1]
        col = [0] * (n + 1)  # final letter 1: cells (i, 1)
        # penultimate letter n forces (n-1)...2n1
        col[n] = 1
        # 2 <= i < n: delete the final 1, or delete [1, d] when 2 sits left
        # of n: sum over d in [2, i-1] of c(n-i+d, d), which is c(n, i, 2)
        col[2:n] = map(add, prev[1:n - 1], c_cols[n][2:n])
        row = [0] * (n + 1)  # penultimate letter 1: cells (1, j)
        # 2 <= j < n: the word ends gamma,1,j with gamma a decreasing set of
        # d-2 letters under j; k is the rightmost letter exceeding j.  k = n
        # gives the closed 2^(j-2) count; otherwise deleting gamma,1,j
        # leaves a b-type member (prefix row of b) or a c-type one, which
        # sum over k to the sum of c(n-1, i, 2) over i in [j, n-2].  Gap
        # n-j, J = j-2, new y = the d = 2 term of the C(j-2, d-2)-weighted
        # sum over d.
        bpre, cpre = _prefix(last[n - 2]), _prefix(c_cols[n - 1])
        suffix = bpre[n - 3] + cpre[n - 2]
        runs, sums = _steps(runs, [suffix - x - y for x, y in zip(bpre[:n - 2], cpre[1:n - 1])])
        row[2:n] = [(1 << s) + t for s, t in enumerate(sums)]
        _close(cells, last, n, 1, col, row, "b")
    return cells, last


def compute_a(N: int, b_last: list[Row], c_last: list[Row]) -> list[int]:
    """a[n] = held-out word + b total + c totals of all sizes down to 2."""
    a = [0] * (N + 1)
    a[1] = 1
    c_running = 0
    for n in range(2, N + 1):
        c_running += sum(c_last[n][1:])
        a[n] = 1 + sum(b_last[n][1:]) + c_running
    return a


class Tables(NamedTuple):
    """All recurrence arrays up to size N.

    ``b_cells`` and ``c_cells`` hold the full cell tables for sizes
    n <= min(N, CELLS_MAX) only; every other array covers sizes up to N.
    """

    N: int
    v: list[Row]
    c_cells: list[Cells]
    c_last: list[Row]
    b_cells: list[Cells]
    b_last: list[Row]
    a: list[int]


def build_tables(N: int) -> Tables:
    v = compute_v(N)
    c_cells, c_last, c_cols = compute_c(N, v)
    b_cells, b_last = compute_b(N, c_cols)
    a = compute_a(N, b_last, c_last)
    return Tables(N=N, v=v, c_cells=c_cells, c_last=c_last,
                  b_cells=b_cells, b_last=b_last, a=a)


class ConjectureReport(NamedTuple):
    """Exact checks of the two growth statements on a finite range.

    ``power_holds`` keeps, at index n-1, whether a_n^(n+1) < a_{n+1}^n
    for each n = 1..N-1 of a = a_0..a_N, i.e. whether a_n^(1/n) increases
    there; ``first_power_failure`` is the first n where it does not, or
    None.  Unbounded growth of a_{n+1}/a_n (which would rule out any c
    with a_n < c^n) can only be observed, not decided, on a finite range;
    ``ratios_increasing`` is reported as evidence.
    """

    power_holds: tuple[bool, ...]
    first_power_failure: int | None
    ratios_increasing: bool


def _power_holds(x: int, y: int, n: int) -> bool:
    """x^(n+1) < y^n, by logarithms unless they are within a relative 1e-9
    (math.log is off by a few ulps) or x, y are not positive; only such
    near ties, an exact one like x = 2^n, y = 2^(n+1), take the powers."""
    if x > 0 and y > 0:
        lhs, rhs = (n + 1) * log(x), n * log(y)
        if abs(lhs - rhs) > 1e-9 * (abs(lhs) + abs(rhs) + 1):
            return lhs < rhs
    return x ** (n + 1) < y ** n


def check_conjectures(a: list[int]) -> ConjectureReport:
    N = len(a) - 1
    holds = tuple(_power_holds(a[n], a[n + 1], n) for n in range(1, N))
    first_fail = next((n for n, ok in enumerate(holds, 1) if not ok), None)
    ratios_up = all(
        a[n + 1] * a[n - 1] > a[n] * a[n] for n in range(2, N)
    )
    return ConjectureReport(holds, first_fail, ratios_up)
