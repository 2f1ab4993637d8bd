"""Recurrence evaluation of the v, c, b arrays and the counting sequence.

The three arrays are built bottom-up in the only order their recurrences
allow: every v row first, then every c row (cells consume c marginals of
smaller sizes and v rows), then every b row (cells consume b and c
marginals of smaller sizes).  All values are plain Python ints, so the
arithmetic is exact at any size.

At size n only one column and one row of each cell table are computed;
every other nonzero cell copies a marginal of size n-1, so each marginal
by final letter is that computed column or row plus a suffix sum of the
size-(n-1) marginal.  The sums inside the computed cells are folded
through prefix sums (per-row running totals of v and b, a diagonal and an
anti-diagonal running total over the c marginals) and, for c, through the
closed form sum_d C(j-3, d-3) C(j-d, s-d) = C(j-3, s-3) 2^(s-3), without
touching the recurrences themselves.  What is left of each computed cell
is a binomial transform, taken at a J that grows by one with n, of a
sequence fixed by the gap g between n and the cell's letter; :func:`_step`
extends it by one entry per size.  A build does O(N^3) big-integer
additions inside ``accumulate``, no multiplications in the inner sums,
and stores O(N^2) integers.  Full cell tables, which only the oracle
comparison and the tests read, are kept for n <= CELLS_MAX.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add

Row = list[int]
Cells = list[list[int]]

# Largest size whose full b and c cell tables are kept.  The oracle
# comparison that reads them is bounded by its run time: oracle_report(11)
# alone takes about 31 s (2 shared cores, Python 3.11.7).
CELLS_MAX = 12


def _require(ok: bool, what: str) -> None:
    """Raise on a broken exactness invariant (unlike assert, also under -O)."""
    if not ok:
        raise RuntimeError(f"recurrence invariant broken: {what}")


def _step(runs: list[Row], g: int, y: int, double: bool = False) -> int:
    """Extend gap g's binomial transform by y; return its value at the new J.

    runs[g] holds a_i = sum_t C(i, t) r^t y_(J-t), i = 0..J (r = 2 when
    double, else 1); the next one starts at y and adds r a_i term by term.
    """
    prev = runs[g]
    runs[g] = run = list(accumulate(map(add, prev, prev) if double else prev, initial=y))
    return run[-1]


def _prefix(row: Row) -> Row:
    """out[idx] = row[1] + ... + row[idx]; row[0] is padding."""
    return list(accumulate(row[1:], initial=0))


def compute_v(N: int) -> list[Row]:
    """Rows v[n][j] for 1 <= j <= n <= N; v[n][0] is padding."""
    if N < 1:
        raise ValueError("N must be positive")
    v: list[Row] = [[], [0, 1]]
    pre: list[Row] = [[], _prefix(v[1])]
    runs: list[Row] = [[] for _ in range(N)]
    for n in range(2, N + 1):
        row = [0] * (n + 1)
        row[n] = 1
        # ending in 1: anything of size n-1 with 1 appended
        top = row[1] = pre[n - 1][n - 1]
        vrow = pre[n - 2]
        for j in range(2, n):
            # C(j-2, d-2)-weighted sum over d of v(n-d, i-d), i in [j+1, n]:
            # g = n-j, J = j-2, new y = that suffix sum at d = 2
            g = n - j
            row[j] = top - pre[n - 1][j - 1] + _step(runs, g, vrow[n - 2] - vrow[j - 2])
        _require(min(row) >= 0, f"negative v({n}, .)")
        v.append(row)
        pre.append(_prefix(row))
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


def _keep_cells(cells: list[Cells], n: int, low: int, col: Row, row: Row,
                prev: Row, marg: Row, name: str) -> None:
    """Append the full size-n cell table laid out as in :func:`_marginal`."""
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


def compute_c(N: int, v: list[Row]) -> tuple[list[Cells], list[Row]]:
    """Cell tables c[n][i][j] for n <= CELLS_MAX and marginals by final
    letter for every n <= N.

    Cells with i == 1, j == 1 or j == n stay zero, as does the wedge
    3 <= i < j <= n-1; the remaining cells follow the three recurrences
    plus the two closed-form boundary columns.
    """
    vpre = [_prefix(row) for row in v]
    runs: list[Row] = [[] for _ in range(N)]
    cells: list[Cells] = [_empty_cells(i) for i in range(min(N, 1) + 1)]
    last: list[Row] = [[0] * (i + 1) for i in range(min(N, 1) + 1)]
    col: Row = []
    for n in range(2, N + 1):
        prev, prev_col = last[n - 1], col
        col = [0] * (n + 1)  # final letter 2: cells (i, 2)
        # penultimate letter n forces the word (n-1)...1n2
        if n >= 3:
            col[n] = 1
        for i in range(3, n):
            # final letter 2: strip the interval [2, d] off smaller members,
            # sum over d in [2, i-1] of c(n-i+d, d); all but the last term
            # is the same sum at size n-1
            col[i] = prev_col[i - 1] + prev[i - 1]
        row = [0] * (n + 1)  # penultimate letter 2: cells (2, j)
        if n >= 4:
            row[n - 1] = 2 ** (n - 4)
        vrow = vpre[n - 4] if n >= 4 else []
        for j in range(3, n - 1):
            # split off a decreasing prefix (d-3 letters) and a decreasing
            # insert (e letters) before a last-letter avoider; the (d, e)
            # weights with d + e = s sum to C(j-3, s-3) 2^(s-3), and the
            # k-sum folds through the v prefix rows.  g = n-1-j, J = j-3,
            # new y = the v suffix sum of the s = 3 term
            g = n - 1 - j
            row[j] = _step(runs, g, vrow[n - 4] - vrow[j - 3], double=True)
        _require(min(col) >= 0 and min(row) >= 0, f"negative c({n}, ., .)")
        marg = _marginal(n, 2, col, row, prev)
        _require(marg[1] == 0 and marg[n] == 0, f"c({n}) ending in 1 or {n}")
        if n <= CELLS_MAX:
            _keep_cells(cells, n, 2, col, row, prev, marg, "c")
        last.append(marg)
    return cells, last


def _diagonal_prefix(c_last: list[Row], N: int) -> list[Row]:
    """P[delta][t] = sum over s in [2, t] of c(delta+s, s)."""
    P: list[Row] = [[]]
    for delta in range(1, N + 1):
        width = N - delta
        row = [0] * (width + 1)
        for t in range(2, width + 1):
            row[t] = row[t - 1] + c_last[delta + t][t]
        P.append(row)
    return P


def _antidiagonal_prefix(P: list[Row], N: int) -> list[Row]:
    """R[m][x] = sum over delta in [1, x] of P[delta][m-delta], x < m."""
    return [list(accumulate((P[x][m - x] for x in range(1, m)), initial=0))
            for m in range(N + 1)]


def compute_b(N: int, c_last: list[Row]) -> tuple[list[Cells], list[Row]]:
    """Cell tables b[n][i][j] for n <= CELLS_MAX and marginals by final
    letter for every n <= N."""
    P = _diagonal_prefix(c_last, N)
    R = _antidiagonal_prefix(P, N)
    cells: list[Cells] = [_empty_cells(i) for i in range(min(N, 1) + 1)]
    last: list[Row] = [[0] * (i + 1) for i in range(min(N, 1) + 1)]
    pre: list[Row] = [_prefix(row) for row in last]
    runs: list[Row] = [[] for _ in range(N)]
    for n in range(2, N + 1):
        prev = last[n - 1]
        col = [0] * (n + 1)  # final letter 1: cells (i, 1)
        # penultimate letter n forces (n-1)...2n1
        col[n] = 1
        for i in range(2, n):
            # delete the final 1, or delete [1, d] when 2 sits left of n
            col[i] = prev[i - 1] + P[n - i][i - 1]
        row = [0] * (n + 1)  # penultimate letter 1: cells (1, j)
        bpre, anti = pre[n - 2], R[n - 2]
        for j in range(2, n):
            # the word ends gamma,1,j with gamma a decreasing set of d-2
            # letters under j; k is the rightmost letter exceeding j.
            # k = n gives the closed 2^(j-2) count; otherwise deleting
            # gamma,1,j leaves a b-type member (prefix row of b) or a
            # c-type one (anti-diagonal prefix over delta = n-k in
            # [1, n-j-1]; k - d >= 2 caps delta at n-d-2, but P[n-d-1][1]
            # = 0 makes the cap moot).  g = n-j, J = j-2, new y = the d = 2
            # term of the C(j-2, d-2)-weighted sum over d.
            g = n - j
            y = bpre[n - 3] - bpre[j - 2] + anti[g - 1]
            row[j] = 2 ** (j - 2) + _step(runs, g, y)
        _require(min(col) >= 0 and min(row) >= 0, f"negative b({n}, ., .)")
        marg = _marginal(n, 1, col, row, prev)
        _require(marg[n] == 0, f"b({n}) ending in {n}")
        if n <= CELLS_MAX:
            _keep_cells(cells, n, 1, col, row, prev, marg, "b")
        last.append(marg)
        pre.append(_prefix(marg))
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


@dataclass(frozen=True)
class Tables:
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
    c_cells, c_last = compute_c(N, v)
    b_cells, b_last = compute_b(N, c_last)
    a = compute_a(N, b_last, c_last)
    return Tables(N=N, v=v, c_cells=c_cells, c_last=c_last,
                  b_cells=b_cells, b_last=b_last, a=a)


@dataclass(frozen=True)
class ConjectureReport:
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


def check_conjectures(a: list[int]) -> ConjectureReport:
    N = len(a) - 1
    holds = tuple(a[n] ** (n + 1) < a[n + 1] ** n for n in range(1, N))
    first_fail = next((n for n, ok in enumerate(holds, 1) if not ok), None)
    ratios_up = all(
        a[n + 1] * a[n - 1] > a[n] * a[n] for n in range(2, N)
    )
    return ConjectureReport(holds, first_fail, ratios_up)
