"""Cross-route verification: oracle vs recurrence vs closed-form series.

Each check compares two independently computed views of the same numbers
and reports a :class:`CheckResult`; nothing in here ever repairs a
mismatch.  When routes disagree, the brute-force oracle is the authority,
then the recurrence tables, then the series engine, in that order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from . import genfun, oracle
from .powerseries import Q
from .tables import CELLS_MAX, Tables, build_tables, check_conjectures

# The thirty reference values a_1..a_30 this library is expected to
# reproduce along every route.
REFERENCE_A = (
    1,
    2,
    5,
    15,
    50,
    180,
    690,
    2792,
    11857,
    52633,
    243455,
    1170525,
    5837934,
    30151474,
    161021581,
    888001485,
    5051014786,
    29600662480,
    178541105770,
    1107321666920,
    7055339825171,
    46142654894331,
    309513540865544,
    2127744119042216,
    14979904453920111,
    107932371558460341,
    795363217306369817,
    5990768203554158167,
    46094392105916344968,
    362092868720288824992,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    seconds: float = field(default=0.0, compare=False)

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        detail = f": {self.detail}" if self.detail else ""
        return f"{mark} {self.name}{detail} ({self.seconds:.1f}s)"


def apply_fault(tables: Tables, cell: str, oracle_max: int | None = None) -> str:
    """Corrupt one recurrence cell in place (self-test hook).

    The argument reads "b:n:i:j", "c:n:i:j" or "v:n:j"; the named cell
    is incremented by one so the oracle comparison must fail and name it.
    Only cells that :func:`check_oracle_dp` reads are accepted: sizes
    2 <= n <= oracle_max (default: the largest size with cell tables,
    min(N, CELLS_MAX)), letters 1..n, and i != j.  Anything else raises
    ValueError, since corrupting it would show nothing.
    """
    kind, *fields = cell.split(":")
    arity = {"v": 2, "b": 3, "c": 3}.get(kind)
    try:
        nums = [int(f) for f in fields]
    except ValueError:
        nums = []
    if arity is None or len(nums) != arity:
        raise ValueError(
            f"bad fault cell {cell!r}; use v:n:j or b:n:i:j or c:n:i:j")
    n_max = len(tables.b_cells) - 1  # min(N, CELLS_MAX)
    if oracle_max is not None:
        n_max = min(oracle_max, n_max)
    n, *letters = nums
    read = (2 <= n <= n_max and all(1 <= k <= n for k in letters)
            and (kind == "v" or letters[0] != letters[1]))
    if not read:
        raise ValueError(
            f"fault cell {cell!r} is never read by the oracle check; it needs "
            f"2 <= n <= {n_max}, letters in 1..n, and i != j")
    if kind == "v":
        tables.v[n][letters[0]] += 1
    else:
        i, j = letters
        (tables.b_cells if kind == "b" else tables.c_cells)[n][i][j] += 1
    return f"{kind}({','.join(map(str, nums))})"


def check_dp_reference(tables: Tables) -> CheckResult:
    """Recurrence sequence against the thirty reference values."""
    upto = min(tables.N, 30)
    for n in range(1, upto + 1):
        if tables.a[n] != REFERENCE_A[n - 1]:
            return CheckResult(
                "dp-reference-table", False,
                f"a_{n}: dp={tables.a[n]} reference={REFERENCE_A[n - 1]}")
    return CheckResult("dp-reference-table", True, f"a_1..a_{upto} exact")


def check_series_reference(order: int = 31) -> CheckResult:
    """Series-extracted sequence against the thirty reference values."""
    a = genfun.a_from_series(genfun.A_series(order))
    upto = min(order - 1, 30)
    for n in range(1, upto + 1):
        if a[n] != REFERENCE_A[n - 1]:
            return CheckResult(
                "series-reference-table", False,
                f"a_{n}: series={a[n]} reference={REFERENCE_A[n - 1]}")
    return CheckResult(
        "series-reference-table", True, f"a_1..a_{upto} exact")


def check_oracle_dp(tables: Tables, n: int) -> CheckResult:
    """Every v/b/c cell plus both counts at one size against brute force.

    Raises ValueError past the sizes whose cell tables were kept.
    """
    kept = len(tables.b_cells) - 1
    if n > kept:
        raise ValueError(
            f"the oracle check at n={n} reads cell tables, which this build "
            f"kept only for n <= {kept}")
    rep = oracle.oracle_report(n)
    name = f"oracle-dp-n{n}"
    for j in range(1, n + 1):
        if tables.v[n][j] != rep.v[j]:
            return CheckResult(
                name, False, f"v({n},{j}): dp={tables.v[n][j]} oracle={rep.v[j]}")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            want_b = rep.b_cells.get((i, j), 0)
            if tables.b_cells[n][i][j] != want_b:
                return CheckResult(
                    name, False,
                    f"b({n},{i},{j}): dp={tables.b_cells[n][i][j]} oracle={want_b}")
            want_c = rep.c_cells.get((i, j), 0)
            if tables.c_cells[n][i][j] != want_c:
                return CheckResult(
                    name, False,
                    f"c({n},{i},{j}): dp={tables.c_cells[n][i][j]} oracle={want_c}")
    if tables.a[n] != rep.count_l:
        return CheckResult(
            name, False, f"a_{n}: dp={tables.a[n]} oracle count_L={rep.count_l}")
    if n >= 2 and rep.count_circular != tables.a[n - 1]:
        return CheckResult(
            name, False,
            f"|A_{n}|: oracle={rep.count_circular} dp a_{n - 1}={tables.a[n - 1]}")
    return CheckResult(name, True, "all cells and counts agree")


def check_reduction(n: int) -> CheckResult:
    bad = oracle.reduction_counterexample(n)
    if bad is None:
        return CheckResult(f"reduction-n{n}", True)
    return CheckResult(f"reduction-n{n}", False, f"counterexample {bad}")


def check_v0_shift(order: int = 32) -> CheckResult:
    """V at weight 0 equals x + x * (V at weight 1), coefficientwise."""
    v0 = genfun.V0_series(order)
    v1 = genfun.V1_series(order - 1)
    ok = v0[0] == 0 and v0[1] == 1 and all(
        v0[n] == v1[n - 1] for n in range(2, order + 1))
    return CheckResult("series-v0-shift", ok, f"order {order}")


def check_c1u_at_one(order: int = 32) -> CheckResult:
    ok = genfun.C1u_series(1, order) == genfun.C11_series(order)
    return CheckResult("series-c-weight-one", ok, f"order {order}")


def check_b1u_at_one(order: int = 32) -> CheckResult:
    ok = genfun.B1u_series(1, order) == genfun.B11_series(order)
    return CheckResult("series-b-weight-one", ok, f"order {order}")


def check_a_vu_diagonal(order: int = 32) -> CheckResult:
    ok = genfun.A_vu_series(1, 1, order) == genfun.A_series(order)
    return CheckResult("series-bivariate-diagonal", ok, f"order {order}")


def check_weighted_marginals(tables: Tables, us=(2, 3, 5), n_max: int = 12) -> CheckResult:
    """One-variable series against u-weighted recurrence marginals."""
    n_max = min(n_max, tables.N)
    for u in us:
        bu = genfun.B1u_series(u, n_max)
        cu = genfun.C1u_series(u, n_max)
        for n in range(2, n_max + 1):
            want_b = sum(
                tables.b_last[n][j] * Q(u) ** (j - 1) for j in range(1, n + 1))
            if bu[n] != want_b:
                return CheckResult(
                    "weighted-marginals", False,
                    f"b series u={u} n={n}: {bu[n]} vs {want_b}")
            want_c = sum(
                tables.c_last[n][j] * Q(u) ** (j - 2) for j in range(2, n + 1))
            if cu[n] != want_c:
                return CheckResult(
                    "weighted-marginals", False,
                    f"c series u={u} n={n}: {cu[n]} vs {want_c}")
    return CheckResult("weighted-marginals", True,
                       f"u in {tuple(us)}, n <= {n_max}")


def check_integrality(order: int = 32) -> CheckResult:
    """A, B11, C11, V1 coefficients are non-negative integers."""
    series = {
        "A": genfun.A_series(order),
        "B11": genfun.B11_series(order),
        "C11": genfun.C11_series(order),
        "V1": genfun.V1_series(order),
    }
    for label, s in series.items():
        for n, coef in enumerate(s.coeffs):
            if coef.denominator != 1 or coef < 0:
                return CheckResult(
                    "series-integrality", False, f"{label}[{n}] = {coef}")
    return CheckResult("series-integrality", True, f"order {order}")


def check_power_inequality(tables: Tables) -> CheckResult:
    rep = check_conjectures(tables.a)
    if rep.power_inequality_holds:
        return CheckResult(
            "conjecture-power-inequality", True,
            f"a_n^(n+1) < a_(n+1)^n for all n < {rep.n_checked} (checked, not proven)")
    return CheckResult(
        "conjecture-power-inequality", False,
        f"fails first at n={rep.first_power_failure}")


def check_bivariate_oracle(n_max: int = 8, v=2, u=3) -> CheckResult:
    """Bivariate circular series against oracle weighted sums."""
    s = genfun.A_vu_series(v, u, n_max)
    for n in range(3, n_max + 1):
        want = oracle.weighted_circular_sum(n, v, u)
        if s[n] != want:
            return CheckResult(
                "bivariate-oracle", False,
                f"(v,u)=({v},{u}) n={n}: series={s[n]} oracle={want}")
    return CheckResult(
        "bivariate-oracle", True,
        f"(v,u)=({v},{u}), 3 <= n <= {n_max}")


def run_all(
    oracle_max: int = 10,
    reduction_max: int = 8,
    table_n: int = 30,
    order: int = 32,
    fault: str | None = None,
) -> list[CheckResult]:
    """The full suite at the given scales, most trustworthy checks first.

    Each result carries the seconds its check took.  Raises ValueError,
    before any check runs, when oracle_max is past CELLS_MAX (the cell
    tables stop there) or when oracle_max, reduction_max or order is
    below 2, which would leave the checks it sizes nothing to compare.
    """
    if oracle_max > CELLS_MAX:
        raise ValueError(
            f"oracle cap {oracle_max} is past {CELLS_MAX}, the largest size "
            "whose cell tables are kept")
    for label, value in (("oracle cap", oracle_max), ("series order", order),
                         ("reduction maximum", reduction_max)):
        if value < 2:
            raise ValueError(
                f"{label} {value} is below 2; its checks would compare nothing")
    t0 = time.perf_counter()
    tables = build_tables(max(table_n, 30, oracle_max))
    build_dt = time.perf_counter() - t0
    results = [CheckResult("dp-build", True, f"N={tables.N}", build_dt)]

    def run(check, *args) -> None:
        t0 = time.perf_counter()
        res = check(*args)
        results.append(replace(res, seconds=time.perf_counter() - t0))

    if fault is not None:
        cell = apply_fault(tables, fault, oracle_max)
        results.append(CheckResult(
            "fault-injection", True, f"corrupted {cell}; expect a FAIL below"))
    run(check_dp_reference, tables)
    run(check_series_reference, order)
    for n in range(2, oracle_max + 1):
        run(check_oracle_dp, tables, n)
    for n in range(2, reduction_max + 1):
        run(check_reduction, n)
    run(check_v0_shift, order)
    run(check_c1u_at_one, order)
    run(check_b1u_at_one, order)
    run(check_a_vu_diagonal, order)
    run(check_weighted_marginals, tables)
    run(check_integrality, order)
    run(check_power_inequality, tables)
    run(check_bivariate_oracle)
    return results
