"""Cross-route verification: oracle vs recurrence vs closed-form series.

Each check compares two independently computed views of the same numbers
and reports a :class:`CheckResult`; nothing in here ever repairs a
mismatch.  When routes disagree, the brute-force oracle is the authority,
then the recurrence tables, then the series engine, in that order.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace
from itertools import permutations, zip_longest

from . import genfun, oracle, perms
from .powerseries import Q, Series
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

# The order of every series the series checks compare.
SERIES_ORDER = 32
# The default largest size of the brute-force oracle scans.
ORACLE_CAP = 10


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


def _cell(kind: str, *nums: int) -> str:
    """A recurrence cell's name, such as "b(5,3,2)"."""
    return f"{kind}({','.join(map(str, nums))})"


def _agree(name: str, rows, left: str, right: str, detail: str) -> CheckResult:
    """PASS with detail, or FAIL at the first row (label, x, y) with x != y,
    described as "label: left=x right=y".  No rows at all is a FAIL too,
    since a comparison of nothing shows nothing."""
    label = None
    for label, x, y in rows:
        if x != y:
            return CheckResult(name, False, f"{label}: {left}={x} {right}={y}")
    if label is None:
        return CheckResult(name, False, "no rows to compare")
    return CheckResult(name, True, detail)


def _same_series(name: str, left: str, s: Series, right: str, t: Series) -> CheckResult:
    """Two series coefficient by coefficient, rows labelled x^k.  A
    coefficient past one series' order pairs with None, so series of
    different orders never agree."""
    rows = enumerate(zip_longest(s.coeffs, t.coeffs))
    return _agree(name, ((f"x^{k}", x, y) for k, (x, y) in rows),
                  left, right, f"order {s.order}")


def _reference(name: str, left: str, a, upto: int) -> CheckResult:
    """a_1..a_upto against the reference values."""
    rows = ((f"a_{n}", a[n], REFERENCE_A[n - 1]) for n in range(1, upto + 1))
    return _agree(name, rows, left, "reference", f"a_1..a_{upto} exact")


def _fault_cell(cell: str, n_max: int) -> tuple[str, list[int]]:
    """The kind and numbers of the fault cell "b:n:i:j", "c:n:i:j" or
    "v:n:j"; ValueError unless check_oracle_dp reads it at some size
    2 <= n <= n_max."""
    kind, *fields = cell.split(":")
    arity = {"v": 2, "b": 3, "c": 3}.get(kind)
    try:
        nums = [int(f) for f in fields]
    except ValueError:
        nums = []
    if arity is None or len(nums) != arity:
        raise ValueError(
            f"bad fault cell {cell!r}; use v:n:j or b:n:i:j or c:n:i:j")
    n, *letters = nums
    read = (2 <= n <= n_max and all(1 <= k <= n for k in letters)
            and (kind == "v" or letters[0] != letters[1]))
    if not read:
        raise ValueError(
            f"fault cell {cell!r} is never read by the oracle check; it needs "
            f"2 <= n <= {n_max}, letters in 1..n, and i != j")
    return kind, nums


def apply_fault(tables: Tables, cell: str) -> str:
    """Corrupt one recurrence cell in place (self-test hook).

    The argument reads "b:n:i:j", "c:n:i:j" or "v:n:j"; the named cell
    is incremented by one so the oracle comparison must fail and name it.
    Only cells that :func:`check_oracle_dp` can read are accepted: sizes
    2 <= n <= min(N, CELLS_MAX), the largest size these tables keep cells
    for, letters 1..n, and i != j.  Anything else raises ValueError,
    since corrupting it would show nothing.  run_all reads the cell
    against its oracle cap before it builds the tables.
    """
    n_max = len(tables.b_cells) - 1  # min(N, CELLS_MAX)
    kind, nums = _fault_cell(cell, n_max)
    n, *letters = nums
    if kind == "v":
        tables.v[n][letters[0]] += 1
    else:
        i, j = letters
        (tables.b_cells if kind == "b" else tables.c_cells)[n][i][j] += 1
    return _cell(kind, *nums)


def check_dp_reference(tables: Tables) -> CheckResult:
    """Recurrence sequence against the thirty reference values."""
    return _reference("dp-reference-table", "dp", tables.a,
                      min(tables.N, len(REFERENCE_A)))


def check_series_reference() -> CheckResult:
    """Series-extracted sequence against the thirty reference values."""
    a = genfun.a_from_series(genfun.A_series(SERIES_ORDER))
    return _reference("series-reference-table", "series", a, len(REFERENCE_A))


def check_oracle_dp(tables: Tables, n: int, *, reports=None) -> CheckResult:
    """Every v/b/c cell plus both counts at one size against brute force.

    reports maps a size to its OracleReport (default: a fresh
    oracle.oracle_report).  Raises ValueError past the sizes whose cell
    tables were kept.
    """
    kept = len(tables.b_cells) - 1
    if n > kept:
        raise ValueError(
            f"the oracle check at n={n} reads cell tables, which this build "
            f"kept only for n <= {kept}")
    rep = (reports or oracle.oracle_report)(n)

    def rows():
        for j in range(1, n + 1):
            yield _cell("v", n, j), tables.v[n][j], rep.v[j]
        for i, j in permutations(range(1, n + 1), 2):
            yield _cell("b", n, i, j), tables.b_cells[n][i][j], rep.b_cells[i, j]
            yield _cell("c", n, i, j), tables.c_cells[n][i][j], rep.c_cells[i, j]
        yield f"a_{n}", tables.a[n], rep.count_l
        if n >= 2:  # circular classes of size n are counted by a_(n-1)
            yield f"|A_{n}|", tables.a[n - 1], rep.count_circular

    return _agree(f"oracle-dp-n{n}", rows(), "dp", "oracle",
                  "all cells and counts agree")


def check_reduction(n: int, *, reports=None) -> CheckResult:
    """Deleting 1 maps the circular avoiders of [n] onto the linear
    avoiders of the reduced pair on [n-1]: each lands among them, and the
    two sets have equal size.  As delete_smallest is a bijection from the
    canonical words of [n] to the words of [n-1], that decides every class.
    """
    reports = reports or oracle.oracle_report
    circular = reports(n).circular

    def rows():
        for w in circular:
            yield str(w), True, perms.avoids_linear(
                oracle.delete_smallest(w), oracle.REDUCED_PATTERNS)
        yield "count", len(circular), reports(n - 1).count_l

    return _agree(f"reduction-n{n}", rows(), "circular", "linear",
                  f"|A_{n}| = {len(circular)}")


def check_v0_shift() -> CheckResult:
    """V at weight 0 equals x + x * (V at weight 1), coefficientwise."""
    shifted = Series((0, 1, *genfun.V1_series(SERIES_ORDER - 1).coeffs[1:]))
    return _same_series("series-v0-shift", "V0", genfun.V0_series(SERIES_ORDER),
                        "x+x*V1", shifted)


def check_c1u_at_one() -> CheckResult:
    """C1u at u = 1 against C11.

    At u = 1 the C1u series is built from C11 itself, so this guards only
    ``genfun._C1u_geom``'s general formula run at weight 1: its last three
    terms, which vanish there through G(0) = 0, and its division by x.
    """
    return _same_series("series-c-weight-one", "C1u(1)",
                        genfun.C1u_series(1, SERIES_ORDER),
                        "C11", genfun.C11_series(SERIES_ORDER))


def check_b1u_at_one() -> CheckResult:
    return _same_series("series-b-weight-one", "B1u(1)",
                        genfun.B1u_series(1, SERIES_ORDER),
                        "B11", genfun.B11_series(SERIES_ORDER))


def check_a_vu_diagonal() -> CheckResult:
    return _same_series("series-bivariate-diagonal", "A_vu(1,1)",
                        genfun.A_vu_series(1, 1, SERIES_ORDER),
                        "A", genfun.A_series(SERIES_ORDER))


def check_weighted_marginals(tables: Tables) -> CheckResult:
    """One-variable series against u-weighted dp marginals, n <= 12."""
    us, n_max = (2, 3, 5), min(12, tables.N)

    def rows():
        for u in us:
            bu = genfun.B1u_series(u, n_max)
            cu = genfun.C1u_series(u, n_max)
            for n in range(2, n_max + 1):
                yield f"b u={u} n={n}", bu[n], sum(
                    tables.b_last[n][j] * Q(u) ** (j - 1) for j in range(1, n + 1))
                yield f"c u={u} n={n}", cu[n], sum(
                    tables.c_last[n][j] * Q(u) ** (j - 2) for j in range(2, n + 1))

    return _agree("weighted-marginals", rows(), "series", "dp",
                  f"u in {us}, n <= {n_max}")


def check_integrality() -> CheckResult:
    """A, B11, C11, V1 coefficients are non-negative integers."""
    series = {
        "A": genfun.A_series(SERIES_ORDER),
        "B11": genfun.B11_series(SERIES_ORDER),
        "C11": genfun.C11_series(SERIES_ORDER),
        "V1": genfun.V1_series(SERIES_ORDER),
    }
    for label, s in series.items():
        for n, coef in enumerate(s.coeffs):
            if coef.denominator != 1 or coef < 0:
                return CheckResult(
                    "series-integrality", False, f"{label}[{n}] = {coef}")
    return CheckResult("series-integrality", True, f"order {SERIES_ORDER}")


def check_power_inequality(tables: Tables) -> CheckResult:
    rep = check_conjectures(tables.a)
    if rep.first_power_failure is None:
        return CheckResult(
            "conjecture-power-inequality", True,
            f"a_n^(n+1) < a_(n+1)^n for all n < {tables.N} (checked, not proven)")
    return CheckResult(
        "conjecture-power-inequality", False,
        f"fails first at n={rep.first_power_failure}")


def check_bivariate_oracle(n_max: int, *, reports=None) -> CheckResult:
    """Bivariate circular series at (v,u) = (2,3) against oracle weighted sums."""
    v, u = 2, 3
    reports = reports or oracle.oracle_report
    s = genfun.A_vu_series(v, u, n_max)
    return _agree(
        "bivariate-oracle",
        ((f"(v,u)=({v},{u}) n={n}", s[n],
          oracle.weighted_circular_sum(reports(n), v, u))
         for n in range(2, n_max + 1)),
        "series", "oracle", f"(v,u)=({v},{u}), 2 <= n <= {n_max}")


def _raised(name: str, exc: Exception) -> CheckResult:
    return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")


def run_all(oracle_max: int = ORACLE_CAP,
            fault: str | None = None) -> list[CheckResult]:
    """The full suite, most trustworthy checks first.

    The recurrence tables are built once, at len(REFERENCE_A) = 30, the
    largest size any check reads.  oracle_max sizes the oracle-dp,
    reduction and bivariate checks, which share one oracle_report per
    size, made in this call.  Each result carries the seconds its check
    took, a shared report counting towards the first check that reads it;
    a check that raises gives a FAIL row with the exception's type and
    message.  So does a table build that raises, and then every check
    that reads the tables is a FAIL row too, left unrun, while the others
    run.  Raises ValueError, before any check runs, when oracle_max is
    past CELLS_MAX (the cell tables stop there) or below 2, which would
    leave the checks it sizes nothing to compare, or when fault names a
    cell that no check reads.  The series checks run at SERIES_ORDER.
    """
    if oracle_max > CELLS_MAX:
        raise ValueError(
            f"oracle cap {oracle_max} is past {CELLS_MAX}, the largest size "
            "whose cell tables are kept")
    if oracle_max < 2:
        raise ValueError(
            f"oracle cap {oracle_max} is below 2; its checks would compare nothing")
    if fault is not None:
        _fault_cell(fault, oracle_max)
    t0 = time.perf_counter()
    try:
        tables = build_tables(len(REFERENCE_A))
        build = CheckResult("dp-build", True, f"N={tables.N}")
    except Exception as exc:
        tables, build = None, _raised("dp-build", exc)
    results = [replace(build, seconds=time.perf_counter() - t0)]

    reports = functools.cache(oracle.oracle_report)

    def run(name: str, check, *args, **kwargs) -> None:
        """Append check's result, or a FAIL row under the check's own name
        naming the exception it raised, so that one broken route leaves
        the later checks running.  A check handed the tables fails unrun
        when they did not build."""
        t0 = time.perf_counter()
        if None in args:
            res = CheckResult(name, False, "not run: dp-build failed")
        else:
            try:
                res = check(*args, **kwargs)
            except Exception as exc:
                res = _raised(name, exc)
        results.append(replace(res, seconds=time.perf_counter() - t0))

    if fault is not None and tables is not None:
        cell = apply_fault(tables, fault)
        results.append(CheckResult(
            "fault-injection", True, f"corrupted {cell}; expect a FAIL below"))
    run("dp-reference-table", check_dp_reference, tables)
    run("series-reference-table", check_series_reference)
    for n in range(2, oracle_max + 1):
        run(f"oracle-dp-n{n}", check_oracle_dp, tables, n, reports=reports)
    for n in range(2, oracle_max + 1):
        run(f"reduction-n{n}", check_reduction, n, reports=reports)
    run("series-v0-shift", check_v0_shift)
    run("series-c-weight-one", check_c1u_at_one)
    run("series-b-weight-one", check_b1u_at_one)
    run("series-bivariate-diagonal", check_a_vu_diagonal)
    run("weighted-marginals", check_weighted_marginals, tables)
    run("series-integrality", check_integrality)
    run("conjecture-power-inequality", check_power_inequality, tables)
    run("bivariate-oracle", check_bivariate_oracle, oracle_max, reports=reports)
    return results
