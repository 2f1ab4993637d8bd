"""Closed-form series against the recurrence tables and the oracle.

Every generating series here is a truncation with exact rational
coefficients, so agreement means coefficientwise equality, never
approximation.
"""

import hashlib
import os
import subprocess
import sys
from functools import cache
from itertools import product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vincular import genfun
from vincular.oracle import oracle_report, weighted_circular_sum
from vincular.powerseries import Q, Series, _pmul, as_int
from vincular.tables import build_tables

T = build_tables(14)


def setup_module(module):
    genfun.clear_caches()


def test_v1_matches_row_sums():
    v1 = genfun.V1_series(12)
    assert v1[0] == 0
    for n in range(1, 13):
        assert v1[n] == sum(T.v[n][1:])


@pytest.mark.parametrize("c, m", [
    (1, 0), (2, 0), (Q(3, 7), 0), (1, 3), (Q(1, 2), 2), (Q(2, 3), 4), (1, 10)])
def test_geometric_v_matches_recurrence(c, m):
    # the c = 1 cases divide by factors that vanish at x = 0
    genfun.clear_caches()
    p = Series([c] + [0] * 12) / Series([1, -m * c] + [0] * 11)
    want = [0] * 13
    power = Series([1] + [0] * 12)  # p^(j-1)
    for j in range(1, 13):
        row = [T.v[n][j] if j < len(T.v[n]) else 0 for n in range(13)]
        want = [a + b for a, b in zip(want, _pmul(row, power.coeffs, 13))]
        power = power * p
    assert genfun._at(genfun._V_scaled_geom, c, m, 12) == Series(want)


@pytest.mark.parametrize("c", [1, Q(1)])
@pytest.mark.parametrize("build", [
    genfun._V_scaled_geom, genfun._C1u_geom, genfun._B1u_geom],
    ids=lambda f: f.__name__)
def test_collapsed_weight_raises(build, c):
    # at p = 1/(1-x) the kernel 1-p+px vanishes identically
    genfun.clear_caches()
    with pytest.raises(genfun.KernelSpecializationError):
        build(c, 1, 6)


def test_geometric_v_dense_operations_do_not_grow_with_order(monkeypatch):
    calls = []
    mul, div = Series.__mul__, Series.__truediv__

    def counting(op):
        def wrapped(a, b):
            if isinstance(b, Series):
                calls.append(op)
            return op(a, b)
        return wrapped

    monkeypatch.setattr(Series, "__mul__", counting(mul))
    monkeypatch.setattr(Series, "__truediv__", counting(div))
    counts = []
    for N in (20, 40):
        genfun.clear_caches()
        calls.clear()
        genfun._V_scaled_geom(1, 3, N)
        counts.append((calls.count(mul), calls.count(div)))
    assert counts[0] == counts[1]


def test_coupled_sums_operation_counts_do_not_grow_with_order(monkeypatch):
    # each coupled sum nests every c series it reads from one Horner pass
    # per kernel sum of the last-letter series, with one product by V0 in
    # all, so a cold A_series makes four _pmul calls at N = 61 and at
    # N = 201 (a product by a linear polynomial is one pass, not a
    # _pmul), and a cold B1u_series(1, N) lists as many kernel sums at
    # N = 64 as at N = 32 and builds no c series at any weight twice
    counts = {"pmul": 0, "levels": 0}
    built = []

    def counting(name, f):
        def wrapped(*args):
            counts[name] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(genfun, "_pmul", counting("pmul", genfun._pmul))
    monkeypatch.setattr(genfun, "_levels",
                        counting("levels", genfun._levels))
    c1u = genfun._C1u_geom
    monkeypatch.setattr(genfun, "_C1u_geom", lambda c, k, N, D=None: (
        built.append((c, k)), c1u(c, k, N, D))[1])
    seen = {}
    for name, call, N in [("pmul", genfun.A_series, 61),
                          ("pmul", genfun.A_series, 201),
                          ("levels", lambda n: genfun.B1u_series(1, n), 32),
                          ("levels", lambda n: genfun.B1u_series(1, n), 64)]:
        genfun.clear_caches()
        counts[name] = 0
        call(N)
        seen.setdefault(name, []).append(counts[name])
    assert seen["pmul"] == [4, 4], seen
    assert seen["levels"][0] == seen["levels"][1], seen
    assert len(built) == len(set(built)), built


def test_laurent_part_must_cancel():
    # a kernel sum may start below x^0 only if those coefficients vanish;
    # the check raises, so it also runs under python -O
    assert genfun._placed(1, (-1, (1, 2), [0, 2, 4])).coeffs == (1, 2)
    with pytest.raises(RuntimeError):
        genfun._placed(1, (-1, (1, 1), [1, 2, 4]))


@pytest.mark.parametrize("scale", [1, -1, 3, Q(1, 3), Q(-2, 3), Q(5, 6)])
def test_place_keeps_exact_quotients_integral(scale):
    cs = [6, -9, 4, Q(3, 4), 0, 12]
    pair = Q(scale).numerator, Q(scale).denominator
    s = genfun._placed(5, (1, pair, cs))
    assert s.coeffs == tuple(Q(c) * scale for c in [0] + cs[:5])
    for c in s.coeffs:
        # an exact quotient is an int, any other a Q in lowest terms
        assert (type(c) is int) == (Q(c).denominator == 1)


@pytest.mark.parametrize("factors", [
    [(0, 3)], [(0, -3)], [(0, Q(-2, 5))], [(1, -4)], [(-1, 2)], [(3, -6)],
    [(-2, 5)], [(Q(4, 7), Q(-3, 7))], [(Q(-1, 2), 3)],
    [(0, -3), (-2, 5), (0, Q(2, 7))]], ids=str)
def test_div_linear_matches_series_division(factors):
    # _divided in y = x/D, then _placed: the integer-pair scale must carry
    # the sign, the size and the x-power shift of each factor
    s = Series([0, 0, 2, -3, Q(1, 2), 7, 0, -5, 1])
    want = s
    for a0, a1 in factors:
        want = want / Series([a0, a1] + [0] * (want.order - 1))
    # every ratio a1/a0 is an integer in y = x/D
    D = lcm(*(Q(a1, a0).denominator for a0, a1 in factors if a0))
    part = genfun._divided(genfun._in_y(s, D),
                           *((a0, a1 * D) for a0, a1 in factors))
    got = genfun._placed(s.order + part[0], part, D=D)
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@pytest.mark.parametrize("m", [0, 1, 3])
@pytest.mark.parametrize("c", [
    3, 7, Q(3, 7), Q(1, 2), Q(6, 7), Q(22, 7), Q(-2, 5)], ids=str)
def test_kernel_route_stays_on_integers(monkeypatch, c, m):
    # in y = x/D every kernel level, every nested sum and every folded part
    # is an integer vector, and neither listing the levels, nesting them,
    # folding nor _over_linear builds a Fraction at all
    parts, levels, built, depth = [], [], [], [0]
    new = Q.__new__

    def counting(cls, *args, **kwargs):
        if depth[0]:
            built.append(args)
        return new(cls, *args, **kwargs)

    def inside(step, record=None):
        def wrapped(*args):
            depth[0] += 1
            try:
                out = step(*args)
            finally:
                depth[0] -= 1
            if record is not None:
                record(out)
            return out
        return wrapped

    monkeypatch.setattr(Q, "__new__", counting)
    monkeypatch.setattr(genfun, "_over_linear", inside(genfun._over_linear))
    monkeypatch.setattr(genfun, "_levels",
                        inside(genfun._levels, levels.extend))
    monkeypatch.setattr(genfun, "_kernel_sum",
                        inside(genfun._kernel_sum, parts.append))
    monkeypatch.setattr(genfun, "_fold", inside(genfun._fold, parts.append))
    for build in (genfun._V_scaled_geom, genfun._C1u_geom, genfun._B1u_geom):
        build(c, m, 10)
    assert not built
    assert len(parts) > 20
    assert len(levels) > 30
    for _, _, cs in parts:
        assert all(type(a) is int for a in cs)
    for _, (n, d), poly, bs in levels:
        assert all(type(a) is int for a in (n, d, *poly, *bs))


_rationals = st.sampled_from([1, -1, 2, -3, Q(1, 2), Q(-2, 3), Q(5, 4)])
_factors = st.lists(st.one_of(
    # a1*y only shifts, so a term over it may start below y^0
    st.tuples(st.just(0), _rationals),
    # a0 + a1*y with an integral ratio a1/a0, a0 of either sign
    st.builds(lambda a0, b: (a0, a0 * b), _rationals, st.integers(-4, 4)),
), max_size=2)
_level = st.tuples(
    _factors, st.integers(1, 3),
    st.tuples(st.integers(-6, 6), st.integers(1, 5)),
    # zero polynomials among them: their factors still divide deeper terms
    st.one_of(st.sampled_from([[0], [0, 0]]),
              st.lists(st.integers(-2, 2), min_size=1, max_size=3)))


@given(st.lists(_level, min_size=1, max_size=5), st.integers(1, 3),
       st.integers(0, 6))
def test_nested_sum_matches_term_by_term_division(levels, D, top):
    # Horner's rule against each term k_j y^lo_j P_j / D_j evaluated on
    # its own by Series division over Fractions, the shifts a1*y taken
    # out as a scale and a power of y
    K = len(levels)
    ws = [sum(1 for lev in levels[: j + 1] for a0, _ in lev[0] if not a0)
          for j in range(K)]
    los = [sum(gap for _, gap, _, _ in levels[: j + 1]) - 1 - min(ws[0], 1)
           for j in range(K)]

    def term(j):
        if j < K:
            return ws[j] + los[j], levels[j][2], levels[j][3]
        return ws[-1] + top + 1, (1, 1), [1]

    got = genfun._kernel_sum(levels[0][0], lambda j: (
        levels[j][0] if j < K else []), term, top, D)
    lo, (num, den), cs = got
    assert num == 1 and all(type(a) is int for a in cs)
    L, want = top + 2, {}
    for j in range(K):
        e, (kn, kd), poly = term(j)
        scale, shift, r = Q(kn, kd) * D ** e, 0, Series([1] + [0] * L)
        for factors, _, _, _ in levels[: j + 1]:
            for a0, a1 in factors:
                if a0:
                    r = r / Series([a0, a1] + [0] * (L - 1))
                else:
                    scale, shift = scale / a1, shift + 1
        t = Series(poly + [0] * (L + 1 - len(poly))) * r
        for k, a in enumerate(t.coeffs, e - shift):
            want[k] = want.get(k, 0) + scale * a
    assert [Q(a, den) for a in cs] == [want.get(k, 0)
                                       for k in range(lo, top + 1)]
    assert not any(a for k, a in want.items() if k < lo)


def test_fold_rejects_a_short_part():
    # a part that stops before x^top would leave its tail out of the sum
    with pytest.raises(RuntimeError, match="falls short of x\\^3"):
        genfun._fold([(0, (1, 1), [1, 2, 3, 4]), (1, (1, 1), [1, 2])], 3)


def test_fold_matches_a_fraction_sum():
    # parts out of order, one below x^0, coprime denominators; the empty
    # part and the one past top are skipped and leave the lcm alone
    top = 5
    parts = [(2, (3, 7), [1, -2, 5, 4]),
             (-1, (-5, 4), [2, 0, 1, 3, 1, 1, 9, 8]),
             (0, (1, 9), []),
             (6, (1, 11), [1, 2]),
             (0, (2, 1), [1, 1, 1, 1, 1, 1])]
    want = {}
    for lo, (n, d), cs in parts:
        for e, a in enumerate(cs, lo):
            if e <= top:
                want[e] = want.get(e, 0) + Q(n, d) * a
    lo, (num, den), cs = genfun._fold(parts, top)
    assert (lo, num, den) == (-1, 1, 28)
    assert all(type(a) is int for a in cs)
    assert [Q(a, den) for a in cs] == [want[e] for e in range(lo, top + 1)]
    assert genfun._fold([], top) == (top + 1, (1, 1), [])


def test_times_rejects_an_outer_series_below_its_valuation():
    part = (0, (1, 1), [1, 2, 3])
    assert genfun._times(lambda n: Series([0, 1] + [0] * (n - 1)), 1,
                         part) == (1, (1, 1), [1, 2, 3])
    with pytest.raises(RuntimeError, match="does not vanish below x\\^1"):
        genfun._times(lambda n: Series([1, 1] + [0] * (n - 1)), 1, part)


def test_kernel_terms_must_advance():
    # every term starting at y^0 would never pass top and never stop
    with pytest.raises(RuntimeError, match="do not advance"):
        genfun._levels([], lambda j: [], lambda j: (0, (1, 1), [1]), 5)


@pytest.mark.parametrize("a0, a1", [(3, 1), (Q(2, 3), 1), (2, Q(1, 2))])
def test_non_integral_ratio_raises(a0, a1):
    # a ratio a1/a0 that D did not clear would put a Fraction in the list;
    # the check raises, so it also runs under python -O, both where a part
    # is divided and where a kernel sum lists its levels
    with pytest.raises(RuntimeError, match="no integral ratio"):
        genfun._over_linear([1, 2, 3], a0, a1)
    with pytest.raises(RuntimeError, match="no integral ratio"):
        genfun._levels([(a0, a1)], lambda j: [],
                       lambda j: (j, (1, 1), [1]), 5)


def test_v0_is_x_plus_x_v1():
    v0 = genfun.V0_series(12)
    v1 = genfun.V1_series(11)
    assert v0[0] == 0 and v0[1] == 1
    for n in range(2, 13):
        assert v0[n] == v1[n - 1]


def test_c11_matches_cell_totals():
    c11 = genfun.C11_series(13)
    for n in range(0, 14):
        assert c11[n] == sum(T.c_last[n][1:] if n >= 2 else [0])


def test_b11_matches_cell_totals():
    b11 = genfun.B11_series(13)
    for n in range(0, 14):
        assert b11[n] == sum(T.b_last[n][1:] if n >= 2 else [0])


def test_a_series_shifts_the_sequence():
    a = genfun.a_from_series(genfun.A_series(13))
    assert a[1:13] == list(T.a[1:13])


def test_series_and_recurrence_agree_through_130():
    a = genfun.a_from_series(genfun.A_series(131))
    assert a[1:131] == build_tables(130).a[1:131]


def test_weight_one_specializations():
    assert genfun.C1u_series(1, 16) == genfun.C11_series(16)
    assert genfun.B1u_series(1, 16) == genfun.B11_series(16)
    assert genfun.A_vu_series(1, 1, 16) == genfun.A_series(16)


def test_weight_one_c_series_builds_the_x4_term(monkeypatch):
    # at u = 1 the last three terms of C1u vanish through G(0) = 1 - u but
    # are built all the same, so C1u(1) = C11 checks the general formula
    weights, build = [], genfun._V_scaled_geom

    def recording(c, m, N, D=None):
        weights.append((c, m))
        return build(c, m, N, D)

    monkeypatch.setattr(genfun, "_V_scaled_geom", recording)
    genfun.clear_caches()
    assert genfun.C1u_series(1, 16) == genfun.C11_series(16)
    assert (1, 2) in weights


def test_weighted_marginals():
    # at u = 3/7 every quotient in the b series' four sums is rational
    # u = 3/7 at order 12 and 3/2 at order 10 grow the unreduced scales
    for u, order in ((2, 10), (3, 10), (Q(3, 7), 6), (Q(3, 7), 12),
                     (Q(3, 2), 10)):
        bu = genfun.B1u_series(u, order)
        cu = genfun.C1u_series(u, order)
        for n in range(2, order + 1):
            assert bu[n] == sum(
                T.b_last[n][j] * u ** (j - 1) for j in range(1, n + 1))
            assert cu[n] == sum(
                T.c_last[n][j] * u ** (j - 2) for j in range(2, n + 1))


@pytest.mark.parametrize("u", [Q(6, 7), Q(22, 7), Q(-2, 5), 7], ids=str)
def test_weighted_marginals_at_every_kind_of_scale(u):
    # D = q|q - p| with q - p = 1 (6/7), q - p < 0 (22/7), c < 0 (-2/5) and
    # an integer weight away from 1 and 2 (7)
    bu = genfun.B1u_series(u, 12)
    cu = genfun.C1u_series(u, 12)
    for n in range(2, 13):
        assert bu[n] == sum(
            T.b_last[n][j] * u ** (j - 1) for j in range(1, n + 1))
        assert cu[n] == sum(
            T.c_last[n][j] * u ** (j - 2) for j in range(2, n + 1))


# Each call is made cold.  The small orders are where the requests for
# the shared series reach order 0 or below, past every guard on them.
_UNDER_O_CALLS = [
    "B1u_series(Q(3, 7), 12)", "C1u_series(Q(22, 7), 12)",
    "A_vu_series(Q(1, 2), Q(2, 3), 8)", "A_vu_series(2, Q(1, 2), 8)"]
_UNDER_O_CALLS += [f"A_series({N})" for N in range(13)]
_UNDER_O_CALLS += [f"{f}({u}, {N})" for f in ("B1u_series", "C1u_series")
                   for u in ("1", "Q(3, 7)") for N in range(6)]
_UNDER_O_CALLS += [f"A_vu_series({v}, {N})" for v in ("1, 1", "2, Q(1, 2)")
                   for N in range(7)]

_UNDER_O = """
import sys
from vincular import genfun
from vincular.powerseries import Q
for call in sys.argv[1:]:
    genfun.clear_caches()
    s = eval(call, {**vars(genfun), "Q": Q})
    print(";".join(f"{type(c).__name__}:{c}" for c in s.coeffs))
"""


def test_series_agree_under_python_O():
    # python -O strips asserts; every exactness guard must be a raise
    src = str(Path(genfun.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-O", "-c", _UNDER_O, *_UNDER_O_CALLS],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    want = []
    for call in _UNDER_O_CALLS:
        genfun.clear_caches()
        s = eval(call, {**vars(genfun), "Q": Q})
        want.append(";".join(f"{type(c).__name__}:{c}" for c in s.coeffs))
    assert done.stdout.splitlines() == want


def test_bivariate_against_oracle():
    s = genfun.A_vu_series(2, 3, 7)
    for n in range(3, 8):
        assert s[n] == weighted_circular_sum(oracle_report(n), 2, 3)


_report = cache(oracle_report)


@pytest.mark.parametrize("v, u", [
    (Q(1, 2), Q(2, 3)), (Q(3, 5), Q(2, 7)), (Q(-2, 5), 3), (2, Q(1, 2)),
    (1, Q(3, 4)), (Q(5, 3), Q(3, 2))], ids=str)
def test_bivariate_rational_weights(v, u):
    # the scales D_u, D_v and D_uv differ, so every part is built in
    # y = x/D with D their lcm (2030 at 3/5, 2/7); at 2, 1/2 the product
    # uv is 1 and at 1, 3/4 the weight v is, each with scale 1
    s = genfun.A_vu_series(v, u, 8)
    for n in range(3, 9):
        assert s[n] == weighted_circular_sum(_report(n), v, u)


def test_two_variable_formula_builds_few_fractions(monkeypatch):
    # every formula folds as integer parts in one y = x/D and is placed
    # once, so past the shared V0/V1/C11/B11 builds a cold call makes only
    # the few Fractions of its seven part builds, its scalars and the
    # final placement
    made, new = [0], Q.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    v, u = Q(1, 2), Q(2, 3)
    genfun.clear_caches()
    monkeypatch.setattr(Q, "__new__", counting)
    genfun.A_vu_series(v, u, 20)
    total = made[0]
    orders = {name: s.order for name, s in genfun._SERIES_CACHE.items()}
    # the same shared builds, cold and each once: inputs first
    genfun.clear_caches()
    for name in ("V0_series", "V1_series", "C11_series", "B11_series"):
        getattr(genfun, name)(orders[name])
    assert {name: s.order for name, s in genfun._SERIES_CACHE.items()} == (
        orders)
    shared = made[0] - total
    assert total - shared <= 200


def test_counting_route_builds_no_fraction(monkeypatch):
    # V0 and B11 divide integer series whose quotients count words, and
    # every other count series is placed from integer parts, so a cold
    # count never builds a Fraction
    made, new = [0], Q.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", counting)
    counts = []
    for call in (lambda: genfun.A_series(31),
                 lambda: genfun.a_from_series(genfun.A_series(4))):
        genfun.clear_caches()
        made[0] = 0
        call()
        counts.append(made[0])
    assert counts == [0, 0]


@pytest.mark.parametrize("cs, power", [([1, 0, 0, 0], 0), ([2, 2, 1, 0], 3)])
def test_count_quotient_refuses_a_non_integral_coefficient(cs, power):
    # a raise, not an assert, so the guard also holds under python -O
    genfun.clear_caches()
    den = genfun._den_sum(4)
    one = genfun._count_quotient("probe", 4, (0, (1, den[1]), den.coeffs))
    assert one.coeffs == (1, 0, 0, 0)
    with pytest.raises(RuntimeError,
                       match=f"probe is not integral at x\\^{power}:"):
        genfun._count_quotient("probe", 4, (1, (1, 2), cs))


def test_degenerate_weight_raises():
    with pytest.raises(genfun.KernelSpecializationError):
        genfun.A_vu_series(2, 1, 8)
    with pytest.raises(genfun.KernelSpecializationError):
        genfun.A_vu_series(Q(1, 3), 1, 8)


def test_nonnegative_integer_coefficients():
    for build in (genfun.A_series, genfun.B11_series, genfun.C11_series,
                  genfun.V1_series):
        s = build(16)
        for coef in s.coeffs:
            assert coef.denominator == 1 and coef >= 0


def test_cache_rejects_a_short_build():
    @genfun._memo
    def probe(N):
        return Series([0] * 4)

    with pytest.raises(ValueError):
        probe(5)
    assert "probe" not in genfun._SERIES_CACHE


def test_cache_serves_truncations():
    genfun.clear_caches()
    big = genfun.B11_series(12)
    small = genfun.B11_series(7)
    assert small == big.truncate(7)
    # growing the order forces a rebuild, shrinking must not
    fresh = genfun.B11_series(13)
    assert fresh.truncate(12) == big


def test_a_small_values():
    a = genfun.a_from_series(genfun.A_series(10))
    assert a[1:10] == [1, 2, 5, 15, 50, 180, 690, 2792, 11857]
    assert as_int(genfun.A_series(4)[4]) == 5


# Every pinned series, built in this order, hashed coefficient by
# coefficient as type:value, so the int-or-Q contract is pinned as well.
_PINNED = [("A_series(40)", lambda: genfun.A_series(40))]
_PINNED += [(f"{f.__name__}(32)", lambda f=f: f(32)) for f in (
    genfun.V0_series, genfun.V1_series, genfun.B11_series, genfun.C11_series)]
_PINNED += [(f"{f.__name__}({u}, 12)", lambda f=f, u=u: f(u, 12))
            for f in (genfun.B1u_series, genfun.C1u_series)
            for u in (1, 2, 3, 5, Q(1, 2), Q(3, 7))]
_PINNED += [
    ("A_vu_series(2, 3, 10)", lambda: genfun.A_vu_series(2, 3, 10)),
    ("A_vu_series(1/2, 2/3, 8)",
     lambda: genfun.A_vu_series(Q(1, 2), Q(2, 3), 8))]
_PINNED_SHA256 = (
    "6a11caadfe051bbd771c0029e4bc177d03546807a2abd66e8c9580c6b005ae24")


def _pinned_digest(builds, pinned=_PINNED) -> str:
    built = {name: build() for name, build in builds}
    h = hashlib.sha256()
    for name, _ in pinned:
        h.update(f"{name}\n".encode())
        for c in built[name].coeffs:
            h.update(f"{type(c).__name__}:{c};".encode())
    return h.hexdigest()


def test_series_coefficients_match_pinned_digest():
    # once from a cold cache, once warm and in reverse order, so neither
    # the build order nor a cache hit may change a coefficient or its type
    genfun.clear_caches()
    assert _pinned_digest(_PINNED) == _PINNED_SHA256
    assert _pinned_digest(_PINNED[::-1]) == _PINNED_SHA256


# Series whose kernel sums run many levels: the couplings of B11 and of the
# b series nest about N c series each, at every kind of weight.
_DEEP = [("A_series(131)", lambda: genfun.A_series(131))]
_DEEP += [(f"{f.__name__}({u}, 40)", lambda f=f, u=u: f(u, 40))
          for f in (genfun.B1u_series, genfun.C1u_series)
          for u in (1, 2, Q(3, 7), Q(-2, 5), Q(22, 7))]
_DEEP += [("A_vu_series(1/2, 2/3, 20)",
           lambda: genfun.A_vu_series(Q(1, 2), Q(2, 3), 20))]
_DEEP_SHA256 = (
    "ae7b4006b651e00079733dd37e71f92027128c4bfbf5d08d488a3e255acd093d")


def test_deep_kernel_sums_match_pinned_digest():
    genfun.clear_caches()
    assert _pinned_digest(_DEEP, _DEEP) == _DEEP_SHA256


def _cold_digest(builds) -> str:
    """_pinned_digest with the cache cleared before each build, so every
    series is built at exactly the orders its own call asks for."""
    def cold(build):
        genfun.clear_caches()
        return build()

    return _pinned_digest([(name, lambda b=b: cold(b)) for name, b in builds],
                          builds)


# Every public builder at every order from 0 through 12, each built cold:
# the low orders are where a request for a shared series, a kernel sum or
# a part reaches its lowest order, or none.
_WEIGHTS_1 = (1, 2, Q(3, 7), Q(-2, 5))
_WEIGHTS_2 = ((1, 1), (2, 3), (Q(1, 2), Q(2, 3)), (2, Q(1, 2)), (1, Q(3, 4)),
              (Q(-2, 5), 3))
_EVERY_ORDER = [
    (f"{f.__name__}({N})", lambda f=f, N=N: f(N)) for f in (
        genfun.V0_series, genfun.V1_series, genfun.C11_series,
        genfun.B11_series, genfun.A_series) for N in range(13)]
_EVERY_ORDER += [
    (f"{f.__name__}({u}, {N})", lambda f=f, u=u, N=N: f(u, N))
    for f in (genfun.B1u_series, genfun.C1u_series) for u in _WEIGHTS_1
    for N in range(13)]
_EVERY_ORDER += [
    (f"A_vu_series({v}, {u}, {N})",
     lambda v=v, u=u, N=N: genfun.A_vu_series(v, u, N))
    for v, u in _WEIGHTS_2 for N in range(13)]
_EVERY_ORDER_SHA256 = (
    "9f8b085d8404853773f35b71d8fd88dfaea6572133183dbafbe247c7d7d54519")


def test_every_builder_at_every_small_order_matches_pinned_digest():
    assert _cold_digest(_EVERY_ORDER) == _EVERY_ORDER_SHA256


# Deeper than _DEEP: B11's couplings nest about 200 c series.
_DEEPER = [("A_series(201)", lambda: genfun.A_series(201))]
_DEEPER += [(f"{f.__name__}({u}, 80)", lambda f=f, u=u: f(u, 80))
            for f in (genfun.B1u_series, genfun.C1u_series)
            for u in (1, 2, Q(3, 7))]
_DEEPER_SHA256 = (
    "25ab8125234b8b64f070062d0ae7efa96d9b7dcb8af592416209f68979cf6b7f")


def test_deeper_kernel_sums_match_pinned_digest():
    assert _cold_digest(_DEEPER) == _DEEPER_SHA256


def test_cache_holds_only_the_shared_series():
    genfun.clear_caches()
    genfun.A_series(31)
    genfun.B1u_series(Q(3, 7), 10)
    genfun.C1u_series(Q(3, 7), 10)
    genfun.A_vu_series(Q(1, 2), Q(2, 3), 8)
    assert set(genfun._SERIES_CACHE) == {
        "V0_series", "V1_series", "C11_series", "B11_series", "_den_sum"}


@pytest.mark.parametrize("call", [
    lambda: genfun.A_series(3),
    lambda: genfun.A_series(4),
    lambda: genfun.A_series(31),
    lambda: genfun.B1u_series(Q(3, 7), 4),
    lambda: genfun.B1u_series(1, 32),
    lambda: genfun.B1u_series(Q(3, 7), 20),
    lambda: genfun.C1u_series(Q(3, 7), 20),
    lambda: genfun.A_vu_series(2, 3, 3),
    lambda: genfun.A_vu_series(2, 3, 10),
    lambda: genfun.A_vu_series(Q(1, 2), Q(2, 3), 8),
    lambda: genfun.A_vu_series(1, 2, 31),
    lambda: genfun.A_vu_series(2, Q(1, 2), 31),
    lambda: genfun.A_vu_series(2, Q(1, 2), 2),
], ids=["A3", "A4", "A31", "B1u-3/7-N4", "B1u-1", "B1u-3/7", "C1u-3/7", "Avu-2-3-N3",
        "Avu-2-3", "Avu-1/2-2/3", "Avu-1-2", "Avu-2-1/2", "Avu-2-1/2-N2"])
def test_one_cold_call_builds_each_shared_series_once(monkeypatch, call):
    # each formula asks for a shared series at its highest order first,
    # so a later, smaller request is served by truncation
    builds = []

    class Recording(dict):
        def __setitem__(self, key, value):
            builds.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(genfun, "_SERIES_CACHE", Recording())
    call()
    assert builds
    assert len(builds) == len(set(builds)), builds


def _build_log(monkeypatch, *calls) -> list:
    """(name, order) of every shared series that calls build, in order,
    from an empty cache."""
    builds = []

    class Recording(dict):
        def __setitem__(self, key, value):
            builds.append((key, value.order))
            super().__setitem__(key, value)

    monkeypatch.setattr(genfun, "_SERIES_CACHE", Recording())
    for call in calls:
        call()
    return builds


@pytest.mark.parametrize("calls, want", [
    # A_series(4) reads B11 and C11 through x^3; B11 at 3 reads the
    # denominator sum at 4 and C11 at 3, which reads V1 at 0: zero, since
    # no word has size 0, so no V0 and no kernel sum of V1 is built
    ((lambda: genfun.A_series(4),),
     [("_den_sum", 4), ("V1_series", 0), ("C11_series", 3),
      ("B11_series", 3)]),
    # C11 at 3 is x^3: its V parts are read through x^0 and build nothing
    ((lambda: genfun.C11_series(3),),
     [("V1_series", 0), ("C11_series", 3)]),
    # at order 3 the b series reads B11 through x^2 and no C11; the c
    # series then reads C11 through x^2, which is zero and reads nothing
    ((lambda: genfun.B1u_series(Q(3, 7), 3),
      lambda: genfun.C1u_series(Q(3, 7), 3)),
     [("_den_sum", 3), ("B11_series", 2), ("C11_series", 2)]),
], ids=["A4", "C11-N3", "B1u-then-C1u-3/7-N3"])
def test_cold_calls_build_each_shared_series_once_at_the_order_read(
        monkeypatch, calls, want):
    assert _build_log(monkeypatch, *calls) == want


@pytest.mark.parametrize("call", [
    lambda: genfun.A_series(31),
    lambda: genfun.B11_series(20),
    lambda: genfun.B1u_series(1, 20),
    lambda: genfun.B1u_series(Q(3, 7), 20),
    lambda: genfun.C1u_series(1, 20),
    lambda: genfun.A_vu_series(1, 1, 20),
    lambda: genfun.A_vu_series(2, Q(1, 2), 20),
    lambda: genfun.A_vu_series(Q(1, 2), Q(2, 3), 20),
    lambda: genfun.A_vu_series(2, Q(1, 2), 2),
], ids=["A31", "B11", "B1u-1", "B1u-3/7", "C1u-1", "Avu-1-1", "Avu-2-1/2",
        "Avu-1/2-2/3", "Avu-2-1/2-N2"])
def test_each_shared_series_is_built_once_at_the_highest_order_read(
        monkeypatch, call):
    # without _prebuild the formulas' own requests show the highest order
    # each shared series is read at; with it, each is built once, there
    read = {}
    for name in ("_den_sum", "V0_series", "V1_series", "C11_series",
                 "B11_series"):
        def reading(N, build=getattr(genfun, name), name=name):
            read[name] = max(read.get(name, N), N)
            return build(N)
        monkeypatch.setattr(genfun, name, reading)
    monkeypatch.setattr(genfun, "_prebuild", lambda *orders: None)
    genfun.clear_caches()
    call()
    monkeypatch.undo()
    builds = _build_log(monkeypatch, call)
    assert len(builds) == len(read) and dict(builds) == read, (builds, read)


def test_prebuild_serves_every_read_it_is_given(monkeypatch):
    # whatever orders a formula reads C11, B11 and V1 at, the prebuild
    # builds each shared series once, and those reads then build nothing
    for c11, b11, v1 in product(range(-1, 9), repeat=3):
        reads = [lambda f=f, n=n: f(n) for f, n in (
            (genfun.V1_series, v1), (genfun.C11_series, c11),
            (genfun.B11_series, b11)) if n >= 0]
        builds = _build_log(
            monkeypatch, lambda: genfun._prebuild(c11, b11, v1), *reads)
        names = [name for name, _ in builds]
        assert len(names) == len(set(names)), (c11, b11, v1, builds)
