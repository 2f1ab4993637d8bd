"""Truncated-series arithmetic: orders, valuations, exact division."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vincular.powerseries import Q, Series, as_int


def ints(s):
    return tuple(int(c) for c in s.coeffs)


def test_construction_and_order():
    s = Series([1, 2, 3])
    assert s.order == 2
    assert s[0] == 1 and s[2] == 3
    with pytest.raises(ValueError):
        Series([])
    with pytest.raises(IndexError):
        s[3]


def test_valuation():
    assert Series([0, 0, 3, 1]).val() == 2
    assert Series([5]).val() == 0
    assert Series([0] * 5).val() is None


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        Series([1, 2]) * Series([1, 2, 3])


def test_multiplication():
    f = Series([1, 1, 0, 0])
    assert ints(f * f) == (1, 2, 1, 0)
    assert ints(3 * Series([1, 2])) == (3, 6)
    assert ints(Series([0, 1, 0]) * Series([0, 1, 0])) == (0, 0, 1)


def test_geometric_inverse():
    geo = Series([1] + [0] * 8) / Series([1, -1] + [0] * 7)
    assert ints(geo) == (1,) * 9


def test_division_drops_order_by_denominator_valuation():
    num = Series([0, 0, 1, 5, 0])     # x^2 + 5x^3, order 4
    den = Series([0, 1, 1, 0, 0])     # x + x^2, order 4
    quot = num / den
    assert quot.order == 3            # one order lost to the valuation
    assert ints(quot) == (0, 1, 4, -4)


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        Series([1, 0]) / Series([0, 0])
    # numerator valuation below denominator valuation is not a power series
    with pytest.raises(ValueError):
        Series([1, 0, 0]) / Series([0, 1, 0])
    # a divisor starting past the known order leaves no coefficient at all
    with pytest.raises(ValueError, match="divisor valuation exceeds known order"):
        Series([1, 0]) / Series([0, 0, 1])


def test_scalar_division():
    assert ints(Series([2, 0, 0, 0, 0]) / Series([1, -1, 0, 0, 0])) == (
        2, 2, 2, 2, 2)


def test_truncate_and_shift():
    f = Series([1, 2, 3, 4])
    assert ints(f.truncate(1)) == (1, 2)
    with pytest.raises(ValueError):
        f.truncate(9)
    # a Series is immutable, so truncating to its own order keeps it
    assert f.truncate(f.order) is f


def test_coefficient_ring():
    # integral coefficients are plain ints whatever they were built from;
    # the others are rationals in lowest terms
    s = Series([Q(4, 2), 3, Q(2, 4), "1/3"])
    assert [type(c) for c in s.coeffs[:2]] == [int, int]
    assert s.coeffs[2:] == (Q(1, 2), Q(1, 3))
    assert all(type(c) is Q for c in s.coeffs[2:])
    assert all(type(c) is int for c in (Series([Q(1, 2)]) * 2).coeffs)
    # a -1 constant term divides exactly without leaving the integers
    inv = Series([1, 0, 0, 0, 0]) / Series([-1, 1, 0, 0, 0])
    assert inv.coeffs == (-1, -1, -1, -1, -1)
    assert all(type(c) is int for c in inv.coeffs)


def test_equality_and_hash():
    assert Series([1, 2]) == Series((1, 2))
    assert hash(Series([1, 2])) == hash(Series([Q(1), Q(2)]))
    assert Series([1, 2]) != Series([1, 2, 0])


def series(poly, order):
    """A polynomial as a series of the given order, zero-padded."""
    return Series((list(poly) + [0] * order)[: order + 1])


def test_expand_rational():
    def ratio(num, den, order):
        return series(num, order) / series(den, order)

    assert ints(ratio([1], [1, -1], 5)) == (1,) * 6
    assert ints(ratio([1], [1, -2, 1], 4)) == (1, 2, 3, 4, 5)
    # valuation in the denominator cancels against the numerator, at the
    # cost of one order
    assert ints(ratio([0, 0, 1], [0, 1], 4)) == (0, 1, 0, 0)
    # a constant term other than +-1 makes the quotient rational
    assert ratio([1], [2, -1], 3).coeffs == (
        Q(1, 2), Q(1, 4), Q(1, 8), Q(1, 16))
    with pytest.raises(ZeroDivisionError):
        ratio([1], [0], 3)


def test_as_int():
    assert as_int(Q(6, 2)) == 3
    assert as_int(7) == 7
    with pytest.raises(ValueError):
        as_int(Q(1, 2))


polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6)


@given(polys, polys)
def test_multiplication_commutes(p, q):
    f = series(p, 7)
    g = series(q, 7)
    assert f * g == g * f


@given(polys, polys)
def test_product_then_exact_division_roundtrips(p, q):
    f = series(p, 7)
    g = series([1] + q, 7)   # unit constant term
    assert (f * g) / g == f
    h = series([Q(-3, 2)] + q, 7)   # non-unit rational constant
    assert (f * h) / h == f


@given(polys, polys, polys)
def test_distributive(p, q, r):
    # the sums are taken on the coefficients: Series has no addition
    def add(a, b):
        return Series(x + y for x, y in zip(a.coeffs, b.coeffs))

    f, g, h = (series(t, 6) for t in (p, q, r))
    assert f * add(g, h) == add(f * g, f * h)


def fraction_long_division(f, g):
    """f / g by plain long division over Fraction, g starting at x^w."""
    w = next(i for i, c in enumerate(g) if c)
    f, g = f[w:], g[w:]
    q = []
    for n in range(min(len(f), len(g))):
        acc = Q(f[n]) - sum(q[k] * g[n - k] for k in range(n))
        q.append(acc / g[0])
    return q


@given(st.sampled_from([1, -1, 2, -2, 3, -6]), st.integers(0, 2),
       polys, polys)
def test_division_is_exact_on_integers(g0, w, p, r):
    # each step divides with one divmod: an exact quotient stays an int,
    # any other becomes a Q in lowest terms that later steps build on
    f = series([0] * w + p, 7)
    g = series([0] * w + [g0] + r, 7)
    quot = f / g
    want = fraction_long_division(f.coeffs, g.coeffs)
    assert list(quot.coeffs) == want
    for c in quot.coeffs:
        assert (type(c) is int) == (Q(c).denominator == 1)
        assert type(c) in (int, Q)
