"""Closed-form generating functions expanded as exact truncated series.

Every public function returns a :class:`Series` of exactly the requested
order with exact rational coefficients.  The closed forms involve infinite
sums whose terms are rational expressions of strictly growing valuation;
each sum is evaluated with running denominator products until the terms
provably stop touching the requested coefficient window.

Dividing by a series of valuation w costs w coefficients of certainty, and
several weight specializations (weight 1, geometric weights 1/(1-kx)) make
kernel factors vanish at the constant term.  Internal work therefore
happens at a padded order, and truncating down to the caller's request
raises ValueError if the achieved order falls short.  Series that
different formulas share (the last-letter series at assorted geometric
weights, the one-variable b and c series) are cached at the largest order
built so far.

Weight conventions, with the coefficient of x^n counting words of size n:

* V-type series weigh a last-letter avoider ending in j by p^(j-1).
* ``C1u_series(u)`` weighs a c-type word ending in (i, j) by u^(j-2); the
  two-variable form inside ``A_vu_series`` adds v^(i-2).
* ``B1u_series(u)`` weighs a b-type word by u^(j-1); two-variable adds
  v^(i-1).
* ``A_vu_series(v, u)`` weighs a circular class of size n >= 3, written
  with 1 first, by v^(s-2) u^(t-2) where s and t are the last two letters
  of the written word (the two letters preceding 1 cyclically); sizes 1
  and 2 carry weight 1.
"""

from __future__ import annotations

from math import factorial

from .powerseries import Q, Series, as_int, expand_rational


class KernelSpecializationError(ValueError):
    """A weight makes a kernel vanish identically, with no removable limit."""


_MAX_SUM_TERMS = 4096

_SERIES_CACHE: dict[tuple, Series] = {}


def clear_caches() -> None:
    _SERIES_CACHE.clear()


def _cached(key: tuple, N: int, build) -> Series:
    """Serve key from the cache, rebuilding when more order is needed.

    Builds may return working order beyond the request, but only the
    first N coefficients are guaranteed (tail sums stop contributing
    exactly there), so the entry is truncated to N before it is stored:
    a cached series is reliable through its whole order.
    """
    hit = _SERIES_CACHE.get(key)
    if hit is None or hit.order < N:
        hit = build().truncate(N)
        _SERIES_CACHE[key] = hit
    return hit.truncate(N)


def _mono(exp: int, order: int) -> Series:
    return Series.monomial(exp, order)


def _rat(num_poly, den_polys, order: int) -> Series:
    """num / (product of denominator polynomials), all expanded at order."""
    den = Series.from_poly(den_polys[0], order)
    for p in den_polys[1:]:
        den = den * Series.from_poly(p, order)
    return Series.from_poly(num_poly, order) / den


def _aligned_sum(terms: list[Series]) -> Series:
    low = min(t.order for t in terms)
    out = Series.zero(low)
    for t in terms:
        out = out + t.truncate(low)
    return out


def _accumulate(total: Series, term: Series) -> Series:
    """Add, eroding to the shorter reliable order."""
    low = min(total.order, term.order)
    return total.truncate(low) + term.truncate(low)


def _kernel_denominators(k0: Series, u: Series, ux: Series, a: int, b: int,
                         lead: int, N: int):
    """Yield (j, den_j) for the terms of one kernel sum that reach order N.

    den_j = k0 * prod_{i <= j+a} (1 - i*ux) * prod_{i <= j+b} (1 - u - i*ux),
    kept as a running product.  Term j contributes nothing below
    x^(lead + 2j - val(den_j)), where lead counts the explicit x powers of
    its numerator and of any outer factor the sum is multiplied by.  Each
    step raises val(den_j) by at most one (only a 1-u-i*ux factor can
    vanish at x = 0), so the terms pass x^N after finitely many steps.
    """
    one = Series.one(ux.order)
    den = k0
    for i in range(1, a + 1):
        den = den * (one - i * ux)
    for i in range(1, b + 1):
        den = den * (one - u - i * ux)
    for j in range(_MAX_SUM_TERMS):
        if lead + 2 * j - den.val() > N:
            return
        yield j, den
        den = den * (one - (j + a + 1) * ux) * (one - u - (j + b + 1) * ux)
    raise RuntimeError("kernel sum failed to terminate")


def _alternating_sum(k0: Series, u: Series, ux: Series, a: int, b: int,
                     lead: int, N: int, pw: Series, numer) -> Series:
    """sum_j (-1)^j numer(j) pw (ux)^(2j) / den_j over the denominators above.

    Terms are skipped (not stopped on) when a specialization of u zeroes a
    numerator identically.
    """
    total = Series.zero(ux.order)
    ux2 = ux * ux
    for j, den in _kernel_denominators(k0, u, ux, a, b, lead, N):
        num = numer(j) * pw
        if j % 2:
            num = -num
        if not num.is_zero():
            total = _accumulate(total, num / den)
        pw = pw * ux2
    return total


# ---------------------------------------------------------------------------
# last-letter avoider series


def V0_series(N: int) -> Series:
    """Counts, by size, of last-letter avoiders whose final letter is 1.

    Ratio of two explicit sums; term j starts at x^(j+1) in the numerator
    sum and x^j in the denominator sum, so both loops stop at the working
    order.  The denominator has valuation 1, costing one coefficient.
    """

    def build() -> Series:
        W = N + 4
        num = Series.zero(W)
        den = Series.zero(W)
        nrun = Series.from_poly([1, -1], W)  # prod (1-ix), i <= j+1
        drun = Series.one(W)                 # prod (1-ix), i <= j
        for j in range(1, W + 1):
            nrun = nrun * Series.from_poly([1, -(j + 1)], W)
            drun = drun * Series.from_poly([1, -j], W)
            scale = Q(1, factorial(j + 1))
            npoly = [0] * (j + 1) + [j + 1, -(j * j + j + 1)]
            dpoly = [0] * j + [j + 1, -(j * j)]
            num = num + scale * (Series.from_poly(npoly, W) / nrun)
            den = den + scale * (Series.from_poly(dpoly, W) / drun)
        return num / den

    return _cached(("V0",), N, build)


def _V_at(p: Series, N: int) -> Series:
    """Last-letter series with the final letter j weighted by p^(j-1).

    Two alternating kernel sums over j, the second carrying the
    final-letter-1 series.
    """
    W = p.order
    one = Series.one(W)
    px = p * _mono(1, W)
    ppx = p * px
    p2x2 = px * px
    k0 = one - p + px
    v0 = V0_series(W)
    first = _alternating_sum(
        k0, p, px, 1, 1, 1, N, px,
        lambda j: ((p - one) - j * ppx + (2 * j + 1) * px
                   - (j * j + j + 1) * p2x2))
    second = _alternating_sum(
        k0, p, px, 0, 1, 1, N, one,
        lambda j: v0 * ((one - j * px) ** 2 - p + (j - 1) * ppx))
    return _accumulate(first, second)


def _V_scaled_geom(c, m: int, N: int) -> Series:
    """Last-letter series at the geometric weight p = c/(1 - m*c*x)."""
    c = Q(c)
    if c == 1 and m == 1:
        raise KernelSpecializationError("weight 1/(1-x) collapses 1-p+px")

    def build() -> Series:
        W = 2 * N + 16
        p = expand_rational([c], [1, -m * c], W)
        return _V_at(p, N)

    return _cached(("V", c, m), N, build)


def V1_series(N: int) -> Series:
    """Counts of last-letter avoiders by size (all weights 1)."""
    return _V_scaled_geom(1, 0, N)


# ---------------------------------------------------------------------------
# c-type series


def C11_series(N: int) -> Series:
    """Totals, by size, of words with 1 left of n and 2 right of n."""

    def build() -> Series:
        W = N + 4
        v1 = V1_series(W)
        vg = _V_scaled_geom(1, 3, W)
        par = (
            Series.from_poly([1, -1], W) * vg
            - Series.from_poly([1, -4, 3], W) * v1
            + Series.from_poly([3, -6, -3], W)
        )
        den = Series.from_poly([3, -6], W) * Series.from_poly([1, -3], W)
        return (par * _mono(3, W)) / den

    return _cached(("C11",), N, build)


def _C1u_impl(c, k: int, N: int) -> Series:
    """One-variable c series at the weight u = c/(1 - k*c*x).

    Four closed terms over the kernels 1-u+ux, 1-u-2ux and 1-2ux.  When the
    weight is identically 1 the factor 1-u vanishes exactly and only the
    first term survives (as the honest series quotient by the valuation-1
    kernel x), so the last three are skipped before their pieces are built.
    """
    c = Q(c)
    if c == 1 and k == 1:
        raise KernelSpecializationError("weight 1/(1-x) collapses 1-u+ux")
    W = N + 8
    one = Series.one(W)
    X = _mono(1, W)
    u = expand_rational([c], [1, -k * c], W)
    ux = u * X
    one_m_u = one - u
    k1 = one - u + ux
    k2 = one_m_u - 2 * ux
    k3 = one - 2 * ux
    omx = Series.from_poly([1, -1], W)
    c11 = C11_series(W)
    t1 = ((one - ux) * c11 * X) / (omx * k1)
    if one_m_u.is_zero():
        out = t1
    else:
        v1 = V1_series(W)
        vg = _V_scaled_geom(c, k + 2, W)
        x4 = _mono(4, W)
        t2 = (one_m_u * u * x4 * v1) / (k1 * k2)
        t3 = (one_m_u * u * u * x4 * vg) / (k1 * k2 * k3)
        t4 = (one_m_u * (one - ux - ux * X) * _mono(3, W)) / (omx * k1 * k3)
        out = _aligned_sum([t1, t2, -t3, t4])
    return out


def _C1u_cached(c, k: int, N: int) -> Series:
    c = Q(c)
    return _cached(("C1u", c, k), N, lambda: _C1u_impl(c, k, N))


def C1u_series(u, N: int) -> Series:
    """One-variable c series: coefficient of x^n is sum_j c(n,j) u^(j-2)."""
    return _C1u_cached(u, 0, N)


# ---------------------------------------------------------------------------
# b-type series


def B11_series(N: int) -> Series:
    """Totals, by size, of words with 1 right of n.

    Solved from three explicit sums plus one sum weighted by c series at
    geometric weights 1/(1-(j+1)x).  The c-weighted terms carry an explicit
    x^(j+1), so the c input for term j is only needed to a shrinking order;
    the whole bracket is then divided by a valuation-1 denominator sum.
    """

    def build() -> Series:
        W = N + 8
        one = Series.one(W)
        c11 = C11_series(W)
        inv_omx = expand_rational([1], [1, -1], W)

        T1 = Series.zero(W)
        T3 = Series.zero(W)
        D = Series.zero(W)
        run = Series.one(W)  # prod (1-ix), i <= j
        run2 = Series.from_poly([1, -1], W) * Series.from_poly([1, -2], W)
        for j in range(1, W + 1):
            run = run * Series.from_poly([1, -j], W)
            run2 = run2 * Series.from_poly([1, -(j + 2)], W)
            fact = factorial(j + 1)
            T1 = T1 + Series.from_poly([0] * (j + 1) + [j * j], W) / (fact * run)
            D = D + Series.from_poly([0] * j + [-(j + 1), j * j], W) / (fact * run)
            t3poly = [0] * (j + 2) + [1, -2 * (j + 1), (j + 1) * (j + 1)]
            T3 = T3 + Series.from_poly(t3poly, W) / (factorial(j - 1) * run2)

        T2C = Series.zero(N + 1)
        run2 = Series.from_poly([1, -1], W) * Series.from_poly([1, -2], W)
        for j in range(1, _MAX_SUM_TERMS):
            run2 = run2 * Series.from_poly([1, -(j + 2)], W)
            if j + 4 > N + 1:
                break
            nc = max(3, N - j)
            cj = _C1u_cached(1, j + 1, nc)
            core = (Q(j, factorial(j + 1)) * one) / run2
            term = (core.truncate(nc) * cj).shifted(j + 1)
            T2C = T2C + term.truncate(N + 1)
        else:
            raise RuntimeError("b series sum failed to terminate")

        bracket = _aligned_sum([c11 * inv_omx * T1, T2C, inv_omx * T3])
        return -(bracket / D)

    return _cached(("B11",), N, build)


def _B1u_impl(c, m: int, N: int) -> Series:
    """One-variable b series at the weight u = c/(1 - m*c*x).

    Four infinite sums: two carry the one-variable b and c series as outer
    factors, one couples each term with a c series at a deeper geometric
    weight, one stands alone.  At weight 1 the j = 0 numerators of the last
    three vanish identically and are skipped before any c input is built
    (the skipped c argument would sit at the collapsed weight 1/(1-x)).
    """
    c = Q(c)
    if c == 1 and m == 1:
        raise KernelSpecializationError("weight 1/(1-x) collapses 1-u+ux")
    W = 2 * N + 16
    one = Series.one(W)
    X = _mono(1, W)
    u = expand_rational([c], [1, -m * c], W)
    ux = u * X
    uux = u * ux
    k0 = one - u + ux
    omx = Series.from_poly([1, -1], W)
    b11 = B11_series(N)
    c11 = C11_series(N)

    # S1 multiplies the b series, S2 the c series, S4 stands alone.
    S1 = _alternating_sum(
        k0, u, ux, 0, 1, 1, N, X,
        lambda j: (one - j * ux) ** 2 + (j - 1) * uux - u)
    S2 = _alternating_sum(
        k0 * omx, u, ux, 0, 1, 4, N, X,
        lambda j: (one - u - j * ux) ** 2)
    S4 = _alternating_sum(
        k0 * omx, u, ux, 2, 0, 2, N, _mono(2, W),
        lambda j: (one - (j + 1) * ux) ** 2 * (one - u - j * ux))

    # S3 couples term j with the c series at weight u/(1-(j+1)ux), which
    # stays in the geometric family as c/(1-(m+j+1)cx).  The explicit
    # x^(2j+2) is split: enough goes into the division to keep the
    # quotient a power series, the rest is an exact shift afterwards.
    S3 = Series.zero(N)
    u2 = u * u
    upow = u * u2  # u^(2j+3)
    for j, den in _kernel_denominators(k0, u, ux, 2, 1, 5, N):
        dval = den.val()
        pre = (one - u - j * ux) * upow
        if j % 2:
            pre = -pre
        if not pre.is_zero():
            q = (pre * _mono(dval, W)) / den
            nc = max(3, N - j)
            t = min(q.order, nc)
            cj = _C1u_cached(c, m + j + 1, t)
            term = (q.truncate(t) * cj).shifted(2 * j + 2 - dval)
            S3 = S3 + term.truncate(N)
        upow = upow * u2

    return _aligned_sum(
        [b11 * S1.truncate(N), c11 * S2.truncate(N), -S3, S4.truncate(N)]
    )


def _B1u_cached(c, m: int, N: int) -> Series:
    c = Q(c)
    return _cached(("B1u", c, m), N, lambda: _B1u_impl(c, m, N))


def B1u_series(u, N: int) -> Series:
    """One-variable b series: coefficient of x^n is sum_j b(n,j) u^(j-1)."""
    return _B1u_cached(u, 0, N)


# ---------------------------------------------------------------------------
# two-variable series and the circular count


def _C_general(v, u, N: int) -> Series:
    """Two-variable c series at scalar weights, u away from 1."""
    W = N + 4
    X = _mono(1, W)
    t1 = _rat([0, 0, 0, 0, u], [[1 - u, -2 * u]], W) * (
        V1_series(W) - _rat([u], [[1, -2 * u]], W) * _V_scaled_geom(u, 2, W)
    )
    t2 = _rat([0, 0, 0, 0, u], [[1, -2 * u]], W)
    t3 = (u * v / (1 - u)) * (
        X * (_C1u_cached(v, 0, W) - _C1u_cached(u * v, 0, W))
    )
    t4 = _rat([0, v], [[1, -v]], W) * _C1u_cached(v, 0, W)
    t5 = _rat([0, 0, 0, v], [[1, -v]], W)
    return _aligned_sum([t1, t2, t3, t4, t5]).truncate(N)


def _B_general(v, u, N: int) -> Series:
    """Two-variable b series at scalar weights, u away from 1."""
    W = N + 4
    X = _mono(1, W)
    k2 = _rat([0, 0, u], [[1 - u, -u]], W)
    t1 = _rat([0, 0, 0, u], [[1, -1], [1, -2 * u]], W)
    t2 = k2 * (
        B11_series(W) - _rat([u], [[1, -u]], W) * _B1u_cached(u, 1, W)
    )
    t3 = k2 * (
        _rat([1], [[1, -1]], W) * C11_series(W)
        - _rat([u * u], [[1, -u], [1, -2 * u]], W) * _C1u_cached(u, 1, W)
    )
    t4 = (v / (1 - u)) * (
        X * (_B1u_cached(v, 0, W) - u * _B1u_cached(u * v, 0, W))
    )
    t5 = _rat([0, v * v], [[1, -v]], W) * _C1u_cached(v, 0, W)
    t6 = _rat([0, 0, v], [[1, -v]], W)
    return _aligned_sum([t1, t2, t3, t4, t5, t6]).truncate(N)


def A_series(N: int) -> Series:
    """Circular avoider counts: the coefficient of x^n is the number of
    avoiding cyclic classes of size n, which equals a_(n-1) for n >= 2."""
    xf = expand_rational([0, 1], [1, -1], N)
    return xf + _mono(1, N) * B11_series(N) + xf * C11_series(N)


def A_vu_series(v, u, N: int) -> Series:
    """Circular avoider series with the last two letters weighted v, u.

    At v = u = 1 this reassembles the plain count through the u-form b and
    c series, an independent route from :func:`A_series`.  Other weights
    with u = 1 have no direct evaluation: the closed forms divide by 1-u.
    """
    v = Q(v)
    u = Q(u)
    if u == 1:
        if v != 1:
            raise KernelSpecializationError(
                "the two-variable closed forms divide by 1-u; the weight "
                "u = 1 is only available on the diagonal v = u = 1"
            )
        xf = expand_rational([0, 1], [1, -1], N)
        return xf + _mono(1, N) * _B1u_cached(1, 0, N) + xf * _C1u_cached(1, 0, N)
    t0 = _rat([0, 1, 1 - u], [[1, -u]], N)
    tc = _rat([0, u * v], [[1, -u * v]], N)
    return t0 + _mono(1, N) * _B_general(v, u, N) + tc * _C_general(v, u, N)


def a_from_series(series: Series) -> list[int]:
    """Counting values a_1..a_(order-1) read off the circular series.

    a_n sits at the coefficient of x^(n+1); every extracted coefficient is
    checked to be an exact integer.
    """
    out = [0] * series.order
    for n in range(1, series.order):
        out[n] = as_int(series[n + 1])
    return out
