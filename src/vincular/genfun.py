"""Closed-form generating functions expanded as exact truncated series.

Every public function returns a :class:`Series` of exactly the requested
order with exact rational coefficients.  The closed forms involve infinite
sums whose terms are rational expressions of strictly growing valuation;
each sum is evaluated until the terms provably stop touching the requested
coefficient window.

Every weight is geometric, p = c/(1 - m*c*x), and there each kernel
factor is a linear polynomial over L = 1 - m*c*x whose powers cancel, so
a term is a polynomial of degree at most 3 over a product of linear
factors, and each term's product extends the previous one by a few
factors.  A sum X_0/f_0 + X_1/(f_0 f_1) + ... is therefore evaluated by
Horner's rule, (X_0 + (X_1 + (X_2 + ...)/f_2)/f_1)/f_0 (:func:`_horner`):
from the deepest term out, each term is added as its short polynomial and
everything added so far is divided by the next factors.  A factor
a0 + a1*x costs one pass over the coefficients, one with a0 = 0 (at
c = 1) moves an explicit x-power offset, and no term is multiplied by a
reciprocal series.  With every valuation explicit, each series is built
at exactly the order asked for, and a series that counts words of size
n >= 1 is zero through x^0 and builds nothing there.

The b series and B11 couple term j of a kernel sum with the c series at
the next geometric weight, which reads the last-letter series V at the
weight m + j through V's two kernel sums.  The Horner accumulator of each
of those sums at m, read after level j, is the sum at m + j up to its
factor K0, an integer scale and a power of y, so one pass per sum serves
every term of the coupled sum, and since the product by V0 commutes with
nesting, a coupled sum is A + V0*B with one product by V0 in all
(:func:`_coupled`).  A coupled sum thus costs O(N^2) coefficient
operations, as a kernel sum does.

Scales stay on integers.  At the weight c = p/q the kernel route works in
y = x/D with D = q*|q - p| (D = 1 at c = 1 and c = 2), or any multiple of
it.  There every factor a0 + a1*y has an integral ratio a1/a0, so each
pass subtracts an integer multiple of the previous coefficient
(integer-preserving elimination, as in Bareiss 1968).  A two-variable
formula at the weights u, v builds every part in one y = x/D with
D = lcm(D_u, D_v, D_uv), where each of its linear factors (1 - u*x,
(1 - u) - 2u*x, 1 - v*x, 1 - uv*x, 1 - x, ...) has an integral ratio too;
the weight-1 formulas have D = 1.  What is left over, the reciprocals of
the constant terms, the powers of c, scalars such as uv/(1 - u) and the q
that clears each term polynomial, is carried as an integer pair
(num, den), multiplied up without reduction.  A part (lo, (num, den), cs)
stands for num/den * sum_k cs[k] y^(lo+k).  The terms of a sum are added
over the lcm of their denominators, taken once per sum, and the pieces of
a formula, explicit polynomials (:func:`_poly`) among them, are collected
and added as one vector the same way, once per fold (:func:`_fold`).
Each formula's one part is placed once as a series (:func:`_placed`):
the coefficient of x^n is divided by den*D^n in one divmod, which leaves
an int wherever the division is exact and a Q in lowest terms otherwise.
V0 and B11, which count words, are instead quotients over the denominator
sum they share (:func:`_count_quotient`): the folded numerator and the
denominator sum are both integer series, and their long division keeps
every coefficient an int, so a plain count builds no Q.

Three jobs have one home each.  Products of series go through
:func:`vincular.powerseries._pmul`; a product by a linear polynomial is
one pass (:func:`_times_linear`).  :func:`_geometric` normalises a
weight and raises :class:`KernelSpecializationError` for the one weight
that collapses a kernel.  :func:`_memo` caches, by name, the only five
series read again: V0, V1, C11 and B11, on which the kernel method builds
every weighted series, and the denominator sum of V0 and B11, kept as an
integer series whose x^1 coefficient is its scale.  Every request asks
for the highest coefficient its reader folds and no higher, and each
formula that reads these series at several orders asks for them first at
their highest orders, lowest layer first (see :func:`_prebuild`), so one
call builds each once.

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

from functools import wraps
from itertools import count
from math import factorial, gcd, lcm

from .powerseries import Q, Series, _coeff, _pmul, as_int


class KernelSpecializationError(ValueError):
    """A weight makes a kernel vanish identically, with no removable limit."""


_SERIES_CACHE: dict[str, Series] = {}


def clear_caches() -> None:
    _SERIES_CACHE.clear()


def _memo(build):
    """build(N) cached by the builder's name, rebuilt when more order is
    needed.

    A build is truncated to N before it is stored, so one that falls short
    of N raises ValueError and a cached series is reliable through its
    whole order.

    A series is built once per call only if its first request is its
    highest.  Each layer reads the ones below it at orders set by its own,
    and asks for its highest read first; a formula that reads C11 or B11
    asks for all of them through :func:`_prebuild`, which knows the
    layers' reads.
    """

    @wraps(build)
    def cached(N: int) -> Series:
        hit = _SERIES_CACHE.get(build.__name__)
        if hit is None or hit.order < N:
            hit = _SERIES_CACHE[build.__name__] = build(N).truncate(N)
        return hit.truncate(N)

    return cached


def _prebuild(c11: int, b11: int, v1: int = -1) -> None:
    """Build the shared series for a formula that reads C11 through
    x^c11, B11 through x^b11 and V1 through x^v1 (a negative order reads
    none), each once, at the highest order anything reads it.

    The layers' own reads raise those orders: B11 at N reads the
    denominator sum at N + 1, and from N = 4 on C11 at N - 1 and V1 at
    N - 3; C11 at N reads V1 at N - 3 and V0 at N - 1; from N = 1 on, V1
    at N reads V0 at N + 2, and V0 at N the sum at N + 1.  No word has
    size 0, so V1 and V0 through x^0 are zero and read nothing, and none is
    asked for.  Built lowest layer first (V1 builds V0), each finds its
    reads already built, and every later read is served by truncation.
    """
    if b11 >= 4:
        c11, v1 = max(c11, b11 - 1), max(v1, b11 - 3)
    v1 = max(v1, c11 - 3)
    if v1 < 1:
        v1 = -1
    den = max(b11 + 1 if b11 >= 0 else -1, v1 + 3 if v1 >= 0 else -1)
    for build, order in ((_den_sum, den), (V1_series, v1),
                         (C11_series, c11), (B11_series, b11)):
        if order >= 0:
            build(order)


# ---------------------------------------------------------------------------
# linear factors, nested kernel sums and parts in y = x/D


def _factor(a0, a1):
    """The linear factor a0 + a1*y as integers (b, num, den, shift) with
    1/(a0 + a1*y) = num/den * y^-shift / (1 + b*y).

    The ratio b = a1/a0 must be an integer, so dividing by 1 + b*y keeps
    an integer list on integers; any other ratio raises RuntimeError.  A
    factor a1*y only shifts: b = 0, num/den = 1/a1 and shift = 1.
    """
    if not a0:
        return 0, a1.denominator, a1.numerator, 1
    if a0 == 1 and type(a1) is int:  # 1 + b*y, the common factor
        return a1, 1, 1, 0
    b, rem = divmod(a1.numerator * a0.denominator,
                    a1.denominator * a0.numerator)
    if rem:
        raise RuntimeError(f"the factor {a0} + {a1}*y has no integral ratio")
    return b, a0.denominator, a0.numerator, 0


def _over_linear(r: list, a0, a1):
    """Divide sum_k r[k] y^k by a0 + a1*y in place, in O(len r), and
    return the integers (num, den, shift) of :func:`_factor`: the quotient
    is num/den * y^-shift times the list left behind."""
    b, num, den, shift = _factor(a0, a1)
    if b:
        for n in range(1, len(r)):
            r[n] -= b * r[n - 1]
    return num, den, shift


def _times_linear(part, a0, a1):
    """A part times the integer polynomial a0 + a1*y: one pass over its
    list, in place, or, when a0 or a1 is 0, its scale and power of y."""
    lo, (num, den), r = part
    if not a0:
        return lo + 1, (num * a1, den), r
    if not a1:
        return lo, (num * a0, den), r
    for n in range(len(r) - 1, 0, -1):
        r[n] = a0 * r[n] + a1 * r[n - 1]
    if r:
        r[0] *= a0
    return part


def _divided(part, *factors):
    """A part divided by linear factors (a0, a1) in y, one pass each."""
    lo, (num, den), cs = part
    cs = list(cs)
    for a0, a1 in factors:
        n, d, shift = _over_linear(cs, a0, a1)
        num, den, lo = num * n, den * d, lo - shift
    return lo, (num, den), cs


def _in_y(s: Series, D: int):
    """s as a part in y = x/D: coefficient n times D^n."""
    if D == 1:
        return 0, (1, 1), list(s.coeffs)
    return 0, (1, 1), [a * D ** n for n, a in enumerate(s.coeffs)]


def _scaled(part, c, e: int = 0, D: int = 1):
    """A part in y = x/D times c*x^e: c and D^e go into the scale."""
    lo, (num, den), cs = part
    return lo + e, (num * c.numerator * D ** e, den * c.denominator), cs


def _poly(coeffs, top: int, D: int = 1):
    """The polynomial sum_k coeffs[k] x^k as a part in y = x/D reaching
    x^top, its coefficients' common denominator in the scale."""
    den = lcm(*(c.denominator for c in coeffs))
    cs = [c.numerator * (den // c.denominator) * D ** k
          for k, c in enumerate(coeffs)]
    return 0, (1, den), cs + [0] * (top + 1 - len(cs))


def _levels(init, step, term, top: int, D: int = 1) -> list:
    """The levels (lo, (num, den), P, bs) of sum_j x^e_j k_j P_j / D_j in
    y = x/D, one per term j from 0 until a term starts past y^top.

    D_j is the product of the linear factors in y init and step(1..j),
    and term(j) = (e_j, k_j, P_j) with k_j an integer pair and P_j integer
    coefficients in y.  bs are the integer ratios of level j's own
    factors, so 1/D_j = n/d * y^-w / prod(1 + b*y) over the bs of levels
    0..j, with the integers n and d multiplied up factor by factor and w
    counting the factors a1*y, which only shift.  Term j is then
    num/den * y^lo * P_j / prod(1 + b*y), where lo = e_j - w and
    num/den = D^e_j * k_j * n/d; a zero P_j is kept as ().  lo must grow
    with j, bounding the loop.  No coefficient list is touched here.
    """
    levels, num, den, w, factors, prev = [], 1, 1, 0, init, None
    for j in count():
        bs = []
        for a0, a1 in factors:
            b, n, d, shift = _factor(a0, a1)
            num, den, w = num * n, den * d, w + shift
            if b:
                bs.append(b)
        e, (kn, kd), poly = term(j)
        lo = e - w
        if prev is not None and lo <= prev:
            raise RuntimeError("kernel sum terms do not advance")
        if lo > top:
            return levels
        levels.append((lo, (num * kn * D ** e, den * kd),
                       poly if any(poly) else (), bs))
        prev, factors = lo, step(j + 1)


def _horner(levels, top: int):
    """Horner's rule over :func:`_levels` through y^top, yielding the part
    (base, (1, den), acc) after each level, deepest level first.

    From the deepest level out, each level adds its term k_j*P_j at
    y^lo_j, over the lcm of the nonzero terms' denominators, and then
    divides everything added so far by its own factors, one pass each over
    the window from the shallowest term added.  So every term is divided
    by the factors of its level and of every level above it, and never
    multiplied by a reciprocal.  A zero polynomial adds nothing, but its
    level's factors still divide the deeper terms.  After level j, acc
    holds the tail: the terms of levels j and deeper, each divided by the
    factors of the levels from j to its own, with zeros below lo_j.  acc
    is the accumulator itself, which the next level changes in place.
    """
    kept = [(lo, d) for lo, (_, d), poly, _ in levels if poly]
    if not kept:
        return
    base, den = kept[0][0], lcm(*(d for _, d in kept))
    acc = [0] * (top + 1 - base)
    start, part = len(acc), (base, (1, den), acc)
    for lo, (n, d), poly, bs in reversed(levels):
        if poly:
            f, start = n * (den // d), lo - base
            for i, a in enumerate(poly[: top + 1 - lo], start):
                acc[i] += f * a
        for b in bs:
            for i in range(start + 1, len(acc)):
                acc[i] -= b * acc[i - 1]
        yield part


def _nest(levels, top: int):
    """The sum of :func:`_levels` through y^top as one part
    (lo, (1, den), cs): the last tail of :func:`_horner`."""
    part = top + 1, (1, 1), []
    for part in _horner(levels, top):
        pass
    return part


def _fold(parts, top: int):
    """The sum of parts (lo, (num, den), cs), each reaching x^top, as one
    part (lo, (1, den), cs) through x^top: the parts inside the window are
    kept, then each is added once over the lcm of their denominators, so
    integer vectors stay on ints.  All parts are in the same y = x/D, so
    no power of D is needed to align them."""
    kept, base, den = [], top + 1, 1
    for part in parts:
        lo, (_, d), cs = part
        if not cs or lo > top:
            continue
        if lo + len(cs) <= top:
            raise RuntimeError(f"a part falls short of x^{top}")
        kept.append(part)
        base, den = min(base, lo), lcm(den, d)
    acc = [0] * (top + 1 - base)
    for lo, (n, d), cs in kept:
        f = n * (den // d)
        for i, a in enumerate(cs[: top + 1 - lo], lo - base):
            acc[i] += f * a
    return base, (1, den), acc


def _kernel_sum(init, step, term, top: int, D: int = 1):
    """The kernel sum of :func:`_levels` as one part (lo, (1, den), cs)."""
    return _nest(_levels(init, step, term, top, D), top)


def _summed(N: int, *parts):
    """The fold of parts reaching x^N as (den, cs), cs the integers at
    y^0..y^N: the Laurent part below y^0 must cancel exactly."""
    lo, (_, den), cs = _fold(parts, N)
    if lo < 0:
        if any(cs[:-lo]):
            raise RuntimeError("a kernel sum left a term below x^0")
        return den, cs[-lo:]
    return den, [0] * lo + cs


def _placed(N: int, *parts, D: int = 1) -> Series:
    """The sum of parts (lo, (num, den), cs) in y = x/D, each reaching
    x^N, as a Series: one fold, then one exact division per coefficient.

    The fold leaves one denominator; the coefficient of x^n is divided by
    it times D^n in one divmod, so a quotient that is integral stays an
    int.
    """
    den, cs = _summed(N, *parts)
    out = []
    for c in cs:
        q, rem = divmod(c, den)
        out.append(Q(c, den) if rem else q)
        den *= D
    return Series(out)


def _times(outer, val: int, part, D: int = 1):
    """outer(order), a Series vanishing below x^val, times a part in
    y = x/D in one multiply, as a part reaching val orders further.  The
    part leads the product, so a part that is a short polynomial padded
    with zeros costs one pass over the outer coefficients per nonzero
    entry."""
    lo, (n, d), cs = part
    if not cs:
        return part
    fcs = _in_y(outer(len(cs) - 1 + val), D)[2]
    if any(fcs[:val]):
        raise RuntimeError(f"outer series does not vanish below x^{val}")
    return lo + val, (n, d), _pmul(cs, fcs[val:], len(cs))


def _scale(c) -> int:
    """D = q*|q - p| at c = p/q, and D = q at c = 1: the scale of y = x/D."""
    p, q = c.numerator, c.denominator
    return q * (abs(q - p) or 1)


def _geometric(c, m: int, D: int | None = None):
    """c as ``_coeff`` gives it, the scale D (``_scale(c)`` or a multiple
    of it), P = c*D, and 1 - p + px, 1 - i*px, 1 - p - i*px at
    p = c/(1 - m*c*x), each times L = 1 - m*c*x, as linear factors in
    y = x/D: K0, F(i) and G(i).  Their constant terms are 1 and 1 - c,
    their y-terms integer multiples of P.  Raises KernelSpecializationError
    when K0 vanishes identically: at the weight 1/(1-x) (c = m = 1).
    """
    c = _coeff(c)
    D = D or _scale(c)
    P = c.numerator * D // c.denominator
    lam = 1 - c
    K0 = (lam, (1 - m) * P)
    if not any(K0):
        raise KernelSpecializationError("weight 1/(1-x) collapses 1-p+px")
    return (c, D, P, K0, (lambda i: (1, -(m + i) * P)),
            (lambda i: (lam, -(m + i) * P)))


def _at(build, c, m: int, N: int) -> Series:
    """The part build(c, m, N) in y = x/D at the weight c, as a Series."""
    return _placed(N, build(c, m, N), D=_scale(_coeff(c)))


def _alt(c, j: int, a: int = 0, d: int = 1):
    """(-1)^j c^(2j+a) / q^d as an integer pair: the scalar part of the
    kernel sums' (-px)^(2j), for a term polynomial cleared by q^d."""
    e = 2 * j + a
    return (-1) ** j * c.numerator ** e, c.denominator ** (e + d)


def _p1(c, P: int, M: int) -> list:
    """(p-1) - j p^2 x + (2j+1) px - (j^2+j+1) p^2 x^2, times L^2 and q,
    in y; M = m + j."""
    p, q = c.numerator, c.denominator
    return [p - q, P * (q * (2 * M + 1) - p * M), -q * P * P * (M * M + M + 1)]


def _g(c, P: int, M: int) -> list:
    """1 - p - M*px, times L and q, in y: the polynomial of G(M - m)."""
    return [c.denominator - c.numerator, -c.denominator * M * P]


def _p2(c, P: int, M: int) -> list:
    """(1 - j*px)^2 - p + (j-1) p^2 x, times L^2 and q, in y; M = m + j."""
    p, q = c.numerator, c.denominator
    return [q - p, P * (p * (M - 1) - 2 * q * M), q * (P * M) ** 2]


# ---------------------------------------------------------------------------
# last-letter avoider series


@_memo
def _den_sum(N: int) -> Series:
    """k * sum_j x^(j+1) ((j+2) - (j+1)^2 x) / ((j+2)! prod_(i<=j+1)
    (1 - ix)) through x^N, k the lcm of the factorials: the integer
    denominator of V0 and B11.  The sum starts at x + ..., so k is the x^1
    coefficient, which a truncated cache hit keeps."""
    _, _, _, _, F, _ = _geometric(1, 0)
    _, cs = _summed(N, _kernel_sum([F(1)], lambda j: [F(j + 1)], lambda j: (
        j + 1, (1, factorial(j + 2)), [j + 2, -(j + 1) ** 2]), N))
    return Series(cs)


def _count_quotient(name: str, N: int, *parts) -> Series:
    """cs/d, the fold of parts in y = x reaching x^N, over the denominator
    sum through x^(N-1), as k*cs / (d * k*den_sum) on ints.  The quotient
    counts words, so a coefficient that is not an int raises RuntimeError
    (a raise, so the guard holds under python -O)."""
    d, cs = _summed(N, *parts)
    den = _den_sum(N)
    q = Series([den[1] * c for c in cs]) / Series([d * c for c in den.coeffs])
    for n, c in enumerate(q.coeffs):
        if type(c) is not int:
            raise RuntimeError(f"{name} is not integral at x^{n}: {c}")
    return q


@_memo
def V0_series(N: int) -> Series:
    """Counts, by size, of last-letter avoiders whose final letter is 1.

    Ratio of two explicit sums over prod (1 - ix); term j starts at
    x^(j+1) in the numerator sum and x^j in the denominator sum, which
    has valuation 1 and so costs one coefficient.  No word has size 0, so
    a read through x^0 builds nothing.
    """
    if N < 1:
        return Series([0] * (N + 1))
    _, _, _, _, F, _ = _geometric(1, 0)
    num = _kernel_sum([F(1), F(2)], lambda j: [F(j + 2)], lambda j: (
        j + 2, (1, factorial(j + 2)), [j + 2, -(j * j + 3 * j + 3)]), N + 1)
    return _count_quotient("V0_series", N + 1, num)


def _V_sums(c, m: int, D: int | None = None):
    """The :func:`_geometric` of the weight p = c/(1 - m*c*x) and the two
    alternating kernel sums, first and second, of the last-letter series
    V = first + V0*second there, each as the (init, step, term) of
    :func:`_levels`.

    Term j of either sum is (-P^2 y^2)^j times term 0 of the same sum at
    the weight m + j, and the factors of its levels from j on are those of
    that sum, whose level 0 also has K0 at m + j (and, for second, not
    F(j)); the factors F(i) have constant term 1.  So the Horner tail of
    either sum after level j (:func:`_horner`) is the sum at m + j, times
    (-P^2 y^2)^j K0(m + j), over F(j) for second, and over the constant
    terms, or the a1*y, of K0 and G(1..j) at m (:func:`_coupled`).
    """
    geo = c, D, P, K0, F, G = _geometric(c, m, D)
    return geo, (
        ([K0, F(1), G(1)], lambda j: (F(j + 1), G(j + 1)),
         lambda j: (2 * j + 1, _alt(c, j, 1), _p1(c, P, m + j))),
        ([K0, G(1)], lambda j: (F(j), G(j + 1)),
         lambda j: (2 * j, _alt(c, j), _p2(c, P, m + j))))


def _V_scaled_geom(c, m: int, N: int, D: int | None = None):
    """Last-letter series at the geometric weight p = c/(1 - m*c*x), the
    final letter j weighted by p^(j-1), as a part in y = x/D: two
    alternating kernel sums over j (:func:`_V_sums`), the second multiplied
    by the final-letter-1 series.  No word has size 0, so below x^1 the
    part is empty and builds nothing.
    """
    if N < 1:
        return N + 1, (1, 1), []
    (_, D, *_), (first, second) = _V_sums(c, m, D)
    return _fold([_kernel_sum(*first, N, D), _times(
        V0_series, 1, _kernel_sum(*second, N - 1, D), D)], N)


@_memo
def V1_series(N: int) -> Series:
    """Counts of last-letter avoiders by size (all weights 1)."""
    return _placed(N, _V_scaled_geom(1, 0, N))


# ---------------------------------------------------------------------------
# c-type series


@_memo
def C11_series(N: int) -> Series:
    """Totals, by size, of words with 1 left of n and 2 right of n.

    The bracket is multiplied by x^3, so its parts are built through
    x^(N-3), and below x^3 the series is zero.
    """
    top = N - 3
    if top < 0:
        return Series([0] * (N + 1))
    lo, k, cs = _V_scaled_geom(1, 3, top)
    v1 = V1_series(top).coeffs
    par = _fold([(lo, k, _pmul([1, -1], cs, len(cs))),
                 (0, (-1, 1), _pmul([1, -4, 3], v1, len(v1))),
                 _poly([3, -6, -3], top)], top)
    return _placed(N, _divided(_scaled(par, 1, 3), (3, -6), (1, -3)))


def _V_reach(c, N: int) -> int:
    """The order through which the c series at c/(1 - k*c*x), read through
    y^N, reads the last-letter series at c/(1 - (k+2)*c*x): x^4 spares four
    orders, and at c = 1 the kernels 1-u+ux and 1-u-2ux cost one each."""
    return N - 2 if c == 1 else N - 4


def _C1u_parts(c, k: int, N: int, D, U):
    """One-variable c series at the weight u = c/(1 - k*c*x) through y^N,
    as parts (X, Y) in y = x/D of the series X + V0*Y.

    Four closed terms over the kernels 1-u+ux, 1-u-2ux and 1-2ux, whose
    common factor 1-u+ux is divided out last.  One reads the last-letter
    series V at c/(1 - (k+2)cx) over F(2), which U(top, F(2)) gives through
    y^top (:func:`_V_reach`) as parts (A, B) of the series A + V0*B; Y
    carries B.  When the weight is identically 1 the last three terms carry
    the factor G(0) = 1-u = 0, so they add zero vectors and the formula
    returns C11.  At c = 1 the kernels 1-u+ux and 1-u-2ux vanish at 0 and
    each costs one order: all pieces are folded one order higher, and the
    x^4 piece, divided by 1-u-2ux, one more.
    """
    c, D, P, K0, F, G = _geometric(c, k, D)
    q = c.denominator
    W = N + (c == 1)
    one, g0 = (1, -D), _g(c, P, k)  # 1 - x and q*G(0), in y

    def x4(part):  # c x^4 G(0) part / G(2), G(0) cleared by q
        lo, (n, d), cs = _times_linear(_divided(part, G(2)), *g0)
        return _scaled((lo, (n, q * d), cs), c, 4, D)

    parts, Y = [], (W, (1, 1), [])
    # c x^4 G(0) (V1 - c V(c, k+2) / F(2)) / G(2): x^4 spares four orders.
    # It comes first: at c = 1 it reads V1 and V0 one order past C11's reads
    top = _V_reach(c, N)
    if top >= 0:
        v1 = _in_y(V1_series(top), D)
        A, B = U(top, F(2))
        parts.append(x4(_fold([v1, _scaled(A, -c)], top)))
        Y = _divided(x4(_scaled(B, -c)), K0)
    # C11 x (1 - (k+1)cx) / (1 - x), read through x^(W-1)
    if W > 0:
        cs = _in_y(C11_series(W - 1), D)[2]
        parts.append(_divided(
            _times_linear((1, (D, 1), cs), 1, -(k + 1) * P), one))
    # x^3 G(0) (1 - (k+1)cx - cx^2) / ((1 - x) F(2))
    lo, k3, cs = _times_linear((3, (D ** 3, q), [1, -(k + 1) * P, -P * D, 0]),
                               *g0)
    parts.append(_divided((lo, k3, (cs + [0] * W)[: max(W + 1 - lo, 0)]),
                          one, F(2)))
    return _divided(_fold(parts, W), K0), Y


def _C1u_geom(c, k: int, N: int, D: int | None = None):
    """One-variable c series at the weight u = c/(1 - k*c*x), as a part in
    y = x/D: :func:`_C1u_parts` with the last-letter series built whole."""
    return _C1u_parts(c, k, N, D, lambda top, F2: (
        _divided(_V_scaled_geom(c, k + 2, top, D), F2), (top, (1, 1), [])))[0]


def C1u_series(u, N: int) -> Series:
    """One-variable c series: coefficient of x^n is sum_j c(n,j) u^(j-2)."""
    return _at(_C1u_geom, u, 0, N)


# ---------------------------------------------------------------------------
# b-type series


def _coupled(levels, c, m: int, N: int, D: int | None = None):
    """Kernel levels of terms reaching x^(N-3), term j times the c series
    C_j at c/(1-(m+j)cx), nested as one part reaching x^N, all in y = x/D.

    C_j = X_j + V0*Y_j (:func:`_C1u_parts`) reads the last-letter series
    at c/(1-(M+j)cx), M = m + 2, only through its two kernel sums over its
    F(2), which is F(j) at M (as are F, G and K0 below).  Those sums are
    tails of one Horner pass per sum at M (:func:`_V_sums`): the tail after
    level j, times the constant terms or a1*y of K0 and G(1..j) and over
    (-P^2 y^2)^j, is the sum at M + j times K0(M + j), over F(j) for the
    second sum.  So a pass through the highest order any level reads
    serves every C_j, and each level divides its tails by K0(M + j), and
    the first by F(j), as its own.  Multiplying by V0 commutes with
    nesting, so the levels nest X_j and Y_j apart, both deepest first as
    the passes run, and V0 multiplies the Y nest once.  A level whose
    polynomial, of degree at most 1, vanishes, or whose C_j is read below
    x^3, where it vanishes, adds nothing, and its factors still divide the
    deeper terms.
    """
    used = {j for j, (lo, _, poly, _) in enumerate(levels)
            if poly and N - lo >= 3}
    if not used:
        return N + 1, (1, 1), []
    M = m + 2
    (c, D, P, K0, _, G), sums = _V_sums(c, M, D)
    # sig[j]: the constant terms, or a1*y, of K0 and G(1..j) as integers
    # (num, den, power of y); Ks[j]: K0 at M + j; the pass's y^t is
    # y^(t - shift[j]) at M + j
    sig, Ks, shift, reach, high = [(1, 1, 0)], [None], [0], -1, -1
    for j, (lo, _, poly, _) in enumerate(levels[: max(used) + 1]):
        if j:
            n, d, w = sig[-1]
            for a0, a1 in [K0, G(1)] if j == 1 else [G(j)]:
                _, fn, fd, fw = _factor(a0, a1)
                n, d, w = n * fd, d * fn, w + fw
            sig.append((n, d, w))
            Ks.append(_geometric(c, M + j, D)[3])
            shift.append(2 * j - w + _factor(*Ks[j])[3])
        if j in used:
            reach = max(reach, _V_reach(c, N - lo) + shift[j])
            high = max(high, N - lo)
    # the shallowest C_j reads C11 and V1 highest, and the nest reads them
    # deepest level first, so they are asked for first
    _prebuild(high + (c == 1) - 1, -1, _V_reach(c, high))

    def tails(sum_, top):
        """The tail of one Horner pass of a sum after each level j, from
        the deepest level of the coupled sum out; None past the pass."""
        lv = _levels(*sum_, top, D) if top >= 0 else []
        horner = _horner(lv, top)
        for j in range(max(len(lv), len(levels)) - 1, -1, -1):
            tail = next(horner, None) if j < len(lv) else None
            if j < len(levels):
                yield tail and (lv[j][0], tail)

    def V(j, top, Fj, read):
        """The first sum at M + j over F(j) through y^top, and the second
        over F(j) through y^(top-1), from their tails after level j."""
        out = []
        # the tail after level 0 is the sum itself, over F(0) for either
        overs = ([Fj], [Fj]) if j == 0 else ([Ks[j], Fj], [Ks[j]])
        for tail, T, factors in zip(read, (top, top - 1), overs):
            T += shift[j]
            if tail is None:
                out.append((T + 1, (1, 1), []))
                continue
            lo, (base, (_, den), acc) = tail
            n, d, w = sig[j]
            # the pass's denominator is its deepest level's: reduced, the
            # scale of a shallow tail stays small in every sum it enters
            d *= den * (-P * P) ** j
            g = gcd(n, d)
            out.append(_divided((lo + w - 2 * j, (n // g, d // g),
                                 acc[lo - base: T + 1 - base]), *factors))
        return out

    # C_j = X_j + V0*Y_j: term j times X_j nests through y^N, times Y_j
    # through y^(N-1)
    X, Y = (N + 1, (1, 1), []), (N, (1, 1), [])
    passes = [tails(sums[0], reach), tails(sums[1], reach - 1)]
    for j in range(len(levels) - 1, -1, -1):
        lo, (kn, kd), poly, bs = levels[j]
        read = [next(t) for t in passes]
        if j in used:
            a0, a1 = poly if len(poly) == 2 else (*poly, 0)

            def term(part):
                plo, (n, d), cs = _times_linear(part, a0, a1)
                return lo + plo, (kn * n, kd * d), cs

            Xj, Yj = _C1u_parts(c, m + j, N - lo, D,
                                lambda top, Fj: V(j, top, Fj, read))
            X, Y = _fold([X, term(Xj)], N), _fold([Y, term(Yj)], N - 1)
        for b in bs:
            _over_linear(X[2], 1, b)
            _over_linear(Y[2], 1, b)
    return _fold([X, _times(V0_series, 1, Y, D)], N)


@_memo
def B11_series(N: int) -> Series:
    """Totals, by size, of words with 1 right of n.

    Solved from three explicit sums over prod (1 - ix) plus one sum
    weighted by c series at geometric weights 1/(1-(j+2)x); the whole
    bracket is then divided by a valuation-1 denominator sum, so
    everything is built one order higher.  That sum is read highest of all,
    so it is asked for first.
    """
    W = N + 1
    _den_sum(W)
    _, _, _, _, F, _ = _geometric(1, 0)
    T1 = _kernel_sum([F(1)], lambda j: [F(j + 1)], lambda j: (
        j + 2, (1, factorial(j + 2)), [(j + 1) ** 2]), W - 3)
    F3 = [F(1), F(2), F(3)]
    T3 = _kernel_sum(F3, lambda j: [F(j + 3)], lambda j: (
        j + 3, (1, factorial(j)), [1, -2 * (j + 2), (j + 2) ** 2]), W)
    T2C = _coupled(_levels(F3, lambda j: [F(j + 3)], lambda j: (
        j + 2, (j + 1, factorial(j + 2)), [1]), W - 3), 1, 2, W)
    bracket = _divided(
        _fold([_times(C11_series, 3, T1), T3], W), (1, -1))
    return _count_quotient("B11_series", W, bracket, T2C)


def _B1u_geom(c, m: int, N: int, D: int | None = None):
    """One-variable b series at the weight u = c/(1 - m*c*x), as a part in
    y = x/D.

    Four infinite sums: two carry the one-variable b and c series as outer
    factors, one couples each term with a c series at a deeper geometric
    weight, one stands alone.  At weight 1 the j = 0 numerators of the last
    three vanish identically and are skipped before any c input is built
    (the skipped c argument would sit at the collapsed weight 1/(1-x)).
    """
    c, D, P, K0, F, G = _geometric(c, m, D)
    one = (1, -D)  # 1 - x in y

    # S1 multiplies the b series, S2 the c series, S4 stands alone.  The
    # products read B11 and C11 highest and S3's couplings below them;
    # while S2 is empty S3 is too, and B11 orders its own reads.
    S1 = _kernel_sum([K0, G(1)], lambda j: (F(j), G(j + 1)),
                     lambda j: (2 * j + 1, _alt(c, j), _p2(c, P, m + j)), N - 2, D)
    S2 = _kernel_sum([K0, one, G(1)], lambda j: (F(j), G(j + 1)),
                     lambda j: (2 * j + 1, _alt(c, j, 0, 2),
                                _pmul(_g(c, P, m + j), _g(c, P, m + j), 3)),
                     N - 3, D)
    S4 = _kernel_sum([K0, one, F(1), F(2)], lambda j: (F(j + 2), G(j)),
                     lambda j: (2 * j + 2, _alt(c, j), _pmul(
                         _pmul(F(j + 1), F(j + 1), 3), _g(c, P, m + j), 4)),
                     N, D)
    if S2[2]:
        _prebuild(len(S2[2]) + 2, len(S1[2]) + 1)
    S1 = _times(B11_series, 2, S1, D)
    # S3, which is subtracted, couples term j with the c series at weight
    # u/(1-(j+1)ux), which stays in the geometric family as c/(1-(m+j+1)cx)
    # and so in the same y; its scalar -(-1)^j c^(2j+3) is _alt at j + 1.
    S3 = _coupled(_levels(
        [K0, F(1), F(2), G(1)], lambda j: (F(j + 2), G(j + 1)),
        lambda j: (2 * j + 2, _alt(c, j + 1, 1), _g(c, P, m + j)), N - 3, D),
        c, m + 1, N, D)
    return _fold([S1, _times(C11_series, 3, S2, D), S3, S4], N)


def B1u_series(u, N: int) -> Series:
    """One-variable b series: coefficient of x^n is sum_j b(n,j) u^(j-1)."""
    return _at(_B1u_geom, u, 0, N)


# ---------------------------------------------------------------------------
# two-variable series and the circular count


def _C_general(v, u, cv, N: int, D: int):
    """Two-variable c series, u away from 1, through x^N as a part in
    y = x/D; cv = C1u(v) through x^(N-1) is one of its parts, and each
    other part is built through the highest coefficient it is read at."""
    uD = u * D
    parts = []
    if N >= 4:  # the inner bracket is multiplied by x^4
        inner = _fold([_in_y(V1_series(N - 4), D), _divided(
            _scaled(_V_scaled_geom(u, 2, N - 4, D), -u), (1, -2 * uD))], N - 4)
        parts.append(_divided(_scaled(inner, u, 4, D), (1 - u, -2 * uD)))
    return _fold(parts + [
        _divided(_poly([0, 0, 0, 0, u], N, D), (1, -2 * uD)),
        _scaled(_fold([cv, _scaled(_C1u_geom(u * v, 0, N - 1, D), -1)], N - 1),
                u * v / (1 - u), 1, D),
        _divided(_fold([_scaled(cv, v, 1, D), _poly([0, 0, 0, v], N, D)], N),
                 (1, -v * D)),
    ], N)


def _B_general(v, u, cv, N: int, D: int):
    """Two-variable b series, u away from 1, through x^N as a part in
    y = x/D; cv = C1u(v) through x^(N-1) is one of its parts, and each
    other part is built through the highest coefficient it is read at."""
    uD = u * D
    parts = []
    if N >= 2:  # the inner bracket is multiplied by x^2
        inner = _fold([
            _in_y(B11_series(N - 2), D),
            _divided(_in_y(C11_series(N - 2), D), (1, -D)),
            _divided(_fold([
                _scaled(_B1u_geom(u, 1, N - 2, D), -u),
                _divided(_scaled(_C1u_geom(u, 1, N - 2, D), -u * u),
                         (1, -2 * uD)),
            ], N - 2), (1, -uD)),
        ], N - 2)
        parts.append(_divided(_scaled(inner, u, 2, D), (1 - u, -uD)))
    return _fold(parts + [
        _divided(_poly([0, 0, 0, u], N, D), (1, -D), (1, -2 * uD)),
        _scaled(_fold([_B1u_geom(v, 0, N - 1, D),
                       _scaled(_B1u_geom(u * v, 0, N - 1, D), -u)], N - 1),
                v / (1 - u), 1, D),
        _divided(_fold([_scaled(cv, v * v, 1, D), _poly([0, 0, v], N, D)], N),
                 (1, -v * D)),
    ], N)


def _circular(b, c, N: int) -> Series:
    """x/(1-x) + x*b + x*c/(1-x), the circular series from parts b and c
    in y = x reaching x^(N-1)."""
    return _placed(N, _scaled(b, 1, 1), _divided(
        _scaled(_fold([c, _poly([1], N - 1)], N - 1), 1, 1), (1, -1)))


def A_series(N: int) -> Series:
    """Circular avoider counts: the coefficient of x^n is the number of
    avoiding cyclic classes of size n, which equals a_(n-1) for n >= 2."""
    M = max(N - 1, 0)  # x*B11 and x*C11 are read through x^(N-1)
    _prebuild(M, M)
    return _circular(_in_y(B11_series(M), 1), _in_y(C11_series(M), 1), N)


def A_vu_series(v, u, N: int) -> Series:
    """Circular avoider series with the last two letters weighted v, u.

    At v = u = 1 this reassembles the plain count through the u-form b and
    c series, an independent route from :func:`A_series`.  Other weights
    with u = 1 have no direct evaluation: the closed forms divide by 1-u.
    """
    v = Q(v)
    u = Q(u)
    if u == 1 and v != 1:
        raise KernelSpecializationError(
            "the two-variable closed forms divide by 1-u; the weight "
            "u = 1 is only available on the diagonal v = u = 1"
        )
    if u == 1:  # the b series at weight 1 asks for its own shared series
        return _circular(_B1u_geom(1, 0, N - 1), _C1u_geom(1, 0, N - 1), N)
    # x*B and x*C are read through x^(N-1), so the b and c series at v and
    # uv through x^(N-2) and the inner brackets through x^(N-3) (b) and
    # x^(N-5) (c, which reads V1 there).  A b series reads B11 and C11 one
    # order below its own, but at weight 1 B11 one order past it and C11
    # at it.  Below x^3 no part reads B11, and C11 is read once at most.
    if N >= 3:
        w1 = 1 in (v, u * v)
        _prebuild(N - 2 if w1 else N - 3, N - 1 if w1 else N - 3, N - 5)
    # one y = x/D for every part: there each linear factor is integral
    D = lcm(_scale(u), _scale(v), _scale(u * v))
    cv = _C1u_geom(v, 0, N - 2, D)
    return _placed(
        N, _divided(_poly([0, 1, 1 - u], N, D), (1, -u * D)),
        _scaled(_B_general(v, u, cv, N - 1, D), 1, 1, D),
        _divided(_scaled(_C_general(v, u, cv, N - 1, D), u * v, 1, D),
                 (1, -u * v * D)), D=D)


def a_from_series(series: Series) -> list[int]:
    """Counting values a_1..a_(order-1) read off the circular series.

    a_n sits at the coefficient of x^(n+1); every extracted coefficient is
    checked to be an exact integer.
    """
    out = [0] * series.order
    for n in range(1, series.order):
        out[n] = as_int(series[n + 1])
    return out
