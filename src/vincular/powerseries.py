"""Truncated power series over exact rationals.

A :class:`Series` stores coefficients 0..order of a formal power series in
one variable.  The order is a reliability bound: coefficients past it are
unknown, not zero.  A product of two series therefore insists on equal
orders (truncate explicitly to align operands), and division shrinks the
order by the valuation of the divisor, since dividing by a series that
starts at x^w costs w coefficients of certainty.  There is no addition:
:mod:`vincular.genfun` sums integer parts and places only the result.

Division is exact long division: on ints each step is one divmod, and
only a step that leaves a remainder makes a ``Q``, which later steps carry.

Coefficients live in one ring: a coefficient that is integral is stored as
a plain ``int`` and any other as a ``Q`` (``fractions.Fraction``) in lowest
terms.  Most series met here have integer coefficients, so nearly all
arithmetic stays on machine-backed ints and pays for rationals only where a
coefficient really is one.  Both kinds expose numerator/denominator and
compare and hash alike, so callers never need to know which one a
coefficient is.

:func:`_pmul` is the one truncated-product kernel: ``Series.__mul__`` and
the coefficient-list products of :mod:`vincular.genfun` multiply through it.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction as Q


def _coeff(c):
    """c as an int when integral, else as a Q in lowest terms."""
    if type(c) is int:
        return c
    if type(c) is not Q:
        c = Q(c)
    return int(c.numerator) if c.denominator == 1 else c


def _pmul(p, q, n: int) -> list:
    """The first n coefficients of the product of coefficient lists p, q."""
    out = [0] * n
    for i, a in enumerate(p[:n]):
        if a:
            for k, b in enumerate(q[: n - i], i):
                out[k] += a * b
    return out


def as_int(value) -> int:
    """The exact integer a rational equals, or ValueError."""
    if value.denominator != 1:
        raise ValueError(f"not an integer: {value}")
    return int(value.numerator)


class Series:
    """Immutable truncated power series with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable) -> None:
        self.coeffs: tuple = tuple(
            c if type(c) is int else _coeff(c) for c in coeffs
        )
        if not self.coeffs:
            raise ValueError("a series needs at least the x^0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond order {self.order}")
        return self.coeffs[n]

    def val(self) -> int | None:
        """Valuation: index of the first nonzero coefficient, None if zero."""
        for idx, c in enumerate(self.coeffs):
            if c:
                return idx
        return None

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(
                f"cannot extend order {self.order} to {order}: "
                "the extra coefficients are unknown"
            )
        if order == self.order:
            return self
        return Series(self.coeffs[: order + 1])

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            return Series(c * other for c in self.coeffs)
        if self.order != other.order:
            raise ValueError(
                f"* needs equal orders, got {self.order} and {other.order}"
            )
        return Series(_pmul(self.coeffs, other.coeffs, len(self.coeffs)))

    __rmul__ = __mul__

    def __truediv__(self, other: "Series") -> "Series":
        w = other.val()
        if w is None:
            raise ZeroDivisionError("division by the zero series")
        result_order = min(self.order, other.order) - w
        if result_order < 0:
            raise ValueError("divisor valuation exceeds known order")
        v = self.val()
        if v is None:
            return Series([0] * (result_order + 1))
        if v < w:
            raise ValueError(
                f"quotient is not a power series: valuations {v} < {w}"
            )
        f = self.coeffs[w:]
        g = other.coeffs[w:]
        g0, q = g[0], [0] * (result_order + 1)
        for n in range(result_order + 1):
            acc = f[n]
            for k in range(n):
                if q[k] and g[n - k]:
                    acc -= q[k] * g[n - k]
            if type(acc) is type(g0) is int:
                c, rem = divmod(acc, g0)
                q[n] = Q(acc, g0) if rem else c
            else:
                q[n] = _coeff(acc / g0)
        return Series(q)

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series([{head}{tail}], order={self.order})"
