"""Truncated formal power series with exact integer coefficients.

Enough ring structure to solve the generator-counting identity
beta(alpha(x)) + x = alpha(x): substituting y = alpha(x) turns it into
beta = id - alpha^(-1) with alpha^(-1) the compositional inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .trees import _arity


class SeriesError(ValueError):
    """A series operation was called outside its domain."""


def _series(other) -> "PowerSeries":
    # the one type check on a series operand
    if not isinstance(other, PowerSeries):
        raise SeriesError(f"{other!r} is not a PowerSeries")
    return other


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients c_0..c_N of a series truncated at order N."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        except TypeError:
            raise SeriesError(f"coefficients must be a sequence, got {self.coeffs!r}") from None
        if not self.coeffs:
            raise SeriesError("a series needs at least the constant coefficient")
        if set(map(type, self.coeffs)) != {int}:
            raise SeriesError(f"coefficients must be integers, got {self.coeffs!r}")

    @classmethod
    def from_list(cls, coeffs: Sequence[int], order: int | None = None) -> "PowerSeries":
        cs = list(coeffs)
        if order is not None:
            _arity(order, 0, "order must be at least 0", SeriesError)
            cs = (cs + [0] * (order + 1))[: order + 1]
        return cls(tuple(cs))

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        return cls.from_list([0, 1], order)

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls.from_list([], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> int:
        _arity(n, error=SeriesError)
        return self.coeffs[n] if 0 <= n <= self.order else 0

    def truncate(self, order: int) -> "PowerSeries":
        return PowerSeries.from_list(self.coeffs, order)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        # zip stops at the shorter series: the sum is known to the common order
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs, _series(other).coeffs)))

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + -_series(other)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        order = min(self.order, _series(other).order)
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a == 0:
                continue
            for j in range(order + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return PowerSeries(tuple(out))

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(x)); inner must have zero constant term."""
        if _series(inner).coefficient(0) != 0:
            raise SeriesError("composition needs a zero constant term")
        order = min(self.order, inner.order)
        # Horner from the top coefficient down
        result = PowerSeries.zero(order)
        h = inner.truncate(order)
        for c in reversed(self.coeffs[: order + 1]):
            result = result * h
            result = PowerSeries(
                (result.coeffs[0] + c,) + result.coeffs[1:]
            )
        return result

    def compositional_inverse(self) -> "PowerSeries":
        """The series g with self(g(x)) = x = g(self(x)), term by term.

        Requires zero constant term and linear coefficient 1.
        """
        if self.coefficient(0) != 0 or self.coefficient(1) != 1:
            raise SeriesError("inverse needs the form x + higher-order terms")
        order = self.order
        inv = [0] * (order + 1)
        inv[1] = 1
        for k in range(2, order + 1):
            # with inv correct below degree k, the composite is x + e*x^k + ...
            e = self.compose(PowerSeries(tuple(inv))).coefficient(k)
            inv[k] -= e
        return PowerSeries(tuple(inv))

    def polynomial(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = "" if abs(c) == 1 and n > 0 else str(abs(c))
            var = "" if n == 0 else ("x" if n == 1 else f"x^{n}")
            term = f"{mag}{var}" or "0"
            parts.append(("- " if c < 0 else "+ ") + term)
        if not parts:
            return "0"
        head = parts[0].lstrip("+ ").replace("- ", "-", 1)
        return " ".join([head] + parts[1:])


def cayley_series(order: int) -> PowerSeries:
    """x + sum_{n>=2} n^(n-1) x^n, the tree-counting series."""
    _arity(order, 1, "order must be at least 1", SeriesError)
    return PowerSeries(tuple(0 if n == 0 else n ** (n - 1) for n in range(order + 1)))


def generator_series(order: int) -> PowerSeries:
    """Counting series of the free generators, solved by inversion."""
    _arity(order, 2, "order must be at least 2", SeriesError)
    alpha = cayley_series(order)
    return PowerSeries.identity(order) - alpha.compositional_inverse()


def verify_functional_equation(
    alpha: PowerSeries, beta: PowerSeries, order: int
) -> bool:
    """Coefficientwise check of beta(alpha(x)) + x = alpha(x) up to order.

    The order may not exceed either series' own: padding with zeros
    would test coefficients neither series knows.
    """
    top = min(alpha.order, beta.order)
    if _arity(order, 0, "order must be at least 0", SeriesError) > top:
        raise SeriesError(f"order {order} is above the series order {top}")
    lhs = beta.truncate(order).compose(alpha.truncate(order)) + PowerSeries.identity(order)
    return lhs == alpha.truncate(order)
