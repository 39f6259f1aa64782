"""Truncated q-series with exact integer coefficients.

Every series here is a formal power series in q cut off at a fixed order
(inclusive), and the order is carried around explicitly so that mixed-order
arithmetic is an error instead of a silent truncation.  Coefficients are
plain Python ints throughout; nothing in this module ever touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass


class OrderMismatchError(ValueError):
    """Raised when combining two series truncated at different orders."""


@dataclass(frozen=True)
class QSeries:
    """A q-series truncated at ``order`` (coefficient list has order+1 entries)."""

    coeffs: tuple[int, ...]
    order: int

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"truncation order must be >= 0, got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficients for order {self.order}, "
                f"got {len(self.coeffs)}"
            )
        if not all(isinstance(c, int) for c in self.coeffs):
            raise TypeError("QSeries coefficients must be ints")

    def __add__(self, other: "QSeries") -> "QSeries":
        _check_orders(self, other)
        return QSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __sub__(self, other: "QSeries") -> "QSeries":
        _check_orders(self, other)
        return QSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __rmul__(self, c: int) -> "QSeries":
        if not isinstance(c, int):
            return NotImplemented
        return QSeries(tuple(c * a for a in self.coeffs), self.order)

    def shift(self, p: int) -> "QSeries":
        """Multiply by q^p (p >= 0), staying at the same truncation order."""
        if p < 0:
            raise ValueError("shift exponent must be >= 0")
        coeffs = (0,) * min(p, self.order + 1) + self.coeffs
        return QSeries(coeffs[: self.order + 1], self.order)


def _check_orders(a: QSeries, b: QSeries) -> None:
    if a.order != b.order:
        raise OrderMismatchError(f"series orders differ: {a.order} != {b.order}")


def _divide(coeffs: list[int], p: int) -> None:
    """Multiply by (1 - q^p)^(-1) in place, p >= 1: going up, each entry gains the one p below it."""
    for j in range(p, len(coeffs)):
        coeffs[j] += coeffs[j - p]


def eta_inverse_squared(order: int) -> QSeries:
    """prod_{j=1..order} (1 - q^j)^(-2), the 2-colored partition generating series."""
    coeffs = [1] + [0] * order
    for j in range(1, order + 1):
        _divide(coeffs, j)
        _divide(coeffs, j)
    return QSeries(tuple(coeffs), order)


def char_L(n: int, order: int) -> QSeries:
    """Graded dimension of the irreducible with integral weight n >= 0.

    (n+1) * (1 - q^(n+1))^(-1) * prod_j (1 - q^j)^(-2); the constant term is
    n+1, the dimension of the corresponding finite-dimensional sl2 module.
    """
    if n < 0:
        raise ValueError(f"char_L is defined for n >= 0, got {n}")
    coeffs = list(eta_inverse_squared(order).coeffs)
    _divide(coeffs, n + 1)
    return (n + 1) * QSeries(tuple(coeffs), order)


def char_H1(n: int, order: int) -> QSeries:
    """q^(n+1) * char_L(n): the first-cohomology character for twist n >= 0."""
    return char_L(n, order).shift(n + 1)
