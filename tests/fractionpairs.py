"""Q(sqrt2) as a pair of rationals: the test oracle for `lgmirror.scalars.QSqrt2`.

An element a + b*sqrt2 is stored as two normalized `fractions.Fraction`s,
so every operation is the textbook formula on Fractions and its
correctness needs no argument about a common denominator.  The package
class stores (a + b*sqrt2)/d as three integers; `tests/test_scalars.py`
checks that both agree on every operation and string form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union


def _as_fraction(x: Union[int, Fraction]) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QSqrt2:
    """Element a + b*sqrt2 of Q(sqrt2), with a, b exact rationals.

    Immutable and hashable.  Division uses the conjugate: the norm
    a^2 - 2b^2 vanishes only at 0 because sqrt2 is irrational.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Union[int, Fraction] = 0, b: Union[int, Fraction] = 0) -> None:
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("QSqrt2 is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, x: Union[int, Fraction]) -> QSqrt2:
        return cls(_as_fraction(x), Fraction(0))

    @classmethod
    def sqrt2(cls) -> QSqrt2:
        return cls(0, 1)

    # -- predicates --------------------------------------------------------

    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QSqrt2):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: QSqrt2) -> QSqrt2:
        if not isinstance(other, QSqrt2):
            return NotImplemented
        return QSqrt2(self.a + other.a, self.b + other.b)

    def __sub__(self, other: QSqrt2) -> QSqrt2:
        if not isinstance(other, QSqrt2):
            return NotImplemented
        return QSqrt2(self.a - other.a, self.b - other.b)

    def __neg__(self) -> QSqrt2:
        return QSqrt2(-self.a, -self.b)

    def __mul__(self, other: QSqrt2) -> QSqrt2:
        if not isinstance(other, QSqrt2):
            return NotImplemented
        # (a1 + b1 r)(a2 + b2 r) = a1 a2 + 2 b1 b2 + (a1 b2 + a2 b1) r
        return QSqrt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def inverse(self) -> QSqrt2:
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            # a^2 = 2 b^2 with rational a, b forces a = b = 0
            if self:
                raise ArithmeticError(f"norm 0 at the nonzero {self!r}: coefficients are not rational")
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return QSqrt2(self.a / norm, -self.b / norm)

    def __truediv__(self, other: QSqrt2) -> QSqrt2:
        if not isinstance(other, QSqrt2):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int) -> QSqrt2:
        if n < 0:
            return self.inverse() ** (-n)
        out = QSqrt2(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- conversions -------------------------------------------------------

    def to_float(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(2)

    def __repr__(self) -> str:
        return f"QSqrt2({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        return f"{self.a}{'+' if self.b > 0 else '-'}{abs(self.b)}*sqrt2"
