"""Exact scalars: Q(sqrt2) as a quadratic extension of Q.

Rationals are `fractions.Fraction` (arbitrary precision, always normalized,
structural equality).  `QSqrt2` is the field Q(sqrt2), stored as three
integers (a, b, d) meaning (a + b*sqrt2)/d over one common denominator
d > 0 with gcd(a, b, d) = 1, so that each operation needs one gcd and
equality stays structural; every identity downstream is then decidable by
exact equality.  `QSqrt2` mixes with Q: `+ - * /` take an int or a
Fraction on either side and promote it into Q(sqrt2), so one function runs
on QSqrt2 values and on plain rationals alike; arithmetic between two
QSqrt2 is untouched by this.  No command computes in Q(sqrt2): the
Clifford layer works over Q in the basis u = sqrt2 v_{m+1} (`clifford`),
and the per-point suites on the integers D b of `lift` (D the lcm of the
denominators of b).  `QSqrt2`, `EXACT` and `superpotential.ring_vector`
serve the benchmark's reference checks and the tests.  The numerical
layer (`jacobi`) reads the exact spin tables once, as floats, and
computes in numpy.  `EXACT` is the one `ScalarRing`: the zero, the one
and the embedding of Q, for callers that read them there rather than
from `QSqrt2`.  `Combination` is the one sparse container of the
package, a linear combination that keeps no zero coefficient; its
subclasses are `CliffordElement`, `ExteriorElement`, `SpinVector`,
`EndSpin` and `SymSquare` of `clifford` (rational coefficients),
`CohClass` of `qchevalley` and `Laurent` (integer polynomials in b).
`splitmix64` draws every random number.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence, TypeVar, Union

_gcd = math.gcd


def _parts(x: Union[int, Fraction]) -> tuple[int, int]:
    """Numerator and denominator of an int or Fraction."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QSqrt2:
    """Element (a + b*sqrt2)/d of Q(sqrt2): integers a, b, d with d > 0 and
    gcd(a, b, d) = 1, zero being (0, 0, 1).

    Immutable and hashable; `.a` and `.b` are the rational coefficients.
    Division uses the conjugate: the integer norm a^2 - 2b^2 vanishes only
    at a = b = 0 because sqrt2 is irrational.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, a: Union[int, Fraction] = 0, b: Union[int, Fraction] = 0) -> QSqrt2:
        na, da = _parts(a)
        nb, db = _parts(b)
        d = da * db // _gcd(da, db)
        # a prime dividing d divides da or db fully, hence not na or nb: no gcd left to divide out
        return _make(na * (d // da), nb * (d // db), d)

    def __setattr__(self, name, value):
        raise AttributeError("QSqrt2 is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, x: Union[int, Fraction]) -> QSqrt2:
        num, den = _parts(x)
        return _make(num, 0, den)

    @classmethod
    def sqrt2(cls) -> QSqrt2:
        return _make(0, 1, 1)

    # -- coefficients ------------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates --------------------------------------------------------

    def is_rational(self) -> bool:
        return self._b == 0

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QSqrt2):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and (self._a, self._d) == _parts(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self._a if self._d == 1 else Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: QSqrt2 | int | Fraction) -> QSqrt2:
        if not isinstance(other, QSqrt2):
            other = _promote(other)
            if other is None:
                return NotImplemented
        d = self._d
        if d == other._d:
            return _reduced(self._a + other._a, self._b + other._b, d)
        e = other._d
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    def __sub__(self, other: QSqrt2 | int | Fraction) -> QSqrt2:
        if not isinstance(other, QSqrt2):
            other = _promote(other)
            if other is None:
                return NotImplemented
        d = self._d
        if d == other._d:
            return _reduced(self._a - other._a, self._b - other._b, d)
        e = other._d
        return _reduced(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other: int | Fraction) -> QSqrt2:
        other = _promote(other)
        return NotImplemented if other is None else other - self

    def __neg__(self) -> QSqrt2:
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other: QSqrt2 | int | Fraction) -> QSqrt2:
        if not isinstance(other, QSqrt2):
            other = _promote(other)
            if other is None:
                return NotImplemented
        # (a1 + b1 r)(a2 + b2 r) = a1 a2 + 2 b1 b2 + (a1 b2 + a2 b1) r
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    def inverse(self) -> QSqrt2:
        # d / (a + b r) = d (a - b r) / (a^2 - 2 b^2)
        a, b, d = self._a, self._b, self._d
        if not (a or b):
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        norm = a * a - 2 * b * b
        if norm < 0:
            return _reduced(-a * d, b * d, -norm)
        return _reduced(a * d, -b * d, norm)

    def __truediv__(self, other: QSqrt2 | int | Fraction) -> QSqrt2:
        if not isinstance(other, QSqrt2):
            other = _promote(other)
            if other is None:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: int | Fraction) -> QSqrt2:
        other = _promote(other)
        return NotImplemented if other is None else other * self.inverse()

    # x + y and x * y commute, so the reflected forms are the forward ones
    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int) -> QSqrt2:
        if n < 0:
            return self.inverse() ** (-n)
        out = QS2_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- conversions -------------------------------------------------------

    def to_float(self) -> float:
        # int / int rounds correctly, as float(Fraction) does
        return self._a / self._d + self._b / self._d * math.sqrt(2)

    def __repr__(self) -> str:
        return f"QSqrt2({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}*sqrt2"
        return f"{a}{'+' if b > 0 else '-'}{abs(b)}*sqrt2"


_new = object.__new__
_set_a = QSqrt2._a.__set__
_set_b = QSqrt2._b.__set__
_set_d = QSqrt2._d.__set__


def _make(a: int, b: int, d: int) -> QSqrt2:
    """The element (a + b*sqrt2)/d, already in canonical form.  The slot
    setters write past the raising __setattr__ without building a Fraction."""
    x = _new(QSqrt2)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduced(a: int, b: int, d: int) -> QSqrt2:
    """The element (a + b*sqrt2)/d for d > 0, with gcd(a, b, d) divided out."""
    g = _gcd(a, b, d)
    if g != 1:
        return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def _promote(x: object) -> QSqrt2 | None:
    """The int or Fraction x as an element of Q(sqrt2); None for any other type."""
    return QSqrt2.from_fraction(x) if isinstance(x, (int, Fraction)) else None


Lift = tuple[list[int], int]


def lift(b: Sequence[Union[int, Fraction]]) -> Lift:
    """(a, D) for the rational vector b: D the lcm of its denominators and
    a = D b, a list of ints.  A value homogeneous of degree k in b is its
    value at a over D^k."""
    d = math.lcm(*(x.denominator for x in b))
    return [x.numerator * (d // x.denominator) for x in b], d


QS2_ZERO = QSqrt2(0)
QS2_ONE = QSqrt2(1)


class ScalarRing(NamedTuple):
    """The ring constants of Q(sqrt2): zero, one and the embedding of Q."""

    zero: QSqrt2
    one: QSqrt2
    from_fraction: Callable[[Fraction], QSqrt2]


EXACT = ScalarRing(zero=QS2_ZERO, one=QS2_ONE, from_fraction=QSqrt2.from_fraction)


# -- sparse linear combinations -------------------------------------------------


C = TypeVar("C", bound="Combination")


class Combination:
    """Sparse linear combination: key -> nonzero coefficient.

    `+`, `-` and `scale` return the caller's class with its other fields
    unchanged (`+` and `-` with anything but a combination are a TypeError);
    two combinations are equal when they have the same class and equal
    fields.
    """

    def __init__(self, m: int, coeffs: dict | None = None) -> None:
        self.m = m
        self.coeffs = {} if coeffs is None else coeffs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"

    def _with(self: C, coeffs: dict) -> C:
        """A copy of self with `coeffs` as its coefficients."""
        out = object.__new__(self.__class__)
        out.__dict__.update(vars(self), coeffs=coeffs)
        return out

    def add_term(self, key, c) -> None:
        """Add c to the coefficient of key, dropping it if the sum is zero."""
        cur = self.coeffs.get(key)
        new = c if cur is None else cur + c
        if new:
            self.coeffs[key] = new
        else:
            self.coeffs.pop(key, None)

    def __add__(self: C, other: C) -> C:
        if not isinstance(other, Combination):
            return NotImplemented
        out = self._with(dict(self.coeffs))
        for k, c in other.coeffs.items():
            out.add_term(k, c)
        return out

    def __sub__(self: C, other: C) -> C:
        if not isinstance(other, Combination):
            return NotImplemented
        out = self._with(dict(self.coeffs))
        for k, c in other.coeffs.items():
            out.add_term(k, -c)
        return out

    def scale(self: C, c) -> C:
        if not c:
            return self._with({})
        return self._with({k: v * c for k, v in self.coeffs.items()})


class Laurent(Combination):
    """Integer polynomial in b_1..b_N by exponent tuple; also 0 + x, 0 - x and k * x."""

    def __init__(self, coeffs: dict) -> None:
        self.coeffs = coeffs

    @classmethod
    def variables(cls, n: int) -> list[Laurent]:
        return [cls({tuple(int(i == k) for i in range(n)): 1}) for k in range(n)]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __radd__(self, zero: int) -> Laurent:
        return self if zero == 0 else NotImplemented

    def __rsub__(self, zero: int) -> Laurent:
        return self.scale(-1) if zero == 0 else NotImplemented

    def __mul__(self, other: Laurent | int) -> Laurent:
        if isinstance(other, int):
            return self.scale(other)
        out = Laurent({})
        for e, c in self.coeffs.items():
            for f, d in other.coeffs.items():
                out.add_term(tuple(map(operator.add, e, f)), c * d)
        return out

    __rmul__ = __mul__


def splitmix64(state: int):
    """Deterministic 64-bit generator; the single randomness source of the package."""
    mask = (1 << 64) - 1
    state &= mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)
