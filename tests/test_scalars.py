from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lgmirror.scalars import EXACT, QSqrt2

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
qsqrt2s = st.builds(QSqrt2, fractions, fractions)


def test_sqrt2_squares_to_two():
    r = QSqrt2.sqrt2()
    assert r * r == QSqrt2(2)


def test_multiplication_identity_and_conjugate_product():
    x = QSqrt2(Fraction(3, 7), Fraction(-2, 5))
    assert QSqrt2(1) * x == x
    assert QSqrt2(1, 1) * QSqrt2(1, -1) == QSqrt2(-1)


def test_inverses():
    assert QSqrt2(2).inverse() == QSqrt2(Fraction(1, 2))
    assert QSqrt2(0, 1).inverse() == QSqrt2(0, Fraction(1, 2))
    assert QSqrt2(1, 1).inverse() == QSqrt2(-1, 1)
    with pytest.raises(ZeroDivisionError):
        QSqrt2(0).inverse()


@given(qsqrt2s, qsqrt2s, qsqrt2s)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(qsqrt2s)
def test_inverse_roundtrip(x):
    if x:
        assert x * x.inverse() == QSqrt2(1)


@given(qsqrt2s)
def test_rational_part_never_aliases(x):
    assert x.is_rational() == (x.b == 0)


def test_power():
    x = QSqrt2(1, 1)
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()
    assert x**0 == QSqrt2(1)


def test_exact_ring_embeddings():
    assert EXACT.from_fraction(Fraction(2, 3)) == QSqrt2(Fraction(2, 3))


def test_inverse_raises_when_norm_vanishes_off_zero():
    """The norm a^2 - 2b^2 is 0 only at 0 for rational a, b; an element whose
    coefficients bypassed that (here a float whose square underflows) raises."""
    x = QSqrt2(1)
    object.__setattr__(x, "a", 3e-200)
    with pytest.raises(ArithmeticError, match="not rational"):
        x.inverse()
    with pytest.raises(ZeroDivisionError):
        QSqrt2(0).inverse()
