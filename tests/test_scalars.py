import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fractionpairs as fp
from lgmirror.scalars import EXACT, Laurent, QSqrt2

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
qsqrt2s = st.builds(QSqrt2, fractions, fractions)
rationals = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60))


def test_sqrt2_squares_to_two():
    r = QSqrt2.sqrt2()
    assert r * r == QSqrt2(2)


def test_laurent_starts_from_the_ints():
    x, y = Laurent.variables(2)
    assert 0 + x == 1 * x == x * 1 and 0 - x == x * -1 and not x - x and not x * 0
    assert (x + y) * (x - y) == x * x - y * y == Laurent({(2, 0): 1, (0, 2): -1})


@pytest.mark.parametrize("other", [1, 0, 2.5, "x", None])
def test_combination_with_a_non_combination_is_a_type_error(other):
    """+ and - with anything but a Combination raise TypeError, as the ints do,
    not an AttributeError on its coefficients."""
    x = Laurent.variables(1)[0]
    for op in (lambda: x + other, lambda: x - other):
        with pytest.raises(TypeError):
            op()


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


def test_constructor_rejects_non_rationals_and_zero_has_no_inverse():
    with pytest.raises(TypeError):
        QSqrt2(0.5)
    with pytest.raises(TypeError):
        QSqrt2(1, "x")
    with pytest.raises(ZeroDivisionError):
        QSqrt2(0).inverse()


def _canonical(x: QSqrt2) -> bool:
    return x._d > 0 and math.gcd(x._a, x._b, x._d) == 1


def _agree(x: QSqrt2, y: fp.QSqrt2) -> None:
    """x (common denominator) and y (Fraction pair) are the same element,
    x is in canonical form, and both read and print the same."""
    assert _canonical(x)
    assert (x.a, x.b) == (y.a, y.b)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert str(x) == str(y) and repr(x) == repr(y)
    assert x.to_float() == y.to_float()
    assert x.is_rational() == y.is_rational() and bool(x) == bool(y)
    if y.is_rational():
        assert x == y.a and hash(x) == hash(y) == hash(y.a)


@given(rationals, rationals, rationals, rationals, st.integers(-3, 3))
def test_common_denominator_agrees_with_the_fraction_pair_oracle(a1, b1, a2, b2, n):
    x, y = QSqrt2(a1, b1), QSqrt2(a2, b2)
    ox, oy = fp.QSqrt2(a1, b1), fp.QSqrt2(a2, b2)
    _agree(x, ox)
    _agree(x + y, ox + oy)
    _agree(x - y, ox - oy)
    _agree(x * y, ox * oy)
    _agree(-x, -ox)
    assert (x == y) == (ox == oy) and (x == a1) == (ox == a1)
    if oy:
        _agree(x / y, ox / oy)
        _agree(y.inverse(), oy.inverse())
    if ox or n >= 0:
        _agree(x**n, ox**n)
    else:
        with pytest.raises(ZeroDivisionError):
            x**n
    _agree(QSqrt2.from_fraction(a1), fp.QSqrt2.from_fraction(a1))
