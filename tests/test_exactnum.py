from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kdvtau.errors import NonRationalError
from kdvtau.exactnum import (
    ExtScalar,
    SQRT_MINUS_TWO,
    ext_to_rational,
    factorial,
    format_rational,
    odd_double_factorial,
    parse_rational,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=30),
)
ext_scalars = st.builds(ExtScalar, rationals, rationals)


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    # independent direct-product oracle
    prod = 1
    for i in range(1, 13):
        prod *= i
    assert factorial(12) == prod == 479001600


def test_odd_double_factorial_values():
    assert odd_double_factorial(-1) == 1
    assert odd_double_factorial(1) == 1
    assert odd_double_factorial(7) == 7 * 5 * 3 * 1 == 105
    prod = 1
    for i in range(13, 0, -2):
        prod *= i
    assert odd_double_factorial(13) == prod == 135135


def test_odd_double_factorial_rejects_even():
    with pytest.raises(ValueError):
        odd_double_factorial(4)


def test_ext_to_rational():
    assert ext_to_rational(ExtScalar(Fraction(7, 24), Fraction(0))) == Fraction(7, 24)
    assert ext_to_rational(ExtScalar(Fraction(0), Fraction(0))) == 0
    with pytest.raises(NonRationalError):
        ext_to_rational(ExtScalar(Fraction(1), Fraction(1)))


def test_sqrt_minus_two_powers():
    assert SQRT_MINUS_TWO * SQRT_MINUS_TWO == ExtScalar.from_rational(-2)
    assert SQRT_MINUS_TWO**4 == ExtScalar.from_rational(4)
    assert ext_to_rational(SQRT_MINUS_TWO**4) == 4


def test_rational_string_forms():
    assert format_rational(Fraction(7, 24)) == "7/24"
    assert format_rational(Fraction(-5, 24)) == "-5/24"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(6, -4)) == "-3/2"
    assert parse_rational("-455/1152") == Fraction(-455, 1152)
    assert parse_rational("12") == 12


@given(rationals)
def test_rational_round_trip(x):
    assert parse_rational(format_rational(x)) == x


@given(ext_scalars, ext_scalars, ext_scalars)
def test_ext_scalar_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(ext_scalars)
def test_ext_scalar_normalization_idempotent(x):
    # values are normalized Fractions by construction; rebuilding changes nothing
    rebuilt = ExtScalar(Fraction(x.re), Fraction(x.im))
    assert rebuilt == x


@given(ext_scalars, st.integers(min_value=0, max_value=6))
def test_ext_scalar_power_matches_repeated_product(x, n):
    prod = ExtScalar.from_rational(1)
    for _ in range(n):
        prod = prod * x
    assert x**n == prod


@given(ext_scalars, rationals, st.integers(min_value=-9, max_value=9))
def test_ext_scalar_rational_factor_matches_full_product(x, r, k):
    # the rational fast path agrees with the general product in Q[s], on
    # either side and for an ExtScalar with no s part
    for factor in (r, k):
        full = x * ExtScalar(Fraction(factor), Fraction(1)) - x * SQRT_MINUS_TWO
        assert x * factor == factor * x == full
        assert x * ExtScalar.from_rational(factor) == ExtScalar.from_rational(factor) * x == full
        assert isinstance((x * factor).re, Fraction) and isinstance((x * factor).im, Fraction)


def test_ext_scalar_rejects_inexact_factor():
    with pytest.raises(TypeError):
        SQRT_MINUS_TWO * 1.5
