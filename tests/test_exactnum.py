from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kdvtau.exactnum import (
    format_rational,
    odd_double_factorial,
    parse_rational,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=30),
)


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


def test_rational_string_forms():
    assert format_rational(Fraction(7, 24)) == "7/24"
    assert format_rational(Fraction(-5, 24)) == "-5/24"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(6, -4)) == "-3/2"
    assert parse_rational("-455/1152") == Fraction(-455, 1152)
    assert parse_rational("12") == 12
    assert parse_rational("2/4") == Fraction(1, 2)


@given(rationals)
def test_rational_round_trip(x):
    assert parse_rational(format_rational(x)) == x
