"""Exact scalar arithmetic: rationals and the quadratic extension Q[s]/(s^2 + 2).

All coefficients in this package are arbitrary-precision rationals
(`fractions.Fraction`, re-exported as `ExactScalar`), kept in lowest terms
with positive denominator by construction.  The closed-form hook
coefficients are evaluated in the extension Q[sqrt(-2)] first and only then
rescaled back to Q; `ext_to_rational` asserts that the sqrt(-2) part has
cancelled, which doubles as a correctness check on the formulas.

No floating point is used anywhere.

The package's value records derive from `Record`: plain slotted classes
with hand-written `__init__` methods.  They are not dataclasses because
every command pays for its imports: `dataclasses` loads `inspect`, `ast`,
`dis` and `tokenize`, and each `@dataclass` decorator compiles and execs
generated methods.  With 17 dataclass records, importing `kdvtau.cli`
took 0.041 s on top of a bare interpreter; with `Record` it takes
0.015 s (medians of 60 alternating processes, Python 3.11, shared 2-core
VM).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter

from .errors import NonRationalError

__all__ = [
    "Record",
    "ExactScalar",
    "ExtScalar",
    "SQRT_MINUS_TWO",
    "as_rational",
    "parse_rational",
    "format_rational",
    "factorial",
    "odd_double_factorial",
    "ext_to_rational",
]

ExactScalar = Fraction

RationalLike = Fraction | int

_setattr = object.__setattr__  # how a record's __init__ fills its slots


class Record:
    """Immutable value record whose fields are its `__slots__`.

    Records of the same class are equal when their fields are, and hash
    over the field values; the repr reads `Name(field=value, ...)`,
    assigning or deleting an attribute raises `AttributeError`, and copy
    and pickle go through `__init__`.  A subclass lists its fields in
    `__slots__` (plus "__dict__" when it has a `cached_property`) and sets
    them in `__init__` with `_setattr`.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(n for n in cls.__slots__ if n != "__dict__")
        cls._values = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return type(self), tuple(getattr(self, n) for n in self._fields)


def as_rational(x: RationalLike) -> Fraction:
    """Coerce an int or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical "p/q" (or "p") string form."""
    return Fraction(text.strip())


def format_rational(x: RationalLike) -> str:
    """Canonical string form: "p/q" in lowest terms, "p" when q = 1."""
    x = as_rational(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def factorial(n: int) -> Fraction:
    """n! as an exact rational, n >= 0."""
    if n < 0:
        raise ValueError(f"factorial of negative integer {n}")
    return Fraction(math.factorial(n))


def odd_double_factorial(n: int) -> Fraction:
    """n!! = n(n-2)...1 for odd n, with 1!! = 1 and (-1)!! = 1.

    Even arguments are rejected: every double factorial appearing in the
    closed forms has odd argument, so an even one signals an index bug.
    """
    if n % 2 == 0:
        raise ValueError(f"double factorial restricted to odd arguments, got {n}")
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    prod = 1
    for k in range(n, 1, -2):
        prod *= k
    return Fraction(prod)


class ExtScalar(Record):
    """Element re + im * s of Q[s] with s^2 = -2."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction) -> None:
        _setattr(self, "re", re)
        _setattr(self, "im", im)

    @classmethod
    def from_rational(cls, x: RationalLike) -> "ExtScalar":
        return cls(as_rational(x), Fraction(0))

    @property
    def is_rational(self) -> bool:
        return self.im == 0

    def __add__(self, other: "ExtScalar | RationalLike") -> "ExtScalar":
        other = _coerce(other)
        return ExtScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "ExtScalar | RationalLike") -> "ExtScalar":
        other = _coerce(other)
        return ExtScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: "ExtScalar | RationalLike") -> "ExtScalar":
        return _coerce(other) - self

    def __neg__(self) -> "ExtScalar":
        return ExtScalar(-self.re, -self.im)

    def __mul__(self, other: "ExtScalar | RationalLike") -> "ExtScalar":
        # a rational factor, or one with no s part, scales the other's two parts
        if isinstance(other, ExtScalar) and other.im == 0:
            other = other.re
        elif isinstance(other, ExtScalar) and self.im == 0:
            self, other = other, self.re
        if not isinstance(other, ExtScalar):
            other = as_rational(other)
            return ExtScalar(self.re * other, self.im * other)
        # (a + b s)(c + d s) = (ac - 2bd) + (ad + bc) s
        return ExtScalar(
            self.re * other.re - 2 * self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ExtScalar":
        if n < 0:
            raise ValueError("only non-negative powers are needed")
        out = ExtScalar.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self) -> str:
        if self.is_rational:
            return format_rational(self.re)
        return f"{format_rational(self.re)} + ({format_rational(self.im)})*sqrt(-2)"


def _coerce(x: "ExtScalar | RationalLike") -> ExtScalar:
    if isinstance(x, ExtScalar):
        return x
    return ExtScalar.from_rational(x)


SQRT_MINUS_TWO = ExtScalar(Fraction(0), Fraction(1))


def ext_to_rational(x: ExtScalar) -> Fraction:
    """Extract the rational value of x, requiring the s-part to vanish."""
    if not x.is_rational:
        raise NonRationalError(f"value has a nonzero sqrt(-2) part: {x}")
    return x.re
