"""Exact scalar arithmetic over the rationals.

All coefficients in this package are arbitrary-precision rationals
(`fractions.Fraction`), kept in lowest terms with positive denominator by
construction.  Nothing irrational is carried: the powers of sqrt(-2) in
Zhou's closed form cancel in the rescaled coefficients, which `zhou`
computes as rationals directly.  Files hold rationals only in the canonical
text form "p/q" or "p" (`parse_rational`).

No floating point is used anywhere.

The package's value records derive from `Record`: plain slotted classes
with hand-written `__init__` methods.  They are not dataclasses because
every command pays for its imports: `dataclasses` loads `inspect`, `ast`,
`dis` and `tokenize`, and each `@dataclass` decorator compiles and execs
generated methods.  With 17 dataclass records, importing `kdvtau.cli`
took 0.041 s on top of a bare interpreter.  With `Record`, and with the
CLI's own table parser in place of argparse (which imports gettext), it
takes 0.014-0.019 s, against 0.019-0.020 s with argparse (medians of 60
alternating processes in each of four runs, warm bytecode cache, Python
3.11.7, shared 2-core VM).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

__all__ = [
    "Record",
    "as_rational",
    "check_rational",
    "parse_rational",
    "format_rational",
    "format_ratio",
    "odd_double_factorial",
]

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


def check_rational(text: str) -> str:
    """`text` if it is the canonical "p/q" (or "p") string form with q != 0:
    ASCII digits, an optional leading "-", no whitespace, "+", "_", exponent
    or decimal point; else ValueError.  It takes time linear in the length of
    `text` and parses no number."""
    match = re.fullmatch(r"-?[0-9]+(?:/([0-9]+))?", text)  # compiled on first use, not at import
    if not match:
        raise ValueError(f"not a rational of the form p/q: {text!r}")
    if match[1] is not None and not match[1].strip("0"):
        raise ValueError(f"zero denominator in {text!r}")
    return text


def parse_rational(text: str) -> Fraction:
    """Parse the canonical "p/q" (or "p") string form (`check_rational`).
    A fraction not in lowest terms ("2/4") is reduced."""
    return Fraction(check_rational(text))


def format_rational(x: RationalLike) -> str:
    """Canonical string form: "p/q" in lowest terms, "p" when q = 1."""
    x = as_rational(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_ratio(p: int, q: int) -> str:
    """The integer pair p/q, q > 0, not necessarily reduced, in the form of
    `format_rational`, reduced once and with no Fraction built."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


@lru_cache(maxsize=None)
def odd_double_factorial(n: int) -> int:
    """n!! = n(n-2)...1 for odd n, with 1!! = 1 and (-1)!! = 1.

    Even arguments are rejected: every double factorial appearing in the
    closed forms has odd argument, so an even one signals an index bug.
    """
    if n % 2 == 0:
        raise ValueError(f"double factorial restricted to odd arguments, got {n}")
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    return math.prod(range(n, 1, -2))
