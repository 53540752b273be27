"""Partitions, Frobenius coordinates, Schur polynomials and Giambelli minors.

Schur polynomials are taken in the variables theta_1, theta_2, ... graded by
deg theta_j = j, via the Jacobi-Trudi determinant s_mu = det(h_{mu_i - i + j})
where the complete homogeneous polynomials h_k are generated by
exp(sum_j theta_j z^j) = sum_k h_k z^k (h_k = 0 for k < 0).  The general
expansion coefficient of a tau series is the Giambelli-type minor

    A_mu = (-1)^(n_1 + ... + n_k) det(A_{m_i, n_j})

over the hook entries of an affine-coordinate table, with mu written in
Frobenius coordinates (m_1..m_k | n_1..n_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

from .errors import DegreeExceededError, NonUnitError, OutOfRangeError
from .exactnum import RationalLike, as_rational, format_rational
from .grassmann import AffineTable
from .series import _order_min

__all__ = [
    "Partition",
    "FrobeniusCoords",
    "frobenius",
    "partition_from_frobenius",
    "partitions_of",
    "partitions_up_to",
    "GradedPoly",
    "Monomial",
    "h_polys",
    "schur_poly",
    "giambelli_coeff",
    "det_exact",
]


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; the empty partition is ()."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for i, p in enumerate(self.parts):
            if p <= 0:
                raise ValueError("parts must be positive (drop trailing zeros)")
            if i and self.parts[i - 1] < p:
                raise ValueError("parts must be weakly decreasing")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1)]
        return Partition(tuple(cols))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class FrobeniusCoords:
    """Arm/leg coordinates (m_1 > ... > m_k | n_1 > ... > n_k) along the diagonal."""

    arms: tuple[int, ...]
    legs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.arms) != len(self.legs):
            raise ValueError("arms and legs must pair up")
        for seq in (self.arms, self.legs):
            for i, v in enumerate(seq):
                if v < 0 or (i and seq[i - 1] <= v):
                    raise ValueError("coordinates must be strictly decreasing and >= 0")

    @property
    def rank(self) -> int:
        return len(self.arms)


def frobenius(mu: Partition) -> FrobeniusCoords:
    """Frobenius coordinates m_i = mu_i - i, n_i = mu'_i - i (1-based i)."""
    conj = mu.conjugate().parts
    k = 0
    while k < mu.length and mu.parts[k] >= k + 1:
        k += 1
    arms = tuple(mu.parts[i] - (i + 1) for i in range(k))
    legs = tuple(conj[i] - (i + 1) for i in range(k))
    return FrobeniusCoords(arms, legs)


def partition_from_frobenius(fc: FrobeniusCoords) -> Partition:
    """Rebuild the partition whose diagonal hooks are (arms | legs)."""
    k = fc.rank
    rows = [fc.arms[i] + (i + 1) for i in range(k)]
    cols = [fc.legs[j] + (j + 1) for j in range(k)]
    i = k + 1
    while True:
        row = sum(1 for c in cols if c >= i)
        if row == 0:
            break
        rows.append(row)
        i += 1
    return Partition(tuple(rows))


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    top = min(n, max_part) if max_part is not None else n
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partitions_up_to(max_weight: int) -> list[Partition]:
    """All partitions of weight <= max_weight, ordered by weight then
    descending lexicographic -- a fixed order so exports are byte-stable."""
    out = []
    for w in range(max_weight + 1):
        out.extend(Partition(p) for p in partitions_of(w))
    return out


# ---------------------------------------------------------------------------
# Graded polynomials
# ---------------------------------------------------------------------------

Monomial = tuple[tuple[int, int], ...]  # ((variable index, exponent), ...), index-sorted

_VAR_DEGREE: dict[str, Callable[[int], int]] = {
    "theta": lambda j: j,        # deg theta_j = j,  j >= 1
    "t": lambda k: 2 * k + 1,    # deg t_k = 2k + 1, k >= 0
}


def monomial_degree(kind: str, mon: Monomial) -> int:
    w = _VAR_DEGREE[kind]
    return sum(w(var) * exp for var, exp in mon)


@dataclass(frozen=True)
class GradedPoly:
    """Sparse exact polynomial with a graded reliability bound.

    Terms of graded degree <= bound are complete and exact; nothing is
    stored beyond the bound.  bound None means the polynomial is exact at
    every degree.  The bound propagates through arithmetic the same way the
    Laurent tail window does: a product is reliable up to the degree where
    the unknown part of one factor can first meet a stored term of the
    other.
    """

    kind: str
    terms: dict[Monomial, Fraction]
    bound: int | None

    @classmethod
    def make(
        cls, kind: str, terms: dict[Monomial, RationalLike], bound: int | None
    ) -> "GradedPoly":
        clean: dict[Monomial, Fraction] = {}
        for mon, c in terms.items():
            c = as_rational(c)
            if c == 0:
                continue
            if bound is not None and monomial_degree(kind, mon) > bound:
                continue
            clean[mon] = c
        return cls(kind, clean, bound)

    @classmethod
    def zero(cls, kind: str, bound: int | None = None) -> "GradedPoly":
        return cls(kind, {}, bound)

    @classmethod
    def const(cls, kind: str, c: RationalLike, bound: int | None = None) -> "GradedPoly":
        return cls.make(kind, {(): c}, bound)

    @classmethod
    def variable(cls, kind: str, idx: int, bound: int | None = None) -> "GradedPoly":
        return cls.make(kind, {((idx, 1),): 1}, bound)

    # -- queries ------------------------------------------------------------

    def coefficient(self, mon: Monomial) -> Fraction:
        deg = monomial_degree(self.kind, mon)
        if self.bound is not None and deg > self.bound:
            raise DegreeExceededError(
                f"coefficient at degree {deg} beyond reliable bound {self.bound}"
            )
        return self.terms.get(mon, Fraction(0))

    @property
    def min_degree(self) -> int | None:
        if not self.terms:
            return None
        return min(monomial_degree(self.kind, m) for m in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def degree_slice(self, degree: int) -> "GradedPoly":
        kept = {
            m: c for m, c in self.terms.items()
            if monomial_degree(self.kind, m) == degree
        }
        return GradedPoly(self.kind, kept, self.bound)

    # -- arithmetic ----------------------------------------------------------

    def _check_kind(self, other: "GradedPoly") -> None:
        if self.kind != other.kind:
            raise ValueError(f"mixed gradings: {self.kind} vs {other.kind}")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_kind(other)
        bound = _order_min(self.bound, other.bound)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return GradedPoly.make(self.kind, out, bound)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly(self.kind, {m: -c for m, c in self.terms.items()}, self.bound)

    def scale(self, c: RationalLike) -> "GradedPoly":
        c = as_rational(c)
        if c == 0:
            return GradedPoly(self.kind, {}, self.bound)
        return GradedPoly(self.kind, {m: c * v for m, v in self.terms.items()}, self.bound)

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_kind(other)
        bound = self._product_bound(other)
        out: dict[Monomial, Fraction] = {}
        deg = lambda m: monomial_degree(self.kind, m)
        bdeg = {m: deg(m) for m in other.terms}
        for m1, c1 in self.terms.items():
            d1 = deg(m1)
            for m2, c2 in other.terms.items():
                if bound is not None and d1 + bdeg[m2] > bound:
                    continue
                m = _merge_monomials(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return GradedPoly.make(self.kind, out, bound)

    def _product_bound(self, other: "GradedPoly") -> int | None:
        """First contaminated degree minus one; None if both factors exact."""
        candidates = []
        if other.bound is not None:
            if self.min_degree is not None:
                candidates.append(self.min_degree + other.bound)
            if self.bound is not None:
                candidates.append(self.bound + other.bound + 2)
        if self.bound is not None and other.min_degree is not None:
            candidates.append(other.min_degree + self.bound)
        return min(candidates) if candidates else None

    def pow_int(self, e: int) -> "GradedPoly":
        if e < 0:
            raise ValueError("negative powers are not defined here")
        out = GradedPoly.const(self.kind, 1)
        for _ in range(e):
            out = out * self
        return out

    def derivative(self, idx: int) -> "GradedPoly":
        w = _VAR_DEGREE[self.kind](idx)
        bound = None if self.bound is None else self.bound - w
        out: dict[Monomial, Fraction] = {}
        for mon, c in self.terms.items():
            for pos, (var, exp) in enumerate(mon):
                if var == idx:
                    if exp == 1:
                        new = mon[:pos] + mon[pos + 1:]
                    else:
                        new = mon[:pos] + ((var, exp - 1),) + mon[pos + 1:]
                    out[new] = out.get(new, Fraction(0)) + c * exp
                    break
        return GradedPoly.make(self.kind, out, bound)

    def drop_variables(self, drop: Callable[[int], bool]) -> "GradedPoly":
        """Set every variable with drop(idx) True to zero."""
        out: dict[Monomial, Fraction] = {}
        for mon, c in self.terms.items():
            if any(drop(var) for var, _ in mon):
                continue
            out[mon] = out.get(mon, Fraction(0)) + c
        return GradedPoly(self.kind, out, self.bound)

    def truncate(self, bound: int | None) -> "GradedPoly":
        new_bound = _order_min(self.bound, bound)
        return GradedPoly.make(self.kind, dict(self.terms), new_bound)

    def evaluate(self, values: dict[int, RationalLike]) -> Fraction:
        """Plug exact values in for every variable that occurs."""
        total = Fraction(0)
        for mon, c in self.terms.items():
            prod = c
            for var, exp in mon:
                if var not in values:
                    raise KeyError(f"no value supplied for variable {var}")
                prod *= as_rational(values[var]) ** exp
            total += prod
        return total

    def variables(self) -> set[int]:
        return {var for mon in self.terms for var, _ in mon}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = {"theta": "theta", "t": "t"}[self.kind]
        bits = []
        for mon, c in sorted(self.terms.items(), key=lambda kv: (monomial_degree(self.kind, kv[0]), kv[0])):
            factors = "".join(f"*{names}{var}^{exp}" for var, exp in mon)
            bits.append(f"({format_rational(c)}){factors}")
        return " + ".join(bits)


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    out = dict(m1)
    for var, exp in m2:
        out[var] = out.get(var, 0) + exp
    return tuple(sorted(out.items()))


def graded_poly_to_json(p: GradedPoly) -> dict:
    terms = sorted(
        ([[var, exp] for var, exp in mon], format_rational(c))
        for mon, c in p.terms.items()
    )
    return {
        "degree": p.bound,
        "vars": p.kind,
        "terms": [[mon, c] for mon, c in terms],
    }


# ---------------------------------------------------------------------------
# Complete homogeneous and Schur polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def h_polys(max_degree: int) -> tuple[GradedPoly, ...]:
    """Complete homogeneous polynomials h_0..h_max_degree (exact), from the
    derivative recursion k h_k = sum_j j theta_j h_{k-j}."""
    hs = [GradedPoly.const("theta", 1)]
    for k in range(1, max_degree + 1):
        acc = GradedPoly.zero("theta")
        for j in range(1, k + 1):
            acc = acc + hs[k - j].scale(j) * GradedPoly.variable("theta", j)
        hs.append(acc.scale(Fraction(1, k)))
    return tuple(hs)


@lru_cache(maxsize=None)
def schur_poly(mu: Partition) -> GradedPoly:
    """Jacobi-Trudi determinant det(h_{mu_i - i + j})_{1<=i,j<=l(mu)}.

    The determinant is expanded by rows with memoization on the set of used
    columns; entries with negative index are zero, which makes the matrix
    sparse enough for this to be cheap at desk scale.
    """
    ell = mu.length
    if ell == 0:
        return GradedPoly.const("theta", 1)
    hs = h_polys(mu.parts[0] + ell)

    memo: dict[int, GradedPoly] = {}
    full_mask = (1 << ell) - 1

    def minor(mask: int) -> GradedPoly:
        if mask == full_mask:
            return GradedPoly.const("theta", 1)
        if mask in memo:
            return memo[mask]
        i = bin(mask).count("1")  # next row to expand (0-based)
        acc = GradedPoly.zero("theta")
        sign = 1  # (-1)^(position of the chosen column among the unused ones)
        for j in range(ell):
            bit = 1 << j
            if mask & bit:
                continue
            idx = mu.parts[i] - (i + 1) + (j + 1)
            if idx >= 0:
                term = minor(mask | bit)
                entry = hs[idx]
                contrib = (term if idx == 0 else entry * term).scale(sign)
                acc = acc + contrib
            sign = -sign
        memo[mask] = acc
        return acc

    return minor(0)


# ---------------------------------------------------------------------------
# Exact determinants and Giambelli minors
# ---------------------------------------------------------------------------


def det_exact(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant: cofactor expansion for k <= 4, fraction-free
    (Bareiss over cleared denominators) beyond."""
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("matrix must be square")
    if k == 0:
        return Fraction(1)
    if k <= 4:
        return _det_cofactor(rows)
    return _det_bareiss(rows)


def _det_cofactor(rows: list[list[Fraction]]) -> Fraction:
    k = len(rows)
    if k == 1:
        return rows[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(k):
        if rows[0][j] != 0:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += sign * rows[0][j] * _det_cofactor(minor)
        sign = -sign
    return total


def _det_bareiss(rows: list[list[Fraction]]) -> Fraction:
    k = len(rows)
    scale = Fraction(1)
    m: list[list[int]] = []
    for r in rows:
        lcm = 1
        for x in r:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        scale /= lcm
        m.append([int(x * lcm) for x in r])
    sign = 1
    prev = 1
    for col in range(k - 1):
        if m[col][col] == 0:
            for r in range(col + 1, k):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for r in range(col + 1, k):
            for c in range(col + 1, k):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * scale * m[k - 1][k - 1]


def giambelli_coeff(mu: Partition, table: AffineTable) -> Fraction:
    """A_mu = (-1)^(sum of legs) det(A_{m_i, n_j}) over the hook entries."""
    fc = frobenius(mu)
    if fc.rank == 0:
        return Fraction(1)
    if fc.arms[0] > table.max_m or fc.legs[0] > table.max_n:
        raise OutOfRangeError(
            f"table {table.max_m}x{table.max_n} too small for hooks of {mu}"
        )
    rows = [[table.value(m, n) for n in fc.legs] for m in fc.arms]
    sign = -1 if sum(fc.legs) % 2 else 1
    return sign * det_exact(rows)


def graded_exp(p: GradedPoly, degree: int | None = None) -> GradedPoly:
    """exp of a polynomial with zero constant term, through `degree`."""
    if p.constant_term() != 0:
        raise NonUnitError("exp needs zero constant term")
    cap = _order_min(p.bound, degree)
    if cap is None:
        raise NonUnitError("an explicit degree cap is required to exponentiate an exact polynomial")
    x = p.truncate(cap)
    out = GradedPoly.const(p.kind, 1, cap)
    power = GradedPoly.const(p.kind, 1, cap)
    fact = 1
    i = 0
    mind = x.min_degree
    if mind is None:
        return out
    while (i + 1) * mind <= cap:
        i += 1
        fact *= i
        power = (power * x).truncate(cap)
        out = out + power.scale(Fraction(1, fact))
    return out


def graded_log(p: GradedPoly, degree: int | None = None) -> GradedPoly:
    """log of a polynomial with constant term 1, through `degree`."""
    if p.constant_term() != 1:
        raise NonUnitError("log needs constant term 1")
    cap = _order_min(p.bound, degree)
    if cap is None:
        raise NonUnitError("an explicit degree cap is required for the log of an exact polynomial")
    x = (p - GradedPoly.const(p.kind, 1)).truncate(cap)
    out = GradedPoly.zero(p.kind, cap)
    power = GradedPoly.const(p.kind, 1, cap)
    i = 0
    mind = x.min_degree
    if mind is None:
        return out
    while (i + 1) * mind <= cap:
        i += 1
        power = (power * x).truncate(cap)
        out = out + power.scale(Fraction((-1) ** (i + 1), i))
    return out
