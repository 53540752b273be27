"""Partitions, Frobenius coordinates, rim hooks, Schur polynomials and
Giambelli minors.

A partition is a weakly decreasing tuple of positive parts, () the empty
one; its Frobenius coordinates are an (arms, legs) pair of strictly
decreasing tuples, and its bead mask with n beads (`beads`) the set of its
n beta-numbers mu_i + n - 1 - i as bits.

Schur polynomials are taken in the variables theta_1, theta_2, ... graded by
deg theta_j = j, with exp(sum_j theta_j z^j) = sum_k h_k z^k, i.e. power sums
p_j = j theta_j.  The adjoint p_r^perp of multiplication by p_r removes rim
hooks of size r,

    p_r^perp s_mu = sum over mu/nu an r-rim hook of (-1)^height s_nu,

and `p_perp` applies it to a whole vector of Schur coefficients keyed by
bead mask, as the tau assembly does: each term moves one bead r places
down.  `schur_poly` expands the Jacobi-Trudi determinant
s_mu = det(h_{mu_i - i + j}) (h_k = 0 for k < 0) as an independent
cross-check.  The general expansion coefficient of a tau series is the
Giambelli-type minor

    A_mu = (-1)^(n_1 + ... + n_k) det(A_{m_i, n_j})

over the hook entries A_{m,n} of a Z table, with mu written in Frobenius
coordinates (m_1..m_k | n_1..n_k).  `giambelli_coeff` has one route for
every rank: Laplace expansion along the last arm on the table's integer
lift (`ZTable.affine`), a rank-k minor an integer over E^k for a grade E
its caller passes, each minor memoised in a dict its caller owns.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import lru_cache

from .errors import DegreeExceededError, NonUnitError, OutOfRangeError
from .exactnum import Record, RationalLike, _setattr, as_rational, format_rational
from .grassmann import ZTable
from .series import _ZERO, _order_min, _product_window

__all__ = [
    "frobenius",
    "partitions_of",
    "partitions_up_to",
    "GradedPoly",
    "Monomial",
    "beads",
    "p_perp",
    "h_polys",
    "schur_poly",
    "giambelli_coeff",
]


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def frobenius(mu: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Frobenius coordinates (arms | legs) of mu along the diagonal:
    m_i = mu_i - i, n_i = mu'_i - i (1-based i), both strictly decreasing."""
    k = 0
    while k < len(mu) and mu[k] > k:
        k += 1
    legs, j = [], len(mu)  # mu'_(i+1) = j counts the parts > i, i = 0, 1, ...
    for i in range(k):
        while mu[j - 1] <= i:
            j -= 1
        legs.append(j - (i + 1))
    return tuple(mu[i] - (i + 1) for i in range(k)), tuple(legs)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    top = min(n, max_part) if max_part is not None else n
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partitions_up_to(max_weight: int) -> list[tuple[int, ...]]:
    """All partitions of weight <= max_weight, ordered by weight then
    descending lexicographic -- a fixed order so exports are byte-stable."""
    return [mu for w in range(max_weight + 1) for mu in partitions_of(w)]


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


class GradedPoly(Record):
    """Sparse exact polynomial with a graded reliability bound.

    Terms of graded degree <= bound are complete and exact; nothing is
    stored beyond the bound.  bound None means the polynomial is exact at
    every degree.  The bound propagates through arithmetic the same way the
    Laurent tail window does (`series._product_window`): a product is
    reliable up to the degree where the unknown part of one factor can first
    meet a stored term or the unknown part of the other.
    """

    __slots__ = ("kind", "terms", "bound")

    def __init__(self, kind: str, terms: dict[Monomial, Fraction], bound: int | None) -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "terms", terms)
        _setattr(self, "bound", bound)

    @classmethod
    def make(
        cls, kind: str, terms: dict[Monomial, RationalLike], bound: int | None
    ) -> "GradedPoly":
        clean: dict[Monomial, Fraction] = {}
        degree = _VAR_DEGREE[kind]
        for mon, c in terms.items():
            c = as_rational(c)
            if not c:  # not `c == 0`, which a Fraction answers through the numbers ABCs
                continue
            if bound is not None and sum(degree(var) * exp for var, exp in mon) > bound:
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
        return self.terms.get(mon, _ZERO)

    @property
    def min_degree(self) -> int | None:
        if not self.terms:
            return None
        return min(monomial_degree(self.kind, m) for m in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((), _ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ----------------------------------------------------------

    def _check_kind(self, other: "GradedPoly") -> None:
        if self.kind != other.kind:
            raise ValueError(f"mixed gradings: {self.kind} vs {other.kind}")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_kind(other)
        bound = _order_min(self.bound, other.bound)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, _ZERO) + c
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
        bound = _product_window(self.bound, self.min_degree, other.bound, other.min_degree)
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
                    out[new] = out.get(new, _ZERO) + c * exp
                    break
        return GradedPoly.make(self.kind, out, bound)

    def drop_variables(self, drop: Callable[[int], bool]) -> "GradedPoly":
        """Set every variable with drop(idx) True to zero."""
        out: dict[Monomial, Fraction] = {}
        for mon, c in self.terms.items():
            if any(drop(var) for var, _ in mon):
                continue
            out[mon] = out.get(mon, _ZERO) + c
        return GradedPoly(self.kind, out, self.bound)

    def truncate(self, bound: int | None) -> "GradedPoly":
        new_bound = _order_min(self.bound, bound)
        return GradedPoly.make(self.kind, dict(self.terms), new_bound)

    def variables(self) -> set[int]:
        return {var for mon in self.terms for var, _ in mon}


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
def schur_poly(mu: tuple[int, ...]) -> GradedPoly:
    """Jacobi-Trudi determinant det(h_{mu_i - i + j})_{1<=i,j<=l(mu)}.

    The determinant is expanded by rows with memoization on the set of used
    columns; entries with negative index are zero, which makes the matrix
    sparse enough for this to be cheap at desk scale.
    """
    ell = len(mu)
    if ell == 0:
        return GradedPoly.const("theta", 1)
    hs = h_polys(mu[0] + ell)

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
            idx = mu[i] - (i + 1) + (j + 1)
            if idx >= 0:
                term = minor(mask | bit)
                entry = hs[idx]
                contrib = (term if idx == 0 else entry * term).scale(sign)
                acc = acc + contrib
            sign = -sign
        memo[mask] = acc
        return acc

    return minor(0)


def beads(mu: tuple[int, ...], n: int) -> int:
    """The bead mask of mu with n >= len(mu) beads: bit mu_i + n - 1 - i set
    for i < n (mu_i = 0 past its parts), so () is (1 << n) - 1."""
    mask = (1 << (n - len(mu))) - 1
    for i, p in enumerate(mu):
        mask |= 1 << (p + n - 1 - i)
    return mask


def p_perp(vector: dict[int, int], r: int) -> dict[int, int]:
    """p_r^perp on a vector of Schur coefficients keyed by bead mask, its
    zero entries dropped: one step of the Murnaghan-Nakayama rule.

    Removing an r-rim hook from mu moves a bead b down to an empty b - r, and
    the hook's height is the number of beads strictly between (the abacus of
    James and Kerber), so p_r^perp s_mu = sum over those moves of
    (-1)^height s_nu.  Nothing is kept between calls.
    """
    out: dict[int, int] = {}
    low, floor = (1 << (r - 1)) - 1, ~((1 << r) - 1)
    for mask, x in vector.items():
        movable = mask & ~(mask << r) & floor
        while movable:
            bit = movable & -movable
            movable ^= bit
            nu = mask ^ bit ^ (bit >> r)
            height = ((mask >> (bit.bit_length() - r)) & low).bit_count()
            out[nu] = out.get(nu, 0) + (-x if height & 1 else x)
    return {nu: x for nu, x in out.items() if x}


# ---------------------------------------------------------------------------
# Giambelli minors
# ---------------------------------------------------------------------------


def giambelli_coeff(arms: tuple[int, ...], legs: tuple[int, ...], table: ZTable, top: int, minors: dict) -> int:
    """E^k A_mu for mu = (arms | legs) in Frobenius coordinates (`frobenius`),
    A_mu = (-1)^(sum of legs) det(A_{m_i, n_j}) over the k hook entries,
    E = `top`, a grade of the table's series that the grade E_d of every
    entry read divides (`tau_truncated` passes the one its order fixes).

    Every A_{m,n} read is its lift times E / E_d over E (E_d divides E), so
    the determinant is an integer over E^k.  It is expanded along the
    row of the last arm m_k.  Dropping m_k and a leg n_j leaves the hook
    matrix of a partition of smaller weight, and every such minor is memoised
    in `minors` (one dict per table), so each costs k products.
    """
    if not arms:
        return 1
    if not table.holds(arms[0] // 2, legs[0] // 2):
        raise OutOfRangeError(f"Z table does not hold A[{arms[0]},{legs[0]}], read by the hooks {arms} | {legs}")
    det = _hook_minor(arms, legs, table, top, minors)
    return -det if sum(legs) % 2 else det


def _hook_minor(arms: tuple[int, ...], legs: tuple[int, ...], table: ZTable, top: int, minors: dict) -> int:
    """E^k det(A_{m_i, n_j}), E = `top`, by Laplace expansion along the last arm, memoised."""
    det = minors.get((arms, legs)) if arms else 1
    if det is None:
        det = 0
        for j, n in enumerate(legs):
            lifted, grade = table.affine(arms[-1], n)
            if lifted:
                a = lifted * (top // grade)
                minor = _hook_minor(arms[:-1], legs[:j] + legs[j + 1:], table, top, minors)
                det += a * minor if (len(arms) + j) % 2 else -a * minor  # (-1)^(k-1+j)
        minors[(arms, legs)] = det
    return det


def graded_log(p: GradedPoly) -> GradedPoly:
    """log of a polynomial with constant term 1, through its bound (pass
    `p.truncate(cap)` for a lower cap; an exact `p` has no finite log).

    With p = 1 + sum_d p_d and g = log p = sum_d g_d split into homogeneous
    parts, the Euler operator E (times d on degree d) turns E p = p E g into

        d g_d = d p_d - sum_{k=1}^{d-1} (k g_k) p_{d-k},

    one pass over the degrees up to the bound, each g_d from products of
    homogeneous parts already known.
    """
    if p.constant_term() != 1:
        raise NonUnitError("log needs constant term 1")
    if (cap := p.bound) is None:
        raise NonUnitError("the log of an exact polynomial needs a bound: pass p.truncate(cap)")
    parts: dict[int, dict[Monomial, Fraction]] = {}
    for mon, c in p.terms.items():
        if 0 < (d := monomial_degree(p.kind, mon)) <= cap:
            parts.setdefault(d, {})[mon] = c
    euler: dict[int, dict[Monomial, Fraction]] = {}  # d -> d g_d, nonzero terms only
    out: dict[Monomial, Fraction] = {}
    for d in range(1, cap + 1):
        acc = {mon: d * c for mon, c in parts.get(d, {}).items()}
        for k, eg in euler.items():
            for m2, c2 in parts.get(d - k, {}).items():
                for m1, c1 in eg.items():
                    m = _merge_monomials(m1, m2)
                    acc[m] = acc.get(m, 0) - c1 * c2
        if acc := {mon: c for mon, c in acc.items() if c}:
            euler[d] = acc
            out.update((mon, c / d) for mon, c in acc.items())
    return GradedPoly(p.kind, out, cap)
