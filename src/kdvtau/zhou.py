"""Zhou's closed-form hook coefficients and their identification with the
Grassmannian affine coordinates of the Witten-Kontsevich point.

The raw coefficients A^Z_{m,n} are rationals times powers of sqrt(-2),
supported on m + n = 2 (mod 3) and split into three index families by
(m mod 3, n mod 3):

    family (2,0):  (row, col) = (3m-1, 3n)      m >= 1, n >= 0
    family (0,2):  (row, col) = (3m-3, 3n+2)    equal to the (2,0) value
    family (1,1):  (row, col) = (3m-2, 3n+1)

with the closed form (P below is the common prefactor)

    P(m, n) = (-sqrt(-2)/144)^(m+n) (6m+1)!!/(2(m+n))!
              * prod_{j=0}^{n-1}(m+j) * prod_{j=1}^{n}(2m+2j-1)

    A^Z_{3m-1,3n} = A^Z_{3m-3,3n+2} = (-1)^n   P(m,n) (B_n(m) + b_n/(6m+1))
    A^Z_{3m-2,3n+1}                = (-1)^(n+1) P(m,n) (B_n(m) + b_n/(6m-1))

where b_k = 2^k (6k+1)!!/(2k)! and B_n(x) is the degree-(n-1) polynomial
B_n(x) = (1/6) sum_{j=1}^{n} 108^j b_{n-j} (x+n)_[j-1], B_0 = 0.

Rescaling by B_{row,col} = sqrt(-2)^(row+col+1) A^Z_{row,col} clears the
irrational part: on every family row+col+1 = 3(m+n), and P carries
sqrt(-2)^(m+n), so the total power is sqrt(-2)^(4(m+n)) = 4^(m+n) and B is
rational.  The three families of one (m, n) sit at (row, col) with
m = row//3 + 1 and n = col//3, row mod 3 picking the family.

B is computed in integers.  (2n)! b_{n-j} is an integer, so 6 (2n)! B_n(x)
= sum_j C_{n,j} (x+n)_[j-1] with integer C_{n,j}, an O(n) sum by Horner's
rule.  Over the common denominator 6 (2n)! (2(m+n))! 36^(m+n) both family
values then have integer numerators, so B is one integer fraction
(num, den) per (m, n), kept unreduced and shared by the three families.
The verifiers cross-multiply these integers, and `verify_zhou_match` reads
the Grassmannian side off the Z table's graded integer lift, so a passing
check builds no Fraction; a failure text reduces the values it prints.
The CLI export streams the same integer fractions (`_B_int`) and reduces
each entry once as it writes it; `rescale_B` lowers each (m, n) once to a
Fraction, and `zhou_affine_table` a corner to an `AffineTable`, for the
tests and the benchmark trace.  Off the support B is a shared zero, with
no arithmetic, and the verifiers skip work on zeros.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactnum import RationalLike, as_rational, format_ratio, format_rational, odd_double_factorial
from .errors import InsufficientDepthError
from .grassmann import AffineTable, ZTable
from .report import VerificationReport, first_failures
from .series import _ZERO

__all__ = [
    "b_seq",
    "B_poly",
    "rescale_B",
    "zhou_affine_table",
    "verify_zhou_match",
    "verify_Bn_recursion",
    "verify_combinatorial_identity",
    "verify_two_step_recursion",
    "verify_b_symmetry",
    "combinatorial_lhs",
    "combinatorial_rhs",
]


@lru_cache(maxsize=None)
def b_seq(k: int) -> Fraction:
    """b_k = 2^k (6k+1)!! / (2k)!."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Fraction(2**k * odd_double_factorial(6 * k + 1), math.factorial(2 * k))


@lru_cache(maxsize=None)
def _B_ints(n: int) -> tuple[int, ...]:
    """The integers C_{n,j} = 108^j (2n)! b_{n-j}, j = 1..n."""
    return tuple(
        108**j * 2 ** (n - j) * odd_double_factorial(6 * (n - j) + 1)
        * (math.factorial(2 * n) // math.factorial(2 * (n - j)))
        for j in range(1, n + 1)
    )


def _B_sum(n: int, y: RationalLike) -> RationalLike:
    """sum_j C_{n,j} (y)_[j-1] = 6 (2n)! B_n(y - n), nested from j = n down so
    that each step multiplies the sum by one small factor."""
    acc: RationalLike = 0
    for j, coeff in zip(range(n, 0, -1), reversed(_B_ints(n))):
        acc = acc * (y - j + 1) + coeff
    return acc


def B_poly(n: int, x: RationalLike) -> Fraction:
    """B_n(x) = (1/6) sum_{j=1}^{n} 108^j b_{n-j} (x+n)_[j-1]; B_0 = 0.

    Evaluated as `_B_sum` over 6 (2n)!, in O(n) products.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    y = x + n if isinstance(x, int) else as_rational(x) + n
    return as_rational(_B_sum(n, y)) / (6 * math.factorial(2 * n))


@lru_cache(maxsize=None)
def _B_values(m: int, n: int) -> tuple[int, int, int]:
    """(p, p', den): B at (3m-1, 3n) = (3m-3, 3n+2) is p/den and at
    (3m-2, 3n+1) is p'/den, not reduced.  Over `den`, 6 (2n)! B_n(m) is S and
    6 (2n)! b_n is e; m >= 1, so 6m+1 and 6m-1 both divide (6m+1)!!."""
    products = 1
    for j in range(n):
        products *= (m + j) * (2 * m + 2 * j + 1)
    odd = (-1) ** m * odd_double_factorial(6 * m + 1) * products
    S = _B_sum(n, m + n)
    e = 6 * 2**n * odd_double_factorial(6 * n + 1)
    den = 6 * math.factorial(2 * n) * math.factorial(2 * (m + n)) * 36 ** (m + n)
    return odd // (6 * m + 1) * (S * (6 * m + 1) + e), -odd // (6 * m - 1) * (S * (6 * m - 1) + e), den


_NIL = (0, 1)  # B off its support, as an integer fraction


def _B_int(row: int, col: int) -> tuple[int, int]:
    """B_{row,col} as the integer fraction (p, den), den > 0, not reduced: what
    the verifiers cross-multiply.  The shared (0, 1) off the support."""
    if (row + col) % 3 != 2:
        return _NIL
    p, q, den = _B_values(row // 3 + 1, col // 3)
    return q if row % 3 == 1 else p, den


@lru_cache(maxsize=None)
def _B_fractions(m: int, n: int) -> tuple[Fraction, Fraction]:
    """`_B_values` lowered, each value reduced once per (m, n)."""
    p, q, den = _B_values(m, n)
    return Fraction(p, den), Fraction(q, den)


def rescale_B(row: int, col: int) -> Fraction:
    """B_{row,col} = sqrt(-2)^(row+col+1) A^Z_{row,col}; a shared zero off
    the support row + col = 2 (mod 3)."""
    if row < 0 or col < 0:
        raise ValueError("indices must be non-negative")
    if (row + col) % 3 != 2:
        return _ZERO
    return _B_fractions(row // 3 + 1, col // 3)[row % 3 == 1]


def zhou_affine_table(max_m: int, max_n: int) -> AffineTable:
    """The rescaled coefficients assembled as an affine-coordinate table."""
    entries: dict[tuple[int, int], Fraction] = {}
    for m in range(max_m + 1):
        for n in range(max_n + 1):
            if (m + n) % 3 != 2:
                continue
            v = rescale_B(m, n)
            if v != 0:
                entries[(m, n)] = v
    return AffineTable(max_m, max_n, entries, source="zhou")


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def _plus(a: tuple[int, int], b: tuple[int, int], sign: int = 1) -> tuple[int, int]:
    """a + sign * b of integer fractions (p, den), returning an operand when
    the other is zero and adding numerators over a shared denominator."""
    (p, d), (q, e) = a, b
    if not q:
        return a
    if not p:
        return sign * q, e
    return (p + sign * q, d) if d == e else (p * e + sign * q * d, d * e)


def _times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a * b of integer fractions, the shared zero when a factor is zero: B
    vanishes off its mod-3 support."""
    return (a[0] * b[0], a[1] * b[1]) if a[0] and b[0] else _NIL


def verify_zhou_match(ztable: ZTable, max_m: int, max_n: int) -> VerificationReport:
    """Entrywise equality A_{m,n} = B_{m,n} for m <= max_m, n <= max_n, with A
    read off the Z table of the Witten-Kontsevich point (`ZTable.affine`):
    each lifted entry a of grade E_d is cross-multiplied with B's integer
    fraction p/den, a den = p E_d."""
    suite = "zhou-match"
    if ztable.max_k < max_m // 2 or ztable.max_l < max_n // 2:
        raise InsufficientDepthError(
            f"Z table {ztable.max_k}x{ztable.max_l} too small for m <= {max_m}, n <= {max_n}"
        )

    def mismatches():
        for m in range(max_m + 1):
            for n in range(max_n + 1):
                a, grade = ztable.affine(m, n)
                p, den = _B_int(m, n)
                if a * den != p * grade:
                    yield (f"({m},{n}): grassmann {format_ratio(a, grade)} "
                           f"vs closed form {format_ratio(p, den)}")

    failures = first_failures(mismatches())
    return VerificationReport(suite, not failures, f"0 <= m,n <= {min(max_m, max_n)}", failures=failures)


def verify_Bn_recursion(n: int, sample_xs: list[RationalLike]) -> VerificationReport:
    """B_n(x) = 108(x+2) B_{n-1}(x+1) + 105 B_{n-1}(x+1)/x
                - 18(n-1) b_{n-1}/x + 18 b_{n-1}, at nonzero sample points."""
    suite = "Bn-recursion"
    if n < 1:
        raise ValueError("recursion starts at n = 1")
    failures = []
    for x in sample_xs:
        x = as_rational(x)
        if x == 0:
            raise ValueError("sample points must be nonzero (the relation divides by x)")
        lhs = B_poly(n, x)
        prev = B_poly(n - 1, x + 1)
        rhs = (
            108 * (x + 2) * prev
            + 105 * prev / x
            - 18 * (n - 1) * b_seq(n - 1) / x
            + 18 * b_seq(n - 1)
        )
        if lhs != rhs:
            failures.append(f"n={n}, x={format_rational(x)}: {format_rational(lhs)} vs {format_rational(rhs)}")
    return VerificationReport(
        suite, not failures, f"n={n}, {len(sample_xs)} sample points", failures=failures
    )


def combinatorial_lhs(m: int, n: int) -> Fraction:
    """m(2m+1)(B_n(m) + b_n/(6m-1)) - (6m+7)(6m+5)(6m+3)(B_{n-1}(m+1) + b_{n-1}/(6m+7))."""
    first = m * (2 * m + 1) * (B_poly(n, m) + b_seq(n) / (6 * m - 1))
    second = (6 * m + 7) * (6 * m + 5) * (6 * m + 3) * (
        B_poly(n - 1, m + 1) + b_seq(n - 1) / (6 * m + 7)
    )
    return first - second


def combinatorial_rhs(m: int, n: int) -> Fraction:
    """(6n-1)!! (2m+1) (m+n) / ((6m-1) n (2n-1)!! (n-1)!).

    Equivalent closed form of the right-hand side: dividing the identity
    B_{3m-2,3n+1} - B_{3m,3n-1} = -B_{3m-2,1} B_{0,3n-1} by the common
    prefactor of the closed forms and using B_{0,3n-1} = -c_n together with
    (6n)! = 2^(3n) (3n)! (6n-1)!! collapses the boundary product to this.
    """
    return Fraction(
        odd_double_factorial(6 * n - 1) * (2 * m + 1) * (m + n),
        (6 * m - 1) * n * odd_double_factorial(2 * n - 1) * math.factorial(n - 1),
    )


def verify_combinatorial_identity(m: int, n: int) -> VerificationReport:
    """The scalar identity equivalent to one family case of the two-step
    recursion, B_{3m-2,3n+1} - B_{3m,3n-1} = -B_{3m-2,1} B_{0,3n-1}."""
    suite = "combinatorial-identity"
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    lhs = combinatorial_lhs(m, n)
    rhs = combinatorial_rhs(m, n)
    failures = []
    if lhs != rhs:
        failures.append(f"(m,n)=({m},{n}): {format_rational(lhs)} vs {format_rational(rhs)}")
    return VerificationReport(suite, not failures, f"(m,n)=({m},{n})", failures=failures)


def verify_two_step_recursion(max_sum: int) -> VerificationReport:
    """B_{m+2,n} - B_{m,n+2} = B_{m,0} B_{1,n} + B_{m,1} B_{0,n} for m+n <= max_sum,
    both sides as integer fractions, cross-multiplied."""
    suite = "two-step-recursion"

    def mismatches():
        for m in range(max_sum + 1):
            for n in range(max_sum - m + 1):
                lhs = _plus(_B_int(m + 2, n), _B_int(m, n + 2), -1)
                rhs = _plus(_times(_B_int(m, 0), _B_int(1, n)), _times(_B_int(m, 1), _B_int(0, n)))
                if lhs[0] * rhs[1] != rhs[0] * lhs[1]:
                    yield f"(m,n)=({m},{n}): {format_ratio(*lhs)} vs {format_ratio(*rhs)}"

    failures = first_failures(mismatches())
    return VerificationReport(suite, not failures, f"m+n <= {max_sum}", failures=failures)


def verify_b_symmetry(max_m: int, max_n: int) -> VerificationReport:
    """B_{n,m} = (-1)^(m+n) B_{m,n} for all m <= max_m, n <= max_n, cross-multiplied."""
    suite = "coefficient-symmetry"
    failures = first_failures(
        f"({m},{n})"
        for m in range(max_m + 1)
        for n in range(max_n + 1)
        if (t := _B_int(n, m))[0] * (b := _B_int(m, n))[1] != (-1) ** (m + n) * b[0] * t[1]
    )
    return VerificationReport(suite, not failures, f"m <= {max_m}, n <= {max_n}", failures=failures)
