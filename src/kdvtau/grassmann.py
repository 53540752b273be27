"""Points of the KdV Sato Grassmannian and their affine coordinates.

A point of the big cell of GM_2 is spanned by lam^{2k} a(lam) and
lam^{2k+1} b(lam) with a, b power series in 1/lam having constant term 1.
Interleaving the coefficients of a and b into 2x2 blocks gives the loop
matrix G(lam) = sum G_k lam^-k:

    G_11 = sum a_{2k}   lam^-k      G_12 = sum b_{2k+1} lam^-k
    G_21 = sum a_{2k-1} lam^-k      G_22 = sum b_{2k}   lam^-k

(after normalizing b_1 = 0 so that G_0 = I).  The matrix-valued affine
coordinates are then

    Z_{k,l} = [[A_{2k+1,2l}, A_{2k+1,2l+1}], [A_{2k,2l}, A_{2k,2l+1}]]

where A_{m,n} are the scalar affine coordinates of the point.  This module
builds the Z table by the recursion Z_{k+1,l} = Z_{k,l+1} + Z_{k,0} Z_{0,l}
seeded from G^-1 (the production route); the closed formula in the blocks of
G and G^-1 is kept as the independent cross-check run by `verify recursion`.
It also extracts scalar coordinates and verifies the generating-series,
recursion and symmetry identities.

Both table routes and the five Z-table verifiers work on the graded integer
lift that G is stored as (`series.MatrixSeries`): a block of grade d
(Z_{k,l} has grade k+l+1) is carried as E_d times itself, a product of
blocks of grades i and j is scaled by the exact integer E_{i+j} / (E_i E_j),
and a `ZTable` keeps the lifted blocks together with the series they were
solved on, which the verifiers read from it (so does the V table of `spin3`,
on R, which shares the generating function's division,
`series.linear_quotient`).  The seeds E_j U_j are the integer inverse of G
(`MatrixSeries.inverse`); the recursion checks every seed it reads against
the boundary data Z_{k,0} = G_{k+1}.  Where both sides of an identity have one
grade (equivalence, symmetry, generating function and series), dividing by
E_d changes no verdict, so the integers are compared.  The recursion identity
is checked with its denominators cleared, so it does not re-run the step it
cross-checks.  The correlators, the tau assembly and the CLI's affine exports
read the scalar A_{m,n} off the same lift (`ZTable.affine`); an export
reduces each entry once as it writes it (`cli.write_affine`).  Only the
tests and the benchmark trace still lower a corner to an `AffineTable` of
`Fraction`s (`ZTable.to_affine_table`).

The built-in point of chief interest is the Witten-Kontsevich point, whose
spanning series c(lam) and q(lam) are power series in lam^-3:

    c_k = (-1)^k (6k)! / (288^k (3k)! (2k)!),    q_k = (1+6k)/(1-6k) c_k.

c is the unique solution of (S^2 - lam^2) c = 0 with c = 1 + O(1/lam) for
the Kac-Schwarz operator S = (1/lam) d/dlam - 1/(2 lam^2) - lam, and
q = -(1/lam) S c.  Its loop matrix (`wk_G`) and its square Z table
(`wk_z_table`) are memoised per size for the whole process.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import ExactComputationError, InsufficientDepthError, OutOfRangeError
from .exactnum import Record, _setattr, format_rational
from .report import VerificationReport, first_failures
from .series import (
    _ZERO,
    Block,
    LaurentSeries,
    IntBlock,
    MatrixSeries,
    block_sum,
    constant_series,
    format_block,
    linear_quotient,
    lower,
    kac_schwarz_apply,
    negate_argument,
    series_from_json,
    series_to_json,
)

__all__ = [
    "GrassmannPoint",
    "ZTable",
    "AffineTable",
    "normalize_point",
    "wk_c_coeff",
    "wk_q_coeff",
    "wk_point",
    "build_G",
    "wk_G",
    "wk_z_table",
    "z_table_direct",
    "z_table_recursive",
    "z_tables_recursive",
    "verify_generating_function",
    "verify_symmetry",
    "verify_cq_identity",
    "verify_kac_schwarz",
    "verify_z_equivalence",
    "verify_z_recursion_identity",
    "verify_z_generating_series",
    "point_to_json",
    "point_from_json",
]


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


class GrassmannPoint(Record):
    """Spanning data (a, b) of a big-cell point of GM_2; a_0 = b_0 = 1."""

    __slots__ = ("a", "b")

    def __init__(self, a: LaurentSeries, b: LaurentSeries) -> None:
        for name, s in (("a", a), ("b", b)):
            if s.max_exponent is not None and s.max_exponent > 0:
                raise ValueError(f"{name} must be a pure tail series")
            if s.coeff(0) != 1:
                raise ValueError(f"{name} must have constant term 1")
        _setattr(self, "a", a)
        _setattr(self, "b", b)

    @property
    def is_normalized(self) -> bool:
        """True when b_1 = 0, i.e. the loop matrix starts at the identity."""
        return self.b.coeff(-1) == 0


def normalize_point(p: GrassmannPoint) -> GrassmannPoint:
    """Replace b by b - b_1 * lam^-1 * a, which kills b_1.

    This is a right multiplication by a constant unitriangular matrix on the
    spanning frame, so the subspace is unchanged.
    """
    b1 = p.b.coeff(-1)
    if b1 == 0:
        return p
    return GrassmannPoint(p.a, p.b - p.a.shift(-1).scale(b1))


# ---------------------------------------------------------------------------
# The Witten-Kontsevich point
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def wk_c_coeff(k: int) -> Fraction:
    """c_k = (-1)^k (6k)! / (288^k (3k)! (2k)!); c_0 = 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    sign = -1 if k % 2 else 1
    return Fraction(
        sign * math.factorial(6 * k),
        288**k * math.factorial(3 * k) * math.factorial(2 * k),
    )


@lru_cache(maxsize=None)
def wk_q_coeff(k: int) -> Fraction:
    """q_k = (1 + 6k)/(1 - 6k) * c_k; q_0 = 1."""
    return Fraction(1 + 6 * k, 1 - 6 * k) * wk_c_coeff(k)


def wk_point(depth: int) -> GrassmannPoint:
    """The Witten-Kontsevich point with both tails exact through lam^-depth."""
    a = {-3 * k: wk_c_coeff(k) for k in range(depth // 3 + 1) if 3 * k <= depth}
    b = {-3 * k: wk_q_coeff(k) for k in range(depth // 3 + 1) if 3 * k <= depth}
    return GrassmannPoint(
        LaurentSeries.from_dict(a, depth), LaurentSeries.from_dict(b, depth)
    )


# ---------------------------------------------------------------------------
# Loop matrix
# ---------------------------------------------------------------------------


def build_G(p: GrassmannPoint, depth: int) -> MatrixSeries:
    """Interleave (a, b) into the loop matrix with blocks G_0..G_depth.

    Needs a through lam^-2depth and b through lam^-(2depth+1); the point
    must be normalized (b_1 = 0) so that G_0 = I.
    """
    if not p.is_normalized:
        raise ValueError("normalize the point first (b_1 must vanish)")
    _require_windows(p.a.tail_order, p.b.tail_order, depth)
    return MatrixSeries.from_blocks(
        (
            p.a.coeff(-2 * k),
            p.b.coeff(-(2 * k + 1)),
            p.a.coeff(-(2 * k - 1)) if k >= 1 else _ZERO,
            p.b.coeff(-2 * k),
        )
        for k in range(depth + 1)
    )


def _require_windows(order_a: int | None, order_b: int | None, depth: int) -> None:
    """Raise unless a (b) is known through lam^-2depth (lam^-(2depth+1)), as
    the loop matrix G_0..G_depth needs; None: known at every order."""
    for name, order, need in (("a", order_a, 2 * depth), ("b", order_b, 2 * depth + 1)):
        if order is not None and order < need:
            raise InsufficientDepthError(f"{name} is only valid through lam^-{order}, need lam^-{need}")


@lru_cache(maxsize=None)
def wk_G(depth: int) -> MatrixSeries:
    """The Witten-Kontsevich loop matrix G_0..G_depth, one object (and so one
    inverse) per depth."""
    return build_G(wk_point(2 * depth + 1), depth)


@lru_cache(maxsize=None)
def wk_z_table(size: int) -> "ZTable":
    """The Witten-Kontsevich Z_{k,l}, k, l <= size, on wk_G(2 size + 1), one table per size."""
    return z_table_recursive(wk_G(2 * size + 1), size, size)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


class ZTable(Record):
    """A table of blocks X_{k,l} of grade k+l+1, 0 <= k <= max_k, 0 <= l <= max_l,
    as lifted[k][l] = E_{k+l+1} X_{k,l} on the grades E of `series`, the
    `MatrixSeries` it was solved on: the matrix-valued affine coordinates
    Z_{k,l} of G, or the 3-spin V_{k,l} of R (`spin3.v_table`).  `entry`
    lowers a block to `Fraction`s on each read; `affine` reads one A_{m,n}.
    Equality compares the lifted blocks and the series, so two tables are
    equal when they hold the same blocks of the same series."""

    __slots__ = ("max_k", "max_l", "lifted", "series")

    def __init__(
        self, max_k: int, max_l: int, lifted: tuple[tuple[IntBlock, ...], ...], series: MatrixSeries
    ) -> None:
        _setattr(self, "max_k", max_k)
        _setattr(self, "max_l", max_l)
        _setattr(self, "lifted", lifted)  # lifted[k][l]
        _setattr(self, "series", series)

    def entry(self, k: int, l: int) -> Block:
        """X_{k,l} as the exact (a11, a12, a21, a22)."""
        if not (0 <= k <= self.max_k and 0 <= l <= self.max_l):
            raise OutOfRangeError(f"Z[{k},{l}] outside table {self.max_k}x{self.max_l}")
        return lower(self.lifted[k][l], self.series.grades[k + l + 1])

    def affine(self, m: int, n: int) -> tuple[int, int]:
        """A_{m,n} as (E_d A_{m,n}, E_d), d = m//2 + n//2 + 1: entry
        2 (m even) + (n odd) of the lifted block Z_{m//2, n//2}."""
        k, l = m // 2, n // 2
        return self.lifted[k][l][2 * (1 - m % 2) + n % 2], self.series.grades[k + l + 1]

    def to_affine_table(self, max_m: int, max_n: int, source: str) -> "AffineTable":
        """A_{m,n}, m <= max_m, n <= max_n, read off Z_{k,l}, k <= max_m//2, l <= max_n//2."""
        entries = {(m, n): Fraction(a, grade) for m in range(max_m + 1) for n in range(max_n + 1)
                   for a, grade in [self.affine(m, n)] if a}
        return AffineTable(max_m, max_n, entries, source)


class AffineTable(Record):
    """Scalar affine coordinates A_{m,n} for 0 <= m <= max_m, 0 <= n <= max_n,
    as exported (JSON or CSV).

    Only nonzero entries are stored; reads inside the range default to 0.
    """

    __slots__ = ("max_m", "max_n", "entries", "source")

    def __init__(
        self,
        max_m: int,
        max_n: int,
        entries: dict[tuple[int, int], Fraction],
        source: str = "grassmann",
    ) -> None:
        _setattr(self, "max_m", max_m)
        _setattr(self, "max_n", max_n)
        _setattr(self, "entries", entries)
        _setattr(self, "source", source)

    def value(self, m: int, n: int) -> Fraction:
        if not (0 <= m <= self.max_m and 0 <= n <= self.max_n):
            raise OutOfRangeError(f"A[{m},{n}] outside table {self.max_m}x{self.max_n}")
        return self.entries.get((m, n), _ZERO)

    def to_json_dict(self) -> dict:
        return {
            "max_m": self.max_m,
            "max_n": self.max_n,
            "source": self.source,
            "entries": [
                [m, n, format_rational(v)]
                for (m, n), v in sorted(self.entries.items())
            ],
        }

    def to_csv_text(self) -> str:
        lines = ["," + ",".join(str(n) for n in range(self.max_n + 1))]
        for m in range(self.max_m + 1):
            row = [str(m)] + [
                format_rational(self.value(m, n)) for n in range(self.max_n + 1)
            ]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Z tables: the production recursion and the closed-formula cross-check
# ---------------------------------------------------------------------------


def _require_depth(G: MatrixSeries, need: int) -> None:
    if G.tail_order < need:
        raise InsufficientDepthError(
            f"loop matrix valid through lam^-{G.tail_order}, need lam^-{need}"
        )


def z_table_direct(G: MatrixSeries, max_k: int, max_l: int) -> ZTable:
    """Closed formula Z_{k,l} = -sum_{j=0..k} G_j U_{k+l+1-j} (U_0 = I).

    O(K^3) block products on the graded lift (grade d = k+l+1); the
    cross-check for `z_table_recursive`.
    """
    need = max_k + max_l + 1
    _require_depth(G, need)
    g, ratios, u = G.lifted, G.ratios, G.inverse
    rows = []
    for k in range(max_k + 1):
        row = []
        for l in range(max_l + 1):
            d = k + l + 1
            ratio = ratios[d]
            s11, s12, s21, s22 = block_sum((ratio[j], g[j], u[d - j]) for j in range(k + 1))
            row.append((-s11, -s12, -s21, -s22))
        rows.append(tuple(row))
    return ZTable(max_k, max_l, tuple(rows), G)


def z_table_recursive(G: MatrixSeries, max_k: int, max_l: int) -> ZTable:
    """Boundary-seeded recursion Z_{k+1,l} = Z_{k,l+1} + Z_{k,0} Z_{0,l}; see
    `z_tables_recursive`."""
    return z_tables_recursive(G, [(max_k, max_l)])[0]


def z_tables_recursive(G: MatrixSeries, shapes: list[tuple[int, int]]) -> list[ZTable]:
    """One Z table per (max_k, max_l) in `shapes`, all from one recursion run.

    The top row is seeded by Z_{0,l} = -U_{l+1} for l < need, where
    need = max(max_k + max_l) + 1 is the depth the deepest shape needs, and
    row k is computed from row k-1 and the top row, one entry shorter than
    row k-1.  Row k thus holds Z_{k,l} for k + l < need, which covers every
    shape, so no shape needs more depth of G than it would alone.  The
    left column is run on down to row need - 1, and each Z_{k,0} is checked
    against the boundary data G_{k+1}.  With U the computed inverse,
    Z_{k,0} = G_{k+1} for every k < need is (G U)_{k+1} = 0, so the check
    covers every seed U_1..U_need.

    The rows hold the graded lift z_{k,l} = E_{k+l+1} Z_{k,l}, so the step
    is z_{k,l} = z_{k-1,l+1} + (E_{k+l+1} / (E_k E_{l+1})) z_{k-1,0} z_{0,l}
    and the boundary check compares integers.  The tables keep the lift, and
    a repeated shape gets the same table.
    """
    need = max(K + L for K, L in shapes) + 1
    _require_depth(G, need)
    top = [(-a11, -a12, -a21, -a22) for a11, a12, a21, a22 in G.inverse[1 : need + 1]]
    max_k = max(K for K, _ in shapes)
    rows = []
    row = top
    for k in range(need):
        if k:
            row = [
                block_sum(((G.ratios[k + l + 1][k], row[0], top[l]),), row[l + 1])
                for l in range(need - k)
            ]
        if row[0] != G.lifted[k + 1]:
            raise ExactComputationError(
                f"recursion boundary mismatch at Z[{k},0]: "
                f"{format_block(lower(row[0], G.grades[k + 1]))} vs {format_block(G.block(k + 1))}; "
                "the seeds are inconsistent (G times its inverse is not the identity)"
            )
        if k <= max_k:
            rows.append(row)
    tables = {(K, L): ZTable(K, L, tuple(tuple(row[: L + 1]) for row in rows[: K + 1]), G)
              for K, L in shapes}
    return [tables[shape] for shape in shapes]


# ---------------------------------------------------------------------------
# Identity verifiers
# ---------------------------------------------------------------------------


def verify_generating_function(table: ZTable, depth: int) -> VerificationReport:
    """Expand (I - G(alpha) G(beta)^-1) / (alpha - beta), G the loop matrix
    the table was solved on, and compare with Z.

    With x = 1/alpha, y = 1/beta, G(alpha) G(beta)^-1 - I = (x - y) sum Z_{k,l}
    x^k y^l has blocks N_{i,j} = G_i U_j ((i,j) != 0), kept on the lift at
    grade i+j; `linear_quotient` checks its divisibility by x - y and solves
    for the quotient, whose lifted blocks are compared with the table's.
    """
    suite = "generating-function"
    detail = f"bi-degree {depth}"
    if depth > min(table.max_k, table.max_l):
        raise InsufficientDepthError("Z table smaller than requested bi-degree")
    need, G = 2 * depth + 1, table.series
    _require_depth(G, need)

    # N[i][j] on every anti-diagonal i + j <= need, each block product once
    N = [[(0, 0, 0, 0) if i == j == 0
          else block_sum(((G.ratios[i + j][i], G.lifted[i], G.inverse[j]),))
          for j in range(need + 1 - i)]
         for i in range(need + 1)]
    quotient, remainder = linear_quotient(N, 1, depth)
    if remainder is not None:
        s, total = remainder  # of G G^-1 - I: the numerator is its negative
        return VerificationReport(
            suite, False, detail,
            failures=[f"anti-diagonal sum {s} of the numerator is "
                      f"{format_block(lower(tuple(-v for v in total), G.grades[s]))}"],
            notes="numerator not divisible by alpha - beta",
        )
    failures = first_failures(
        f"(k,l)=({k},{l}): expansion {format_block(lower(q, G.grades[k + l + 1]))} "
        f"vs table {format_block(table.entry(k, l))}"
        for k in range(depth + 1)
        for l in range(depth + 1)
        if (q := quotient[k][l]) != table.lifted[k][l]
    )
    return VerificationReport(suite, not failures, detail, failures=failures)


def verify_symmetry(table: ZTable, depth: int) -> VerificationReport:
    """Z_{l,k} = -adj(Z_{k,l}) for k, l <= depth, valid when det G = 1, G the
    loop matrix the table was solved on.

    The determinant condition is checked first, through the window of G, on
    the lift (E_k times the lam^-k coefficient of det G); if it fails the
    report is a skip, not a failure.  Z_{l,k} and Z_{k,l} share a grade.  In
    scalar form the identity reads A_{n,m} = (-1)^{m+n} A_{m,n}.
    """
    suite = "symmetry"
    if depth > min(table.max_k, table.max_l):
        raise InsufficientDepthError("Z table smaller than requested depth")
    G = table.series
    g, window = G.lifted, G.tail_order
    deviation = next((k for k in range(1, window + 1) if sum(
        r * (a[0] * b[3] - a[1] * b[2]) for r, a, b in zip(G.ratios[k], g, g[k::-1])
    )), None)
    if deviation is not None:
        return VerificationReport(
            suite, False, f"k,l <= {depth}", skipped=True,
            notes=f"det G != 1 (first deviation at lam^-{deviation}); symmetry not applicable",
        )
    z, e = table.lifted, G.grades
    failures = first_failures(
        f"(k,l)=({k},{l}): Z[{l},{k}]={format_block(table.entry(l, k))} "
        f"vs -adj Z[{k},{l}]={format_block(lower(adj, e[k + l + 1]))}"
        for k in range(depth + 1)
        for l in range(depth + 1)
        if z[l][k] != (adj := (-z[k][l][3], z[k][l][1], z[k][l][2], -z[k][l][0]))
    )
    return VerificationReport(
        suite, not failures, f"k,l <= {depth}", failures=failures,
        notes=f"det G = 1 checked through lam^-{window}",
    )


def verify_cq_identity(depth: int) -> VerificationReport:
    """c(lam) q(-lam) + c(-lam) q(lam) = 2 through lam^-depth."""
    suite = "cq-identity"
    p = wk_point(depth)
    c, q = p.a, p.b
    combo = c * negate_argument(q) + negate_argument(c) * q
    residual = combo - constant_series(2, depth)
    if residual.is_zero():
        return VerificationReport(suite, True, f"through lam^-{depth}")
    e, v = residual.coeffs[-1]
    return VerificationReport(
        suite, False, f"through lam^-{depth}",
        failures=[f"coefficient of lam^{e} is {format_rational(v)}, expected 0"],
    )


def verify_kac_schwarz(depth: int) -> VerificationReport:
    """(S^2 - lam^2) c = 0 and q = -(1/lam) S c, through the propagated window.

    Applying S costs one order of validity, so with input depth D the ODE
    residual is certified through lam^-(D-2) and the q-relation through
    lam^-D; both windows are reported.
    """
    suite = "kac-schwarz"
    p = wk_point(depth)
    c, q = p.a, p.b
    ode = kac_schwarz_apply(kac_schwarz_apply(c)) - c.shift(2)
    q_from_c = -kac_schwarz_apply(c).shift(-1)
    failures = []
    if not ode.is_zero():
        e, v = ode.coeffs[-1]
        failures.append(f"ODE residual at lam^{e} is {format_rational(v)}")
    mism = q_from_c.difference_support(q)
    if mism:
        e = mism[0]
        failures.append(
            f"q mismatch at lam^{e}: derived {format_rational(q_from_c.coeff(e))} "
            f"vs closed form {format_rational(q.coeff(e))}"
        )
    # at depth 0/1 the ODE window is negative: a positive power of lam
    o = ode.tail_order
    detail = (
        f"ODE residual through lam^{'-' if o >= 0 else ''}{abs(o)}, "
        f"q-relation through lam^-{q_from_c.agreement_window(q)}"
    )
    return VerificationReport(suite, not failures, detail, failures=failures)


def verify_z_equivalence(direct: ZTable) -> VerificationReport:
    """The closed-formula table `direct` = `z_table_direct(G, K, L)` equals the
    recursion-seeded table of the same shape on the same G, entrywise on the
    lift of G."""
    suite = "z-table-equivalence"
    max_k, max_l = direct.max_k, direct.max_l
    recursive = z_table_recursive(direct.series, max_k, max_l)
    failures = first_failures(
        f"(k,l)=({k},{l}): direct {format_block(direct.entry(k, l))} "
        f"vs recursive {format_block(recursive.entry(k, l))}"
        for k in range(max_k + 1)
        for l in range(max_l + 1)
        if direct.lifted[k][l] != recursive.lifted[k][l]
    )
    return VerificationReport(suite, not failures, f"K=L checked to ({max_k},{max_l})", failures=failures)


def verify_z_recursion_identity(table: ZTable) -> VerificationReport:
    """Z_{k+1,l} - Z_{k,l+1} = Z_{k,0} Z_{0,l} on every stored index, on the lift
    as E_{k+1} E_{l+1} (z_{k+1,l} - z_{k,l+1}) = E_{k+l+2} z_{k,0} z_{0,l}.  A
    failure prints both sides lowered from grade k+l+2."""
    suite = "z-recursion"
    z, G = table.lifted, table.series
    e = G.grades

    def mismatches():
        for k in range(table.max_k):
            for l in range(table.max_l):
                d = k + l + 2
                diff = tuple(a - b for a, b in zip(z[k + 1][l], z[k][l + 1]))
                if tuple(e[k + 1] * e[l + 1] * v for v in diff) != block_sum(((e[d], z[k][0], z[0][l]),)):
                    product = block_sum(((G.ratios[d][k + 1], z[k][0], z[0][l]),))
                    yield (f"(k,l)=({k},{l}): {format_block(lower(diff, e[d]))} "
                           f"vs {format_block(lower(product, e[d]))}")

    failures = first_failures(mismatches())
    return VerificationReport(
        suite, not failures,
        f"k < {table.max_k}, l < {table.max_l}", failures=failures,
    )


def verify_z_generating_series(table: ZTable, k_max: int) -> VerificationReport:
    """G(lam) (lam^k G(lam)^-1)_+ = lam^k + sum_l Z_{l,k} lam^-l-1 for k <= k_max,
    G the loop matrix the table was solved on.

    With G^-1 = sum U_j lam^-j the left side is sum_{j<=k} G(lam) U_j lam^(k-j),
    whose lam^e coefficient sum_j G_{k-j-e} U_j needs G through lam^-(k-e):
    with G known through lam^-O, the powers e >= k - O are checked.  Each
    coefficient is an integer sum on the graded lift at grade k - e, compared
    with the lifted right side of that grade.
    """
    suite = "z-generating-series"
    G = table.series
    order = G.tail_order
    if k_max > table.max_l:
        raise InsufficientDepthError("Z table narrower than requested k range")
    g, ratios, u = G.lifted, G.ratios, G.inverse
    windows: list[int] = []  # rows l checked for each k reached

    def mismatches():
        for k in range(k_max + 1):
            # compare lam^-l-1 entries for l + 1 <= order - k
            l_top = min(order - k - 1, table.max_k)
            windows.append(l_top)
            expect: dict[int, IntBlock] = {k: (1, 0, 0, 1)}  # E_0 = 1
            for l in range(l_top + 1):
                expect[-l - 1] = table.lifted[l][k]
            for e in range(-(l_top + 1), k + 1):
                d = k - e
                terms = ((ratios[d][j], g[d - j], u[j]) for j in range(min(k, d) + 1))
                got = block_sum(terms)
                want = expect.get(e, (0, 0, 0, 0))
                if got != want:
                    e_d = G.grades[d]
                    yield (f"k={k}, lam^{e}: {format_block(lower(got, e_d))} "
                           f"vs {format_block(lower(want, e_d))}")

    failures = first_failures(mismatches())
    return VerificationReport(
        suite, not failures,
        f"k <= {k_max}, rows l <= {min(windows, default=None)}", failures=failures,
    )


# ---------------------------------------------------------------------------
# Point file format
# ---------------------------------------------------------------------------


def point_to_json(p: GrassmannPoint, tail_order: int | None = None) -> dict:
    return {"a": series_to_json(p.a, tail_order), "b": series_to_json(p.b, tail_order)}


def point_from_json(data: object, depth: int | None = None) -> GrassmannPoint:
    """Inverse of `point_to_json`; a malformed field raises TypeError or
    ValueError naming it (`series_from_json`).

    With `depth`, the point is read only as far as `build_G(p, depth)` reads
    it.  After every field is checked, the heads and constant terms are
    parsed and checked (a, b must be pure tails with constant term 1), then
    the windows (`_require_windows`, the check of `build_G`), and only then
    the tails through lam^-2depth (a) and lam^-(2depth+1) (b).  So a file too
    shallow for the request fails at once, however long its numbers.
    """
    if not isinstance(data, dict):
        raise TypeError(f"expected an object with fields a and b, got {type(data).__name__}")
    for name in ("a", "b"):
        if name not in data:
            raise ValueError(f"missing field {name}")
    if depth is None:
        return GrassmannPoint(series_from_json(data["a"], "a"), series_from_json(data["b"], "b"))
    # every field and text, then the heads and constant terms, then the windows
    GrassmannPoint(series_from_json(data["a"], "a", 0), series_from_json(data["b"], "b", 0))
    _require_windows(data["a"]["tail_order"], data["b"]["tail_order"], depth)
    return GrassmannPoint(series_from_json(data["a"], "a", 2 * depth),
                          series_from_json(data["b"], "b", 2 * depth + 1))
