"""Points of the KdV Sato Grassmannian and their affine coordinates.

A point of the big cell of GM_2 is spanned by lam^{2k} a(lam) and
lam^{2k+1} b(lam) with a, b power series in 1/lam having constant term 1.
Interleaving the coefficients of a and b into 2x2 blocks gives the loop
matrix G(lam) = sum G_k lam^-k:

    G_11 = sum a_{2k}   lam^-k      G_12 = sum b_{2k+1} lam^-k
    G_21 = sum a_{2k-1} lam^-k      G_22 = sum b_{2k}   lam^-k

with b in its normal form b - b_1 lam^-1 a (the same subspace, with no
lam^-1 term, so that G_0 = I), which `build_G` reads off a and b as it
interleaves them.  The matrix-valued affine
coordinates are then

    Z_{k,l} = [[A_{2k+1,2l}, A_{2k+1,2l+1}], [A_{2k,2l}, A_{2k,2l+1}]]

where A_{m,n} are the scalar affine coordinates of the point.  This module
builds the Z table from G alone by the recursion Z_{k+1,l} = Z_{k,l+1} +
Z_{k,0} Z_{0,l} and the boundary Z_{k,0} = G_{k+1} (the production route),
one sweep per anti-diagonal; it keeps the triangle k + l < n of G_0..G_n,
or the K x L corner a caller names (an affine export reads only its
corner).  Every reader asks for the order it reads and checks its reads by
`ZTable.holds`.  The closed formula in the blocks of G and G^-1 is kept as
the independent cross-check run by `verify recursion`.  It also extracts
scalar coordinates and verifies the generating-series, recursion and
symmetry identities.

Both table routes and the five Z-table verifiers work on the graded integer
lift that G is stored as (`series.MatrixSeries`): a block of grade d
(Z_{k,l} has grade k+l+1) is carried as E_d times itself, a product of
blocks of grades i and j is scaled by the exact integer E_{i+j} / (E_i E_j),
and a `ZTable` keeps the lifted blocks together with the series they were
solved on, which the verifiers read from it (so does the V table of `spin3`,
on R, which shares the generating function's division,
`series.linear_quotient`).  Only the cross-checks (the closed formula, the
generating function and series) read the integer inverse E_j U_j of G
(`MatrixSeries.inverse`); the recursion never solves it.  Where both sides
of an identity have one grade (equivalence, symmetry, generating function
and series), dividing by E_d changes no verdict, so the integers are
compared.  The recursion identity is checked with its denominators
cleared, so it does not re-run the step it cross-checks.  The correlators,
the tau assembly and the CLI's affine exports read the scalar A_{m,n} off
the same lift (`ZTable.affine`); an export reduces each entry once as it
writes it (`cli.write_affine`).  Only the tests and the benchmark trace
still lower a corner to an `AffineTable` of `Fraction`s
(`ZTable.to_affine_table`).

The built-in point of chief interest is the Witten-Kontsevich point, whose
spanning series c(lam) and q(lam) are power series in lam^-3:

    c_k = (-1)^k (6k)! / (288^k (3k)! (2k)!),    q_k = (1+6k)/(1-6k) c_k.

c is the unique solution of (S^2 - lam^2) c = 0 with c = 1 + O(1/lam) for
the Kac-Schwarz operator S = (1/lam) d/dlam - 1/(2 lam^2) - lam, and
q = -(1/lam) S c.  The c/q and Kac-Schwarz verifiers apply these facts to
the coefficients of wk_point.  Its loop matrix (`wk_G`) and its Z table
(`wk_z_table`) are memoised for the last depth read, so a loop over growing
depths keeps one of each.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from .errors import InsufficientDepthError, OutOfRangeError
from .exactnum import Record, _setattr, format_rational
from .report import VerificationReport, first_failures
from .series import (
    _ZERO,
    Block,
    LaurentSeries,
    IntBlock,
    MatrixSeries,
    block_sum,
    format_block,
    linear_quotient,
    lower,
    series_from_json,
    series_to_json,
)

__all__ = [
    "GrassmannPoint",
    "ZTable",
    "AffineTable",
    "wk_c_coeff",
    "wk_q_coeff",
    "wk_point",
    "build_G",
    "wk_G",
    "wk_z_table",
    "z_table_direct",
    "z_table_recursive",
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
    a = {-3 * k: wk_c_coeff(k) for k in range(depth // 3 + 1)}
    b = {-3 * k: wk_q_coeff(k) for k in range(depth // 3 + 1)}
    return GrassmannPoint(
        LaurentSeries.from_dict(a, depth), LaurentSeries.from_dict(b, depth)
    )


# ---------------------------------------------------------------------------
# Loop matrix
# ---------------------------------------------------------------------------


def build_G(p: GrassmannPoint, depth: int) -> MatrixSeries:
    """Interleave a and the normal form b - b_1 lam^-1 a into the loop matrix
    with blocks G_0..G_depth:

        G_12,k = b_{2k+1} - b_1 a_{2k},    G_22,k = b_{2k} - b_1 a_{2k-1}.

    The normal form spans the same subspace (a constant unitriangular change
    of frame) and has no lam^-1 term, so G_0 = I.  Needs a through lam^-2depth
    and b through lam^-(2depth+1); the normal form is then known through
    min(O_b, O_a + 1) >= 2depth + 1.
    """
    _require_windows(p.a.tail_order, p.b.tail_order, depth)
    a, b = p.a.coeff, p.b.coeff
    b1 = b(-1)
    return MatrixSeries.from_blocks(
        (a(-2 * k), b(-2 * k - 1) - b1 * a(-2 * k), a(1 - 2 * k), b(-2 * k) - b1 * a(1 - 2 * k))
        for k in range(depth + 1)
    )


def _require_windows(order_a: int | None, order_b: int | None, depth: int) -> None:
    """Raise unless a (b) is known through lam^-2depth (lam^-(2depth+1)), as
    the loop matrix G_0..G_depth needs; None: known at every order."""
    for name, order, need in (("a", order_a, 2 * depth), ("b", order_b, 2 * depth + 1)):
        if order is not None and order < need:
            raise InsufficientDepthError(f"{name} is only valid through lam^-{order}, need lam^-{need}")


@lru_cache(maxsize=1)
def wk_G(depth: int) -> MatrixSeries:
    """The Witten-Kontsevich loop matrix G_0..G_depth, one object while the
    same depth is read."""
    return build_G(wk_point(2 * depth + 1), depth)


@lru_cache(maxsize=1)
def wk_z_table(order: int) -> "ZTable":
    """The Witten-Kontsevich Z_{k,l}, k + l < order, on wk_G(order), one table
    while the same order is read."""
    return z_table_recursive(wk_G(order))


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


class ZTable(Record):
    """A table of blocks X_{k,l} of grade k+l+1, as rows lifted[k][l] =
    E_{k+l+1} X_{k,l} on the grades E of `series`, the `MatrixSeries` it was
    solved on: the matrix-valued affine coordinates Z_{k,l} of G, or the
    3-spin V_{k,l} of R (`spin3.v_table`).  The recursion keeps the triangle
    k + l < n, or the rectangle a caller names, such as the corner an affine
    export writes (`z_table_recursive`); the closed formula and the V table
    keep a rectangle.  `holds` says whether a block is stored, and every reader
    checks its reads by it.  `entry` lowers a block to `Fraction`s on
    each read; `affine` reads one A_{m,n}.  Equality compares the lifted
    blocks and the series, so two tables are equal when they hold the same
    blocks of the same series."""

    __slots__ = ("lifted", "series")

    def __init__(self, lifted: tuple[tuple[IntBlock, ...], ...], series: MatrixSeries) -> None:
        _setattr(self, "lifted", lifted)  # lifted[k][l]
        _setattr(self, "series", series)

    def holds(self, k: int, l: int) -> bool:
        """Whether the table stores X_{k,l}; never for a negative index."""
        return 0 <= k < len(self.lifted) and 0 <= l < len(self.lifted[k])

    def entry(self, k: int, l: int) -> Block:
        """X_{k,l} as the exact (a11, a12, a21, a22)."""
        if not self.holds(k, l):
            raise OutOfRangeError(f"Z[{k},{l}] outside the table")
        return lower(self.lifted[k][l], self.series.grades[k + l + 1])

    def affine(self, m: int, n: int) -> tuple[int, int]:
        """A_{m,n} as (E_d A_{m,n}, E_d), d = m//2 + n//2 + 1: entry
        2 (m even) + (n odd) of the lifted block Z_{m//2, n//2}."""
        k, l = m // 2, n // 2
        if not self.holds(k, l):
            raise OutOfRangeError(f"A[{m},{n}] outside the table (block Z[{k},{l}])")
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
    """Closed formula Z_{k,l} = -sum_{j=0..k} G_j U_{k+l+1-j} (U_0 = I), for
    k <= max_k, l <= max_l.

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
    return ZTable(tuple(rows), G)


def z_table_recursive(G: MatrixSeries, max_k: int | None = None, max_l: int | None = None) -> ZTable:
    """Z_{k,l} from G alone by the recursion Z_{k+1,l} = Z_{k,l+1} +
    Z_{k,0} Z_{0,l} and the boundary Z_{k,0} = G_{k+1}: the triangle k + l <
    n, n = G.tail_order, or, when a caller names its corner, the K x L
    rectangle k <= max_k, l <= max_l, which G must reach (n > max_k + max_l).

    One sweep per anti-diagonal s = k + l, from s = 0 up to n - 1 (K + L for a
    corner): it starts at Z_{s,0} = G_{s+1} and walks up to the top row by
    Z_{k,s-k} = Z_{k+1,s-k-1} - Z_{k,0} Z_{0,s-k-1}, whose last factor is on
    the top row of an earlier anti-diagonal.  Only the top row and the current
    entry are carried; the entries of the triangle, or of the corner, are
    kept as the sweeps pass them.

    The entries are the graded lift z_{k,l} = E_{k+l+1} Z_{k,l}, so the step
    is z_{k,s-k} = z_{k+1,s-k-1} - (E_{s+1} / (E_{k+1} E_{s-k})) g_{k+1} z_{0,s-k-1}.
    """
    n = G.tail_order
    if (max_k, max_l) == (None, None):
        max_k = max_l = n - 1
    else:
        _require_depth(G, max_k + max_l + 1)
        n = max_k + max_l + 1
    g, ratios = G.lifted, G.ratios
    rows: list[list[IntBlock]] = [[] for _ in range(max_k + 1)]
    top: list[IntBlock] = []  # z_{0,l}
    for s in range(n):
        z = g[s + 1]
        for k in range(s, -1, -1):
            if k < s:
                z = block_sum(((-ratios[s + 1][k + 1], g[k + 1], top[s - k - 1]),), z)
            if k <= max_k and s - k <= max_l:
                rows[k].append(z)
        top.append(z)
    return ZTable(tuple(map(tuple, rows)), G)


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
    if not table.holds(depth, depth):
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
            suite, detail,
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
    return VerificationReport(suite, detail, failures=failures)


def verify_symmetry(table: ZTable, depth: int) -> VerificationReport:
    """Z_{l,k} = -adj(Z_{k,l}) for k, l <= depth, valid when det G = 1, G the
    loop matrix the table was solved on.

    The determinant condition is checked first, through the window of G, on
    the lift (E_k times the lam^-k coefficient of det G); if it fails the
    report is a skip, not a failure.  Z_{l,k} and Z_{k,l} share a grade.  In
    scalar form the identity reads A_{n,m} = (-1)^{m+n} A_{m,n}.
    """
    suite = "symmetry"
    if not table.holds(depth, depth):
        raise InsufficientDepthError("Z table smaller than requested depth")
    G = table.series
    g, window = G.lifted, G.tail_order
    deviation = next((k for k in range(1, window + 1) if sum(
        r * (a[0] * b[3] - a[1] * b[2]) for r, a, b in zip(G.ratios[k], g, g[k::-1])
    )), None)
    if deviation is not None:
        return VerificationReport(
            suite, f"k,l <= {depth}", skipped=True,
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
        suite, f"k,l <= {depth}", failures=failures,
        notes=f"det G = 1 checked through lam^-{window}",
    )


def verify_cq_identity(depth: int) -> VerificationReport:
    """c(lam) q(-lam) + c(-lam) q(lam) = 2 through lam^-depth, the window of
    the product of two series known through lam^-depth with no head.

    The lam^e coefficient of the left side sums c_{e1} q_{e2} ((-1)^e1 +
    (-1)^e2) over the stored exponents with e1 + e2 = e: 2 (-1)^e1 c_{e1} q_{e2}
    for e even, 0 for e odd.  A failure names the residual of highest exponent.
    """
    suite = "cq-identity"
    p = wk_point(depth)
    residual = {0: Fraction(-2)}
    for e1, c in p.a.coeffs:
        for e2, q in p.b.coeffs:
            if (e := e1 + e2) >= -depth and e % 2 == 0:
                residual[e] = residual.get(e, _ZERO) + (2 - 4 * (e1 % 2)) * c * q
    top = max((e for e, v in residual.items() if v), default=None)
    failures = [] if top is None else [
        f"coefficient of lam^{top} is {format_rational(residual[top])}, expected 0"]
    return VerificationReport(suite, f"through lam^-{depth}", failures=failures)


def _kac_schwarz(terms: Iterable[tuple[int, Fraction]]) -> dict[int, Fraction]:
    """S = (1/lam) d/dlam - 1/(2 lam^2) - lam on (exponent, coefficient) pairs,
    termwise lam^e -> (e - 1/2) lam^(e-2) - lam^(e+1); zeros are kept."""
    out: dict[int, Fraction] = {}
    for e, v in terms:
        out[e - 2] = out.get(e - 2, _ZERO) + (e - Fraction(1, 2)) * v
        out[e + 1] = out.get(e + 1, _ZERO) - v
    return out


def verify_kac_schwarz(depth: int) -> VerificationReport:
    """(S^2 - lam^2) c = 0 and q = -(1/lam) S c, on c and q known through lam^-D.

    The -lam part of S lifts the first unknown coefficient of c, at
    lam^-(D+1), to lam^-D, so each application of S costs one order: the ODE
    residual is certified through lam^-(D-2) and -(1/lam) S c, like q, through
    lam^-D; both windows are reported.  A failure names the ODE residual of
    highest exponent and the q mismatch of lowest exponent.
    """
    suite = "kac-schwarz"
    p = wk_point(depth)
    c, q = p.a, p.b
    sc = _kac_schwarz(c.coeffs)
    ode = _kac_schwarz(sc.items())
    for e, v in c.coeffs:
        ode[e + 2] -= v  # S^2 lam^e has the term lam^(e+2)
    failures = []
    o = depth - 2
    top = max((e for e, v in ode.items() if v and e >= -o), default=None)
    if top is not None:
        failures.append(f"ODE residual at lam^{top} is {format_rational(ode[top])}")
    derived = {e - 1: -v for e, v in sc.items()}
    e = min((e for e in derived.keys() | {e for e, _ in q.coeffs}
             if e >= -depth and derived.get(e, _ZERO) != q.coeff(e)), default=None)
    if e is not None:
        failures.append(
            f"q mismatch at lam^{e}: derived {format_rational(derived.get(e, _ZERO))} "
            f"vs closed form {format_rational(q.coeff(e))}"
        )
    # at depth 0/1 the ODE window is negative: a positive power of lam
    detail = (
        f"ODE residual through lam^{'-' if o >= 0 else ''}{abs(o)}, "
        f"q-relation through lam^-{depth}"
    )
    return VerificationReport(suite, detail, failures=failures)


def verify_z_equivalence(direct: ZTable) -> VerificationReport:
    """The closed-formula table `direct` = `z_table_direct(G, K, L)` equals the
    K x L corner of the recursion on the same G, entrywise on the lift of G."""
    suite = "z-table-equivalence"
    max_k, max_l = len(direct.lifted) - 1, len(direct.lifted[0]) - 1
    recursive = z_table_recursive(direct.series, max_k, max_l)
    failures = first_failures(
        f"(k,l)=({k},{l}): direct {format_block(direct.entry(k, l))} "
        f"vs recursive {format_block(recursive.entry(k, l))}"
        for k in range(max_k + 1)
        for l in range(max_l + 1)
        if direct.lifted[k][l] != recursive.lifted[k][l]
    )
    return VerificationReport(suite, f"K=L checked to ({max_k},{max_l})", failures=failures)


def verify_z_recursion_identity(table: ZTable) -> VerificationReport:
    """Z_{k+1,l} - Z_{k,l+1} = Z_{k,0} Z_{0,l} wherever the table holds both
    sides, on the lift as E_{k+1} E_{l+1} (z_{k+1,l} - z_{k,l+1}) =
    E_{k+l+2} z_{k,0} z_{0,l}: k < K, l < L on a K x L rectangle, k + l < n - 1
    on the triangle k + l < n.  A failure prints both sides lowered from grade
    k+l+2; a table with no such (k, l) is skipped, not passed."""
    suite = "z-recursion"
    z, G = table.lifted, table.series
    e = G.grades
    K, L = len(z) - 1, len(z[0]) - 1
    window = f"k < {K}, l < {L}" if all(len(row) == L + 1 for row in z) else f"k + l < {K}"
    if not (K and L):
        return VerificationReport(suite, window, skipped=True,
                                  notes="empty window: no (k,l) with both sides in the table")

    def mismatches():
        for k in range(K):
            for l in range(min(len(z[k]) - 1, len(z[k + 1]))):
                d = k + l + 2
                diff = tuple(a - b for a, b in zip(z[k + 1][l], z[k][l + 1]))
                if tuple(e[k + 1] * e[l + 1] * v for v in diff) != block_sum(((e[d], z[k][0], z[0][l]),)):
                    product = block_sum(((G.ratios[d][k + 1], z[k][0], z[0][l]),))
                    yield (f"(k,l)=({k},{l}): {format_block(lower(diff, e[d]))} "
                           f"vs {format_block(lower(product, e[d]))}")

    failures = first_failures(mismatches())
    return VerificationReport(suite, window, failures=failures)


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
    if not table.holds(0, k_max):
        raise InsufficientDepthError("Z table narrower than requested k range")
    g, ratios, u = G.lifted, G.ratios, G.inverse
    windows: list[int] = []  # rows l checked for each k reached

    def mismatches():
        for k in range(k_max + 1):
            # compare lam^-l-1 entries for l + 1 <= order - k, in the rows
            # holding column k
            l_top = min(order - k - 1, sum(len(row) > k for row in table.lifted) - 1)
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
        suite, f"k <= {k_max}, rows l <= {min(windows, default=None)}", failures=failures)


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
