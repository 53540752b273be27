"""R-matrix of the rank-2 (3-spin) structure and its V-matrices.

The R-matrix series, evaluated at the standard point,

    R(z) = [[ sum q_{2k} z^{2k},   -sum q_{2k+1} z^{2k+1}],
            [-sum c_{2k+1} z^{2k+1},  sum c_{2k} z^{2k}  ]]

is a `MatrixSeries` in z (the same dense block type as the loop matrix),
built directly from the same c/q coefficient sequences that span the
Witten-Kontsevich point; its z^k block is diag(q_k, c_k) for even k and
[[0, -q_k], [-c_k, 0]] for odd k.  It matches the inverse loop matrix via
R(z) = z^(s3/6) G(z^(-2/3))^(-1) z^(-s3/6): the fractional powers exactly
realign the mod-3 grading in lam with integer powers of z, entry by entry,
so the identity is verified through the exponent each entry lands at
rather than by materializing fractional powers of z.

The V-matrices are defined by

    (R*(w) R(z) - I) / (w + z) = sum (-1)^(k+l) V_{k,l} w^k z^l,

with R*(w) = eta R(w)^T eta, eta = [[0,1],[1,0]]: R*_k is R_k with its
diagonal swapped.  The quotient is solved on the graded integer lift that R
is stored as, by `series.linear_quotient`, the division that also expands
the Z generating function, into a `grassmann.ZTable` that keeps R (V_{k,l}
has grade k+l+1).  R's inverse is never solved.  It is exact
because R*(-z) R(z) = I, which is asserted through every power of z the
quotient reads.  Matching w^(k+1) z^(l+1) in (w+z) sum Q_{k,l} w^k z^l =
R*(w)R(z) - I, with Q_{k,l} = (-1)^(k+l) V_{k,l}, gives

    Q_{k,l+1} + Q_{k+1,l} = R*_{k+1} R_{l+1} = Q_{k,0} Q_{0,l},

i.e. the pairwise-sum relation V_{k,l+1} + V_{k+1,l} = -V_{k,0} V_{0,l}
verified here.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InconsistentDivisionError, InsufficientDepthError
from .grassmann import ZTable, wk_G, wk_c_coeff, wk_q_coeff
from .report import VerificationReport, first_failures
from .series import (IntBlock, MatrixSeries, block_sums, format_block, linear_quotient, lower,
                     matrix_series_inverse)

__all__ = [
    "r_matrix",
    "verify_R_from_G",
    "v_table",
    "verify_v_relations",
    "verify_thm2",
]


@lru_cache(maxsize=None)
def r_matrix(depth: int) -> MatrixSeries:
    """The explicit R series through z^depth; block(k) is the z^k block R_k,
    one object per depth.

    The parity pattern (diagonal blocks at even order, anti-diagonal at odd)
    is what the exponent realignment of the loop-matrix relation produces.
    """
    q, c = wk_q_coeff, wk_c_coeff
    return MatrixSeries.from_blocks((q(k), 0, 0, c(k)) if k % 2 == 0 else (0, -q(k), -c(k), 0)
                                    for k in range(depth + 1))


_ENTRIES = ("(1,1)", "(1,2)", "(2,1)", "(2,2)")  # labels of a block's 4-tuple
_SHIFT = (0, 1, -1, 0)  # s_i: entry i of U_j lands at z^((2j + s_i)/3)


def verify_R_from_G(depth: int) -> VerificationReport:
    """Entrywise correspondence between R(z) and the inverse loop matrix.

    With G(lam)^(-1) = sum U_j lam^-j, conjugation by z^(s3/6) at
    lam = z^(-2/3) sends entry i of U_j to z^((2j + s_i)/3), with
    s = (0, +1, -1, 0) for (1,1), (1,2), (2,1), (2,2):

        (1,1): U_{3k} (1,1)  -> z^{2k}        (2,2): U_{3k} (2,2)  -> z^{2k}
        (1,2): U_{3k+1}(1,2) -> z^{2k+1}      (2,1): U_{3k+2}(2,1) -> z^{2k+1}

    An entry of R whose z^m has no U_j, (3m - s_i)/2 not an integer, must
    vanish, and so must every entry of U off that lattice.  The U blocks come
    from an actual matrix-series inversion, independent of the closed forms
    feeding R.
    """
    suite = "r-matrix-from-loop-matrix"
    R = r_matrix(depth)
    lam_order = 3 * (depth // 2) + 2
    U = matrix_series_inverse(wk_G(lam_order + 1), lam_order).blocks(lam_order)

    def comparisons():
        for m in range(depth + 1):
            for i, got in enumerate(R.block(m)):
                j, off = divmod(3 * m - _SHIFT[i], 2)
                yield f"{_ENTRIES[i]} z^{m}", got, 0 if off else U[j][i]
        # entries of U off the lattice must vanish, or the correspondence
        # above would miss nonzero data
        for j, u in enumerate(U):
            for i, val in enumerate(u):
                if (2 * j + _SHIFT[i]) % 3:
                    yield f"U_{j} {_ENTRIES[i]}", val, 0

    failures = first_failures(
        f"{label}: {got} vs {want}" for label, got, want in comparisons() if got != want
    )
    return VerificationReport(suite, f"z-degree {depth}, lam-order {lam_order}", failures=failures)


# ---------------------------------------------------------------------------
# V-matrices
# ---------------------------------------------------------------------------


def _star(block: IntBlock) -> IntBlock:
    """eta M^T eta of an integer block: its diagonal swapped."""
    a11, a12, a21, a22 = block
    return a22, a12, a21, a11


def v_table(size: int) -> ZTable:
    """Solve (R*(w)R(z) - I)/(w+z) for V_{k,l}, 0 <= k,l <= size, on the lift of
    R = r_matrix(2 size + 1), which the table keeps.

    N_{i,j} = R*_i R_j (N_{0,0} = 0) is lifted at grade i+j, each block product
    once by `linear_quotient`, which checks R*(-z) R(z) = I through
    z^(2 size + 1) and returns Q_{k,l} = (-1)^(k+l) V_{k,l}.  At the first
    z^s, s > 0, with a nonzero coefficient, InconsistentDivisionError compares
    Q_{0,s-1} with the boundary block N_{0,s} = R_s it would equal.
    """
    R = r_matrix(2 * size + 1)
    r = R.lifted
    quotient, remainder = linear_quotient([_star(b) for b in r], r, R.ratios, -1, size)
    if remainder is not None:
        s, total = remainder
        lhs = tuple(n - t for n, t in zip(r[s], total))  # Q_{0,s-1}
        raise InconsistentDivisionError(
            f"numerator not divisible by w+z at boundary column {s}: "
            f"{format_block(lower(lhs, R.grades[s]))} vs {format_block(R.block(s))}")
    return ZTable(tuple(
        tuple(q if (k + l) % 2 == 0 else tuple(-v for v in q) for l, q in enumerate(row))
        for k, row in enumerate(quotient)), R)


def verify_v_relations(size: int) -> VerificationReport:
    """Pairwise-sum and adjoint symmetry of the V table.

    Checks V_{k,l+1} + V_{k+1,l} = -V_{k,0} V_{0,l} (the sign is forced by
    the (-1)^(k+l) in the defining expansion; the unsigned quotient
    coefficients satisfy it with a plus) and V*_{k,l} = V_{l,k}, plus the
    reconstruction (w+z) * quotient = R*(w)R(z) - I on the checked window, in
    integers on the lift of R that V was solved on: the pairwise sum with its
    grades cleared, E_{k+1} E_{l+1} (v_{k,l+1} + v_{k+1,l}) = -E_{k+l+2} v_{k,0} v_{0,l}.
    """
    suite = "v-relations"
    V = v_table(size + 1)
    R = V.series
    v, e = V.lifted, R.grades
    zero = (0, 0, 0, 0)

    def mismatches():
        for k in range(size + 1):
            for l in range(size + 1):
                d = k + l + 2
                total = tuple(a + b for a, b in zip(v[k][l + 1], v[k + 1][l]))
                if tuple(e[k + 1] * e[l + 1] * t for t in total) != block_sums((-e[d],), (v[k][0],), (v[0][l],))[0]:
                    (product,) = block_sums((-R.ratios[d][k + 1],), (v[k][0],), (v[0][l],))
                    yield (f"pairwise sum at (k,l)=({k},{l}): {format_block(lower(total, e[d]))} "
                           f"vs {format_block(lower(product, e[d]))}")
                if _star(v[k][l]) != v[l][k]:
                    yield f"adjoint symmetry at (k,l)=({k},{l})"
        # reconstruction: the coefficient of w^i z^j in (w+z) * quotient is the
        # numerator block R*_i R_j (zero at the origin), all of grade i+j
        for i in range(size + 2):
            for j in range(size + 2):
                c = 1 if (i + j) % 2 else -1  # Q = (-1)^(k+l) V
                left, right = v[i - 1][j] if i else zero, v[i][j - 1] if j else zero
                acc = tuple(c * (a + b) for a, b in zip(left, right))
                (want,) = block_sums((R.ratios[i + j][i],), (_star(R.lifted[i]),), (R.lifted[j],))
                if i + j and acc != want:
                    yield (f"reconstruction at w^{i} z^{j}: {format_block(lower(acc, e[i + j]))} "
                           f"vs {format_block(lower(want, e[i + j]))}")

    failures = first_failures(mismatches())
    return VerificationReport(suite, f"k,l <= {size}", failures=failures)


def verify_thm2(ztable: ZTable, K: int, L: int) -> VerificationReport:
    """The V table expressed through matrix-valued affine coordinates:

        V_{2k,2l+1} = Z_{3k,3l+2}            V_{2l+1,2k} = -Z_{3l+2,3k}
        V_{2k,2l}   = -Z_{3k,3l+1} - Z_{3k,3l}
        V_{2k+1,2l+1} = Z_{3k+2,3l+2} + Z_{3k+2,3l+1}

    for all 0 <= k <= K, 0 <= l <= L, in integers: V is lifted on the grades
    E' of R and Z on the grades E of G, so the lift v of V_{i,j} (grade i+j+1)
    and the lift s of a right-hand side of grade d are cross-multiplied,
    E_d v = E'_{i+j+1} s.  A sum of two Z blocks is lifted on the higher of
    their grades, d, which the lower one's grade divides (E_{d-1} | E_d).
    """
    suite = "v-from-affine-coordinates"
    edge = 3 * max(K, L) + 2  # the largest index read, in either slot
    if not ztable.holds(edge, edge):
        raise InsufficientDepthError(f"Z table does not hold Z[{edge},{edge}], needed for K={K}, L={L}")
    V = v_table(2 * max(K, L) + 1)
    v, ev = V.lifted, V.series.grades
    z, ez = ztable.lifted, ztable.series.grades

    def Z(sign: int, *indices: tuple[int, int]) -> tuple[IntBlock, int]:
        """sign * the sum of the Z_{k,l} at `indices`, the first of the highest
        grade d, as (its lift on E_d, E_d)."""
        e = ez[sum(indices[0]) + 1]
        terms = [(e // ez[k + l + 1], z[k][l]) for k, l in indices]
        return tuple(sign * sum(r * x[i] for r, x in terms) for i in range(4)), e

    def comparisons():
        for k in range(K + 1):
            for l in range(L + 1):
                yield 2 * k, 2 * l + 1, Z(1, (3 * k, 3 * l + 2))
                yield 2 * l + 1, 2 * k, Z(-1, (3 * l + 2, 3 * k))
                yield 2 * k, 2 * l, Z(-1, (3 * k, 3 * l + 1), (3 * k, 3 * l))
                yield 2 * k + 1, 2 * l + 1, Z(1, (3 * k + 2, 3 * l + 2), (3 * k + 2, 3 * l + 1))

    failures = first_failures(
        f"V[{i},{j}]: {format_block(V.entry(i, j))} vs {format_block(lower(want, e))}"
        for i, j, (want, e) in comparisons()
        if tuple(e * x for x in v[i][j]) != tuple(ev[i + j + 1] * x for x in want)
    )
    return VerificationReport(suite, f"k <= {K}, l <= {L}", failures=failures)
