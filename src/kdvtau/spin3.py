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
so the identity is verified through an exponent-correspondence table
rather than by materializing fractional powers of z.

The V-matrices are defined by

    (R*(w) R(z) - I) / (w + z) = sum (-1)^(k+l) V_{k,l} w^k z^l,

with R*(w) = eta R(w)^T eta, eta = [[0,1],[1,0]], whose w^k block is
R_k.swap_diagonal().  The quotient is solved
layer by layer; the division is exact precisely because R*(-z) R(z) = I,
and that consistency is asserted rather than assumed.  Writing
Q_{k,l} = (-1)^(k+l) V_{k,l} for the raw quotient coefficients, matching
the coefficient of w^(k+1) z^(l+1) on both sides of
(w+z) * sum Q w^k z^l = R*(w)R(z) - I gives immediately

    Q_{k,l+1} + Q_{k+1,l} = R*_{k+1} R_{l+1} = Q_{k,0} Q_{0,l},

i.e. V_{k,l+1} + V_{k+1,l} = -V_{k,0} V_{0,l} for the signed V.  That is
the pairwise-sum relation verified here.
"""

from __future__ import annotations

from .errors import InconsistentDivisionError, InsufficientDepthError, OutOfRangeError
from .exactnum import Record, _setattr
from .grassmann import ZTable, wk_G, wk_c_coeff, wk_q_coeff
from .report import VerificationReport, first_failures
from .series import M2, MatrixSeries, matrix_series_inverse

__all__ = [
    "VTable",
    "r_matrix",
    "verify_R_from_G",
    "v_table",
    "verify_v_relations",
    "verify_thm2",
]


def r_matrix(depth: int) -> MatrixSeries:
    """The explicit R series through z^depth; block(k) is the z^k block R_k.

    The parity pattern (diagonal blocks at even order, anti-diagonal at odd)
    is what the exponent realignment of the loop-matrix relation produces.
    """
    blocks = []
    for k in range(depth + 1):
        q, c = wk_q_coeff(k), wk_c_coeff(k)
        if k % 2 == 0:
            blocks.append(M2.diag(q, c))
        else:
            blocks.append(M2.of(0, -q, -c, 0))
    return MatrixSeries(tuple(blocks))


def verify_R_from_G(depth: int) -> VerificationReport:
    """Entrywise correspondence between R(z) and the inverse loop matrix.

    With G(lam)^(-1) = sum U_k lam^-k, conjugation by z^(s3/6) at
    lam = z^(-2/3) sends

        (1,1): U_{3k} (1,1)  -> z^{2k}        (2,2): U_{3k} (2,2)  -> z^{2k}
        (1,2): U_{3k+1}(1,2) -> z^{2k+1}      (2,1): U_{3k+2}(2,1) -> z^{2k+1}

    and every other (entry, lam-order) pair must vanish.  The U blocks come
    from an actual matrix-series inversion, independent of the closed forms
    feeding R.
    """
    suite = "r-matrix-from-loop-matrix"
    R = r_matrix(depth)
    lam_order = 3 * (depth // 2) + 2
    U = matrix_series_inverse(wk_G(lam_order + 1), lam_order).blocks(lam_order)

    def comparisons():
        for z_exp in range(depth + 1):
            rb = R.block(z_exp)
            if z_exp % 2 == 0:
                k = z_exp // 2
                yield f"(1,1) z^{z_exp}", rb.a11, U[3 * k].a11
                yield f"(2,2) z^{z_exp}", rb.a22, U[3 * k].a22
                yield f"(1,2) z^{z_exp}", rb.a12, 0
                yield f"(2,1) z^{z_exp}", rb.a21, 0
            else:
                k = (z_exp - 1) // 2
                yield f"(1,2) z^{z_exp}", rb.a12, U[3 * k + 1].a12
                yield f"(2,1) z^{z_exp}", rb.a21, U[3 * k + 2].a21
                yield f"(1,1) z^{z_exp}", rb.a11, 0
                yield f"(2,2) z^{z_exp}", rb.a22, 0
        # entries of U off the mod-3 pattern must vanish, or the correspondence
        # above would miss nonzero data
        for j in range(lam_order + 1):
            u = U[j]
            slots = {
                0: (("(1,2)", u.a12), ("(2,1)", u.a21)),
                1: (("(1,1)", u.a11), ("(2,1)", u.a21), ("(2,2)", u.a22)),
                2: (("(1,1)", u.a11), ("(1,2)", u.a12), ("(2,2)", u.a22)),
            }[j % 3]
            for name, val in slots:
                yield f"U_{j} {name}", val, 0

    failures = first_failures(
        f"{label}: {got} vs {want}" for label, got, want in comparisons() if got != want
    )
    return VerificationReport(
        suite, not failures, f"z-degree {depth}, lam-order {lam_order}", failures=failures
    )


# ---------------------------------------------------------------------------
# V-matrices
# ---------------------------------------------------------------------------


class VTable(Record):
    """V_{k,l} for 0 <= k, l <= size."""

    __slots__ = ("size", "blocks")

    def __init__(self, size: int, blocks: tuple[tuple[M2, ...], ...]) -> None:
        _setattr(self, "size", size)
        _setattr(self, "blocks", blocks)

    def entry(self, k: int, l: int) -> M2:
        if not (0 <= k <= self.size and 0 <= l <= self.size):
            raise OutOfRangeError(f"V[{k},{l}] outside table of size {self.size}")
        return self.blocks[k][l]


def v_table(size: int) -> VTable:
    """Solve (R*(w)R(z) - I)/(w+z) for V_{k,l}, 0 <= k,l <= size.

    Raw quotient coefficients: Q_{k,l} = sum_{r=0..l} (-1)^r N_{k+1+r, l-r}
    with N_{i,j} = R*_i R_j (N_{0,0} = 0), each formed once.  The solution is
    consistent iff the boundary equations Q_{0,j-1} = N_{0,j} also hold, which
    encodes the divisibility of the numerator by w + z; a violation raises
    InconsistentDivisionError.
    """
    need = 2 * size + 1
    R = r_matrix(need)
    stars = [R.block(i).swap_diagonal() for i in range(need + 1)]
    N = [[star @ R.block(j) for j in range(min(size + 1, need - i) + 1)]
         for i, star in enumerate(stars)]
    N[0][0] = M2.zero()

    q: dict[tuple[int, int], M2] = {}
    for k in range(size + 1):
        for l in range(size + 1):
            acc = M2.zero()
            for r in range(l + 1):
                term = N[k + 1 + r][l - r]
                acc = acc + term if r % 2 == 0 else acc - term
            q[(k, l)] = acc
    for j in range(1, size + 2):
        if (lhs := q[(0, j - 1)]) != N[0][j]:
            raise InconsistentDivisionError(
                f"numerator not divisible by w+z at boundary column {j}: {lhs} vs {N[0][j]}"
            )
    rows = []
    for k in range(size + 1):
        row = []
        for l in range(size + 1):
            v = q[(k, l)]
            row.append(v if (k + l) % 2 == 0 else -v)
        rows.append(tuple(row))
    return VTable(size, tuple(rows))


def verify_v_relations(size: int) -> VerificationReport:
    """Pairwise-sum and adjoint symmetry of the V table.

    Checks V_{k,l+1} + V_{k+1,l} = -V_{k,0} V_{0,l} (the sign is forced by
    the (-1)^(k+l) in the defining expansion; the unsigned quotient
    coefficients satisfy it with a plus) and V*_{k,l} = V_{l,k}, plus the
    reconstruction (w+z) * quotient = R*(w)R(z) - I on the checked window.
    """
    suite = "v-relations"
    V = v_table(size + 1)

    def mismatches():
        for k in range(size + 1):
            for l in range(size + 1):
                lhs = V.entry(k, l + 1) + V.entry(k + 1, l)
                rhs = -(V.entry(k, 0) @ V.entry(0, l))
                if lhs != rhs:
                    yield f"pairwise sum at (k,l)=({k},{l}): {lhs} vs {rhs}"
                if V.entry(k, l).swap_diagonal() != V.entry(l, k):
                    yield f"adjoint symmetry at (k,l)=({k},{l})"
        # reconstruction: coefficient of w^i z^j in (w+z) * quotient equals the
        # numerator block R*_i R_j (zero at the origin)
        R = r_matrix(size + 1)
        for i in range(size + 2):
            for j in range(size + 2):
                if i + j == 0:
                    continue
                acc = M2.zero()
                if i >= 1:
                    q = V.entry(i - 1, j)
                    acc = acc + (q if (i - 1 + j) % 2 == 0 else -q)
                if j >= 1:
                    q = V.entry(i, j - 1)
                    acc = acc + (q if (i + j - 1) % 2 == 0 else -q)
                want = R.block(i).swap_diagonal() @ R.block(j)
                if acc != want:
                    yield f"reconstruction at w^{i} z^{j}: {acc} vs {want}"

    failures = first_failures(mismatches())
    return VerificationReport(
        suite, not failures, f"k,l <= {size}", failures=failures
    )


def verify_thm2(ztable: ZTable, K: int, L: int) -> VerificationReport:
    """The V table expressed through matrix-valued affine coordinates:

        V_{2k,2l+1} = Z_{3k,3l+2}            V_{2l+1,2k} = -Z_{3l+2,3k}
        V_{2k,2l}   = -Z_{3k,3l+1} - Z_{3k,3l}
        V_{2k+1,2l+1} = Z_{3k+2,3l+2} + Z_{3k+2,3l+1}

    for all 0 <= k <= K, 0 <= l <= L.
    """
    suite = "v-from-affine-coordinates"
    if ztable.max_k < 3 * K + 2 or ztable.max_l < 3 * L + 2:
        raise InsufficientDepthError(
            f"Z table {ztable.max_k}x{ztable.max_l} too small for K={K}, L={L}"
        )
    V = v_table(2 * max(K, L) + 1)
    Z = ztable.entry

    def comparisons():
        for k in range(K + 1):
            for l in range(L + 1):
                yield f"V[{2*k},{2*l+1}]", V.entry(2 * k, 2 * l + 1), Z(3 * k, 3 * l + 2)
                yield f"V[{2*l+1},{2*k}]", V.entry(2 * l + 1, 2 * k), -Z(3 * l + 2, 3 * k)
                yield (
                    f"V[{2*k},{2*l}]",
                    V.entry(2 * k, 2 * l),
                    -Z(3 * k, 3 * l + 1) - Z(3 * k, 3 * l),
                )
                yield (
                    f"V[{2*k+1},{2*l+1}]",
                    V.entry(2 * k + 1, 2 * l + 1),
                    Z(3 * k + 2, 3 * l + 2) + Z(3 * k + 2, 3 * l + 1),
                )

    failures = first_failures(
        f"{label}: {got} vs {want}" for label, got, want in comparisons() if got != want
    )
    return VerificationReport(suite, not failures, f"k <= {K}, l <= {L}", failures=failures)
