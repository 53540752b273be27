"""Exact-arithmetic Sato-Grassmannian toolkit for the KdV hierarchy.

Everything is computed over arbitrary-precision rationals: affine
coordinates of big-cell points (matrix-valued and scalar), the closed-form
hook coefficients and their rescaling, truncated tau functions with their
Schur-polynomial expansion, psi-class intersection numbers, and the
R/V-matrix side of the 3-spin structure.  Each identity relating these
objects ships with an exact verifier; see the `cli` module or the README
for the command-line entry points.
"""

from .series import LaurentSeries, MatrixSeries
from .grassmann import (
    AffineTable,
    GrassmannPoint,
    ZTable,
    build_G,
    wk_c_coeff,
    wk_point,
    wk_q_coeff,
    z_table_direct,
    z_table_recursive,
)
from .zhou import B_poly, b_seq, rescale_B, zhou_affine_table
from .schur import (
    GradedPoly,
    frobenius,
    giambelli_coeff,
    h_polys,
    partitions_up_to,
    schur_poly,
)
from .tau import (
    CorrelatorSpec,
    TauSeries,
    initial_data,
    intersection_number,
    tau_truncated,
    to_t_variables,
)
from .spin3 import r_matrix, v_table

__version__ = "0.1.0"
