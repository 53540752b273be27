"""Exact-arithmetic Sato-Grassmannian toolkit for the KdV hierarchy.

Everything is computed over arbitrary-precision rationals: affine
coordinates of big-cell points (matrix-valued and scalar), the closed-form
hook coefficients and their rescaling, truncated tau functions with their
Schur-polynomial expansion, psi-class intersection numbers, and the
R/V-matrix side of the 3-spin structure.  Each identity relating these
objects ships with an exact verifier; see the `cli` module or the README
for the command-line entry points.
"""

__version__ = "0.1.0"
