"""The tolerance policy: every threshold behind a pskmap verdict, named once.

A verdict is "this residual is zero within a threshold".  Each constant
below serves one role.  The scale a check multiplies a constant by (such as
1 + max|c|**2 for a quadratic identity) stays at the check, because it is
part of what the check means.  This module imports nothing from pskmap, so
the cone oracle reads the same numbers without sharing any arithmetic with
the intrinsic side.
"""

# -- pruning: coefficients dropped as rounding noise -------------------

# Float and ring coefficients: lie's d-rules, primitives and closed one-forms,
# candidate JSON, and every term of the cone's coordinate kernel.
PRUNE = 1e-14
# Merged bracket constants in LieAlgebra.from_brackets.
BRACKET_PRUNE = 1e-15
# Structure constants after a change of frame (catalog.conjugate_algebra).
FRAME_PRUNE = 1e-13
# Squared size of the largest tensor entry below which the gauge is not fixed.
GAUGE_PRUNE = 1e-24

# -- exact identities: zero in exact arithmetic ------------------------

# Relative to each check's scale: d^2 = 0 on the cone and the twist frame,
# the cone structure equation, the displayed flatness formulas, twist
# invariance and constancy, the output Jacobi identity, kappa in the kernel
# span; and, as the absolute and the relative part of exact_bound, the Kahler
# shape, closedness and the primitive of omega_S.
EXACT = 1e-9
# The structure equation d(theta) = -omega ^ theta of the Koszul connection.
KOSZUL = 1e-10
# Torsion of (p, q), which total symmetry of the tensors kills.
TORSION = 1e-12
# Non-constant terms of a TrigLaurent that still count as constant.
CONSTANT = 1e-12
# Singular values of d on one-forms below NULL_RCOND * (largest) are zero.
NULL_RCOND = 1e-12
# Least-squares residual of the sp(1) fit of the c-map output.
SP1_FIT = 1e-8


def exact_bound(scale: float) -> float:
    """EXACT absolute plus EXACT relative to |scale|."""
    return EXACT + EXACT * abs(scale)


# -- input checks ------------------------------------------------------

# Jacobi identity of an input algebra, relative to (1 + max|c|)**2.
JACOBI_INPUT = 1e-10

# -- reports -----------------------------------------------------------

# The default of every --tol: check, cone-verify and the candidate gate of
# cmap pass below it, and solve and scan call a start Solved below it.
REPORT = 1e-8
# Smallest eigenvalue of the output gram matrix that cmap accepts.
GRAM_MIN_EIG = 0.1

# -- search ------------------------------------------------------------

# Every start above this makes a solve LikelyInfeasible; success_threshold
# must sit below it.
INFEASIBILITY_FLOOR = 1e-2
# Solved points, and feasible scan parameters, closer than this are one.
DISTINCT = 1e-6
# Grid minima of a scan below this are polished by golden-section search...
POLISH_FLOOR = 0.5
# ... until the bracket is narrower than this.
POLISH_XTOL = 1e-9

# Levenberg-Marquardt: iteration cap, initial damping and its clamps, the
# residual and gradient sizes that stop a start, and the floor of the
# scaling diagonal.
LM_MAX_ITERS = 500
LM_DAMPING = 1e-3
LM_DAMPING_MIN = 1e-14
LM_DAMPING_MAX = 1e14
LM_RESIDUAL_STOP = 1e-14
LM_GRADIENT_STOP = 1e-16
LM_DIAG_FLOOR = 1e-12

# -- complete solvability of the c-map output --------------------------

# Singular values of a derived-series step below DERIVED_RANK * max(1, largest)
# are zero.
DERIVED_RANK = 1e-9
# An algebra is completely solvable when its derived series ends in 0 and
# lie.max_adjoint_imag stays below this.  It decides a property, not noise:
# shifting the flat CH(n) candidate (n = 1, 2, 3) by l along its closed
# one-form a^1 gives ad_{e1} of the output eigenvalues with imaginary part
# exactly 2l and max_adjoint_imag about 0.8 l, so the verdict flips near
# l = 0.012 while the sp(1) fit (<= 5.3e-15) and the derived series stay as
# they are.  A solver output on CH(2) with kappa = (0.0306, 0, -0.5, 0) has
# ad_{e1} eigenvalues -1, 0, 1 shifted by +-0.0612i (unchanged by a 1e-10
# perturbation, confirmed at 50 digits), so it fails.  At l = 0 the floor is
# 3e-17 (n = 1) and 1.3e-6 (n = 2, 3).  Complete solvability is stricter
# than a QK structure on a Lie group, which is what the c-map promises.
COMPLETELY_SOLVABLE = 1e-2
