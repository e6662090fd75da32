"""Numerical discovery of PSK candidates by damped least squares.

The unknowns are the two symmetric-tensor coefficient arrays of q plus
the free coefficients of kappa along the closed one-forms.  Every
residual entry is a polynomial of degree <= 2 in the unknowns, so the
whole stacked system is compiled once into (constant, linear, quadratic)
numpy data (r0, A, Q).  Everything here reads one intrinsic.Geometry
(built by build_geometry, which lives there): the compile applies the
evaluators of intrinsic.py to the stack of basis tensors, one per unknown
(see CompiledResidual); residual_vector, the reference it is tested
against, and the per-equation report of solve read
intrinsic.residual_matrices at one point (x -> p, q -> wedges).  Q is held
as COO triplets, and evaluation and the exact Jacobian take one np.bincount
over them.

When the invariant Kahler form has no invariant primitive the
kappa-dependent equations cannot be posed; geometries built with
allow_nonexact=True fall back to the kappa-free stack (curvature
equations plus the integrability pair), which is a necessary subsystem
and enough to falsify candidates families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from math import comb

import numpy as np

from .forms import max_abs
from .intrinsic import (
    Geometry,
    PSKCandidate,
    build_geometry,
    dpq_matrices,
    integrability_matrices,
    kappa_terms,
    pq_from_tensors,
    residual_matrices,
    rotate,
    tpq_matrix,
    wpq_matrix,
)
from .lie import PreconditionError
from .tolerance import (
    DISTINCT,
    GAUGE_PRUNE,
    INFEASIBILITY_FLOOR,
    LM_DAMPING,
    LM_DAMPING_MAX,
    LM_DAMPING_MIN,
    LM_DIAG_FLOOR,
    LM_GRADIENT_STOP,
    LM_MAX_ITERS,
    LM_RESIDUAL_STOP,
    POLISH_FLOOR,
    POLISH_XTOL,
    REPORT,
)


@dataclass(frozen=True)
class SolveConfig:
    starts: int = 64
    seed: int = 0
    success_threshold: float = REPORT

    def __post_init__(self):
        if self.success_threshold <= 0:
            raise PreconditionError("success_threshold must be positive")
        if self.success_threshold >= INFEASIBILITY_FLOOR:
            raise PreconditionError(
                f"success_threshold must sit below the infeasibility floor {INFEASIBILITY_FLOOR:g}")
        if self.starts < 1:
            raise PreconditionError("starts must be positive")


# -- residual stacking -------------------------------------------------


def residual_vector(cand_or_x, geom: Geometry) -> np.ndarray:
    """Deterministic flattening of all residual forms for one candidate.

    The first four matrices of residual_matrices: the curvature pair, then
    the derivative pair on exact geometries and the integrability pair on
    kappa-free ones (whose kappa is None).
    """
    if isinstance(cand_or_x, PSKCandidate):
        x = geom.pack(cand_or_x)
    else:
        x = np.asarray(cand_or_x, dtype=float)
    Sa, Sb, kappa = geom.unpack(x)
    mats = islice(residual_matrices(geom, *pq_from_tensors(Sa, Sb), kappa), 4)
    return np.concatenate([mat.ravel() for _, mat in mats])


class CompiledResidual:
    """r(x) = r0 + A x + x.Q.x with Q symmetric in its last two axes.

    Built from the equations rather than by sampling them: q and p = J q
    are linear in the 2t tensor unknowns through the basis stack (p_u, q_u),
    pq_from_tensors of the identity, and kappa is affine in the kernel
    coefficients.  r0 is the evaluators at p = q = 0; the linear blocks of A
    are the evaluators dpq_matrices (at kappa0) or integrability_matrices
    applied to the basis stack, and the kappa cross terms kappa_terms of the
    kernel rows with it; the curvature pair, quadratic, is wedged pairwise
    from the stack.  The row order is that of residual_vector.  Q is over 99% zeros,
    so Q[r, i, j] = v is held as the triplet (q_rows, q_cols, q_vals) =
    (r * d + i, j, v), with (i, j) and (j, i) both kept.  One np.bincount
    gives Qx = Q x as (R, d): r = r0 + (A + Qx) x and the Jacobian is
    A + 2 Qx = A + Q(2x).
    """

    def __init__(self, geom: Geometry):
        n, m, t = geom.n, geom.L.dim, geom.n_tensor
        T, d = 2 * t, geom.n_unknowns
        ext = geom.ext
        basis = np.eye(T)
        ps, qs = pq_from_tensors(basis[:, :t], basis[:, t:])
        c2 = comb(m, 2)
        block = n * n * c2
        second = n * n * comb(m, 2 if geom.exact else 3)
        R = 2 * block + 2 * second
        r0, A = np.zeros(R), np.zeros((R, d))
        triplets = []

        def add(rows, i, j, vals):
            triplets.append((rows * d + i, j, vals))

        # Second pair: its block of A is the evaluators applied to the basis
        # stack, built first, while no triplet is held, to keep the peak low.
        lins = (dpq_matrices(geom, ps, qs, geom.kappa0) if geom.exact
                else integrability_matrices(geom, ps, qs))
        A[2 * block:, :T] = np.concatenate([lin.reshape(T, -1) for lin in lins], axis=1).T
        del lins

        # Curvature pair: M + p^p + q^q = M_CH and Lam + p^q - q^p = Lam_CH,
        # with r0 the evaluators at p = q = 0.
        zero = np.zeros((n, n, m))
        r0[:block] = tpq_matrix(geom, zero, zero).ravel()
        r0[block:2 * block] = wpq_matrix(geom, zero, zero).ravel()

        def add_symmetrised(start, X1, Y1, X2, Y2, sign):
            prod = (ext.pair_wedge_matrix(X1, Y1, 1, 1)
                    + sign * ext.pair_wedge_matrix(X2, Y2, 1, 1)).reshape(c2, T, T)
            sym = 0.5 * (prod + prod.transpose(0, 2, 1))
            key, u, v = np.nonzero(sym)
            add(start + key, u, v, sym[key, u, v])

        # One matrix entry at a time keeps the temporaries small.
        for i, j in product(range(n), repeat=2):
            p_i, q_i = ps[:, i:i + 1], qs[:, i:i + 1]
            p_j, q_j = ps[:, :, j:j + 1], qs[:, :, j:j + 1]
            entry = (i * n + j) * c2
            add_symmetrised(entry, p_i, p_j, q_i, q_j, 1.0)
            add_symmetrised(block + entry, p_i, q_j, q_i, p_j, -1.0)

        if geom.exact:
            # Second pair, kappa cross terms: 4 kappa_l ^ q_u (or -4 kappa_l ^ p_u),
            # split evenly between Q[:, u, T + l] and Q[:, T + l, u]
            ks = geom.kernel.reshape(-1, 1, 1, 1, m)
            for h, term in enumerate(kappa_terms(geom, ks, ps, qs)):
                term = term.reshape(len(geom.kernel), T, second)
                l, u, row = np.nonzero(term)
                half = 0.5 * term[l, u, row]
                rows = 2 * block + h * second + row
                add(rows, u, T + l, half)
                add(rows, T + l, u, half)
        self.r0, self.A = r0, A
        self.q_rows, self.q_cols, self.q_vals = (np.concatenate(a) for a in zip(*triplets))

    def _A_plus_Qx(self, x: np.ndarray) -> np.ndarray:
        # A is added into the bincount's own output: at n = 4 a second (R, d)
        # temporary costs more than the bincount.
        out = np.bincount(self.q_rows, weights=self.q_vals * x.take(self.q_cols),
                          minlength=self.A.size).reshape(self.A.shape)
        out += self.A
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.r0 + self._A_plus_Qx(x) @ x

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self._A_plus_Qx(2.0 * x)


# -- damped least squares ---------------------------------------------


def _lm_minimize(fun: CompiledResidual, x0: np.ndarray):
    x = x0.copy()
    lam = LM_DAMPING
    r = fun(x)
    cost = float(r @ r)
    for _ in range(LM_MAX_ITERS):
        if np.abs(r).max() < LM_RESIDUAL_STOP:
            break
        J = fun.jacobian(x)
        g = J.T @ r
        if np.abs(g).max() < LM_GRADIENT_STOP:
            break
        H = J.T @ J
        diag = np.diag(np.maximum(np.diag(H), LM_DIAG_FLOOR))
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(H + lam * diag, -g)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(H + lam * diag, -g, rcond=None)[0]
            r_new = fun(x + step)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                x = x + step
                r, cost = r_new, cost_new
                lam = max(lam / 3.0, LM_DAMPING_MIN)
                accepted = True
                break
            lam *= 4.0
            if lam > LM_DAMPING_MAX:
                break
        if not accepted:
            break
    return x, float(np.abs(r).max())


@dataclass
class SolveResult:
    status: str
    best_residual: float
    candidate: PSKCandidate | None
    gauge_note: str
    per_equation: dict
    mode: str
    start_residuals: list
    distinct_orbits: int


def _gauge_angle(Sa: np.ndarray, Sb: np.ndarray):
    """Rotation making the dominant tensor entry land entirely in Sa, >= 0."""
    mags = Sa ** 2 + Sb ** 2
    if mags.max() < GAUGE_PRUNE:
        return 0.0, 0
    lead = int(np.argmax(mags))
    return math.atan2(Sb[lead], Sa[lead]), lead


def solve(geom: Geometry, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Multi-start damped least squares over the candidate unknowns.

    The rotation gauge is left free during optimization (it only creates
    a flat direction) and normalized after the fact.
    """
    fun = CompiledResidual(geom)
    d = geom.n_unknowns
    finals = []
    best = None
    for s in range(cfg.starts):
        rng = np.random.default_rng((cfg.seed, s))
        x0 = rng.uniform(-1.0, 1.0, size=d)
        x, res = _lm_minimize(fun, x0)
        finals.append((res, s, x))
        if best is None or (res, s) < (best[0], best[1]):
            best = (res, s, x)
    best_res, _, best_x = best

    solved = [f for f in finals if f[0] < cfg.success_threshold]
    orbits: list = []
    for res, s, x in sorted(solved, key=lambda f: (f[0], f[1])):
        canda = _normalized_candidate(geom, x)[0]
        if not any(_orbit_distance_tensors(canda, other) < DISTINCT for other in orbits):
            orbits.append(canda)

    if best_res < cfg.success_threshold:
        status = "Solved"
    elif all(f[0] > INFEASIBILITY_FLOOR for f in finals):
        status = "LikelyInfeasible"
    else:
        status = "Inconclusive"

    cand, note = _normalized_candidate(geom, best_x)
    mats = residual_matrices(geom, *pq_from_tensors(cand.Sa, cand.Sb),
                             cand.kappa if geom.exact else None)
    return SolveResult(
        status=status,
        best_residual=best_res,
        candidate=cand if geom.exact else None,
        gauge_note=note,
        per_equation={name: max_abs(mat) for name, mat in mats},
        mode="full" if geom.exact else "kappa_free",
        start_residuals=[f[0] for f in finals],
        distinct_orbits=len(orbits),
    )


def _normalized_candidate(geom: Geometry, x: np.ndarray):
    Sa, Sb, kappa = geom.unpack(x)
    angle, lead = _gauge_angle(Sa, Sb)
    Sa_n, Sb_n = rotate(Sa, Sb, angle)
    note = f"rotated by s={angle:.12g} so entry {lead} of Sa is nonnegative"
    if kappa is None:
        kappa = np.zeros(geom.L.dim)
    return PSKCandidate(Sa_n, Sb_n, kappa), note


def _orbit_distance_tensors(c1: PSKCandidate, c2: PSKCandidate) -> float:
    va1, vb1, va2, vb2 = c1.Sa, c1.Sb, c2.Sa, c2.Sb
    n1 = va1 @ va1 + vb1 @ vb1
    n2 = va2 @ va2 + vb2 @ vb2
    alpha = va1 @ va2 + vb1 @ vb2
    beta = vb1 @ va2 - va1 @ vb2
    best = n1 + n2 - 2.0 * math.hypot(alpha, beta)
    return math.sqrt(max(best, 0.0))


def certify_gauge_orbit(c1: PSKCandidate, c2: PSKCandidate) -> float:
    """min over s of || R_s(c1) - c2 ||; closed form via the two Fourier
    coefficients of the rotation.  The kappa difference is rotation-inert
    and enters squared."""
    tens = _orbit_distance_tensors(c1, c2)
    diff = c1.kappa - c2.kappa
    return math.sqrt(tens ** 2 + float(diff @ diff))


@dataclass
class ScanPoint:
    parameter: float
    best_residual: float
    status: str


@dataclass
class ScanResult:
    points: list
    feasible: list
    polished: list


def scan_curvature(family, lo: float, hi: float, steps: int,
                   cfg: SolveConfig = SolveConfig(), *, values=None,
                   polish: bool = True) -> ScanResult:
    """Residual landscape of a one-parameter family of Kahler algebras.

    Grid minima below tolerance.POLISH_FLOOR are refined by golden-section search
    on the best-residual function, so feasible parameters need not sit
    on the grid.  Geometries whose Kahler form is not exact fall back to
    the kappa-free stack.
    """
    if values is None:
        if steps < 2 or not (hi > lo):
            raise PreconditionError("bad scan range")
        values = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    values = list(values)

    def best_at(param: float) -> tuple:
        L, B = family(param)
        geom = build_geometry(L, B, allow_nonexact=True)
        result = solve(geom, cfg)
        return result.best_residual, result.status

    points = []
    for c in values:
        res, status = best_at(c)
        points.append(ScanPoint(parameter=c, best_residual=res, status=status))

    feasible = [p.parameter for p in points if p.best_residual < cfg.success_threshold]
    polished = []
    if polish and len(values) > 2:
        for i, pt in enumerate(points):
            if pt.best_residual >= POLISH_FLOOR:
                continue
            left = points[i - 1].best_residual if i > 0 else math.inf
            right = points[i + 1].best_residual if i + 1 < len(points) else math.inf
            if pt.best_residual > min(left, right):
                continue
            a = points[i - 1].parameter if i > 0 else pt.parameter
            b = points[i + 1].parameter if i + 1 < len(points) else pt.parameter
            c_star, r_star = _golden_minimize(lambda c: best_at(c)[0], a, b, POLISH_XTOL)
            polished.append((c_star, r_star))
            if r_star < cfg.success_threshold and not any(
                abs(c_star - f) < DISTINCT for f in feasible
            ):
                feasible.append(c_star)
    feasible.sort()
    deduped = []
    for c in feasible:
        if not deduped or abs(c - deduped[-1]) > DISTINCT:
            deduped.append(c)
    return ScanResult(points=points, feasible=deduped, polished=polished)


def _golden_minimize(fn, a: float, b: float, xtol: float):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (c, fc) if fc < fd else (d, fd)
