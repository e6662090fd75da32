"""Numerical discovery of PSK candidates by damped least squares.

The unknowns are the two symmetric-tensor coefficient blocks of q plus
the free coefficients of kappa along the closed one-forms.  Every
residual entry is a polynomial of degree <= 2 in the unknowns, so the
whole stacked system is compiled once into (constant, linear, quadratic)
numpy data (r0, A, Q).  The compile reads these blocks off the bilinear
structure of the equations on the dense exterior-algebra kernel of
forms.py, where the connection, the curvature and the residual equations
already live.  residual_vector, the reference it is tested against,
evaluates the equations directly at one point (x -> p, q -> wedges),
without the compile's per-unknown basis.  Evaluation and the exact
Jacobian then take one BLAS matrix-vector product with Q.

When the invariant Kahler form has no invariant primitive the
kappa-dependent equations cannot be posed; geometries built with
allow_nonexact=True fall back to the kappa-free stack (curvature
equations plus the integrability pair), which is a necessary subsystem
and enough to falsify candidates families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from math import comb

import numpy as np

from .connection import ConnectionData, CurvatureData, ch_model, curvature, levi_civita
from .forms import DenseExterior, Form, kahler_form, max_abs
from .intrinsic import (
    KAPPA_TERM_SIGN,
    PSKCandidate,
    SymTensor3,
    dpq_matrices,
    integrability_matrices,
    j_action,
    pq_from_tensors,
    rotate_tensors,
    sym_triples,
    tpq_matrix,
    wpq_matrix,
)
from .lie import AdaptedBasis, LieAlgebra, NotExactError, d_matrix, solve_primitive


@dataclass(frozen=True)
class SolveConfig:
    starts: int = 64
    seed: int = 0
    max_iters: int = 500
    lm_damping_init: float = 1e-3
    success_threshold: float = 1e-8
    infeasibility_floor: float = 1e-2
    init_scale: float = 1.0

    def __post_init__(self):
        if min(self.success_threshold, self.infeasibility_floor,
               self.lm_damping_init, self.init_scale) <= 0:
            raise ValueError("thresholds must be positive")
        if self.success_threshold >= self.infeasibility_floor:
            raise ValueError("success_threshold must sit below infeasibility_floor")
        if self.starts < 1 or self.max_iters < 1:
            raise ValueError("starts and max_iters must be positive")


@dataclass
class Geometry:
    """Fixed data of one solve: algebra, connection, curvature and kappa split."""

    L: LieAlgebra
    B: AdaptedBasis
    conn: ConnectionData
    curv: CurvatureData
    kappa0: Form | None
    kernel: list
    exact: bool
    _compiled: object = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.B.n

    @property
    def n_tensor(self) -> int:
        return len(sym_triples(self.n))

    @property
    def n_unknowns(self) -> int:
        base = 2 * self.n_tensor
        return base + (len(self.kernel) if self.exact else 0)

    def unpack(self, x: np.ndarray):
        t = self.n_tensor
        Sa = SymTensor3.from_vector(self.n, x[:t])
        Sb = SymTensor3.from_vector(self.n, x[t:2 * t])
        kappa = None
        if self.exact:
            kappa = self.kappa0
            for coeff, form in zip(x[2 * t:], self.kernel):
                kappa = kappa + float(coeff) * form
        return Sa, Sb, kappa

    def pack(self, cand: PSKCandidate) -> np.ndarray:
        """Inverse of unpack; projects the candidate's kappa on the kernel."""
        vec = [cand.Sa.to_vector(), cand.Sb.to_vector()]
        if self.exact:
            m = self.L.dim
            diff = cand.kappa - self.kappa0
            rhs = np.array([diff.coeffs.get((i,), 0.0) for i in range(1, m + 1)])
            A = np.array([[f.coeffs.get((i,), 0.0) for f in self.kernel]
                          for i in range(1, m + 1)])
            if self.kernel:
                coeffs, *_ = np.linalg.lstsq(A, rhs, rcond=None)
                if np.abs(A @ coeffs - rhs).max() > 1e-9:
                    raise ValueError("candidate kappa is not a primitive plus kernel")
            else:
                coeffs = np.zeros(0)
            vec.append(coeffs)
        return np.concatenate(vec)


def build_geometry(L: LieAlgebra, B: AdaptedBasis, *, allow_nonexact: bool = False) -> Geometry:
    conn = levi_civita(L, B)
    curv = curvature(conn, L)
    try:
        kappa0, kernel = solve_primitive(L, kahler_form(B.n))
        exact = True
    except NotExactError:
        if not allow_nonexact:
            raise
        kappa0, kernel, exact = None, [], False
    return Geometry(L=L, B=B, conn=conn, curv=curv, kappa0=kappa0,
                    kernel=kernel, exact=exact)


# -- residual stacking -------------------------------------------------


def residual_vector(cand_or_x, geom: Geometry) -> np.ndarray:
    """Deterministic flattening of all residual forms for one candidate.

    Exact geometries stack the two curvature equations and the two
    derivative equations; kappa-free geometries replace the derivative
    pair by the integrability pair.
    """
    if isinstance(cand_or_x, PSKCandidate):
        x = geom.pack(cand_or_x)
    else:
        x = np.asarray(cand_or_x, dtype=float)
    Sa, Sb, kappa = geom.unpack(x)
    p, q = pq_from_tensors(Sa, Sb)
    mats = [tpq_matrix(geom.curv, p, q), wpq_matrix(geom.curv, p, q)]
    if geom.exact:
        mats += dpq_matrices(p, q, kappa, geom.conn, geom.L)
    else:
        mats += integrability_matrices(geom.curv, p, q)
    return np.concatenate([mat.ravel() for mat in mats])


def _q_basis(n: int) -> np.ndarray:
    """q_u for every tensor unknown u, as a (2t, n, n, 2n) one-form array:
    u < t is the Sa entry on triple u, u >= t the Sb entry on triple u - t."""
    index = {tr: u for u, tr in enumerate(sym_triples(n))}
    t = len(index)
    qs = np.zeros((2 * t, n, n, 2 * n))
    for i, j, k in product(range(n), repeat=3):
        u = index[tuple(sorted((i + 1, j + 1, k + 1)))]
        qs[u, i, j, k] = 1.0
        qs[t + u, i, j, n + k] = 1.0
    return qs


class CompiledResidual:
    """r(x) = r0 + A x + x.Q.x with Q symmetric in its last two axes.

    Built from the structure of the equations rather than by sampling
    them: q and p = J q are linear in the 2t tensor unknowns through the
    basis arrays q_u and p_u, and kappa is affine in the kernel
    coefficients, so every block of (r0, A, Q) is a wedge of fixed data
    with q_u, p_u or each other on the dense kernel of forms.py.  The row
    order is that of residual_vector.  Evaluation is one matrix-vector
    product with Q viewed as (R*d, d): with Qx = Q x, r = r0 + (A + Qx) x
    and the Jacobian is A + 2 Qx.
    """

    def __init__(self, geom: Geometry):
        n, m, t = geom.n, geom.L.dim, geom.n_tensor
        T, d = 2 * t, geom.n_unknowns
        ext = DenseExterior(m)
        qs = _q_basis(n)
        ps = j_action(qs)
        c2 = comb(m, 2)
        block = n * n * c2
        second = n * n * comb(m, 2 if geom.exact else 3)
        R = 2 * block + 2 * second
        r0, A, Q = np.zeros(R), np.zeros((R, d)), np.zeros((R, d, d))

        # Curvature pair: M + p^p + q^q = M_CH and Lam + p^q - q^p = Lam_CH.
        model = ch_model(n)
        r0[:block] = (geom.curv.M - model.M).ravel()
        r0[block:2 * block] = (geom.curv.Lam - model.Lam).ravel()

        def write_symmetrised(start, X1, Y1, X2, Y2, sign):
            prod = (ext.pair_wedge_matrix(X1, Y1, 1, 1)
                    + sign * ext.pair_wedge_matrix(X2, Y2, 1, 1)).reshape(c2, T, T)
            Q[start:start + c2, :T, :T] = 0.5 * (prod + prod.transpose(0, 2, 1))

        # One matrix entry at a time keeps the temporaries small.
        for i, j in product(range(n), repeat=2):
            p_i, q_i = ps[:, i:i + 1], qs[:, i:i + 1]
            p_j, q_j = ps[:, :, j:j + 1], qs[:, :, j:j + 1]
            entry = (i * n + j) * c2
            write_symmetrised(entry, p_i, p_j, q_i, q_j, 1.0)
            write_symmetrised(block + entry, p_i, q_j, q_i, p_j, -1.0)

        # Second pair, linear in (p, q); the q-equation is the p-equation
        # with (p, q) -> (q, -p).
        rows = [slice(2 * block, 2 * block + second), slice(2 * block + second, R)]
        if geom.exact:
            D = d_matrix(geom.L, 1)
            mu, lam = geom.conn.mu, geom.conn.lam
            kappa0 = ext.dense(geom.kappa0)
            ks = np.array([ext.dense(f) for f in geom.kernel]).reshape(-1, 1, 1, 1, m)
            wm = lambda X, Y: ext.wedge_matrix(X, Y, 1, 1)
            for rs, (p_, q_) in zip(rows, ((ps, qs), (qs, -ps))):
                # dp + mu^p + p^mu + lam^q - q^lam + 4 kappa^q
                lin = (p_ @ D.T + wm(mu, p_) + wm(p_, mu) + wm(lam, q_) - wm(q_, lam)
                       + 4.0 * KAPPA_TERM_SIGN * ext.wedge(kappa0, q_, 1, 1))
                A[rs, :T] = lin.reshape(T, -1).T
                # 4 kappa_l ^ q_u, split evenly between Q[:, u, l] and Q[:, l, u]
                cross = (2.0 * KAPPA_TERM_SIGN * ext.wedge(ks, q_, 1, 1)).reshape(
                    len(geom.kernel), T, second)
                Q[rs, :T, T:] = cross.transpose(2, 1, 0)
                Q[rs, T:, :T] = cross.transpose(2, 0, 1)
        else:
            M, Lam = geom.curv.M, geom.curv.Lam
            omega = ext.kahler()
            for rs, (p_, q_) in zip(rows, ((ps, qs), (qs, -ps))):
                # M^p - p^M + Lam^q + q^Lam + 4 omega^q
                lin = (ext.wedge_matrix(M, p_, 2, 1) - ext.wedge_matrix(p_, M, 1, 2)
                       + ext.wedge_matrix(Lam, q_, 2, 1) + ext.wedge_matrix(q_, Lam, 1, 2)
                       + 4.0 * ext.wedge(omega, q_, 2, 1))
                A[rs, :T] = lin.reshape(T, -1).T
        self.r0, self.A, self.Q = r0, A, Q

    def _Qx(self, x: np.ndarray) -> np.ndarray:
        R, d, _ = self.Q.shape
        return (self.Q.reshape(R * d, d) @ x).reshape(R, d)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.r0 + (self.A + self._Qx(x)) @ x

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.A + 2.0 * self._Qx(x)


def compiled(geom: Geometry) -> CompiledResidual:
    if geom._compiled is None:
        geom._compiled = CompiledResidual(geom)
    return geom._compiled


# -- damped least squares ---------------------------------------------


def _lm_minimize(fun: CompiledResidual, x0: np.ndarray, cfg: SolveConfig):
    x = x0.copy()
    lam = cfg.lm_damping_init
    r = fun(x)
    cost = float(r @ r)
    for _ in range(cfg.max_iters):
        if np.abs(r).max() < 1e-14:
            break
        J = fun.jacobian(x)
        g = J.T @ r
        if np.abs(g).max() < 1e-16:
            break
        H = J.T @ J
        diag = np.diag(np.maximum(np.diag(H), 1e-12))
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
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 4.0
            if lam > 1e14:
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
    raw_solution: np.ndarray | None = None


def _gauge_angle(Sa: SymTensor3, Sb: SymTensor3):
    """Rotation making the dominant tensor entry land entirely in Sa, >= 0."""
    va, vb = Sa.to_vector(), Sb.to_vector()
    mags = va ** 2 + vb ** 2
    if mags.max() < 1e-24:
        return 0.0, 0
    lead = int(np.argmax(mags))
    return math.atan2(vb[lead], va[lead]), lead


def _per_equation(geom: Geometry, Sa, Sb, kappa) -> dict:
    p, q = pq_from_tensors(Sa, Sb)
    out = {
        "t_pq": max_abs(tpq_matrix(geom.curv, p, q)),
        "w_pq": max_abs(wpq_matrix(geom.curv, p, q)),
    }
    if geom.exact:
        rp, rq = dpq_matrices(p, q, kappa, geom.conn, geom.L)
        out["d_p"] = max_abs(rp)
        out["d_q"] = max_abs(rq)
    r1, r2 = integrability_matrices(geom.curv, p, q)
    out["integrability_1"] = max_abs(r1)
    out["integrability_2"] = max_abs(r2)
    return out


def solve(geom: Geometry, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Multi-start damped least squares over the candidate unknowns.

    The rotation gauge is left free during optimization (it only creates
    a flat direction) and normalized after the fact.
    """
    fun = compiled(geom)
    d = geom.n_unknowns
    finals = []
    best = None
    for s in range(cfg.starts):
        rng = np.random.default_rng((cfg.seed, s))
        x0 = rng.uniform(-cfg.init_scale, cfg.init_scale, size=d)
        x, res = _lm_minimize(fun, x0, cfg)
        finals.append((res, s, x))
        if best is None or (res, s) < (best[0], best[1]):
            best = (res, s, x)
    best_res, _, best_x = best

    solved = [f for f in finals if f[0] < cfg.success_threshold]
    orbits: list = []
    for res, s, x in sorted(solved, key=lambda f: (f[0], f[1])):
        Sa, Sb, kappa = geom.unpack(x)
        canda = _normalized_candidate(geom, Sa, Sb, kappa)[0]
        if not any(_orbit_distance_tensors(canda, other) < 1e-6 for other in orbits):
            orbits.append(canda)

    if best_res < cfg.success_threshold:
        status = "Solved"
    elif all(f[0] > cfg.infeasibility_floor for f in finals):
        status = "LikelyInfeasible"
    else:
        status = "Inconclusive"

    Sa, Sb, kappa = geom.unpack(best_x)
    cand, note = _normalized_candidate(geom, Sa, Sb, kappa)
    per_eq = _per_equation(geom, cand.Sa, cand.Sb, cand.kappa if geom.exact else None)
    return SolveResult(
        status=status,
        best_residual=best_res,
        candidate=cand if geom.exact else None,
        gauge_note=note,
        per_equation=per_eq,
        mode="full" if geom.exact else "kappa_free",
        start_residuals=[f[0] for f in finals],
        distinct_orbits=len(orbits),
        raw_solution=best_x,
    )


def _normalized_candidate(geom: Geometry, Sa, Sb, kappa):
    angle, lead = _gauge_angle(Sa, Sb)
    Sa_n, Sb_n = rotate_tensors(Sa, Sb, angle)
    note = f"rotated by s={angle:.12g} so entry {lead} of Sa is nonnegative"
    if kappa is None:
        kappa = Form.zero(geom.L.dim, 1)
    return PSKCandidate(Sa_n, Sb_n, kappa), note


def _orbit_distance_tensors(c1: PSKCandidate, c2: PSKCandidate) -> float:
    va1, vb1 = c1.Sa.to_vector(), c1.Sb.to_vector()
    va2, vb2 = c2.Sa.to_vector(), c2.Sb.to_vector()
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
    return math.sqrt(tens ** 2 + _one_form_norm2(diff))


def _one_form_norm2(f: Form) -> float:
    return sum(v * v for v in f.coeffs.values())


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

    def as_pairs(self):
        return [(p.parameter, p.best_residual) for p in self.points]


def scan_curvature(family, lo: float, hi: float, steps: int,
                   cfg: SolveConfig = SolveConfig(), *, values=None,
                   polish: bool = True, polish_floor: float = 0.5,
                   polish_tol: float = 1e-9) -> ScanResult:
    """Residual landscape of a one-parameter family of Kahler algebras.

    Grid minima below polish_floor are refined by golden-section search
    on the best-residual function, so feasible parameters need not sit
    on the grid.  Geometries whose Kahler form is not exact fall back to
    the kappa-free stack.
    """
    if values is None:
        if steps < 2 or not (hi > lo):
            raise ValueError("bad scan range")
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
            if pt.best_residual >= polish_floor:
                continue
            left = points[i - 1].best_residual if i > 0 else math.inf
            right = points[i + 1].best_residual if i + 1 < len(points) else math.inf
            if pt.best_residual > min(left, right):
                continue
            a = points[i - 1].parameter if i > 0 else pt.parameter
            b = points[i + 1].parameter if i + 1 < len(points) else pt.parameter
            c_star, r_star = _golden_minimize(lambda c: best_at(c)[0], a, b, polish_tol)
            polished.append((c_star, r_star))
            if r_star < cfg.success_threshold and not any(
                abs(c_star - f) < 1e-6 for f in feasible
            ):
                feasible.append(c_star)
    feasible.sort()
    deduped = []
    for c in feasible:
        if not deduped or abs(c - deduped[-1]) > 1e-6:
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
