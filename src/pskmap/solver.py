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
without the compile's per-unknown basis.  Q is held as COO triplets,
and evaluation and the exact Jacobian take one np.bincount over them.

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
from .forms import DenseExterior, max_abs
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
from .lie import (
    AdaptedBasis,
    LieAlgebra,
    NotExactError,
    PreconditionError,
    d_matrix,
    solve_primitive,
)
from .tolerance import (
    DISTINCT,
    EXACT,
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


@dataclass
class Geometry:
    """Fixed data of one solve: algebra, connection, curvature and kappa split.

    kappa0 is the minimum-norm primitive of omega_S, a (2n,) array, and
    kernel the closed one-forms, an (r, 2n) array, so that every primitive
    is kappa0 + x @ kernel; kappa0 is None and kernel has no rows when
    omega_S is not exact."""

    L: LieAlgebra
    B: AdaptedBasis
    conn: ConnectionData
    curv: CurvatureData
    kappa0: np.ndarray | None
    kernel: np.ndarray
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
        kappa = self.kappa0 + x[2 * t:] @ self.kernel if self.exact else None
        return Sa, Sb, kappa

    def pack(self, cand: PSKCandidate) -> np.ndarray:
        """Inverse of unpack; projects the candidate's kappa on the kernel."""
        vec = [cand.Sa.to_vector(), cand.Sb.to_vector()]
        if self.exact:
            diff = cand.kappa - self.kappa0
            coeffs, *_ = np.linalg.lstsq(self.kernel.T, diff, rcond=None)
            if max_abs(coeffs @ self.kernel - diff) > EXACT:
                raise PreconditionError("candidate kappa is not a primitive plus kernel")
            vec.append(coeffs)
        return np.concatenate(vec)


def build_geometry(L: LieAlgebra, B: AdaptedBasis, *, allow_nonexact: bool = False) -> Geometry:
    conn = levi_civita(L, B)
    curv = curvature(conn, L)
    try:
        kappa0, kernel = solve_primitive(L, DenseExterior(B.dim).kahler())
        exact = True
    except NotExactError:
        if not allow_nonexact:
            raise
        kappa0, kernel, exact = None, np.zeros((0, B.dim)), False
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
    order is that of residual_vector.  Q is over 99% zeros, so Q[r, i, j] = v
    is held as the triplet (q_rows, q_cols, q_vals) = (r * d + i, j, v), with
    (i, j) and (j, i) both kept.  One np.bincount gives Qx = Q x as (R, d):
    r = r0 + (A + Qx) x and the Jacobian is A + 2 Qx = A + Q(2x).
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
        r0, A = np.zeros(R), np.zeros((R, d))
        triplets = []

        def add(rows, i, j, vals):
            triplets.append((rows * d + i, j, vals))

        # Curvature pair: M + p^p + q^q = M_CH and Lam + p^q - q^p = Lam_CH.
        model = ch_model(n)
        r0[:block] = (geom.curv.M - model.M).ravel()
        r0[block:2 * block] = (geom.curv.Lam - model.Lam).ravel()

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

        # Second pair, linear in (p, q); the q-equation is the p-equation
        # with (p, q) -> (q, -p).
        rows = [slice(2 * block, 2 * block + second), slice(2 * block + second, R)]
        if geom.exact:
            D = d_matrix(geom.L, 1)
            mu, lam = geom.conn.mu, geom.conn.lam
            kappa0 = geom.kappa0
            ks = geom.kernel.reshape(-1, 1, 1, 1, m)
            wm = lambda X, Y: ext.wedge_matrix(X, Y, 1, 1)
            for rs, (p_, q_) in zip(rows, ((ps, qs), (qs, -ps))):
                # dp + mu^p + p^mu + lam^q - q^lam + 4 kappa^q
                lin = (p_ @ D.T + wm(mu, p_) + wm(p_, mu) + wm(lam, q_) - wm(q_, lam)
                       + 4.0 * KAPPA_TERM_SIGN * ext.wedge(kappa0, q_, 1, 1))
                A[rs, :T] = lin.reshape(T, -1).T
                # 4 kappa_l ^ q_u, split evenly between Q[:, u, l] and Q[:, l, u]
                cross = (2.0 * KAPPA_TERM_SIGN * ext.wedge(ks, q_, 1, 1)).reshape(
                    len(geom.kernel), T, second)
                l, u, row = np.nonzero(cross)
                add(rs.start + row, u, T + l, cross[l, u, row])
                add(rs.start + row, T + l, u, cross[l, u, row])
        else:
            M, Lam = geom.curv.M, geom.curv.Lam
            omega = ext.kahler()
            for rs, (p_, q_) in zip(rows, ((ps, qs), (qs, -ps))):
                # M^p - p^M + Lam^q + q^Lam + 4 omega^q
                lin = (ext.wedge_matrix(M, p_, 2, 1) - ext.wedge_matrix(p_, M, 1, 2)
                       + ext.wedge_matrix(Lam, q_, 2, 1) + ext.wedge_matrix(q_, Lam, 1, 2)
                       + 4.0 * ext.wedge(omega, q_, 2, 1))
                A[rs, :T] = lin.reshape(T, -1).T
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


def compiled(geom: Geometry) -> CompiledResidual:
    if geom._compiled is None:
        geom._compiled = CompiledResidual(geom)
    return geom._compiled


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


def _gauge_angle(Sa: SymTensor3, Sb: SymTensor3):
    """Rotation making the dominant tensor entry land entirely in Sa, >= 0."""
    va, vb = Sa.to_vector(), Sb.to_vector()
    mags = va ** 2 + vb ** 2
    if mags.max() < GAUGE_PRUNE:
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
        x0 = rng.uniform(-1.0, 1.0, size=d)
        x, res = _lm_minimize(fun, x0)
        finals.append((res, s, x))
        if best is None or (res, s) < (best[0], best[1]):
            best = (res, s, x)
    best_res, _, best_x = best

    solved = [f for f in finals if f[0] < cfg.success_threshold]
    orbits: list = []
    for res, s, x in sorted(solved, key=lambda f: (f[0], f[1])):
        Sa, Sb, kappa = geom.unpack(x)
        canda = _normalized_candidate(geom, Sa, Sb, kappa)[0]
        if not any(_orbit_distance_tensors(canda, other) < DISTINCT for other in orbits):
            orbits.append(canda)

    if best_res < cfg.success_threshold:
        status = "Solved"
    elif all(f[0] > INFEASIBILITY_FLOOR for f in finals):
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
    )


def _normalized_candidate(geom: Geometry, Sa, Sb, kappa):
    angle, lead = _gauge_angle(Sa, Sb)
    Sa_n, Sb_n = rotate_tensors(Sa, Sb, angle)
    note = f"rotated by s={angle:.12g} so entry {lead} of Sa is nonnegative"
    if kappa is None:
        kappa = np.zeros(geom.L.dim)
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
