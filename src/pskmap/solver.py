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
intrinsic.residual_matrices at one point (x -> p, q -> wedges).  Rows that
are equal up to sign are merged into one, weighted in the search by how
often it occurs.  A and Q are held as COO triplets, and evaluation and the
exact Jacobian take one np.bincount over them for a whole batch of points;
the multi-start search runs its starts in lockstep on such batches.

When the invariant Kahler form has no invariant primitive the
kappa-dependent equations cannot be posed; geometries built with
allow_nonexact=True fall back to the kappa-free stack (curvature
equations plus the integrability pair), which is a necessary subsystem
and enough to falsify candidates families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from math import comb

import numpy as np

from . import intrinsic
from .forms import max_abs
from .intrinsic import (
    Geometry,
    PSKCandidate,
    build_geometry,
    dpq_matrices,
    integrability_matrices,
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


def _wedge_triplets(ext, d: int, lefts: list, rights: list, rows: np.ndarray,
                    scales: np.ndarray):
    """Sorted triplets (q_rows, q_cols, q_vals) of the quadratic terms
    scales[a, b] x[u] x[v] X[u] ^ Y[v], X[u] of lefts[a] and Y[v] of rights[b].

    lefts and rights list (first unknown, stack), a stack being (U, n, n, m)
    matrices of one-forms; entry (i, j), key k of a term is row
    rows[a, b] + (i * n + j) * comb(m, 2) + k.  The non-zeros of X and Y are
    joined on the inner index, the key and sign read off ext's (1, 1) table,
    each value split evenly between (u, v) and (v, u), and equal (row, u, v)
    summed: exactly, as basis entries are 0 or +-1 and a kernel row meets at
    most two products per triplet, so the order of summation does not matter.
    """
    n = lefts[0][1].shape[1]
    signs = ext.table(1, 1)
    key, sign, c2 = np.abs(signs).argmax(axis=1), signs.sum(axis=1), signs.shape[1]

    def nonzeros(stacks, inner):
        # (inner index, stack, unknown, outer index, form index, value) of
        # every non-zero, ordered by the inner index.
        X = np.moveaxis(np.concatenate([S for _, S in stacks]), inner, 0)
        s, w, o, f = np.nonzero(X)
        which = np.repeat(np.arange(len(stacks)), [len(S) for _, S in stacks])
        unknown = np.concatenate([first + np.arange(len(S)) for first, S in stacks])
        return s, which[w], unknown[w], o, f, X[s, w, o, f]

    sX, a, u, i, fX, vX = nonzeros(lefts, 2)
    sY, b, v, j, fY, vY = nonzeros(rights, 1)
    # Pair each left non-zero with the right ones of its inner index.
    count = np.bincount(sY, minlength=n)
    start, reps = np.cumsum(count) - count, count[sX]
    left = np.repeat(np.arange(len(sX)), reps)
    right = np.arange(len(left)) - np.repeat(np.cumsum(reps) - reps - start[sX], reps)
    term, form = a[left] * len(rights) + b[right], fX[left] * ext.m + fY[right]
    row = rows.ravel()[term] + (i[left] * n + j[right]) * c2 + key[form]
    val = 0.5 * scales.ravel()[term] * sign[form] * vX[left] * vY[right]
    u, v = u[left], v[right]
    # The sort below sets the compile's peak memory: free what it does not read.
    del left, right, term, form
    row *= d
    flat = np.concatenate([(row + u) * d + v, (row + v) * d + u])
    del row, u, v
    flat, inverse = np.unique(flat, return_inverse=True)
    total = np.bincount(inverse, weights=np.concatenate([val, val]))
    keep = total != 0
    return flat[keep] // d, flat[keep] % d, total[keep]


def _row_groups(r0: np.ndarray, d: int, a_rows: np.ndarray, a_vals: np.ndarray,
                q_rows: np.ndarray, q_cols: np.ndarray, q_vals: np.ndarray):
    """The rows of r0 + A x + x.Q.x that are exactly equal up to sign.

    Returns the first row of each group, in increasing order, and for every
    row its group (numbered in that order) and the sign that takes the
    group's first row to it.  A row's signature lists its non-zeros as
    (position, value) keys: r0 first, then A by column, then Q by (i, j),
    each value multiplied by the sign of the row's first one and coded by
    its rank among all such values.  Padded with -1, the identically zero
    rows form one group like any other.  One np.unique over the signatures'
    bytes finds the groups, with no tolerance.  Each argsort here is on
    unique integer keys, so none needs to be stable: a stable sort's code
    would be mapped into the process for this alone.
    """
    R = len(r0)
    nz = np.flatnonzero(r0)
    # Every non-zero as (row, position, value), sorted by row and position.
    row = np.concatenate([nz, a_rows // d, q_rows // d])
    pos = np.concatenate([np.zeros(len(nz), dtype=int), 1 + a_rows % d,
                          1 + d + (q_rows % d) * d + q_cols])
    order = np.argsort(row * (1 + d + d * d) + pos)
    row, pos = row[order], pos[order]
    val = np.concatenate([r0[nz], a_vals, q_vals])[order]
    del order
    count = np.bincount(row, minlength=R)
    first = np.cumsum(count) - count
    sign = np.ones(R)
    sign[count > 0] = np.where(val[first[count > 0]] < 0, -1.0, 1.0)
    # No value is 0 or NaN, so equal values are equal bit patterns.
    values, code = np.unique((val * sign[row]).view(np.int64), return_inverse=True)
    width = max(1, int(count.max()))
    sig = np.full(R * width, -1)
    sig[(row * width - first[row]) + np.arange(len(row))] = pos * len(values) + code
    del row, pos, val, code
    _, inverse = np.unique(sig.view(np.dtype((np.void, width * sig.itemsize))),
                           return_inverse=True)
    del sig
    # The first row of each group: ordered by (group, row), a group starts
    # where the sizes of the groups before it end.
    size = np.bincount(inverse)
    first = np.argsort(inverse * R + np.arange(R))[np.cumsum(size) - size]
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=int)
    rank[order] = np.arange(len(first))
    group = rank[inverse]
    kept = first[order]
    return kept, group, sign * sign[kept][group]


class CompiledResidual:
    """r(x) = r0 + A x + x.Q.x with Q symmetric in its last two axes, on the
    distinct equations.

    Built from the equations rather than by sampling them: q and p = J q
    are linear in the 2t tensor unknowns through the basis stack (p_u, q_u),
    pq_from_tensors of the identity, and kappa is affine in the kernel
    coefficients.  r0 is the evaluators at p = q = 0; the linear blocks of A
    are the evaluators dpq_matrices (at kappa0) or integrability_matrices
    applied to the basis stack; every quadratic term is a matrix wedge of two
    stacks over the unknowns, emitted by _wedge_triplets.  The full rows are
    in the order of residual_vector.

    Many full rows repeat up to sign (CH(4): 1,792 rows, 283 distinct), so
    only the first row of each group is kept (_row_groups), unweighted and in
    order of first occurrence.  row_map and row_sign give, for each full
    row, its kept row and sign: residual_vector(x) equals
    row_sign * fun(x)[row_map], and multiplicity counts the full rows of
    each kept row, the weights of the search's cost.  A and Q are over 98%
    zeros, so A[r, i] = a and Q[r, i, j] = v are held as sorted triplets
    (a_rows, a_vals) = (r * d + i, a) and (q_rows, q_cols, q_vals) =
    (r * d + i, j, v), with (i, j) and (j, i) both kept.  One np.bincount,
    its A weights after its Q weights, gives A + Qx as (R, d):
    r = r0 + (A + Qx) x and the Jacobian is A + 2 Qx = A + Q(2x).
    """

    def __init__(self, geom: Geometry):
        n, m, t = geom.n, geom.L.dim, geom.n_tensor
        T, d = 2 * t, geom.n_unknowns
        basis = np.eye(T)
        ps, qs = pq_from_tensors(basis[:, :t], basis[:, t:])
        block = n * n * comb(m, 2)
        second = n * n * comb(m, 2 if geom.exact else 3)
        R = 2 * block + 2 * second

        # Second pair: its block of A is the evaluators applied to the basis
        # stack, built first, while no triplet is held, to keep the peak low.
        lins = (dpq_matrices(geom, ps, qs, geom.kappa0) if geom.exact
                else integrability_matrices(geom, ps, qs))
        stacked = np.concatenate([lin.reshape(T, -1) for lin in lins], axis=1).T
        del lins
        rows, cols = np.nonzero(stacked)
        a_rows, a_vals = (2 * block + rows) * d + cols, stacked[rows, cols]
        del stacked, rows, cols

        # Curvature pair: M + p^p + q^q = M_CH and Lam + p^q - q^p = Lam_CH,
        # with r0 the evaluators at p = q = 0.
        zero = np.zeros((n, n, m))
        r0 = np.zeros(R)
        r0[:block] = tpq_matrix(geom, zero, zero).ravel()
        r0[block:2 * block] = wpq_matrix(geom, zero, zero).ravel()

        # Quadratic terms, left stack by right stack: p^p + q^q and p^q - q^p
        # into the curvature pair; 4 kappa_l ^ q into d_p and -4 kappa_l ^ p
        # into d_q, kappa_l Id the stack of kernel rows (none when kappa-free).
        # The sign is read here, at call time, as dpq_matrices reads it.
        s4 = 4.0 * intrinsic.KAPPA_TERM_SIGN
        kernel_id = geom.kernel[:, None, None, :] * np.eye(n)[:, :, None]
        q_rows, q_cols, q_vals = _wedge_triplets(
            geom.ext, d, [(0, ps), (0, qs), (T, kernel_id)], [(0, ps), (0, qs)],
            rows=np.array([[0, block], [block, 0], [2 * block + second, 2 * block]]),
            scales=np.array([[1.0, 1.0], [-1.0, 1.0], [-s4, s4]]))

        # Keep the first row of each group; the kept rows are numbered in
        # the order of the full ones, so the triplets stay sorted.
        kept, self.row_map, self.row_sign = _row_groups(
            r0, d, a_rows, a_vals, q_rows, q_cols, q_vals)
        self.multiplicity = np.bincount(self.row_map).astype(float)
        number = np.full(R, -1)
        number[kept] = np.arange(len(kept))

        def renumber(rows):
            row, i = np.divmod(rows, d)
            mask = number[row] >= 0
            return mask, number[row[mask]] * d + i[mask]

        a_mask, self.a_rows = renumber(a_rows)
        q_mask, self.q_rows = renumber(q_rows)
        self.r0, self.a_vals = r0[kept], a_vals[a_mask]
        self.q_cols, self.q_vals = q_cols[q_mask], q_vals[q_mask]
        self.shape = (len(self.r0), d)
        # The (r * d + i) bin of every triplet, Q then A; the bins of S
        # starts are copy s offset by s * R * d, grown on demand and sliced,
        # since rebuilding them costs more than a one-start bincount.  The
        # weights of S starts are written into one buffer, grown likewise:
        # a fresh one on every call costs page faults.
        self._rows = np.concatenate([self.q_rows, self.a_rows])
        self._batch_rows = self._rows
        self._weights = np.empty((0, len(self._rows)))

    def _A_plus_Qx(self, X: np.ndarray) -> np.ndarray:
        """A + Q x as (S, R, d) for each row x of X (S, d): one np.bincount
        over S copies of the triplets, each start's Q weights v x[j] before
        its A weights, so each start's bins are summed in the order of a
        one-start call and A is added last."""
        S, nq, count = len(X), len(self.q_vals), len(self._rows)
        size = math.prod(self.shape)
        if len(self._weights) < S:
            self._batch_rows = (self._rows + size * np.arange(S)[:, None]).ravel()
            self._weights = np.empty((S, count))
            self._weights[:, nq:] = self.a_vals
        weights = self._weights[:S]
        np.multiply(X.take(self.q_cols, axis=1), self.q_vals, out=weights[:, :nq])
        return np.bincount(self._batch_rows[:S * count], weights=weights.ravel(),
                           minlength=S * size).reshape((S,) + self.shape)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """r(x) on the kept rows for one (d,) point, or each row of an (S, d)
        batch as (S, R)."""
        X = x.reshape(-1, x.shape[-1])
        r = self.r0 + (self._A_plus_Qx(X) @ X[:, :, None])[..., 0]
        return r.reshape(x.shape[:-1] + r.shape[-1:])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """The (R, d) Jacobian at one (d,) point, or (S, R, d) for a batch."""
        X = x.reshape(-1, x.shape[-1])
        return self._A_plus_Qx(2.0 * X).reshape(x.shape[:-1] + self.shape)


# -- damped least squares ---------------------------------------------

# Bound on S * R * d, the floats of one batched Jacobian on the kept rows:
# solve runs its starts in chunks of at most max(1, LM_BATCH // (R * d)).
LM_BATCH = 2 ** 16

# Why a start stopped, in the order of its tests.
STOP_REASONS = ("residual", "gradient", "iterations", "damping")
_RESIDUAL, _GRADIENT, _ITERATIONS, _DAMPING = range(len(STOP_REASONS))


@dataclass(frozen=True)
class StartStop:
    """How one start ended: its accepted steps, its final damping and its
    stop reason, one of STOP_REASONS."""

    iterations: int
    damping: float
    reason: str


def _solve_one(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, rhs, rcond=None)[0]


def _solve_steps(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Steps of an (S, d, d) stack of damped normal equations.  When the
    stacked solve meets a singular matrix, each start is solved alone, and
    only the singular ones take the least-squares step."""
    try:
        return np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.stack([_solve_one(m, b) for m, b in zip(M, rhs)])


def _sq_norms(r: np.ndarray) -> np.ndarray:
    # A stacked (1, R) @ (R, 1) product: bit-equal to r @ r, which a sum or
    # an einsum is not.
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _gauss_newton(fun: CompiledResidual, w: np.ndarray, x: np.ndarray, r: np.ndarray):
    """The gradient (w J)^T (w r) and the matrix (w J)^T (w J) of the
    weighted cost |w r|^2 at each row of x (S, d), r its residuals (S, R)."""
    wJ = fun.jacobian(x)
    wJ *= w[:, None]
    wJT = wJ.transpose(0, 2, 1)
    return (wJT @ (w * r)[:, :, None])[..., 0], wJT @ wJ


def _lm_minimize(fun: CompiledResidual, x0: np.ndarray):
    """Levenberg-Marquardt from each row of x0, an (S, d) batch of starts.

    It runs on the kept rows of fun, each weighted by its multiplicity m, so
    the cost sum m r^2, the gradient J^T (m r) and the Gauss-Newton matrix
    J^T diag(m) J are those of the full rows in exact arithmetic; they are
    taken as |w r|^2, (w J)^T (w r) and (w J)^T (w J) with w = sqrt(m), which
    are bit-equal to the unweighted forms when no row repeats.  The
    max-norm residual of the kept rows is that of the full rows.

    The starts run in lockstep, and each keeps its own damping, iteration
    count and stop tests, so it takes exactly the steps it would take
    alone: every batched product here is bit-equal to its one-start form.
    A round begins an iteration for each start whose last step was accepted
    (the iteration cap and the residual test, then, for the starts that go
    on, the Jacobian, the gradient test and the normal equations), retires
    the starts that stopped, then lets every live start try one damped
    step; a rejected step raises the damping, and a damping past
    LM_DAMPING_MAX stops the start.  Retired starts leave the live arrays.

    Returns the final points (S, d), their max-norm residuals (S,) and a
    StartStop per start.
    """
    S, d = x0.shape
    x_end, res_end = np.empty((S, d)), np.empty(S)
    iters_end, lam_end, why_end = np.empty(S, dtype=int), np.empty(S), np.empty(S, dtype=int)
    eye = np.eye(d)
    w = np.sqrt(fun.multiplicity)
    live = np.arange(S)
    x = x0.copy()
    r = fun(x)
    cost = _sq_norms(w * r)
    lam = np.full(S, LM_DAMPING)
    iters = np.zeros(S, dtype=int)
    g, H, D = np.empty((S, d)), np.empty((S, d, d)), np.empty((S, d, d))
    # fresh marks the starts whose last step was accepted (the first round
    # begins every start), accepted counts them; no start has taken more
    # than `rounds` steps, so the iteration cap is only tested once rounds
    # reaches it.
    fresh, accepted, rounds = None, S, 0
    while True:
        # Begin an iteration for each fresh start: its stop tests, gradient
        # and damped normal equations (D is max(diag H, floor) on the diagonal).
        if accepted:
            whole = accepted == len(live)
            sel = slice(None) if whole else fresh
            codes = np.where(np.abs(r[sel]).max(axis=1) < LM_RESIDUAL_STOP, _RESIDUAL, -1)
            if rounds >= LM_MAX_ITERS:
                codes[iters[sel] == LM_MAX_ITERS] = _ITERATIONS
            # Only the starts that go on build their Jacobian.
            go = codes < 0
            going = int(np.count_nonzero(go))
            if going < len(codes):
                sel = np.flatnonzero(go) if whole else np.flatnonzero(fresh)[go]
            if going:
                gf, Hf = _gauss_newton(fun, w, x[sel], r[sel])
                Df = np.maximum(Hf, LM_DIAG_FLOOR) * eye
                codes[go] = np.where(np.abs(gf).max(axis=1) < LM_GRADIENT_STOP, _GRADIENT, -1)
                if going == len(live):
                    g, H, D = gf, Hf, Df
                else:
                    g[sel], H[sel], D[sel] = gf, Hf, Df
            if whole:
                stop = codes
            else:
                stop[fresh] = codes
        if stop.max() >= 0:
            done = stop >= 0
            out = live[done]
            x_end[out], res_end[out] = x[done], np.abs(r[done]).max(axis=1)
            iters_end[out], lam_end[out], why_end[out] = iters[done], lam[done], stop[done]
            keep = ~done
            live, x, r, cost, lam, iters, g, H, D = (
                a[keep] for a in (live, x, r, cost, lam, iters, g, H, D))
            if not live.size:
                break
        # One damped step for every live start.
        rounds += 1
        x_new = x + _solve_steps(H + lam[:, None, None] * D, -g)
        r_new = fun(x_new)
        cost_new = _sq_norms(w * r_new)
        fresh = cost_new < cost
        accepted = int(np.count_nonzero(fresh))
        if accepted == len(live):
            x, r, cost = x_new, r_new, cost_new
            lam = np.maximum(lam / 3.0, LM_DAMPING_MIN)
            iters += 1
            continue
        if accepted:
            x[fresh], r[fresh], cost[fresh] = x_new[fresh], r_new[fresh], cost_new[fresh]
            lam = np.where(fresh, np.maximum(lam / 3.0, LM_DAMPING_MIN), lam * 4.0)
            iters += fresh
        else:
            lam = lam * 4.0
        stop = np.where(lam > LM_DAMPING_MAX, _DAMPING, -1)
    stops = [StartStop(int(i), float(l), STOP_REASONS[why])
             for i, l, why in zip(iters_end, lam_end, why_end)]
    return x_end, res_end, stops


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
    start_stops: list


def _gauge_angle(Sa: np.ndarray, Sb: np.ndarray):
    """Rotation making the dominant tensor entry land entirely in Sa, >= 0."""
    mags = Sa ** 2 + Sb ** 2
    if mags.max() < GAUGE_PRUNE:
        return 0.0, 0
    lead = int(np.argmax(mags))
    return math.atan2(Sb[lead], Sa[lead]), lead


def solve(geom: Geometry, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Multi-start damped least squares over the candidate unknowns.

    Start s is drawn from default_rng((seed, s)); the starts run in lockstep
    in chunks bounded by LM_BATCH, and each start's result does not depend
    on the chunking.  The rotation gauge is left free during optimization
    (it only creates a flat direction) and normalized after the fact.  The
    candidate, gauge note and per-equation report are those of the
    lowest-index start below the success threshold, or of the lowest
    residual when no start is below it; best_residual is the minimum.
    """
    fun = CompiledResidual(geom)
    d = geom.n_unknowns
    x0 = np.array([np.random.default_rng((cfg.seed, s)).uniform(-1.0, 1.0, size=d)
                   for s in range(cfg.starts)])
    chunk = max(1, LM_BATCH // math.prod(fun.shape))
    xs, residuals, stops = [], [], []
    for lo in range(0, cfg.starts, chunk):
        x, res, st = _lm_minimize(fun, x0[lo:lo + chunk])
        xs.extend(x)
        residuals.extend(res.tolist())
        stops.extend(st)
    finals = list(zip(residuals, range(cfg.starts), xs))
    best_res = min(residuals)

    solved = [f for f in finals if f[0] < cfg.success_threshold]
    # The reported start: the first solved one, else the lowest residual.
    # Among solved starts the lowest residual is decided by rounding noise.
    best_x = solved[0][2] if solved else min(finals, key=lambda f: (f[0], f[1]))[2]
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
        start_stops=stops,
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


def scan_curvature(family, values, cfg: SolveConfig = SolveConfig(), *,
                   polish: bool = True) -> ScanResult:
    """Residual landscape of a one-parameter family of Kahler algebras at
    the parameters values.

    Grid minima below tolerance.POLISH_FLOOR are refined by golden-section search
    on the best-residual function, so feasible parameters need not sit
    on the grid.  Geometries whose Kahler form is not exact fall back to
    the kappa-free stack.
    """
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
