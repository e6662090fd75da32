"""Candidate data (p, q, kappa) and the evaluators of the intrinsic PSK equations.

A candidate is a pair of totally symmetric 3-tensors (the a- and
b-coefficients of the symmetric matrix of one-forms q) plus a primitive
one-form kappa of the invariant Kahler form.  p is always J(q).  Each
tensor is a (t,) float array over sym_triples(n), t = comb(n + 2, 3).

Sign convention: the derivative equations are evaluated as

    dp + (mu^p + p^mu) + (lam^q - q^lam) + 4 kappa^q = 0
    dq + (mu^q + q^mu) - (lam^p - p^lam) - 4 kappa^p = 0

with d(kappa) = +omega_S.  This is the convention under which the
worked product examples and the CH(1) closed forms are consistent; see
KAPPA_TERM_SIGN and its regression test.

p, q and every residual matrix are dense (n, n, comb(2n, k)) arrays on the
kernel of forms.DenseExterior, like the connection and curvature blocks;
kappa is a (2n,) array of one-form coefficients.

Each evaluator takes (geom, p, q, ...) and reads its fixed data (the
connection, curvature, CH(n) model and the one DenseExterior whose sign
tables they share) from a Geometry; none builds a kernel or a model.
residual_matrices names every equation once; the solver's residual vector
and report, and all_residuals, read it.  pq_from_tensors and the evaluators
broadcast over leading axes, so the solver's compile applies them to a
stack of basis tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np

from .connection import ConnectionData, CurvatureData, ch_model, curvature, levi_civita
from .forms import DenseExterior, max_abs
from .lie import (
    AdaptedBasis,
    LieAlgebra,
    NotExactError,
    PreconditionError,
    d_matrix,
    solve_primitive,
)
from .tolerance import EXACT, TORSION, exact_bound

# +1 selects "+4 kappa^q" in the p-equation and "-4 kappa^p" in the
# q-equation; the opposite sign regime is not supported.
KAPPA_TERM_SIGN = +1.0


def sym_triples(n: int):
    """Sorted index triples (i <= j <= k), the canonical storage order."""
    return list(combinations_with_replacement(range(1, n + 1), 3))


@lru_cache(maxsize=None)
def _triple_index(t: int) -> np.ndarray:
    """(n, n, n) array: position in sym_triples(n) of the sorted (i, j, k),
    for the n with t = comb(n + 2, 3) triples."""
    n = 0
    while math.comb(n + 2, 3) < t:
        n += 1
    if math.comb(n + 2, 3) != t:
        raise PreconditionError(f"{t} is not the number of sorted index triples of any n")
    index = {tr: u for u, tr in enumerate(sym_triples(n))}
    out = np.array([index[tuple(sorted(ijk))] for ijk in product(range(1, n + 1), repeat=3)],
                   dtype=np.intp).reshape(n, n, n)
    out.flags.writeable = False
    return out


def sym_tensor(n: int, entries) -> np.ndarray:
    """Coefficient array over sym_triples(n) from (i, j, k, value) rows,
    each index in 1..n and in any order."""
    out = np.zeros(math.comb(n + 2, 3))
    index = _triple_index(len(out))
    for i, j, k, val in entries:
        if not all(1 <= x <= n for x in (i, j, k)):
            raise PreconditionError(f"bad triple {(i, j, k)}")
        out[index[i - 1, j - 1, k - 1]] = val
    return out


@dataclass(frozen=True, eq=False)
class PSKCandidate:
    """(Sa, Sb) coefficients of q, each a (t,) array over sym_triples(n),
    plus the primitive one-form kappa, a (2n,) array over a^1..a^n,
    b^1..b^n; the candidate keeps read-only copies."""

    Sa: np.ndarray
    Sb: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        Sa, Sb, kappa = (np.array(x, dtype=float) for x in (self.Sa, self.Sb, self.kappa))
        n = len(_triple_index(Sa.size))
        for name, arr, shape in (("Sa", Sa, (Sa.size,)), ("Sb", Sb, (Sa.size,)),
                                 ("kappa", kappa, (2 * n,))):
            if arr.shape != shape:
                raise PreconditionError(f"{name} must have shape {shape}, got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.kappa) // 2

    def validate(self, L: LieAlgebra) -> None:
        """Check d(kappa) = omega_S against the supplied algebra."""
        res = max_abs(d_matrix(L, 1) @ self.kappa - DenseExterior(2 * self.n).kahler())
        if res > exact_bound(1.0):
            raise PreconditionError(f"kappa is not a primitive of omega_S (residual {res:.3e})")


def j_action(q: np.ndarray) -> np.ndarray:
    """The complex structure on one-forms, a^i -> b^i and b^i -> -a^i, over
    the last axis of a (..., 2n) array."""
    n = q.shape[-1] // 2
    return np.concatenate([-q[..., n:], q[..., :n]], axis=-1)


def pq_from_tensors(Sa: np.ndarray, Sb: np.ndarray):
    """Symmetric (..., n, n, 2n) arrays of one-forms from (..., t) coefficient
    arrays over leading axes: q^i_j = sum_k Sa[ijk] a^k + Sb[ijk] b^k and
    p = J(q) entrywise."""
    index = _triple_index(Sa.shape[-1])
    q = np.concatenate([Sa[..., index], Sb[..., index]], axis=-1)
    return j_action(q), q


@dataclass
class Geometry:
    """The fixed data every evaluator reads: algebra, Levi-Civita connection,
    curvature, the CH(n) model blocks, the exterior kernel over a^1..b^n and
    the kappa split.

    kappa0 is the minimum-norm primitive of omega_S, a (2n,) array, and
    kernel the closed one-forms, an (r, 2n) array, so that every primitive
    is kappa0 + x @ kernel; kappa0 is None and kernel has no rows when
    omega_S is not exact.  ext's sign tables live as long as the geometry."""

    L: LieAlgebra
    B: AdaptedBasis
    conn: ConnectionData
    curv: CurvatureData
    model: CurvatureData
    ext: DenseExterior
    kappa0: np.ndarray | None
    kernel: np.ndarray
    exact: bool

    @property
    def n(self) -> int:
        return self.B.n

    @property
    def n_tensor(self) -> int:
        return len(sym_triples(self.n))

    @property
    def n_unknowns(self) -> int:
        return 2 * self.n_tensor + len(self.kernel)

    def unpack(self, x: np.ndarray):
        t = self.n_tensor
        kappa = self.kappa0 + x[2 * t:] @ self.kernel if self.exact else None
        return x[:t], x[t:2 * t], kappa

    def pack(self, cand: PSKCandidate) -> np.ndarray:
        """Inverse of unpack; projects the candidate's kappa on the kernel."""
        vec = [cand.Sa, cand.Sb]
        if self.exact:
            diff = cand.kappa - self.kappa0
            coeffs, *_ = np.linalg.lstsq(self.kernel.T, diff, rcond=None)
            if max_abs(coeffs @ self.kernel - diff) > EXACT:
                raise PreconditionError("candidate kappa is not a primitive plus kernel")
            vec.append(coeffs)
        return np.concatenate(vec)


def build_geometry(L: LieAlgebra, B: AdaptedBasis, *, allow_nonexact: bool = False) -> Geometry:
    """The geometry of (L, B).  Raises NotExactError when omega_S has no
    invariant primitive, unless allow_nonexact is set; a caller that reads a
    given candidate's kappa, not kappa0, sets it.  The connection, the
    curvature and the CH(n) model are wedged on the geometry's own ext, so
    each sign table is built once."""
    ext = DenseExterior(B.dim)
    conn = levi_civita(L, B, ext=ext)
    curv = curvature(conn, L, ext=ext)
    try:
        kappa0, kernel = solve_primitive(L, ext.kahler())
        exact = True
    except NotExactError:
        if not allow_nonexact:
            raise
        kappa0, kernel, exact = None, np.zeros((0, B.dim)), False
    return Geometry(L=L, B=B, conn=conn, curv=curv, model=ch_model(B.n, ext=ext), ext=ext,
                    kappa0=kappa0, kernel=kernel, exact=exact)


# -- the intrinsic equations --------------------------------------------


def torsion_residual(geom: Geometry, p: np.ndarray, q: np.ndarray) -> float:
    """Max norm of p^a + q^b and p^b - q^a (vector-valued two-forms)."""
    n = geom.n
    coframe = np.eye(2 * n)[:, None, :]
    a, b = coframe[:n], coframe[n:]
    wm = lambda X, Y: geom.ext.wedge_matrix(X, Y, 1, 1)
    return max(max_abs(wm(p, a) + wm(q, b)), max_abs(wm(p, b) - wm(q, a)))


def tpq_matrix(geom: Geometry, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Deviation of M + p^p + q^q from the CH(n) model block."""
    wm = lambda X, Y: geom.ext.wedge_matrix(X, Y, 1, 1)
    return geom.curv.M + wm(p, p) + wm(q, q) - geom.model.M


def wpq_matrix(geom: Geometry, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Deviation of Lam + p^q - q^p from the CH(n) model block."""
    wm = lambda X, Y: geom.ext.wedge_matrix(X, Y, 1, 1)
    return geom.curv.Lam + wm(p, q) - wm(q, p) - geom.model.Lam


def dpq_matrices(geom: Geometry, p: np.ndarray, q: np.ndarray, kappa: np.ndarray):
    """Left-hand sides of the derivative pair for (p, q, kappa)."""
    D = d_matrix(geom.L, 1)
    mu, lam = geom.conn.mu, geom.conn.lam
    wm = lambda X, Y: geom.ext.wedge_matrix(X, Y, 1, 1)
    s4 = 4.0 * KAPPA_TERM_SIGN
    rp = (p @ D.T + wm(mu, p) + wm(p, mu) + wm(lam, q) - wm(q, lam)
          + s4 * geom.ext.wedge(kappa, q, 1, 1))
    rq = (q @ D.T + wm(mu, q) + wm(q, mu) - wm(lam, p) + wm(p, lam)
          - s4 * geom.ext.wedge(kappa, p, 1, 1))
    return rp, rq


def integrability_matrices(geom: Geometry, p: np.ndarray, q: np.ndarray):
    """Left-hand sides of the kappa-free integrability pair (three-forms)."""
    ext = geom.ext
    omega_s = ext.kahler()
    M, Lam = geom.curv.M, geom.curv.Lam
    w21 = lambda X, Y: ext.wedge_matrix(X, Y, 2, 1)
    w12 = lambda X, Y: ext.wedge_matrix(X, Y, 1, 2)
    r1 = (w21(M, p) - w12(p, M) + w21(Lam, q) + w12(q, Lam)
          + 4.0 * ext.wedge(omega_s, q, 2, 1))
    r2 = (w21(M, q) - w12(q, M) - w21(Lam, p) - w12(p, Lam)
          - 4.0 * ext.wedge(omega_s, p, 2, 1))
    return r1, r2


def residual_matrices(geom: Geometry, p: np.ndarray, q: np.ndarray,
                      kappa: np.ndarray | None):
    """Yield (name, residual matrix) for every intrinsic equation but
    torsion: t_pq, w_pq, then d_p and d_q when kappa is given, then the
    kappa-free pair integrability_1 and integrability_2.  Each pair is
    evaluated only when it is reached, so a reader that stops early pays
    for no more."""
    yield "t_pq", tpq_matrix(geom, p, q)
    yield "w_pq", wpq_matrix(geom, p, q)
    if kappa is not None:
        d_p, d_q = dpq_matrices(geom, p, q, kappa)
        yield "d_p", d_p
        yield "d_q", d_q
    r1, r2 = integrability_matrices(geom, p, q)
    yield "integrability_1", r1
    yield "integrability_2", r2


def rotate(p: np.ndarray, q: np.ndarray, s: float):
    """Gauge rotation R_s(p, q) = (p cos s + q sin s, -p sin s + q cos s); on
    (Sa, Sb) it is the action on the coefficient tensors of q."""
    c, sn = math.cos(s), math.sin(s)
    return (p * c + q * sn, q * c - p * sn)


def all_residuals(geom: Geometry, cand: PSKCandidate) -> dict:
    """check's report of a candidate: torsion (also asserted, as total
    symmetry of the tensors kills it), then each equation's maximum, the
    derivative pair as one dpq = max(d_p, d_q)."""
    p, q = pq_from_tensors(cand.Sa, cand.Sb)
    torsion = torsion_residual(geom, p, q)
    if torsion > TORSION * (1.0 + max(max_abs(cand.Sa), max_abs(cand.Sb))):
        raise AssertionError(f"total symmetry should kill torsion, residual {torsion:.3e}")
    res = {name: max_abs(mat) for name, mat in residual_matrices(geom, p, q, cand.kappa)}
    return {"torsion": torsion, "t_pq": res["t_pq"], "w_pq": res["w_pq"],
            "dpq": max(res["d_p"], res["d_q"]),
            "integrability_1": res["integrability_1"], "integrability_2": res["integrability_2"]}
