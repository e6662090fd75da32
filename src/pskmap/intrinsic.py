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
kappa is a (2n,) array of one-form coefficients.  pq_from_tensors and the
evaluators of the derivative and integrability pairs broadcast over leading
axes, so the solver's compile applies them to a stack of basis tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np

from .connection import ConnectionData, CurvatureData, ch_model
from .forms import DenseExterior, max_abs
from .lie import AdaptedBasis, LieAlgebra, PreconditionError, d_matrix
from .tolerance import TORSION, exact_bound

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


def make_candidate(L: LieAlgebra, B: AdaptedBasis, Sa: np.ndarray, Sb: np.ndarray,
                   kappa: np.ndarray) -> PSKCandidate:
    cand = PSKCandidate(Sa, Sb, kappa)
    cand.validate(L)
    return cand


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


def build_pq(cand: PSKCandidate):
    """Candidate -> (p, q); torsion vanishes by total symmetry and is asserted."""
    p, q = pq_from_tensors(cand.Sa, cand.Sb)
    scale = 1.0 + max(max_abs(cand.Sa), max_abs(cand.Sb))
    res = torsion_residual(p, q)
    if res > TORSION * scale:
        raise AssertionError(f"total symmetry should kill torsion, residual {res:.3e}")
    return p, q


def torsion_residual(p: np.ndarray, q: np.ndarray) -> float:
    """Max norm of p^a + q^b and p^b - q^a (vector-valued two-forms)."""
    n = p.shape[0]
    ext = DenseExterior(2 * n)
    coframe = np.eye(2 * n)[:, None, :]
    a, b = coframe[:n], coframe[n:]
    wm = lambda X, Y: ext.wedge_matrix(X, Y, 1, 1)
    return max(max_abs(wm(p, a) + wm(q, b)), max_abs(wm(p, b) - wm(q, a)))


def tpq_matrix(K: CurvatureData, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Deviation of M + p^p + q^q from the CH(n) model block."""
    ext = DenseExterior(2 * K.n)
    wm = lambda X, Y: ext.wedge_matrix(X, Y, 1, 1)
    return K.M + wm(p, p) + wm(q, q) - ch_model(K.n).M


def wpq_matrix(K: CurvatureData, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Deviation of Lam + p^q - q^p from the CH(n) model block."""
    ext = DenseExterior(2 * K.n)
    wm = lambda X, Y: ext.wedge_matrix(X, Y, 1, 1)
    return K.Lam + wm(p, q) - wm(q, p) - ch_model(K.n).Lam


def kappa_terms(kappa: np.ndarray, p: np.ndarray, q: np.ndarray):
    """The kappa terms (4 kappa^q, -4 kappa^p) of the derivative pair."""
    ext = DenseExterior(kappa.shape[-1])
    s4 = 4.0 * KAPPA_TERM_SIGN
    return s4 * ext.wedge(kappa, q, 1, 1), -s4 * ext.wedge(kappa, p, 1, 1)


def dpq_matrices(p: np.ndarray, q: np.ndarray, kappa: np.ndarray, C: ConnectionData,
                 L: LieAlgebra):
    """Left-hand sides of the derivative pair for (p, q, kappa)."""
    ext = DenseExterior(L.dim)
    D = d_matrix(L, 1)
    mu, lam = C.mu, C.lam
    wm = lambda X, Y: ext.wedge_matrix(X, Y, 1, 1)
    kp, kq = kappa_terms(kappa, p, q)
    rp = p @ D.T + wm(mu, p) + wm(p, mu) + wm(lam, q) - wm(q, lam) + kp
    rq = q @ D.T + wm(mu, q) + wm(q, mu) - wm(lam, p) + wm(p, lam) + kq
    return rp, rq


def integrability_matrices(K: CurvatureData, p: np.ndarray, q: np.ndarray):
    """Left-hand sides of the kappa-free integrability pair (three-forms)."""
    ext = DenseExterior(2 * K.n)
    omega_s = ext.kahler()
    M, Lam = K.M, K.Lam
    w21 = lambda X, Y: ext.wedge_matrix(X, Y, 2, 1)
    w12 = lambda X, Y: ext.wedge_matrix(X, Y, 1, 2)
    r1 = (w21(M, p) - w12(p, M) + w21(Lam, q) + w12(q, Lam)
          + 4.0 * ext.wedge(omega_s, q, 2, 1))
    r2 = (w21(M, q) - w12(q, M) - w21(Lam, p) - w12(p, Lam)
          - 4.0 * ext.wedge(omega_s, p, 2, 1))
    return r1, r2


def rotate(p: np.ndarray, q: np.ndarray, s: float):
    """Gauge rotation R_s(p, q) = (p cos s + q sin s, -p sin s + q cos s); on
    (Sa, Sb) it is the action on the coefficient tensors of q."""
    c, sn = math.cos(s), math.sin(s)
    return (p * c + q * sn, q * c - p * sn)


def all_residuals(L: LieAlgebra, B: AdaptedBasis, cand: PSKCandidate,
                  C: ConnectionData | None = None,
                  K: CurvatureData | None = None) -> dict:
    """Every intrinsic residual of a candidate, plus the kappa-free pair."""
    from .connection import curvature, levi_civita

    if C is None:
        C = levi_civita(L, B)
    if K is None:
        K = curvature(C, L)
    p, q = build_pq(cand)
    r1, r2 = integrability_matrices(K, p, q)
    return {
        "torsion": torsion_residual(p, q),
        "t_pq": max_abs(tpq_matrix(K, p, q)),
        "w_pq": max_abs(wpq_matrix(K, p, q)),
        "dpq": max(map(max_abs, dpq_matrices(p, q, cand.kappa, C, L))),
        "integrability_1": max_abs(r1),
        "integrability_2": max_abs(r2),
    }
