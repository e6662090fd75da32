"""Candidate data (p, q, kappa) and residuals of the intrinsic PSK equations.

A candidate is a pair of totally symmetric 3-tensors (the a- and
b-coefficients of the symmetric matrix of one-forms q) plus a primitive
one-form kappa of the invariant Kahler form.  p is always J(q).

Sign convention: the derivative equations are evaluated as

    dp + (mu^p + p^mu) + (lam^q - q^lam) + 4 kappa^q = 0
    dq + (mu^q + q^mu) - (lam^p - p^lam) - 4 kappa^p = 0

with d(kappa) = +omega_S.  This is the convention under which the
worked product examples and the CH(1) closed forms are consistent; see
KAPPA_TERM_SIGN and its regression test.

p, q and every residual matrix are dense (n, n, comb(2n, k)) arrays on the
kernel of forms.DenseExterior, like the connection and curvature blocks;
kappa is a (2n,) array of one-form coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .connection import ConnectionData, CurvatureData, ch_model
from .forms import DEFAULT_TOL, DenseExterior, ZeroTolerance, max_abs
from .lie import AdaptedBasis, LieAlgebra, PreconditionError, d_matrix

# +1 selects "+4 kappa^q" in the p-equation and "-4 kappa^p" in the
# q-equation; the opposite sign regime is not supported.
KAPPA_TERM_SIGN = +1.0


def sym_triples(n: int):
    """Sorted index triples (i <= j <= k), the canonical storage order."""
    return list(combinations_with_replacement(range(1, n + 1), 3))


class SymTensor3:
    """Totally symmetric 3-tensor stored on sorted index triples."""

    __slots__ = ("n", "data")

    def __init__(self, n: int, data=None):
        self.n = n
        clean = {}
        for key, val in (data or {}).items():
            key = tuple(sorted(key))
            if len(key) != 3 or not all(1 <= i <= n for i in key):
                raise ValueError(f"bad triple {key}")
            if val:
                clean[key] = float(val)
        self.data = clean

    @classmethod
    def zero(cls, n: int) -> "SymTensor3":
        return cls(n, {})

    @classmethod
    def from_triples(cls, n: int, entries) -> "SymTensor3":
        return cls(n, {(i, j, k): v for (i, j, k, v) in entries})

    @classmethod
    def from_vector(cls, n: int, vec) -> "SymTensor3":
        return cls(n, dict(zip(sym_triples(n), vec)))

    def get(self, i: int, j: int, k: int) -> float:
        return self.data.get(tuple(sorted((i, j, k))), 0.0)

    def to_vector(self) -> np.ndarray:
        return np.array([self.data.get(t, 0.0) for t in sym_triples(self.n)])

    def norm_inf(self) -> float:
        return max((abs(v) for v in self.data.values()), default=0.0)

    def __repr__(self) -> str:
        return f"SymTensor3(n={self.n}, {self.data})"


@dataclass(frozen=True, eq=False)
class PSKCandidate:
    """(Sa, Sb) coefficients of q plus the primitive one-form kappa, a (2n,)
    array over a^1..a^n, b^1..b^n; the candidate keeps a read-only copy."""

    Sa: SymTensor3
    Sb: SymTensor3
    kappa: np.ndarray

    def __post_init__(self):
        kappa = np.array(self.kappa, dtype=float)
        if kappa.shape != (2 * self.n,):
            raise PreconditionError(f"kappa must have shape ({2 * self.n},), got {kappa.shape}")
        kappa.flags.writeable = False
        object.__setattr__(self, "kappa", kappa)

    @property
    def n(self) -> int:
        return self.Sa.n

    def validate(self, L: LieAlgebra, tol: ZeroTolerance = DEFAULT_TOL) -> None:
        """Check d(kappa) = omega_S against the supplied algebra."""
        res = max_abs(d_matrix(L, 1) @ self.kappa - DenseExterior(2 * self.n).kahler())
        if res > tol.bound(1.0):
            raise PreconditionError(f"kappa is not a primitive of omega_S (residual {res:.3e})")


def make_candidate(L: LieAlgebra, B: AdaptedBasis, Sa: SymTensor3, Sb: SymTensor3,
                   kappa: np.ndarray, tol: ZeroTolerance = DEFAULT_TOL) -> PSKCandidate:
    cand = PSKCandidate(Sa, Sb, kappa)
    cand.validate(L, tol)
    return cand


def j_action(q: np.ndarray) -> np.ndarray:
    """The complex structure on one-forms, a^i -> b^i and b^i -> -a^i, over
    the last axis of a (..., 2n) array."""
    n = q.shape[-1] // 2
    return np.concatenate([-q[..., n:], q[..., :n]], axis=-1)


def pq_from_tensors(Sa: SymTensor3, Sb: SymTensor3):
    """Symmetric (n, n, 2n) arrays of one-forms: q^i_j = sum_k Sa[ijk] a^k + Sb[ijk] b^k
    and p = J(q) entrywise."""
    n = Sa.n
    q = np.zeros((n, n, 2 * n))
    for i, j, k in product(range(1, n + 1), repeat=3):
        q[i - 1, j - 1, k - 1] = Sa.get(i, j, k)
        q[i - 1, j - 1, n + k - 1] = Sb.get(i, j, k)
    return j_action(q), q


def build_pq(cand: PSKCandidate):
    """Candidate -> (p, q); torsion vanishes by total symmetry and is asserted."""
    p, q = pq_from_tensors(cand.Sa, cand.Sb)
    scale = 1.0 + max(cand.Sa.norm_inf(), cand.Sb.norm_inf())
    res = torsion_residual(p, q)
    if res > 1e-12 * scale:
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


def tpq_residual(K: CurvatureData, p: np.ndarray, q: np.ndarray) -> float:
    """Deviation of M + p^p + q^q from the CH(n) model block."""
    return max_abs(tpq_matrix(K, p, q))


def tpq_matrix(K: CurvatureData, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    ext = DenseExterior(2 * K.n)
    wm = lambda X, Y: ext.wedge_matrix(X, Y, 1, 1)
    return K.M + wm(p, p) + wm(q, q) - ch_model(K.n).M


def wpq_residual(K: CurvatureData, p: np.ndarray, q: np.ndarray) -> float:
    """Deviation of Lam + p^q - q^p from the CH(n) model block."""
    return max_abs(wpq_matrix(K, p, q))


def wpq_matrix(K: CurvatureData, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    ext = DenseExterior(2 * K.n)
    wm = lambda X, Y: ext.wedge_matrix(X, Y, 1, 1)
    return K.Lam + wm(p, q) - wm(q, p) - ch_model(K.n).Lam


def dpq_matrices(p: np.ndarray, q: np.ndarray, kappa: np.ndarray, C: ConnectionData,
                 L: LieAlgebra):
    ext = DenseExterior(L.dim)
    D = d_matrix(L, 1)
    mu, lam = C.mu, C.lam
    wm = lambda X, Y: ext.wedge_matrix(X, Y, 1, 1)
    s4 = 4.0 * KAPPA_TERM_SIGN
    rp = (p @ D.T + wm(mu, p) + wm(p, mu) + wm(lam, q) - wm(q, lam)
          + s4 * ext.wedge(kappa, q, 1, 1))
    rq = (q @ D.T + wm(mu, q) + wm(q, mu) - wm(lam, p) + wm(p, lam)
          - s4 * ext.wedge(kappa, p, 1, 1))
    return rp, rq


def dpq_residual(p: np.ndarray, q: np.ndarray, kappa: np.ndarray, C: ConnectionData,
                 L: LieAlgebra) -> float:
    """Max norm of the two derivative equations for (p, q)."""
    rp, rq = dpq_matrices(p, q, kappa, C, L)
    return max(max_abs(rp), max_abs(rq))


def integrability_matrices(K: CurvatureData, p: np.ndarray, q: np.ndarray):
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


def integrability_residual(K: CurvatureData, p: np.ndarray, q: np.ndarray) -> float:
    """Max norm of the kappa-free integrability pair (three-form equations)."""
    r1, r2 = integrability_matrices(K, p, q)
    return max(max_abs(r1), max_abs(r2))


def rotate(p: np.ndarray, q: np.ndarray, s: float):
    """Gauge rotation R_s(p, q) = (p cos s + q sin s, -p sin s + q cos s)."""
    c, sn = math.cos(s), math.sin(s)
    return (p * c + q * sn, q * c - p * sn)


def rotate_tensors(Sa: SymTensor3, Sb: SymTensor3, s: float):
    """Action of the gauge rotation on the coefficient tensors of q."""
    c, sn = math.cos(s), math.sin(s)
    n = Sa.n
    keys = set(Sa.data) | set(Sb.data)
    na, nb = {}, {}
    for key in keys:
        va, vb = Sa.data.get(key, 0.0), Sb.data.get(key, 0.0)
        na[key] = va * c + vb * sn
        nb[key] = vb * c - va * sn
    return SymTensor3(n, na), SymTensor3(n, nb)


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
        "t_pq": tpq_residual(K, p, q),
        "w_pq": wpq_residual(K, p, q),
        "dpq": dpq_residual(p, q, cand.kappa, C, L),
        "integrability_1": max_abs(r1),
        "integrability_2": max_abs(r2),
    }
