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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .connection import ConnectionData, CurvatureData, ch_model
from .forms import (
    DEFAULT_TOL,
    Form,
    FormMatrix,
    ZeroTolerance,
    apply_J,
    kahler_form,
    wedge_matrix,
)
from .lie import AdaptedBasis, LieAlgebra, ce_differential

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


@dataclass(frozen=True)
class PSKCandidate:
    """(Sa, Sb) coefficients of q plus the primitive one-form kappa."""

    Sa: SymTensor3
    Sb: SymTensor3
    kappa: Form

    @property
    def n(self) -> int:
        return self.Sa.n

    def validate(self, L: LieAlgebra, tol: ZeroTolerance = DEFAULT_TOL) -> None:
        """Check d(kappa) = omega_S against the supplied algebra."""
        omega = kahler_form(self.n)
        res = (ce_differential(L, self.kappa) - omega).norm_inf()
        if res > tol.bound(1.0):
            raise ValueError(f"kappa is not a primitive of omega_S (residual {res:.3e})")


def make_candidate(L: LieAlgebra, B: AdaptedBasis, Sa: SymTensor3, Sb: SymTensor3,
                   kappa: Form, tol: ZeroTolerance = DEFAULT_TOL) -> PSKCandidate:
    cand = PSKCandidate(Sa, Sb, kappa)
    cand.validate(L, tol)
    return cand


def pq_from_tensors(Sa: SymTensor3, Sb: SymTensor3):
    """Symmetric matrices of one-forms: q^i_j = sum_k Sa[ijk] a^k + Sb[ijk] b^k
    and p = J(q) entrywise."""
    n = Sa.n
    m = 2 * n
    q_rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            coeffs = {}
            for k in range(1, n + 1):
                va = Sa.get(i, j, k)
                vb = Sb.get(i, j, k)
                if va:
                    coeffs[(k,)] = coeffs.get((k,), 0.0) + va
                if vb:
                    coeffs[(n + k,)] = coeffs.get((n + k,), 0.0) + vb
            row.append(Form(m, 1, coeffs))
        q_rows.append(row)
    q = FormMatrix(q_rows)
    p = q.map(apply_J)
    return p, q


def build_pq(cand: PSKCandidate):
    """Candidate -> (p, q); torsion vanishes by total symmetry and is asserted."""
    p, q = pq_from_tensors(cand.Sa, cand.Sb)
    scale = 1.0 + max(cand.Sa.norm_inf(), cand.Sb.norm_inf())
    res = torsion_residual(p, q)
    if res > 1e-12 * scale:
        raise AssertionError(f"total symmetry should kill torsion, residual {res:.3e}")
    return p, q


def _coframe_column(n: int, block: str) -> FormMatrix:
    m = 2 * n
    if block == "a":
        return FormMatrix([[Form.basis(m, i)] for i in range(1, n + 1)])
    return FormMatrix([[Form.basis(m, n + i)] for i in range(1, n + 1)])


def torsion_residual(p: FormMatrix, q: FormMatrix) -> float:
    """Max norm of p^a + q^b and p^b - q^a (vector-valued two-forms)."""
    n = p.rows
    a = _coframe_column(n, "a")
    b = _coframe_column(n, "b")
    first = wedge_matrix(p, a) + wedge_matrix(q, b)
    second = wedge_matrix(p, b) - wedge_matrix(q, a)
    return max(first.norm_inf(), second.norm_inf())


def tpq_residual(K: CurvatureData, p: FormMatrix, q: FormMatrix) -> float:
    """Deviation of M + p^p + q^q from the CH(n) model block."""
    return tpq_matrix(K, p, q).norm_inf()


def tpq_matrix(K: CurvatureData, p: FormMatrix, q: FormMatrix) -> FormMatrix:
    model = ch_model(K.n)
    return K.M + wedge_matrix(p, p) + wedge_matrix(q, q) - model.M


def wpq_residual(K: CurvatureData, p: FormMatrix, q: FormMatrix) -> float:
    """Deviation of Lam + p^q - q^p from the CH(n) model block."""
    return wpq_matrix(K, p, q).norm_inf()


def wpq_matrix(K: CurvatureData, p: FormMatrix, q: FormMatrix) -> FormMatrix:
    model = ch_model(K.n)
    return K.Lam + wedge_matrix(p, q) - wedge_matrix(q, p) - model.Lam


def dpq_matrices(p: FormMatrix, q: FormMatrix, kappa: Form, C: ConnectionData,
                 L: LieAlgebra):
    d = lambda mat: mat.map(lambda f: ce_differential(L, f))
    mu, lam = C.mu, C.lam
    s = KAPPA_TERM_SIGN
    kq = q.scalar_wedge(kappa)
    kp = p.scalar_wedge(kappa)
    rp = (d(p) + wedge_matrix(mu, p) + wedge_matrix(p, mu)
          + wedge_matrix(lam, q) - wedge_matrix(q, lam) + (4.0 * s) * kq)
    rq = (d(q) + wedge_matrix(mu, q) + wedge_matrix(q, mu)
          - wedge_matrix(lam, p) + wedge_matrix(p, lam) - (4.0 * s) * kp)
    return rp, rq


def dpq_residual(p: FormMatrix, q: FormMatrix, kappa: Form, C: ConnectionData,
                 L: LieAlgebra) -> float:
    """Max norm of the two derivative equations for (p, q)."""
    rp, rq = dpq_matrices(p, q, kappa, C, L)
    return max(rp.norm_inf(), rq.norm_inf())


def integrability_matrices(K: CurvatureData, p: FormMatrix, q: FormMatrix):
    omega_s = kahler_form(K.n)
    M, Lam = K.M, K.Lam
    r1 = (wedge_matrix(M, p) - wedge_matrix(p, M)
          + wedge_matrix(Lam, q) + wedge_matrix(q, Lam)
          + 4.0 * q.scalar_wedge(omega_s))
    r2 = (wedge_matrix(M, q) - wedge_matrix(q, M)
          - wedge_matrix(Lam, p) - wedge_matrix(p, Lam)
          - 4.0 * p.scalar_wedge(omega_s))
    return r1, r2


def integrability_residual(K: CurvatureData, p: FormMatrix, q: FormMatrix) -> float:
    """Max norm of the kappa-free integrability pair (three-form equations)."""
    r1, r2 = integrability_matrices(K, p, q)
    return max(r1.norm_inf(), r2.norm_inf())


def rotate(p: FormMatrix, q: FormMatrix, s: float):
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
        "integrability_1": r1.norm_inf(),
        "integrability_2": r2.norm_inf(),
    }
