"""Levi-Civita connection and curvature blocks in an adapted coframe.

The connection is computed from the Koszul formula on the orthonormal
basis, 2<nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y>, then split
into the u(n) blocks mu (skew) and lambda (symmetric).  The structure
equation d(theta) = -omega ^ theta is asserted as an independent check,
because the Koszul route never solves it.

Every matrix of forms here is a dense array with the key axis last, on the
kernel of forms.DenseExterior; d is the matrix lie.d_matrix(L, k) acting on
that axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import DenseExterior, max_abs
from .lie import (
    AdaptedBasis,
    LieAlgebra,
    PreconditionError,
    check_adapted,
    d_matrix,
    validate_lie_algebra,
)
from .tolerance import EXACT, KOSZUL, exact_bound


class NotKahlerError(Exception):
    """The Levi-Civita connection fails the u(n) block shape."""


def _block_shape_residual(skew: np.ndarray, sym: np.ndarray) -> float:
    """Deviation of an (n, n, *) pair of blocks from (skew, symmetric)."""
    return max(max_abs(skew + skew.transpose(1, 0, 2)),
               max_abs(sym - sym.transpose(1, 0, 2)))


@dataclass(frozen=True)
class ConnectionData:
    """Blocks of the connection form, (n, n, 2n) arrays of one-forms over
    all_keys(2n, 1): mu is skew, lam is symmetric."""

    mu: np.ndarray
    lam: np.ndarray

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    def shape_residual(self) -> float:
        return _block_shape_residual(self.mu, self.lam)


@dataclass(frozen=True)
class CurvatureData:
    """Curvature blocks, (n, n, comb(2n, 2)) arrays of two-forms over
    all_keys(2n, 2): M is skew, Lam is symmetric."""

    M: np.ndarray
    Lam: np.ndarray

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def shape_residual(self) -> float:
        return _block_shape_residual(self.M, self.Lam)


def _koszul_matrix(L: LieAlgebra) -> np.ndarray:
    """Full connection one-form matrix omega^k_j with omega^k_j(e_i) = <nabla_{e_i} e_j, e_k>,
    as an (m, m, m) array indexed [k, j, i]."""
    c = L.constants()
    # gamma[i, j, k] = (c[i,j,k] - c[j,k,i] + c[k,i,j]) / 2
    gamma = 0.5 * (c - np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c))
    return gamma.transpose(2, 1, 0)


def _structural_residual(L: LieAlgebra, omega: np.ndarray,
                         ext: DenseExterior | None = None) -> float:
    """Max norm of d(theta) + omega ^ theta on the coframe column theta."""
    theta = np.eye(L.dim)[:, None, :]
    dtheta = d_matrix(L, 1).T[:, None, :]
    ext = ext or DenseExterior(L.dim)
    return max_abs(dtheta + ext.wedge_matrix(omega, theta, 1, 1))


def _u_shape_residual(omega: np.ndarray, n: int) -> float:
    """Deviation of omega from the u(n) block pattern [[mu, lam], [-lam, mu]]."""
    return max(max_abs(omega[:n, :n] - omega[n:, n:]),
               max_abs(omega[:n, n:] + omega[n:, :n]))


def levi_civita(L: LieAlgebra, B: AdaptedBasis, *,
                ext: DenseExterior | None = None) -> ConnectionData:
    """Connection blocks (mu, lam) of the left-invariant metric.

    Raises NotKahlerError when the computed matrix does not commute with
    the complex structure, which is exactly failure of the Kahler
    condition for the declared J.  The structure check wedges on ext, a
    DenseExterior(L.dim), built there when not given.
    """
    check_adapted(L, B)
    validate_lie_algebra(L)
    omega = _koszul_matrix(L)
    scale = 1.0 + L.max_constant()
    struct = _structural_residual(L, omega, ext)
    if struct > KOSZUL * scale:
        raise RuntimeError(f"structure equation residual {struct:.3e}; Koszul assembly bug")
    n = B.n
    shape = _u_shape_residual(omega, n)
    if shape > exact_bound(scale):
        raise NotKahlerError(f"u(n) shape residual {shape:.3e}")
    conn = ConnectionData(omega[:n, :n], omega[:n, n:])
    if conn.shape_residual() > exact_bound(scale):
        raise NotKahlerError(f"block symmetry residual {conn.shape_residual():.3e}")
    return conn


@dataclass(frozen=True)
class KahlerReport:
    domega_norm: float
    shape_residual: float

    def is_kahler(self) -> bool:
        return max(self.domega_norm, self.shape_residual) <= EXACT


def kahler_check(L: LieAlgebra, B: AdaptedBasis) -> KahlerReport:
    """Diagnostic: closedness of the invariant two-form and the u(n) shape residual."""
    check_adapted(L, B)
    domega = max_abs(d_matrix(L, 2) @ DenseExterior(L.dim).kahler())
    shape = _u_shape_residual(_koszul_matrix(L), B.n)
    return KahlerReport(domega_norm=domega, shape_residual=shape)


def curvature(C: ConnectionData, L: LieAlgebra, *,
              ext: DenseExterior | None = None) -> CurvatureData:
    """M = d(mu) + mu^mu - lam^lam and Lam = d(lam) + mu^lam + lam^mu,
    wedged on ext, a DenseExterior(L.dim), built here when not given."""
    D = d_matrix(L, 1)
    ext = ext or DenseExterior(L.dim)
    wm = lambda X, Y: ext.wedge_matrix(X, Y, 1, 1)
    M = C.mu @ D.T + wm(C.mu, C.mu) - wm(C.lam, C.lam)
    Lam = C.lam @ D.T + wm(C.mu, C.lam) + wm(C.lam, C.mu)
    return CurvatureData(M, Lam)


def ch_model(n: int, *, ext: DenseExterior | None = None) -> CurvatureData:
    """Curvature blocks of complex hyperbolic space CH(n) at holomorphic
    sectional curvature -1: M = -a^a^T - b^b^T,
    Lam = -a^b^T + b^a^T - 2 omega_S id, on ext, a DenseExterior(2n),
    built here when not given."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    ext = ext or DenseExterior(2 * n)
    coframe = np.eye(2 * n)
    a, b = coframe[:n], coframe[n:]
    outer = lambda x, y: ext.wedge(x[:, None], y[None, :], 1, 1)
    M = -outer(a, a) - outer(b, b)
    Lam = -outer(a, b) + outer(b, a) - 2.0 * np.eye(n)[:, :, None] * ext.kahler()
    return CurvatureData(M, Lam)
