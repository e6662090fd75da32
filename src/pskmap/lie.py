"""Lie algebras by structure constants and the differential on invariant forms.

Brackets are stored sparsely as (i, j, k, c) tuples with i < j meaning
[e_i, e_j] = sum_k c^k_ij e_k.  The exterior derivative of an invariant
one-form is (d alpha)(e_i, e_j) = -alpha([e_i, e_j]), extended to higher
degrees as a graded derivation; d*d = 0 is equivalent to the Jacobi
identity.  On dense forms over all_keys(dim, k) d is the matrix
d_matrix(L, k), expanded from the brackets each time it is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forms import all_keys, max_abs, sort_with_sign
from .tolerance import (
    BRACKET_PRUNE,
    DERIVED_RANK,
    JACOBI_INPUT,
    NULL_RCOND,
    PRUNE,
    exact_bound,
)


class NotExactError(Exception):
    """A closed two-form has no invariant primitive within tolerance."""


class PreconditionError(ValueError):
    """An input violates a precondition of the computation (a dimension,
    the Jacobi identity, a primitive, a configuration); the CLI reports it
    with exit code 3."""


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    brackets: tuple

    def __post_init__(self):
        seen = set()
        for (i, j, k, c) in self.brackets:
            if not (1 <= i < j <= self.dim and 1 <= k <= self.dim):
                raise ValueError(f"bad bracket indices ({i},{j},{k})")
            if (i, j, k) in seen:
                raise ValueError(f"duplicate bracket entry ({i},{j},{k})")
            if not math.isfinite(c):
                raise ValueError(f"non-finite bracket constant {c!r} at ({i},{j},{k})")
            seen.add((i, j, k))

    @classmethod
    def from_brackets(cls, dim: int, entries) -> "LieAlgebra":
        merged: dict = {}
        for (i, j, k, c) in entries:
            if i == j:
                continue
            if i > j:
                i, j, c = j, i, -c
            merged[(i, j, k)] = merged.get((i, j, k), 0.0) + float(c)
        # a NaN fails abs(c) <= BRACKET_PRUNE too, so it is kept for
        # __post_init__ to reject
        items = tuple(
            (i, j, k, c) for (i, j, k), c in sorted(merged.items())
            if not abs(c) <= BRACKET_PRUNE
        )
        return cls(dim, items)

    def constants(self) -> np.ndarray:
        """Dense antisymmetric tensor c[i,j,k] = coefficient of e_k in [e_i, e_j]."""
        c = np.zeros((self.dim, self.dim, self.dim))
        for (i, j, k, val) in self.brackets:
            c[i - 1, j - 1, k - 1] += val
            c[j - 1, i - 1, k - 1] -= val
        return c

    def max_constant(self) -> float:
        return max((abs(c) for (_, _, _, c) in self.brackets), default=0.0)


@dataclass(frozen=True)
class AdaptedBasis:
    """Marker for the ordering convention e_1..e_n = A_i, e_{n+1}..e_{2n} = B_i = J A_i.

    The metric is the identity in this basis; orthonormality is a
    convention, not data.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")

    @property
    def dim(self) -> int:
        return 2 * self.n


def check_adapted(L: LieAlgebra, B: AdaptedBasis) -> None:
    if L.dim != B.dim:
        raise PreconditionError(f"algebra dimension {L.dim} != adapted dimension {B.dim}")


def jacobi_residual(L: LieAlgebra) -> float:
    """Max over basis triples of the cyclic-sum bracket norm; 0 for a Lie algebra."""
    c = L.constants()
    # [[e_i,e_j],e_k] has components sum_m c[i,j,m] c[m,k,:]
    double = np.einsum("ijm,mkl->ijkl", c, c)
    cyc = double + np.transpose(double, (1, 2, 0, 3)) + np.transpose(double, (2, 0, 1, 3))
    return float(np.abs(cyc).max()) if L.dim else 0.0


def validate_lie_algebra(L: LieAlgebra) -> None:
    bound = JACOBI_INPUT * (1.0 + L.max_constant()) ** 2
    res = jacobi_residual(L)
    if res > bound:
        raise PreconditionError(f"Jacobi residual {res:.3e} exceeds bound {bound:.3e}")


def _d_rules(L: LieAlgebra) -> list:
    """d(e^k) = -sum c^k_ij e^i ^ e^j, read off the brackets: for each k the
    ((i, j), -c) pairs in bracket order, without constants of size at most
    PRUNE."""
    rules: list = [[] for _ in range(L.dim)]
    for (i, j, k, c) in L.brackets:
        if abs(c) > PRUNE:
            rules[k - 1].append(((i, j), -c))
    return rules


def d_matrix(L: LieAlgebra, k: int) -> np.ndarray:
    """Matrix of d from k-forms to (k+1)-forms, over all_keys(L.dim, k) and
    all_keys(L.dim, k + 1): column r is d of the r-th basis k-form, expanded
    as a graded derivation from the generators' rules."""
    keys = all_keys(L.dim, k)
    index = {key: r for r, key in enumerate(all_keys(L.dim, k + 1))}
    D = np.zeros((len(index), len(keys)))
    rules = _d_rules(L)
    for col, key in enumerate(keys):
        for pos, idx in enumerate(key):
            head, tail = key[:pos], key[pos + 1:]
            parity = -1.0 if pos % 2 else 1.0
            for rkey, val in rules[idx - 1]:
                sign, out = sort_with_sign(head + rkey + tail)
                if sign:
                    D[index[out], col] += parity * sign * val
    return D


def _pruned(x: np.ndarray) -> np.ndarray:
    return np.where(np.abs(x) > PRUNE, x, 0.0)


def closed_one_forms(L: LieAlgebra) -> np.ndarray:
    """Orthonormal basis of the invariant closed one-forms, as the rows of an
    (r, dim) array: the right singular vectors of d beyond its rank, counting
    singular values above NULL_RCOND * (largest) as in
    scipy.linalg.null_space(D, rcond=NULL_RCOND).  Entries of size at most
    PRUNE are zeroed."""
    D = d_matrix(L, 1)
    if np.abs(D).max() == 0.0:
        return np.eye(L.dim)
    _, s, vh = np.linalg.svd(D, full_matrices=True)
    return _pruned(vh[int((s > s.max() * NULL_RCOND).sum()):])


def solve_primitive(L: LieAlgebra, omega: np.ndarray):
    """Solve d(kappa) = omega for an invariant one-form kappa, with omega a
    two-form over all_keys(L.dim, 2).

    Returns the minimum-norm particular solution, a (dim,) array, together
    with closed_one_forms(L) (the affine solution set is kappa plus their
    span).  Raises NotExactError when the least-squares residual of the
    linear system stays above tolerance.exact_bound.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (len(all_keys(L.dim, 2)),):
        raise PreconditionError("expected a two-form over the algebra")
    scale = 1.0 + max_abs(omega)
    if max_abs(d_matrix(L, 2) @ omega) > exact_bound(scale):
        raise PreconditionError("omega is not closed")
    D = d_matrix(L, 1)
    x, *_ = np.linalg.lstsq(D, omega, rcond=None)
    residual = max_abs(D @ x - omega)
    if residual > exact_bound(scale):
        raise NotExactError(
            f"no invariant primitive: least-squares residual {residual:.3e}"
        )
    return _pruned(x), closed_one_forms(L)


# -- solvability helpers (used on c-map outputs) ----------------------


def derived_series_dims(L: LieAlgebra) -> tuple:
    """Dimensions of the derived series g, [g,g], [[g,g],[g,g]], ... until stable.

    Each step brackets all pairs of the current basis in one contraction and
    takes the rank and the next basis from one SVD."""
    c = L.constants()
    dims = [L.dim]
    current = np.eye(L.dim)
    for _ in range(L.dim + 1):
        k = current.shape[0]
        p, q = np.triu_indices(k, 1)
        if len(p) == 0:
            dims.append(0)
            break
        # [x_p, x_q] for p < q
        products = np.einsum("qj,pjk->pqk", current, np.tensordot(current, c, axes=(1, 0)))[p, q]
        _, s, vt = np.linalg.svd(products, full_matrices=False)
        rank = int((s > DERIVED_RANK * max(1.0, s[0])).sum())
        dims.append(rank)
        if rank == 0 or rank == dims[-2]:
            break
        current = vt[:rank]
    return tuple(dims)


def adjoint_matrix(L: LieAlgebra, vector: np.ndarray) -> np.ndarray:
    """ad_x as a matrix for x given by coefficients over the basis."""
    c = L.constants()
    return np.einsum("i,ijk->kj", vector, c)


def max_adjoint_imag(L: LieAlgebra) -> float:
    """Largest relative imaginary part among adjoint eigenvalues, over the
    basis plus eight fixed random combinations (seed 0).  The spectra of all
    samples come from one batched eigvals call."""
    rng = np.random.default_rng(0)
    c = L.constants()
    samples = [np.eye(L.dim)[i] for i in range(L.dim)]
    samples += [rng.standard_normal(L.dim) for _ in range(8)]
    # ad_x per sample, by the same einsum as adjoint_matrix (bit-identical)
    eig = np.linalg.eigvals(np.stack([np.einsum("i,ijk->kj", x, c) for x in samples]))
    scale = 1.0 + np.abs(eig).max(axis=1)
    return float((np.abs(eig.imag).max(axis=1) / scale).max(initial=0.0))


def killing_spectrum(L: LieAlgebra) -> np.ndarray:
    """Sorted eigenvalues of the Killing form B(x, y) = tr(ad_x ad_y)."""
    c = L.constants()
    # ad_{e_i}[k, j] = c[i, j, k], so tr(ad_i ad_j) = sum_{k,l} c[i, l, k] c[j, k, l]
    B = np.einsum("ilk,jkl->ij", c, c)
    return np.sort(np.linalg.eigvalsh(B))
