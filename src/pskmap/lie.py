"""Lie algebras by structure constants and the differential on invariant forms.

Brackets are stored sparsely as (i, j, k, c) tuples with i < j meaning
[e_i, e_j] = sum_k c^k_ij e_k.  The exterior derivative of an invariant
one-form is (d alpha)(e_i, e_j) = -alpha([e_i, e_j]), extended to higher
degrees as a graded derivation; d*d = 0 is equivalent to the Jacobi
identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import DEFAULT_TOL, Form, ZeroTolerance, all_keys, sort_with_sign, wedge


class NotExactError(Exception):
    """A closed two-form has no invariant primitive within tolerance."""


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
        items = tuple(
            (i, j, k, c) for (i, j, k), c in sorted(merged.items()) if abs(c) > 1e-15
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
        raise ValueError(f"algebra dimension {L.dim} != adapted dimension {B.dim}")


def jacobi_residual(L: LieAlgebra) -> float:
    """Max over basis triples of the cyclic-sum bracket norm; 0 for a Lie algebra."""
    c = L.constants()
    # [[e_i,e_j],e_k] has components sum_m c[i,j,m] c[m,k,:]
    double = np.einsum("ijm,mkl->ijkl", c, c)
    cyc = double + np.transpose(double, (1, 2, 0, 3)) + np.transpose(double, (2, 0, 1, 3))
    return float(np.abs(cyc).max()) if L.dim else 0.0


def validate_lie_algebra(L: LieAlgebra) -> None:
    bound = 1e-10 * (1.0 + L.max_constant()) ** 2
    res = jacobi_residual(L)
    if res > bound:
        raise ValueError(f"Jacobi residual {res:.3e} exceeds bound {bound:.3e}")


# d-tables by algebra, oldest first; a scan builds one algebra per parameter
# value, so entries past the cap are evicted in insertion order.
_D_TABLE_CACHE: dict = {}
_D_TABLE_CACHE_MAX = 32


def _d_table(L: LieAlgebra):
    """d(e^k) for all basis one-forms, as degree-2 forms."""
    key = (L.dim, L.brackets)
    table = _D_TABLE_CACHE.get(key)
    if table is None:
        coeffs: list = [dict() for _ in range(L.dim)]
        for (i, j, k, c) in L.brackets:
            d = coeffs[k - 1]
            d[(i, j)] = d.get((i, j), 0.0) - c
        table = tuple(Form(L.dim, 2, d) for d in coeffs)
        _D_TABLE_CACHE[key] = table
        while len(_D_TABLE_CACHE) > _D_TABLE_CACHE_MAX:
            del _D_TABLE_CACHE[next(iter(_D_TABLE_CACHE))]
    return table


def ce_differential(L: LieAlgebra, x: Form) -> Form:
    """Exterior derivative of an invariant form, as a degree +1 derivation."""
    if x.m != L.dim:
        raise ValueError("form does not live over this algebra")
    table = _d_table(L)
    out = Form.zero(L.dim, x.degree + 1)
    for key, val in x.coeffs.items():
        for pos, idx in enumerate(key):
            head = Form(L.dim, pos, {key[:pos]: 1.0})
            tail = Form(L.dim, len(key) - pos - 1, {key[pos + 1:]: 1.0})
            sign = -1.0 if pos % 2 else 1.0
            out = out + (sign * val) * wedge(head, wedge(table[idx - 1], tail))
    return out


def d_matrix(L: LieAlgebra, k: int) -> np.ndarray:
    """Matrix of d from k-forms to (k+1)-forms, over all_keys(L.dim, k) and
    all_keys(L.dim, k + 1): column r is d of the r-th basis k-form, expanded
    as a graded derivation from the d-table."""
    keys = all_keys(L.dim, k)
    index = {key: r for r, key in enumerate(all_keys(L.dim, k + 1))}
    D = np.zeros((len(index), len(keys)))
    table = _d_table(L)
    for col, key in enumerate(keys):
        for pos, idx in enumerate(key):
            head, tail = key[:pos], key[pos + 1:]
            parity = -1.0 if pos % 2 else 1.0
            for rkey, val in table[idx - 1].coeffs.items():
                sign, out = sort_with_sign(head + rkey + tail)
                if sign:
                    D[index[out], col] += parity * sign * val
    return D


def closed_one_forms(L: LieAlgebra, tol: float = 1e-12) -> list:
    """Orthonormal basis of the invariant closed one-forms: the right singular
    vectors of d beyond its rank, counting singular values above
    tol * (largest) as in scipy.linalg.null_space(D, rcond=tol)."""
    D = d_matrix(L, 1)
    if np.abs(D).max() == 0.0:
        basis = np.eye(L.dim)
    else:
        _, s, vh = np.linalg.svd(D, full_matrices=True)
        basis = vh[int((s > s.max() * tol).sum()):].T
    out = []
    for col in range(basis.shape[1]):
        out.append(Form(L.dim, 1, {(i + 1,): basis[i, col] for i in range(L.dim)}))
    return out


def solve_primitive(L: LieAlgebra, omega: Form, tol: ZeroTolerance = DEFAULT_TOL):
    """Solve d(kappa) = omega for an invariant one-form kappa.

    Returns the minimum-norm particular solution together with a basis of
    the closed one-forms (the affine solution set is kappa + its span).
    Raises NotExactError when the least-squares residual of the linear
    system stays above tolerance.
    """
    if omega.degree != 2 or omega.m != L.dim:
        raise ValueError("expected a two-form over the algebra")
    scale = 1.0 + omega.norm_inf()
    if ce_differential(L, omega).norm_inf() > tol.bound(scale):
        raise ValueError("omega is not closed")
    pairs = all_keys(L.dim, 2)
    D = d_matrix(L, 1)
    w = np.array([omega.coeffs.get(p, 0.0) for p in pairs])
    x, *_ = np.linalg.lstsq(D, w, rcond=None)
    residual = float(np.abs(D @ x - w).max()) if len(w) else 0.0
    if residual > tol.bound(scale):
        raise NotExactError(
            f"no invariant primitive: least-squares residual {residual:.3e}"
        )
    kappa = Form(L.dim, 1, {(i + 1,): x[i] for i in range(L.dim)})
    return kappa, closed_one_forms(L)


# -- solvability helpers (used on c-map outputs) ----------------------


def _span_dim(vectors: np.ndarray, tol: float = 1e-9) -> int:
    if vectors.size == 0:
        return 0
    s = np.linalg.svd(vectors, compute_uv=False)
    if s.size == 0:
        return 0
    return int((s > tol * max(1.0, s[0])).sum())


def derived_series_dims(L: LieAlgebra, tol: float = 1e-9) -> tuple:
    """Dimensions of the derived series g, [g,g], [[g,g],[g,g]], ... until stable."""
    c = L.constants()
    basis = np.eye(L.dim)
    dims = [L.dim]
    current = basis
    for _ in range(L.dim + 1):
        k = current.shape[0]
        if k == 0:
            break
        products = []
        for p in range(k):
            for q in range(p + 1, k):
                products.append(np.einsum("i,j,ijk->k", current[p], current[q], c))
        products = np.array(products) if products else np.zeros((0, L.dim))
        rank = _span_dim(products, tol)
        if rank == 0:
            dims.append(0)
            break
        u, s, vt = np.linalg.svd(products)
        current = vt[:rank]
        dims.append(rank)
        if rank == dims[-2]:
            break
    return tuple(dims)


def is_solvable(L: LieAlgebra) -> bool:
    return derived_series_dims(L)[-1] == 0


def adjoint_matrix(L: LieAlgebra, vector: np.ndarray) -> np.ndarray:
    """ad_x as a matrix for x given by coefficients over the basis."""
    c = L.constants()
    return np.einsum("i,ijk->kj", vector, c)


def max_adjoint_imag(L: LieAlgebra, extra_samples: int = 8, seed: int = 0) -> float:
    """Largest relative imaginary part among adjoint eigenvalues, over the
    basis plus a few fixed random combinations."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    samples = [np.eye(L.dim)[i] for i in range(L.dim)]
    samples += [rng.standard_normal(L.dim) for _ in range(extra_samples)]
    for x in samples:
        eig = np.linalg.eigvals(adjoint_matrix(L, x))
        scale = 1.0 + np.abs(eig).max()
        worst = max(worst, float(np.abs(eig.imag).max() / scale))
    return worst


def is_completely_solvable(L: LieAlgebra, tol: float = 1e-2) -> bool:
    """Solvable with real adjoint eigenvalues (checked numerically).

    Nilpotent adjoint maps are numerically defective: a Jordan block of
    size k scatters its zero eigenvalue over a disc of radius about
    eps**(1/k), so the noise floor reaches ~1e-3 for the block sizes seen
    here.  A genuine rotation puts the relative imaginary part at the
    scale of the structure constants (~0.5), three orders above the
    default tolerance.
    """
    return is_solvable(L) and max_adjoint_imag(L) < tol


def killing_spectrum(L: LieAlgebra) -> np.ndarray:
    """Sorted eigenvalues of the Killing form B(x, y) = tr(ad_x ad_y)."""
    ads = [adjoint_matrix(L, np.eye(L.dim)[i]) for i in range(L.dim)]
    B = np.array([[np.trace(ai @ aj) for aj in ads] for ai in ads])
    return np.sort(np.linalg.eigvalsh(B))
