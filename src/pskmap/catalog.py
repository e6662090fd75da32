"""Ready-made algebras and candidates used by tests, fixtures and the CLI docs."""

from __future__ import annotations

import math

import numpy as np

from .intrinsic import PSKCandidate, SymTensor3
from .lie import AdaptedBasis, LieAlgebra
from .tolerance import FRAME_PRUNE


def abelian(n: int):
    return LieAlgebra.from_brackets(2 * n, []), AdaptedBasis(n)


def ch1(c: float):
    """Complex hyperbolic line with d(b) = c a^b, holomorphic sectional curvature -c^2/4."""
    return LieAlgebra.from_brackets(2, [(1, 2, 2, -c)]), AdaptedBasis(1)


def ch1_product(cs):
    """Product of CH(1) factors with d(b_i) = c_i a_i ^ b_i."""
    n = len(cs)
    entries = [(i, n + i, n + i, -c) for i, c in enumerate(cs, start=1)]
    return LieAlgebra.from_brackets(2 * n, entries), AdaptedBasis(n)


def four_dim_example():
    """The CH(1) x CH(1) product with factor constants sqrt(2) and 2."""
    return ch1_product([math.sqrt(2.0), 2.0])


def ch1_cubed(c: float):
    return ch1_product([c, c, c])


def flat_plus_ch1(c: float):
    """R^2 x CH(1): an abelian Kahler factor times a curved line."""
    return LieAlgebra.from_brackets(4, [(2, 4, 4, -c)]), AdaptedBasis(2)


def complex_hyperbolic(n: int):
    """Solvable model of CH(n) with holomorphic sectional curvature -1.

    Brackets: [A1, Ar] = Ar, [A1, Br] = Br (r >= 2), [A1, B1] = 2 B1,
    [Ar, Br] = 2 B1.
    """
    entries = [(1, n + 1, n + 1, 2.0)]
    for r in range(2, n + 1):
        entries.append((1, r, r, 1.0))
        entries.append((1, n + r, n + r, 1.0))
        entries.append((r, n + r, n + 1, 2.0))
    return LieAlgebra.from_brackets(2 * n, entries), AdaptedBasis(n)


# -- candidates -------------------------------------------------------


def ch1_candidate(c: float, gauge: float = 0.0) -> PSKCandidate:
    """Closed-form candidate on CH(1): coefficient x with x^2 = (4 - c^2)/2.

    Only satisfies the full system at c = 2 (where x = 0 works too) and
    c = 2/sqrt(3); elsewhere it solves the curvature equations but not
    the derivative pair.
    """
    x = math.sqrt(max(0.0, (4.0 - c * c) / 2.0))
    sa = SymTensor3.from_triples(1, [(1, 1, 1, x * math.cos(gauge))])
    sb = SymTensor3.from_triples(1, [(1, 1, 1, -x * math.sin(gauge))])
    return PSKCandidate(sa, sb, np.array([0.0, 1.0 / c]))


def ch1_flat_candidate(c: float = 2.0) -> PSKCandidate:
    """The zero candidate (flat special cone) on CH(1)."""
    sa = SymTensor3.zero(1)
    sb = SymTensor3.zero(1)
    return PSKCandidate(sa, sb, np.array([0.0, 1.0 / c]))


def four_dim_candidate() -> PSKCandidate:
    """Worked candidate on CH(1) x CH(1) with c = (sqrt(2), 2):
    q = [[a2, a1], [a1, 0]], p = [[b2, b1], [b1, 0]],
    kappa = b1/sqrt(2) + b2/2."""
    sa = SymTensor3.from_triples(2, [(1, 1, 2, 1.0)])
    sb = SymTensor3.zero(2)
    return PSKCandidate(sa, sb, np.array([0.0, 0.0, 1.0 / math.sqrt(2.0), 0.5]))


def ch1_cubed_candidate() -> PSKCandidate:
    """Cyclic off-diagonal candidate on CH(1)^3 at c = 2:
    q_{AB} = a_C cyclically, kappa = (b1 + b2 + b3)/2."""
    sa = SymTensor3.from_triples(3, [(1, 2, 3, 1.0)])
    sb = SymTensor3.zero(3)
    return PSKCandidate(sa, sb, np.array([0.0, 0.0, 0.0, 0.5, 0.5, 0.5]))


def complex_hyperbolic_candidate(n: int) -> PSKCandidate:
    """Flat-cone candidate on the CH(n) model: zero tensors, kappa = -b1/2."""
    kappa = np.zeros(2 * n)
    kappa[n] = -0.5
    return PSKCandidate(SymTensor3.zero(n), SymTensor3.zero(n), kappa)


# -- randomized Kahler inputs ----------------------------------------


def _unitary_conjugation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Real 2n x 2n orthogonal matrix commuting with the standard J."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    X, Y = q.real, q.imag
    return np.block([[X, -Y], [Y, X]])


def conjugate_algebra(L: LieAlgebra, R: np.ndarray) -> LieAlgebra:
    """Express the same algebra in the rotated basis e'_i = sum_k R[k, i] e_k."""
    c = L.constants()
    cp = np.einsum("ki,lj,klm,mp->ijp", R, R, c, R, optimize=True)
    entries = []
    m = L.dim
    for i in range(m):
        for j in range(i + 1, m):
            for p in range(m):
                if abs(cp[i, j, p]) > FRAME_PRUNE:
                    entries.append((i + 1, j + 1, p + 1, cp[i, j, p]))
    return LieAlgebra.from_brackets(m, entries)


def random_kahler_algebra(n: int, rng: np.random.Generator, rotate: bool = True):
    """Random CH(1)^n product (optionally in a random unitary frame).

    Always Kahler with exact invariant Kahler form, so the full pipeline
    applies.
    """
    cs = rng.uniform(1.2, 2.8, size=n)
    L, B = ch1_product(list(cs))
    if rotate and n > 1:
        L = conjugate_algebra(L, _unitary_conjugation(n, rng))
    return L, B
