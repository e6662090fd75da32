import math

import numpy as np
import pytest

from pskmap.catalog import (
    abelian,
    ch1,
    complex_hyperbolic,
    four_dim_example,
    random_kahler_algebra,
)
from pskmap.connection import (
    NotKahlerError,
    ch_model,
    curvature,
    kahler_check,
    levi_civita,
)
from pskmap.forms import DenseExterior, max_abs
from pskmap.lie import AdaptedBasis, LieAlgebra, d_matrix

SQ2 = math.sqrt(2.0)


def bianchi_residual(C, K, L) -> float:
    """Residual of the two differential curvature identities; vanishes whenever
    K was actually computed from C over a genuine Lie algebra."""
    D = d_matrix(L, 2)
    ext = DenseExterior(L.dim)
    mu, lam, M, Lam = C.mu, C.lam, K.M, K.Lam
    w21 = lambda X, Y: ext.wedge_matrix(X, Y, 2, 1)
    w12 = lambda X, Y: ext.wedge_matrix(X, Y, 1, 2)
    rM = M @ D.T - (w21(M, mu) - w12(mu, M) - w21(Lam, lam) + w12(lam, Lam))
    rL = Lam @ D.T - (w21(M, lam) - w12(mu, Lam) + w21(Lam, mu) - w12(lam, M))
    return max(max_abs(rM), max_abs(rL))


class TestLeviCivita:
    def test_abelian_flat(self):
        L, B = abelian(2)
        conn = levi_civita(L, B)
        assert max_abs(conn.mu) == 0.0
        assert max_abs(conn.lam) == 0.0

    def test_ch1(self):
        L, B = ch1(2.0)
        conn = levi_civita(L, B)
        assert max_abs(conn.mu) == 0.0
        assert max_abs(conn.lam[0, 0] + 2.0 * DenseExterior(2).basis(2)) == 0.0

    def test_product_diagonal(self):
        L, B = four_dim_example()
        conn = levi_civita(L, B)
        ext = DenseExterior(4)
        assert max_abs(conn.lam[0, 0] + SQ2 * ext.basis(3)) < 1e-14
        assert max_abs(conn.lam[1, 1] + 2.0 * ext.basis(4)) < 1e-14
        assert max_abs(conn.lam[0, 1]) == 0.0
        assert max_abs(conn.mu) == 0.0

    def test_not_kahler(self):
        # [A1, A2] = B1 alone breaks the u(n) block shape
        L = LieAlgebra.from_brackets(4, [(1, 2, 3, 1.0)])
        with pytest.raises(NotKahlerError):
            levi_civita(L, AdaptedBasis(2))


class TestKahlerCheck:
    def test_ch1_passes(self):
        L, B = ch1(2.0)
        rep = kahler_check(L, B)
        assert rep.domega_norm == 0.0
        assert rep.shape_residual == 0.0
        assert rep.is_kahler()

    def test_abelian_passes(self):
        L, B = abelian(1)
        assert kahler_check(L, B).is_kahler()

    def test_shape_violation_reported(self):
        L = LieAlgebra.from_brackets(4, [(1, 2, 3, 1.0)])
        rep = kahler_check(L, AdaptedBasis(2))
        assert rep.shape_residual > 0.1
        assert not rep.is_kahler()


class TestCurvature:
    def test_abelian(self):
        L, B = abelian(2)
        K = curvature(levi_civita(L, B), L)
        assert max_abs(K.M) == 0.0
        assert max_abs(K.Lam) == 0.0

    def test_ch1_matches_model(self):
        L, B = ch1(2.0)
        K = curvature(levi_civita(L, B), L)
        model = ch_model(1)
        assert max_abs(K.M) == 0.0
        assert max_abs(K.Lam[0, 0] + 4.0 * DenseExterior(2).basis(1, 2)) == 0.0
        assert max_abs(K.Lam - model.Lam) < 1e-12
        assert max_abs(K.M - model.M) < 1e-12

    def test_product_factor_curvatures(self):
        L, B = four_dim_example()
        K = curvature(levi_civita(L, B), L)
        ext = DenseExterior(4)
        assert max_abs(K.M) == 0.0
        # r1 = -2, r2 = -4 on the diagonal
        assert K.Lam[0, 0] @ ext.basis(1, 3) == pytest.approx(-2.0)
        assert K.Lam[1, 1] @ ext.basis(2, 4) == pytest.approx(-4.0)
        assert max_abs(K.Lam[0, 1]) == 0.0

    def test_model_algebra_reproduces_ch_model(self):
        for n in (1, 2, 3):
            L, B = complex_hyperbolic(n)
            K = curvature(levi_civita(L, B), L)
            model = ch_model(n)
            assert max_abs(K.M - model.M) < 1e-9
            assert max_abs(K.Lam - model.Lam) < 1e-9


class TestChModel:
    def test_n1(self):
        model = ch_model(1)
        assert max_abs(model.M) == 0.0
        assert model.Lam[0, 0] @ DenseExterior(2).basis(1, 2) == pytest.approx(-4.0)

    def test_n2_off_diagonal(self):
        model = ch_model(2)
        ext = DenseExterior(4)
        expect = -ext.basis(1, 4) + ext.basis(3, 2)
        assert max_abs(model.Lam[0, 1] - expect) == 0.0

    def test_skew_symmetry(self):
        for n in (1, 2, 4):
            model = ch_model(n)
            assert max_abs(model.M + model.M.transpose(1, 0, 2)) == 0.0
            assert max_abs(model.Lam - model.Lam.transpose(1, 0, 2)) == 0.0


class TestBianchi:
    def test_ch1(self):
        L, B = ch1(2.0)
        conn = levi_civita(L, B)
        assert bianchi_residual(conn, curvature(conn, L), L) < 1e-14

    def test_product(self):
        L, B = four_dim_example()
        conn = levi_civita(L, B)
        assert bianchi_residual(conn, curvature(conn, L), L) < 1e-14

    def test_mismatched_pair_fails(self, rng):
        from pskmap.connection import ConnectionData

        L, B = four_dim_example()
        conn = levi_civita(L, B)
        K = curvature(conn, L)
        noise = np.zeros((2, 2, 4))
        for i in range(2):
            for j in range(2):
                noise[i, j, int(rng.integers(1, 5)) - 1] = 0.5
        perturbed = ConnectionData(conn.mu, conn.lam + noise + noise.transpose(1, 0, 2))
        assert bianchi_residual(perturbed, K, L) > 1e-3


class TestInvariants:
    def test_all_kahler_residuals_small(self, rng):
        cases = [ch1(1.3), ch1(2.0), four_dim_example(), complex_hyperbolic(2),
                 random_kahler_algebra(2, rng)]
        count = 0
        for L, B in cases:
            for _ in range(20):
                rep = kahler_check(L, B)
                conn = levi_civita(L, B)
                K = curvature(conn, L)
                assert rep.domega_norm < 1e-9
                assert rep.shape_residual < 1e-9
                assert bianchi_residual(conn, K, L) < 1e-9
                assert conn.shape_residual() < 1e-10
                assert K.shape_residual() < 1e-10
                count += 1
        assert count >= 100
