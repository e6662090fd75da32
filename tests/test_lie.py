import math

import numpy as np
import pytest

from pskmap.catalog import (
    abelian,
    ch1,
    ch1_cubed,
    ch1_product,
    complex_hyperbolic,
    flat_plus_ch1,
    four_dim_example,
    random_kahler_algebra,
)
from pskmap.forms import Form, kahler_form, wedge
from pskmap.lie import (
    LieAlgebra,
    NotExactError,
    _d1_matrix,
    ce_differential,
    closed_one_forms,
    jacobi_residual,
    solve_primitive,
)

from conftest import random_form

SQ2 = math.sqrt(2.0)


class TestJacobi:
    def test_abelian(self):
        L, _ = abelian(2)
        assert jacobi_residual(L) == 0.0

    def test_ch1(self):
        L, _ = ch1(2.0)
        assert jacobi_residual(L) == 0.0

    def test_corrupted_constants(self):
        # [A,B] = B, [A,C] = C, [B,C] = A + B fails the cyclic identity
        L = LieAlgebra.from_brackets(
            3, [(1, 2, 2, 1.0), (1, 3, 3, 1.0), (2, 3, 1, 1.0), (2, 3, 2, 1.0)]
        )
        assert jacobi_residual(L) > 0.5


class TestDifferential:
    def test_ch1_db(self):
        L, _ = ch1(2.0)
        db = ce_differential(L, Form.basis(2, 2))
        assert db.coeff(1, 2) == pytest.approx(2.0)

    def test_abelian_everything_closed(self, rng):
        L, _ = abelian(3)
        for _ in range(10):
            x = random_form(rng, 6, int(rng.integers(1, 4)))
            assert ce_differential(L, x).norm_inf() == 0.0

    def test_product_two_form(self):
        # d(b1 ^ b2) on the sqrt(2), 2 product
        L, _ = four_dim_example()
        x = wedge(Form.basis(4, 3), Form.basis(4, 4))
        dx = ce_differential(L, x)
        # = sqrt(2) a1^b1^b2 + 2 a2^b1^b2  (Leibniz sign on the second factor)
        assert dx.coeff(1, 3, 4) == pytest.approx(SQ2)
        assert dx.coeff(2, 3, 4) == pytest.approx(2.0)
        assert len(dx.coeffs) == 2

    def test_d_squared_zero_random(self, rng):
        algebras = [ch1(1.7)[0], four_dim_example()[0], complex_hyperbolic(2)[0],
                    complex_hyperbolic(3)[0], random_kahler_algebra(2, rng)[0]]
        count = 0
        for L in algebras:
            for _ in range(25):
                x = random_form(rng, L.dim, int(rng.integers(1, 3)))
                dd = ce_differential(L, ce_differential(L, x))
                assert dd.norm_inf() < 1e-9
                count += 1
        assert count >= 100


class TestSolvePrimitive:
    def test_ch1(self):
        L, _ = ch1(2.0)
        kappa, kernel = solve_primitive(L, kahler_form(1))
        assert (kappa - 0.5 * Form.basis(2, 2)).norm_inf() < 1e-12
        assert len(kernel) == 1
        assert abs(abs(kernel[0].coeff(1)) - 1.0) < 1e-12

    def test_abelian_not_exact(self):
        L, _ = abelian(1)
        with pytest.raises(NotExactError):
            solve_primitive(L, kahler_form(1))

    def test_product_primitive(self):
        L, _ = four_dim_example()
        kappa, kernel = solve_primitive(L, kahler_form(2))
        expect = Form(4, 1, {(3,): 1.0 / SQ2, (4,): 0.5})
        assert (kappa - expect).norm_inf() < 1e-12
        assert len(kernel) == 2

    def test_round_trip_and_kernel_closed(self, rng):
        for n in (1, 2, 3):
            L, _ = ch1_product(list(rng.uniform(1.2, 2.8, n)))
            omega = kahler_form(n)
            kappa, kernel = solve_primitive(L, omega)
            assert (ce_differential(L, kappa) - omega).norm_inf() < 1e-9
            for k in kernel:
                assert ce_differential(L, k).norm_inf() < 1e-12

    def test_rejects_non_closed(self):
        La, _ = complex_hyperbolic(2)
        bad = Form(4, 2, {(2, 3): 1.0})  # a2 ^ b1 is not closed here
        assert ce_differential(La, bad).norm_inf() > 0.1
        with pytest.raises(ValueError):
            solve_primitive(La, bad)

    def test_closed_one_forms_abelian(self):
        L, _ = abelian(2)
        assert len(closed_one_forms(L)) == 4


def test_closed_one_forms_match_scipy_null_space():
    # The numpy SVD basis is scipy.linalg.null_space's, bit for bit.
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(11)
    algebras = [four_dim_example()[0], ch1(2.0)[0], ch1_cubed(2.0)[0],
                flat_plus_ch1(2.0)[0], abelian(2)[0]]
    algebras += [complex_hyperbolic(n)[0] for n in (1, 2, 3, 4)]
    algebras += [random_kahler_algebra(n, rng)[0] for n in (1, 2, 3, 4) for _ in range(3)]
    algebras += [random_kahler_algebra(3, rng, rotate=False)[0]]
    for L in algebras:
        D = _d1_matrix(L)
        ref = np.eye(L.dim) if not D.any() else linalg.null_space(D, rcond=1e-12)
        expect = [Form(L.dim, 1, {(i + 1,): ref[i, c] for i in range(L.dim)})
                  for c in range(ref.shape[1])]
        got = closed_one_forms(L)
        assert [f.coeffs for f in got] == [f.coeffs for f in expect]
