import math

import numpy as np
import pytest

from pskmap.catalog import (
    _unitary_conjugation,
    abelian,
    ch1,
    ch1_cubed,
    ch1_product,
    complex_hyperbolic,
    conjugate_algebra,
    flat_plus_ch1,
    four_dim_example,
    random_kahler_algebra,
)
from pskmap.forms import PRUNE_EPS, DenseExterior, all_keys, max_abs
from pskmap.lie import (
    LieAlgebra,
    NotExactError,
    closed_one_forms,
    d_matrix,
    jacobi_residual,
    solve_primitive,
)

from dict_forms import ce_differential, dense, random_form

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


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_non_finite_constant_rejected(c):
    # from_brackets used to drop a NaN (abs(nan) > 1e-15 is False), leaving
    # the abelian algebra
    with pytest.raises(ValueError, match="non-finite"):
        LieAlgebra.from_brackets(2, [(1, 2, 2, c)])
    with pytest.raises(ValueError, match="non-finite"):
        LieAlgebra(2, ((1, 2, 2, c),))


class TestDifferential:
    """lie.d_matrix on dense forms."""

    def test_ch1_db(self):
        L, _ = ch1(2.0)
        db = d_matrix(L, 1) @ DenseExterior(2).basis(2)
        assert db[0] == pytest.approx(2.0)       # key (1, 2)

    def test_abelian_everything_closed(self, rng):
        L, _ = abelian(3)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            x = dense(random_form(rng, 6, k), 6, k)
            assert max_abs(d_matrix(L, k) @ x) == 0.0

    def test_product_two_form(self):
        # d(b1 ^ b2) on the sqrt(2), 2 product
        L, _ = four_dim_example()
        dx = d_matrix(L, 2) @ DenseExterior(4).basis(3, 4)
        keys = all_keys(4, 3)
        # = sqrt(2) a1^b1^b2 + 2 a2^b1^b2  (Leibniz sign on the second factor)
        assert dx[keys.index((1, 3, 4))] == pytest.approx(SQ2)
        assert dx[keys.index((2, 3, 4))] == pytest.approx(2.0)
        assert np.count_nonzero(dx) == 2

    def test_d_squared_zero_random(self, rng):
        algebras = [ch1(1.7)[0], four_dim_example()[0], complex_hyperbolic(2)[0],
                    complex_hyperbolic(3)[0], random_kahler_algebra(2, rng)[0]]
        count = 0
        for L in algebras:
            for _ in range(25):
                k = int(rng.integers(1, 3))
                x = dense(random_form(rng, L.dim, k), L.dim, k)
                dd = d_matrix(L, k + 1) @ (d_matrix(L, k) @ x)
                assert max_abs(dd) < 1e-9
                count += 1
        assert count >= 100


def _rotated_ch1_power(n):
    cs = [1.5, 2.5, 2.0][:n]
    L, _ = ch1_product(cs)
    return conjugate_algebra(L, _unitary_conjugation(n, np.random.default_rng(40 + n)))


# The catalog algebras plus CH(1)^n in a random unitary frame, n = 1..3.
D_MATRIX_ALGEBRAS = {
    "four_dim": lambda: four_dim_example()[0],
    "ch1": lambda: ch1(2.0)[0],
    "ch1_cubed": lambda: ch1_cubed(2.0)[0],
    "flat_plus_ch1": lambda: flat_plus_ch1(2.0)[0],
    "abelian": lambda: abelian(2)[0],
    **{f"ch{n}_model": (lambda n=n: complex_hyperbolic(n)[0]) for n in (1, 2, 3, 4)},
    **{f"rotated_ch1_pow{n}": (lambda n=n: _rotated_ch1_power(n)) for n in (1, 2, 3)},
}


class TestDMatrix:
    @pytest.mark.parametrize("name", D_MATRIX_ALGEBRAS)
    def test_squares_to_zero(self, name):
        L = D_MATRIX_ALGEBRAS[name]()
        bound = 1e-12 * (1.0 + L.max_constant()) ** 2
        for k in range(1, L.dim - 1):
            assert max_abs(d_matrix(L, k + 1) @ d_matrix(L, k)) < bound

    @pytest.mark.parametrize("name", D_MATRIX_ALGEBRAS)
    def test_matches_ce_differential_on_basis_forms(self, name):
        # against the dict reference of tests/dict_forms.py
        L = D_MATRIX_ALGEBRAS[name]()
        bound = 1e-12 * (1.0 + L.max_constant())
        for k in range(1, L.dim):
            D = d_matrix(L, k)
            assert D.shape == (len(all_keys(L.dim, k + 1)), len(all_keys(L.dim, k)))
            for col, key in enumerate(all_keys(L.dim, k)):
                expect = dense(ce_differential(L, {key: 1.0}), L.dim, k + 1)
                assert max_abs(D[:, col] - expect) < bound


class TestSolvePrimitive:
    def test_ch1(self):
        L, _ = ch1(2.0)
        kappa, kernel = solve_primitive(L, DenseExterior(2).kahler())
        assert max_abs(kappa - np.array([0.0, 0.5])) < 1e-12
        assert kernel.shape == (1, 2)
        assert abs(abs(kernel[0, 0]) - 1.0) < 1e-12

    def test_abelian_not_exact(self):
        L, _ = abelian(1)
        with pytest.raises(NotExactError):
            solve_primitive(L, DenseExterior(2).kahler())

    def test_product_primitive(self):
        L, _ = four_dim_example()
        kappa, kernel = solve_primitive(L, DenseExterior(4).kahler())
        assert max_abs(kappa - np.array([0.0, 0.0, 1.0 / SQ2, 0.5])) < 1e-12
        assert len(kernel) == 2

    def test_round_trip_and_kernel_closed(self, rng):
        for n in (1, 2, 3):
            L, _ = ch1_product(list(rng.uniform(1.2, 2.8, n)))
            omega = DenseExterior(2 * n).kahler()
            kappa, kernel = solve_primitive(L, omega)
            assert max_abs(d_matrix(L, 1) @ kappa - omega) < 1e-9
            for k in kernel:
                assert max_abs(d_matrix(L, 1) @ k) < 1e-12

    def test_rejects_non_closed(self):
        La, _ = complex_hyperbolic(2)
        bad = DenseExterior(4).basis(2, 3)  # a2 ^ b1 is not closed here
        assert max_abs(d_matrix(La, 2) @ bad) > 0.1
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
        D = d_matrix(L, 1)
        ref = np.eye(L.dim) if not D.any() else linalg.null_space(D, rcond=1e-12)
        # closed_one_forms zeroes entries of size at most PRUNE_EPS
        expect = np.where(np.abs(ref.T) > PRUNE_EPS, ref.T, 0.0)
        assert np.array_equal(closed_one_forms(L), expect)
