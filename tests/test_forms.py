import numpy as np
import pytest

from pskmap.forms import (
    DenseExterior,
    Form,
    ZeroTolerance,
    interior,
    kahler_form,
    max_abs,
    wedge,
)
from pskmap.intrinsic import j_action

from conftest import random_form


def a(n, i):
    return Form.basis(2 * n, i)


def b(n, i):
    return Form.basis(2 * n, n + i)


class TestWedge:
    def test_basis_product(self):
        w = wedge(a(1, 1), b(1, 1))
        assert w.coeff(1, 2) == 1.0
        assert len(w.coeffs) == 1

    def test_square_of_one_form_vanishes(self):
        assert wedge(a(1, 1), a(1, 1)).norm_inf() == 0.0

    def test_bilinear_expansion(self):
        # (a1 + b2) ^ (a1 - b2) = -2 a1^b2 over n=2
        x = a(2, 1) + b(2, 2)
        y = a(2, 1) - b(2, 2)
        w = wedge(x, y)
        assert w.coeff(1, 4) == pytest.approx(-2.0)
        assert len(w.coeffs) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge(Form.basis(2, 1), Form.basis(4, 1))

    def test_degree_above_dimension_is_zero(self):
        w = wedge(wedge(a(1, 1), b(1, 1)), wedge(a(1, 1), b(1, 1)))
        assert w.norm_inf() == 0.0

    def test_associativity_random(self, rng):
        for _ in range(120):
            m = int(rng.integers(4, 9))
            dx, dy, dz = (int(rng.integers(1, 4)) for _ in range(3))
            x = random_form(rng, m, dx)
            y = random_form(rng, m, dy)
            z = random_form(rng, m, dz)
            lhs = wedge(wedge(x, y), z)
            rhs = wedge(x, wedge(y, z))
            assert (lhs - rhs).norm_inf() < 1e-9

    def test_graded_anticommutativity_random(self, rng):
        for _ in range(120):
            m = int(rng.integers(4, 9))
            dx, dy = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            x = random_form(rng, m, dx)
            y = random_form(rng, m, dy)
            sign = (-1.0) ** (dx * dy)
            assert (wedge(x, y) - sign * wedge(y, x)).norm_inf() < 1e-9


class TestWedgeMatrix:
    """DenseExterior.wedge_matrix: the matrix product with the wedge."""

    def test_one_form_square_vanishes(self):
        ext = DenseExterior(2)
        alpha = ext.dense(a(1, 1) + 2.0 * b(1, 1)).reshape(1, 1, 2)
        assert max_abs(ext.wedge_matrix(alpha, alpha, 1, 1)) == 0.0

    def test_product_example_entry(self):
        # p = [[b2, b1], [b1, 0]], q = [[a2, a1], [a1, 0]]
        ext = DenseExterior(4)
        z = Form.zero(4, 1)
        p = np.array([[ext.dense(f) for f in row]
                      for row in ((b(2, 2), b(2, 1)), (b(2, 1), z))])
        q = np.array([[ext.dense(f) for f in row]
                      for row in ((a(2, 2), a(2, 1)), (a(2, 1), z))])
        entry = ext.wedge_matrix(p, q, 1, 1)[0, 0]
        expected = ext.dense(wedge(b(2, 2), a(2, 2)) + wedge(b(2, 1), a(2, 1)))
        assert max_abs(entry - expected) == 0.0

    def test_identity_is_unit(self, rng):
        ext = DenseExterior(4)
        ident = np.eye(2)[:, :, None]          # degree-0 forms: one key
        mat = np.array([[ext.dense(random_form(rng, 4, 1)) for _ in range(2)]
                        for _ in range(2)])
        assert max_abs(ext.wedge_matrix(ident, mat, 0, 1) - mat) == 0.0
        assert max_abs(ext.wedge_matrix(mat, ident, 1, 0) - mat) == 0.0

    def test_shape_mismatch(self):
        ext = DenseExterior(4)
        one = np.eye(2)[:, :, None]
        col = np.eye(4)[:3, None, :]
        with pytest.raises(ValueError):
            ext.wedge_matrix(one, col, 0, 1)


class TestDenseExterior:
    def test_wedge_matches_form_wedge_random(self, rng):
        for _ in range(120):
            m = int(rng.integers(4, 9))
            dx, dy = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            x = random_form(rng, m, dx) if dx else Form(m, 0, {(): 1.5})
            y = random_form(rng, m, dy) if dy else Form(m, 0, {(): -0.5})
            ext = DenseExterior(m)
            got = ext.wedge(ext.dense(x), ext.dense(y), dx, dy)
            assert max_abs(got - ext.dense(wedge(x, y))) < 1e-12

    def test_wedge_broadcasts_over_leading_axes(self, rng):
        ext = DenseExterior(5)
        xs = [random_form(rng, 5, 1) for _ in range(3)]
        y = random_form(rng, 5, 2)
        got = ext.wedge(np.array([ext.dense(x) for x in xs]), ext.dense(y), 1, 2)
        for x, row in zip(xs, got):
            assert max_abs(row - ext.dense(wedge(x, y))) < 1e-12

    def test_basis_and_kahler(self):
        ext = DenseExterior(4)
        assert max_abs(ext.basis(3, 1) + ext.dense(Form.basis(4, 1, 3))) == 0.0
        assert max_abs(ext.basis(2, 2)) == 0.0
        assert max_abs(ext.kahler() - ext.dense(kahler_form(2))) == 0.0

    def test_max_abs_of_empty_array_is_zero(self):
        assert max_abs(np.zeros((1, 1, 0))) == 0.0


class TestApplyJ:
    """J on one-forms, a^i -> b^i and b^i -> -a^i: intrinsic.j_action on
    dense (..., 2n) arrays."""

    def test_a_to_b(self):
        ext = DenseExterior(2)
        assert max_abs(j_action(ext.dense(a(1, 1))) - ext.dense(b(1, 1))) == 0.0

    def test_squares_to_minus_one(self):
        x = DenseExterior(4).dense(a(2, 1))
        assert max_abs(j_action(j_action(x)) + x) == 0.0

    def test_linearity(self):
        ext = DenseExterior(4)
        x = ext.dense(2.0 * a(2, 1) + 3.0 * b(2, 2))
        expect = ext.dense(2.0 * b(2, 1) - 3.0 * a(2, 2))
        assert max_abs(j_action(x) - expect) == 0.0

    def test_kahler_form_invariant(self, rng):
        for n in (1, 2, 3):
            ext = DenseExterior(2 * n)
            coframe = np.eye(2 * n)
            rebuilt = sum(ext.wedge(j_action(coframe[i]), j_action(coframe[n + i]), 1, 1)
                          for i in range(n))
            assert max_abs(rebuilt - ext.dense(kahler_form(n))) == 0.0


class TestInterior:
    def test_two_form_contraction(self):
        x = wedge(a(1, 1), b(1, 1))
        assert (interior(1, x) - b(1, 1)).norm_inf() == 0.0

    def test_orthogonal_pairing(self):
        assert interior(2, a(2, 1)).norm_inf() == 0.0

    def test_sign_bookkeeping(self):
        # A1 . (a1 ^ a2 ^ b1) = a2 ^ b1 over n=2
        x = wedge(wedge(a(2, 1), a(2, 2)), b(2, 1))
        expect = wedge(a(2, 2), b(2, 1))
        assert (interior(1, x) - expect).norm_inf() == 0.0

    def test_graded_derivation_random(self, rng):
        for _ in range(120):
            m = int(rng.integers(4, 9))
            dx, dy = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            x = random_form(rng, m, dx)
            y = random_form(rng, m, dy)
            v = int(rng.integers(1, m + 1))
            lhs = interior(v, wedge(x, y))
            rhs = wedge(interior(v, x), y) + (-1.0) ** dx * wedge(x, interior(v, y))
            assert (lhs - rhs).norm_inf() < 1e-9


class TestTolerance:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            ZeroTolerance(abs_eps=0.0)
        with pytest.raises(ValueError):
            ZeroTolerance(rel_eps=-1.0)

    def test_pruning(self):
        f = Form(2, 1, {(1,): 1e-16})
        assert f.norm_inf() == 0.0
