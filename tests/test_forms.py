import numpy as np
import pytest

from pskmap.catalog import four_dim_candidate, four_dim_example
from pskmap.forms import DenseExterior, ZeroTolerance, all_keys, max_abs
from pskmap.intrinsic import PSKCandidate, j_action
from pskmap.io import algebra_to_dict

from dict_forms import dense, random_form, wedge


def a(n, i):
    return DenseExterior(2 * n).basis(i)


def b(n, i):
    return DenseExterior(2 * n).basis(n + i)


class TestWedge:
    """DenseExterior.wedge on basis one-forms and random forms."""

    def test_basis_product(self):
        ext = DenseExterior(2)
        w = ext.wedge(a(1, 1), b(1, 1), 1, 1)
        assert w[0] == 1.0
        assert np.count_nonzero(w) == 1

    def test_square_of_one_form_vanishes(self):
        assert max_abs(DenseExterior(2).wedge(a(1, 1), a(1, 1), 1, 1)) == 0.0

    def test_bilinear_expansion(self):
        # (a1 + b2) ^ (a1 - b2) = -2 a1^b2 over n=2
        ext = DenseExterior(4)
        w = ext.wedge(a(2, 1) + b(2, 2), a(2, 1) - b(2, 2), 1, 1)
        assert w[all_keys(4, 2).index((1, 4))] == pytest.approx(-2.0)
        assert np.count_nonzero(w) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DenseExterior(2).wedge(a(1, 1), a(2, 1), 1, 1)

    def test_degree_above_dimension_is_zero(self):
        ext = DenseExterior(2)
        w = ext.wedge(a(1, 1), b(1, 1), 1, 1)
        assert max_abs(ext.wedge(w, w, 2, 2)) == 0.0

    def test_associativity_random(self, rng):
        for _ in range(120):
            m = int(rng.integers(4, 9))
            dx, dy, dz = (int(rng.integers(1, 4)) for _ in range(3))
            x, y, z = (dense(random_form(rng, m, d), m, d) for d in (dx, dy, dz))
            ext = DenseExterior(m)
            lhs = ext.wedge(ext.wedge(x, y, dx, dy), z, dx + dy, dz)
            rhs = ext.wedge(x, ext.wedge(y, z, dy, dz), dx, dy + dz)
            assert max_abs(lhs - rhs) < 1e-9

    def test_graded_anticommutativity_random(self, rng):
        for _ in range(120):
            m = int(rng.integers(4, 9))
            dx, dy = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            x = dense(random_form(rng, m, dx), m, dx)
            y = dense(random_form(rng, m, dy), m, dy)
            ext = DenseExterior(m)
            sign = (-1.0) ** (dx * dy)
            assert max_abs(ext.wedge(x, y, dx, dy) - sign * ext.wedge(y, x, dy, dx)) < 1e-9


class TestWedgeMatrix:
    """DenseExterior.wedge_matrix: the matrix product with the wedge."""

    def test_one_form_square_vanishes(self):
        ext = DenseExterior(2)
        alpha = (a(1, 1) + 2.0 * b(1, 1)).reshape(1, 1, 2)
        assert max_abs(ext.wedge_matrix(alpha, alpha, 1, 1)) == 0.0

    def test_product_example_entry(self):
        # p = [[b2, b1], [b1, 0]], q = [[a2, a1], [a1, 0]]
        ext = DenseExterior(4)
        z = np.zeros(4)
        p = np.array([[b(2, 2), b(2, 1)], [b(2, 1), z]])
        q = np.array([[a(2, 2), a(2, 1)], [a(2, 1), z]])
        entry = ext.wedge_matrix(p, q, 1, 1)[0, 0]
        expected = ext.wedge(b(2, 2), a(2, 2), 1, 1) + ext.wedge(b(2, 1), a(2, 1), 1, 1)
        assert max_abs(entry - expected) == 0.0

    def test_identity_is_unit(self, rng):
        ext = DenseExterior(4)
        ident = np.eye(2)[:, :, None]          # degree-0 forms: one key
        mat = np.array([[dense(random_form(rng, 4, 1), 4, 1) for _ in range(2)]
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
        # against the dict reference of tests/dict_forms.py
        for _ in range(120):
            m = int(rng.integers(4, 9))
            dx, dy = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            x = random_form(rng, m, dx) if dx else {(): 1.5}
            y = random_form(rng, m, dy) if dy else {(): -0.5}
            ext = DenseExterior(m)
            got = ext.wedge(dense(x, m, dx), dense(y, m, dy), dx, dy)
            assert max_abs(got - dense(wedge(x, y), m, dx + dy)) < 1e-12

    def test_wedge_broadcasts_over_leading_axes(self, rng):
        ext = DenseExterior(5)
        xs = [random_form(rng, 5, 1) for _ in range(3)]
        y = random_form(rng, 5, 2)
        got = ext.wedge(np.array([dense(x, 5, 1) for x in xs]), dense(y, 5, 2), 1, 2)
        for x, row in zip(xs, got):
            assert max_abs(row - dense(wedge(x, y), 5, 3)) < 1e-12

    def test_basis_and_kahler(self):
        ext = DenseExterior(4)
        assert max_abs(ext.basis(3, 1) + dense({(1, 3): 1.0}, 4, 2)) == 0.0
        assert max_abs(ext.basis(2, 2)) == 0.0
        assert max_abs(ext.kahler() - dense({(1, 3): 1.0, (2, 4): 1.0}, 4, 2)) == 0.0

    def test_max_abs_of_empty_array_is_zero(self):
        assert max_abs(np.zeros((1, 1, 0))) == 0.0


class TestApplyJ:
    """J on one-forms, a^i -> b^i and b^i -> -a^i: intrinsic.j_action on
    dense (..., 2n) arrays."""

    def test_a_to_b(self):
        assert max_abs(j_action(a(1, 1)) - b(1, 1)) == 0.0

    def test_squares_to_minus_one(self):
        x = a(2, 1)
        assert max_abs(j_action(j_action(x)) + x) == 0.0

    def test_linearity(self):
        x = 2.0 * a(2, 1) + 3.0 * b(2, 2)
        expect = 2.0 * b(2, 1) - 3.0 * a(2, 2)
        assert max_abs(j_action(x) - expect) == 0.0

    def test_kahler_form_invariant(self, rng):
        for n in (1, 2, 3):
            ext = DenseExterior(2 * n)
            coframe = np.eye(2 * n)
            rebuilt = sum(ext.wedge(j_action(coframe[i]), j_action(coframe[n + i]), 1, 1)
                          for i in range(n))
            omega = dense({(i, n + i): 1.0 for i in range(1, n + 1)}, 2 * n, 2)
            assert max_abs(rebuilt - omega) == 0.0


class TestTolerance:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            ZeroTolerance(abs_eps=0.0)
        with pytest.raises(ValueError):
            ZeroTolerance(rel_eps=-1.0)

    def test_pruning(self):
        # kappa entries of size at most forms.PRUNE_EPS are not written out
        L, B = four_dim_example()
        base = four_dim_candidate()
        cand = PSKCandidate(base.Sa, base.Sb, base.kappa + np.array([1e-16, 0.0, 0.0, 0.0]))
        assert algebra_to_dict(L, B, candidate=cand)["candidate"]["kappa"] == [
            [3, base.kappa[2]], [4, 0.5]]


def test_no_dict_form_kernel_in_package():
    # Every float form is a dense array; the cone oracle keeps its own d-rules
    # and shares no arithmetic with the intrinsic side's d_matrix/DenseExterior.
    import importlib
    import pkgutil

    import pskmap
    import pskmap.cone

    gone = {"Form", "FormMatrix", "wedge", "interior", "kahler_form", "ce_differential",
            "_d_table", "_D_TABLE_CACHE"}
    for info in pkgutil.iter_modules(pskmap.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pskmap.{info.name}")
        assert not gone & set(vars(module)), info.name
    assert not gone & set(vars(pskmap))
    assert not {"d_matrix", "DenseExterior"} & set(vars(pskmap.cone))
