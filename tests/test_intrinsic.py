import math

import numpy as np
import pytest

from pskmap.catalog import (
    ch1,
    ch1_candidate,
    ch1_cubed,
    ch1_cubed_candidate,
    ch1_flat_candidate,
    complex_hyperbolic,
    complex_hyperbolic_candidate,
    four_dim_candidate,
    four_dim_example,
)
from pskmap.connection import curvature, levi_civita
from pskmap.forms import Form, max_abs
from pskmap.intrinsic import (
    PSKCandidate,
    SymTensor3,
    all_residuals,
    build_pq,
    dpq_residual,
    integrability_residual,
    j_action,
    make_candidate,
    pq_from_tensors,
    rotate,
    rotate_tensors,
    torsion_residual,
    tpq_residual,
    wpq_residual,
)

SQ2 = math.sqrt(2.0)


def geometry(L, B):
    conn = levi_civita(L, B)
    return conn, curvature(conn, L)


class TestBuildPQ:
    def test_four_dim_matrices(self):
        cand = four_dim_candidate()
        p, q = build_pq(cand)
        # q = [[a2, a1], [a1, 0]] and p = [[b2, b1], [b1, 0]]
        e = np.eye(4)
        assert max_abs(q[0, 0] - e[1]) == 0.0
        assert max_abs(q[0, 1] - e[0]) == 0.0
        assert max_abs(q[1, 1]) == 0.0
        assert max_abs(p[0, 0] - e[3]) == 0.0
        assert max_abs(p[0, 1] - e[2]) == 0.0

    def test_zero_candidate(self):
        p, q = build_pq(ch1_flat_candidate(2.0))
        assert max_abs(p) == 0.0 and max_abs(q) == 0.0

    def test_single_index(self):
        sa = SymTensor3.from_triples(1, [(1, 1, 1, 0.75)])
        p, q = pq_from_tensors(sa, SymTensor3.zero(1))
        e = np.eye(2)
        assert max_abs(q[0, 0] - 0.75 * e[0]) == 0.0
        assert max_abs(p[0, 0] - 0.75 * e[1]) == 0.0

    def test_p_is_J_of_q(self):
        cand = four_dim_candidate()
        p, q = build_pq(cand)
        for i in range(2):
            for j in range(2):
                assert max_abs(p[i, j] - j_action(q[i, j])) == 0.0


class TestTorsion:
    def test_total_symmetry_kills_torsion(self):
        for cand in (four_dim_candidate(), ch1_candidate(1.5), ch1_cubed_candidate()):
            p, q = build_pq(cand)
            assert torsion_residual(p, q) < 1e-14

    def test_non_symmetric_fails(self):
        q = np.zeros((2, 2, 4))
        q[0, 0, 1] = 1.0
        p = j_action(q)
        assert torsion_residual(p, q) > 0.5

    def test_zero(self):
        zero = np.zeros((2, 2, 4))
        assert torsion_residual(zero, zero) == 0.0


class TestCurvatureEquations:
    def test_four_dim_t_and_w(self):
        L, B = four_dim_example()
        _, K = geometry(L, B)
        p, q = build_pq(four_dim_candidate())
        assert tpq_residual(K, p, q) < 1e-14
        assert wpq_residual(K, p, q) < 1e-14

    def test_flat_model(self):
        for n in (1, 2):
            L, B = complex_hyperbolic(n)
            _, K = geometry(L, B)
            p, q = build_pq(complex_hyperbolic_candidate(n))
            assert tpq_residual(K, p, q) < 1e-12
            assert wpq_residual(K, p, q) < 1e-12

    def test_w_closed_form_relation(self):
        # residual |(-c^2 - 2x^2) + 4| on the a^b coefficient
        for c, x in ((1.5, 0.3), (2.5, 1.0)):
            L, B = ch1(c)
            _, K = geometry(L, B)
            sa = SymTensor3.from_triples(1, [(1, 1, 1, x)])
            p, q = pq_from_tensors(sa, SymTensor3.zero(1))
            expect = abs(-c * c - 2 * x * x + 4.0)
            assert wpq_residual(K, p, q) == pytest.approx(expect, rel=1e-12)
            # n=1 wedge squares vanish, so the T equation is trivial
            assert tpq_residual(K, p, q) < 1e-14


class TestDerivativeEquations:
    def test_four_dim(self):
        L, B = four_dim_example()
        conn, _ = geometry(L, B)
        cand = four_dim_candidate()
        p, q = build_pq(cand)
        assert dpq_residual(p, q, cand.kappa, conn, L) < 1e-14

    def test_ch1_closed_form(self):
        # the p-equation reduces to x (3c - 4/c) a^b
        for c in (1.2, 1.5, 2.0, 2.0 / math.sqrt(3.0)):
            L, B = ch1(c)
            conn, _ = geometry(L, B)
            x = math.sqrt(max(0.0, (4 - c * c) / 2.0))
            sa = SymTensor3.from_triples(1, [(1, 1, 1, x)])
            p, q = pq_from_tensors(sa, SymTensor3.zero(1))
            kappa = Form(2, 1, {(2,): 1.0 / c})
            expect = abs(x * (3 * c - 4.0 / c))
            assert dpq_residual(p, q, kappa, conn, L) == pytest.approx(expect, abs=1e-12)

    def test_zero_candidate_any_kappa(self):
        L, B = ch1(2.0)
        conn, _ = geometry(L, B)
        zero = np.zeros((1, 1, 2))
        kappa = Form(2, 1, {(1,): 0.3, (2,): 0.5})
        assert dpq_residual(zero, zero, kappa, conn, L) == 0.0


class TestIntegrability:
    def test_four_dim(self):
        L, B = four_dim_example()
        _, K = geometry(L, B)
        p, q = build_pq(four_dim_candidate())
        assert integrability_residual(K, p, q) < 1e-14

    def test_zero(self):
        L, B = four_dim_example()
        _, K = geometry(L, B)
        zero = np.zeros((2, 2, 4))
        assert integrability_residual(K, zero, zero) == 0.0

    def test_wrong_candidate_detected(self):
        L, B = four_dim_example()
        _, K = geometry(L, B)
        sa = SymTensor3.from_triples(2, [(1, 1, 1, 1.0)])
        p, q = pq_from_tensors(sa, SymTensor3.zero(2))
        assert integrability_residual(K, p, q) > 1.0


class TestRotation:
    def test_identity(self):
        p, q = build_pq(four_dim_candidate())
        p2, q2 = rotate(p, q, 0.0)
        assert max_abs(p - p2) == 0.0 and max_abs(q - q2) == 0.0

    def test_quarter_turn(self):
        p, q = build_pq(four_dim_candidate())
        p2, q2 = rotate(p, q, math.pi / 2)
        assert max_abs(p2 - q) < 1e-15
        assert max_abs(q2 + p) < 1e-15

    def test_half_turn(self):
        p, q = build_pq(four_dim_candidate())
        p2, q2 = rotate(p, q, math.pi)
        assert max_abs(p2 + p) < 1e-12
        assert max_abs(q2 + q) < 1e-12

    def test_composition(self, rng):
        p, q = build_pq(four_dim_candidate())
        s, t = rng.uniform(0, 2, size=2)
        stepwise = rotate(*rotate(p, q, s), t)
        direct = rotate(p, q, s + t)
        assert max_abs(stepwise[0] - direct[0]) < 1e-12
        assert max_abs(stepwise[1] - direct[1]) < 1e-12

    @staticmethod
    def _pair_norm(mats):
        return math.sqrt(sum(float(np.sum(mat * mat)) for mat in mats))

    def test_gauge_invariance_of_residuals(self, rng):
        # T and W residuals are pointwise rotation-invariant; the paired
        # equations (torsion, dP/dQ, integrability) rotate inside each
        # pair, so it is their joint Euclidean size that is preserved.
        from pskmap.intrinsic import dpq_matrices, integrability_matrices

        L, B = four_dim_example()
        conn, K = geometry(L, B)
        cand = four_dim_candidate()
        base_p, base_q = build_pq(cand)
        sa = SymTensor3.from_triples(2, [(1, 1, 2, 0.4), (2, 2, 2, -0.3)])
        sb = SymTensor3.from_triples(2, [(1, 2, 2, 0.8)])
        off_p, off_q = pq_from_tensors(sa, sb)
        count = 0
        for p, q in ((base_p, base_q), (off_p, off_q)):
            ref = (
                tpq_residual(K, p, q),
                wpq_residual(K, p, q),
                self._pair_norm(dpq_matrices(p, q, cand.kappa, conn, L)),
                self._pair_norm(integrability_matrices(K, p, q)),
            )
            for _ in range(60):
                s = float(rng.uniform(0, 2 * math.pi))
                ps, qs = rotate(p, q, s)
                got = (
                    tpq_residual(K, ps, qs),
                    wpq_residual(K, ps, qs),
                    self._pair_norm(dpq_matrices(ps, qs, cand.kappa, conn, L)),
                    self._pair_norm(integrability_matrices(K, ps, qs)),
                )
                assert max(abs(a - b) for a, b in zip(ref, got)) < 1e-9
                count += 1
        assert count >= 100

    def test_solutions_stay_solutions_under_rotation(self, rng):
        L, B = four_dim_example()
        conn, K = geometry(L, B)
        cand = four_dim_candidate()
        p, q = build_pq(cand)
        for _ in range(25):
            s = float(rng.uniform(0, 2 * math.pi))
            ps, qs = rotate(p, q, s)
            assert torsion_residual(ps, qs) < 1e-9
            assert tpq_residual(K, ps, qs) < 1e-9
            assert wpq_residual(K, ps, qs) < 1e-9
            assert dpq_residual(ps, qs, cand.kappa, conn, L) < 1e-9
            assert integrability_residual(K, ps, qs) < 1e-9

    def test_tensor_rotation_matches_matrix_rotation(self, rng):
        cand = four_dim_candidate()
        s = 0.9
        sa, sb = rotate_tensors(cand.Sa, cand.Sb, s)
        pm, qm = rotate(*build_pq(cand), s)
        pt, qt = pq_from_tensors(sa, sb)
        assert max_abs(pm - pt) < 1e-12
        assert max_abs(qm - qt) < 1e-12


class TestKappaFreedom:
    def test_kernel_shift_moves_only_dpq(self):
        L, B = four_dim_example()
        conn, K = geometry(L, B)
        cand = four_dim_candidate()
        p, q = build_pq(cand)
        shifted = cand.kappa + 0.35 * Form.basis(4, 1)
        assert dpq_residual(p, q, shifted, conn, L) > 1e-3
        assert integrability_residual(K, p, q) < 1e-14
        assert tpq_residual(K, p, q) < 1e-14
        assert wpq_residual(K, p, q) < 1e-14

    def test_near_solution_implication(self, rng):
        # on candidates solving torsion/T/W exactly, the kappa-free pair is
        # controlled by the derivative residual
        L, B = four_dim_example()
        conn, K = geometry(L, B)
        cand = four_dim_candidate()
        p, q = build_pq(cand)
        for _ in range(20):
            eps = float(rng.uniform(-0.5, 0.5))
            kappa = cand.kappa + eps * Form.basis(4, 1)
            dpq = dpq_residual(p, q, kappa, conn, L)
            integ = integrability_residual(K, p, q)
            assert integ <= 4.0 * dpq + 1e-12


class TestCandidateValidation:
    def test_valid(self):
        L, B = four_dim_example()
        cand = four_dim_candidate()
        made = make_candidate(L, B, cand.Sa, cand.Sb, cand.kappa)
        assert made.n == 2

    def test_bad_kappa_rejected(self):
        L, B = four_dim_example()
        cand = four_dim_candidate()
        with pytest.raises(ValueError):
            make_candidate(L, B, cand.Sa, cand.Sb, 2.0 * cand.kappa)


class TestAllResiduals:
    def test_solutions_are_zero(self):
        cases = [
            (ch1(2.0), ch1_flat_candidate(2.0)),
            (ch1(2.0 / math.sqrt(3.0)), ch1_candidate(2.0 / math.sqrt(3.0))),
            (four_dim_example(), four_dim_candidate()),
            (ch1_cubed(2.0), ch1_cubed_candidate()),
            (complex_hyperbolic(2), complex_hyperbolic_candidate(2)),
        ]
        for (L, B), cand in cases:
            res = all_residuals(L, B, cand)
            assert max(res.values()) < 1e-9

    def test_obstructed_case(self):
        L, B = ch1(1.5)
        res = all_residuals(L, B, ch1_candidate(1.5))
        assert res["dpq"] == pytest.approx(abs(math.sqrt(0.875) * (4.5 - 4.0 / 1.5)))
        assert res["t_pq"] < 1e-14 and res["w_pq"] < 1e-14
