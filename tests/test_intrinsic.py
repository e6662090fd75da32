import math

import numpy as np
import pytest

from pskmap.catalog import (
    _unitary_conjugation,
    ch1,
    ch1_candidate,
    ch1_cubed,
    ch1_cubed_candidate,
    ch1_flat_candidate,
    complex_hyperbolic,
    complex_hyperbolic_candidate,
    conjugate_algebra,
    four_dim_candidate,
    four_dim_example,
)
from pskmap.cone import DSquaredError, oracle_residual
from pskmap.forms import max_abs
from pskmap.intrinsic import (
    PSKCandidate,
    all_residuals,
    build_geometry,
    dpq_matrices,
    integrability_matrices,
    j_action,
    pq_from_tensors,
    rotate,
    sym_tensor,
    sym_triples,
    torsion_residual,
    tpq_matrix,
    wpq_matrix,
)
from pskmap.lie import PreconditionError

SQ2 = math.sqrt(2.0)


def build_pq(cand):
    return pq_from_tensors(cand.Sa, cand.Sb)


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
        sa = sym_tensor(1, [(1, 1, 1, 0.75)])
        p, q = pq_from_tensors(sa, sym_tensor(1, []))
        e = np.eye(2)
        assert max_abs(q[0, 0] - 0.75 * e[0]) == 0.0
        assert max_abs(p[0, 0] - 0.75 * e[1]) == 0.0

    def test_stack_matches_rows(self, rng):
        Sa, Sb = rng.uniform(-1, 1, (2, 5, 10))
        p, q = pq_from_tensors(Sa, Sb)
        assert p.shape == q.shape == (5, 3, 3, 6)
        for r in range(5):
            p_r, q_r = pq_from_tensors(Sa[r], Sb[r])
            assert np.array_equal(p[r], p_r) and np.array_equal(q[r], q_r)

    def test_p_is_J_of_q(self):
        cand = four_dim_candidate()
        p, q = build_pq(cand)
        for i in range(2):
            for j in range(2):
                assert max_abs(p[i, j] - j_action(q[i, j])) == 0.0


class TestTorsion:
    def test_total_symmetry_kills_torsion(self):
        for (L, B), cand in ((four_dim_example(), four_dim_candidate()),
                             (ch1(1.5), ch1_candidate(1.5)),
                             (ch1_cubed(2.0), ch1_cubed_candidate())):
            p, q = build_pq(cand)
            assert torsion_residual(build_geometry(L, B), p, q) < 1e-14

    def test_non_symmetric_fails(self):
        q = np.zeros((2, 2, 4))
        q[0, 0, 1] = 1.0
        p = j_action(q)
        assert torsion_residual(build_geometry(*four_dim_example()), p, q) > 0.5

    def test_zero(self):
        zero = np.zeros((2, 2, 4))
        assert torsion_residual(build_geometry(*four_dim_example()), zero, zero) == 0.0


class TestCurvatureEquations:
    def test_four_dim_t_and_w(self):
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        p, q = build_pq(four_dim_candidate())
        assert max_abs(tpq_matrix(geom, p, q)) < 1e-14
        assert max_abs(wpq_matrix(geom, p, q)) < 1e-14

    def test_flat_model(self):
        for n in (1, 2):
            L, B = complex_hyperbolic(n)
            geom = build_geometry(L, B)
            p, q = build_pq(complex_hyperbolic_candidate(n))
            assert max_abs(tpq_matrix(geom, p, q)) < 1e-12
            assert max_abs(wpq_matrix(geom, p, q)) < 1e-12

    def test_w_closed_form_relation(self):
        # residual |(-c^2 - 2x^2) + 4| on the a^b coefficient
        for c, x in ((1.5, 0.3), (2.5, 1.0)):
            L, B = ch1(c)
            geom = build_geometry(L, B)
            sa = sym_tensor(1, [(1, 1, 1, x)])
            p, q = pq_from_tensors(sa, sym_tensor(1, []))
            expect = abs(-c * c - 2 * x * x + 4.0)
            assert max_abs(wpq_matrix(geom, p, q)) == pytest.approx(expect, rel=1e-12)
            # n=1 wedge squares vanish, so the T equation is trivial
            assert max_abs(tpq_matrix(geom, p, q)) < 1e-14


class TestDerivativeEquations:
    def test_four_dim(self):
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        cand = four_dim_candidate()
        p, q = build_pq(cand)
        assert max(map(max_abs, dpq_matrices(geom, p, q, cand.kappa))) < 1e-14

    def test_ch1_closed_form(self):
        # the p-equation reduces to x (3c - 4/c) a^b
        for c in (1.2, 1.5, 2.0, 2.0 / math.sqrt(3.0)):
            L, B = ch1(c)
            geom = build_geometry(L, B)
            x = math.sqrt(max(0.0, (4 - c * c) / 2.0))
            sa = sym_tensor(1, [(1, 1, 1, x)])
            p, q = pq_from_tensors(sa, sym_tensor(1, []))
            kappa = np.array([0.0, 1.0 / c])
            expect = abs(x * (3 * c - 4.0 / c))
            got = max(map(max_abs, dpq_matrices(geom, p, q, kappa)))
            assert got == pytest.approx(expect, abs=1e-12)

    def test_zero_candidate_any_kappa(self):
        L, B = ch1(2.0)
        geom = build_geometry(L, B)
        zero = np.zeros((1, 1, 2))
        kappa = np.array([0.3, 0.5])
        assert max(map(max_abs, dpq_matrices(geom, zero, zero, kappa))) == 0.0


class TestIntegrability:
    def test_four_dim(self):
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        p, q = build_pq(four_dim_candidate())
        assert max(map(max_abs, integrability_matrices(geom, p, q))) < 1e-14

    def test_zero(self):
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        zero = np.zeros((2, 2, 4))
        assert max(map(max_abs, integrability_matrices(geom, zero, zero))) == 0.0

    def test_wrong_candidate_detected(self):
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        sa = sym_tensor(2, [(1, 1, 1, 1.0)])
        p, q = pq_from_tensors(sa, sym_tensor(2, []))
        assert max(map(max_abs, integrability_matrices(geom, p, q))) > 1.0


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
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        cand = four_dim_candidate()
        base_p, base_q = build_pq(cand)
        sa = sym_tensor(2, [(1, 1, 2, 0.4), (2, 2, 2, -0.3)])
        sb = sym_tensor(2, [(1, 2, 2, 0.8)])
        off_p, off_q = pq_from_tensors(sa, sb)
        count = 0
        for p, q in ((base_p, base_q), (off_p, off_q)):
            ref = (
                max_abs(tpq_matrix(geom, p, q)),
                max_abs(wpq_matrix(geom, p, q)),
                self._pair_norm(dpq_matrices(geom, p, q, cand.kappa)),
                self._pair_norm(integrability_matrices(geom, p, q)),
            )
            for _ in range(60):
                s = float(rng.uniform(0, 2 * math.pi))
                ps, qs = rotate(p, q, s)
                got = (
                    max_abs(tpq_matrix(geom, ps, qs)),
                    max_abs(wpq_matrix(geom, ps, qs)),
                    self._pair_norm(dpq_matrices(geom, ps, qs, cand.kappa)),
                    self._pair_norm(integrability_matrices(geom, ps, qs)),
                )
                assert max(abs(a - b) for a, b in zip(ref, got)) < 1e-9
                count += 1
        assert count >= 100

    def test_solutions_stay_solutions_under_rotation(self, rng):
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        cand = four_dim_candidate()
        p, q = build_pq(cand)
        for _ in range(25):
            s = float(rng.uniform(0, 2 * math.pi))
            ps, qs = rotate(p, q, s)
            assert torsion_residual(geom, ps, qs) < 1e-9
            assert max_abs(tpq_matrix(geom, ps, qs)) < 1e-9
            assert max_abs(wpq_matrix(geom, ps, qs)) < 1e-9
            assert max(map(max_abs, dpq_matrices(geom, ps, qs, cand.kappa))) < 1e-9
            assert max(map(max_abs, integrability_matrices(geom, ps, qs))) < 1e-9

    def test_tensor_rotation_matches_matrix_rotation(self, rng):
        cand = four_dim_candidate()
        s = 0.9
        sa, sb = rotate(cand.Sa, cand.Sb, s)
        pm, qm = rotate(*build_pq(cand), s)
        pt, qt = pq_from_tensors(sa, sb)
        assert max_abs(pm - pt) < 1e-12
        assert max_abs(qm - qt) < 1e-12


class TestKappaFreedom:
    def test_kernel_shift_moves_only_dpq(self):
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        cand = four_dim_candidate()
        p, q = build_pq(cand)
        shifted = cand.kappa + np.array([0.35, 0.0, 0.0, 0.0])
        assert max(map(max_abs, dpq_matrices(geom, p, q, shifted))) > 1e-3
        assert max(map(max_abs, integrability_matrices(geom, p, q))) < 1e-14
        assert max_abs(tpq_matrix(geom, p, q)) < 1e-14
        assert max_abs(wpq_matrix(geom, p, q)) < 1e-14

    def test_near_solution_implication(self, rng):
        # on candidates solving torsion/T/W exactly, the kappa-free pair is
        # controlled by the derivative residual
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        cand = four_dim_candidate()
        p, q = build_pq(cand)
        for _ in range(20):
            eps = float(rng.uniform(-0.5, 0.5))
            kappa = cand.kappa + np.array([eps, 0.0, 0.0, 0.0])
            dpq = max(map(max_abs, dpq_matrices(geom, p, q, kappa)))
            integ = max(map(max_abs, integrability_matrices(geom, p, q)))
            assert integ <= 4.0 * dpq + 1e-12


class TestCandidateValidation:
    def test_valid(self):
        L, B = four_dim_example()
        cand = four_dim_candidate()
        made = PSKCandidate(cand.Sa, cand.Sb, cand.kappa)
        made.validate(L)
        assert made.n == 2

    @pytest.mark.parametrize("field", ["Sa", "Sb"])
    def test_wrong_tensor_length_rejected(self, field):
        cand = four_dim_candidate()
        arrays = {"Sa": cand.Sa, "Sb": cand.Sb, "kappa": cand.kappa}
        arrays[field] = np.zeros(5)
        with pytest.raises(PreconditionError):
            PSKCandidate(**arrays)

    def test_keeps_read_only_copies(self):
        Sa, Sb, kappa = np.zeros(4), np.zeros(4), np.array([0.0, 0.0, 1.0 / SQ2, 0.5])
        Sa[1] = 1.0
        cand = PSKCandidate(Sa, Sb, kappa)
        Sa[1], Sb[0], kappa[0] = 7.0, 7.0, 7.0
        assert np.array_equal(cand.Sa, four_dim_candidate().Sa)
        assert max_abs(cand.Sb) == 0.0 and cand.kappa[0] == 0.0
        with pytest.raises(ValueError):
            cand.Sa[0] = 1.0

    def test_bad_kappa_rejected(self):
        L, B = four_dim_example()
        cand = four_dim_candidate()
        with pytest.raises(ValueError):
            PSKCandidate(cand.Sa, cand.Sb, 2.0 * cand.kappa).validate(L)


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
            res = all_residuals(build_geometry(L, B), cand)
            assert max(res.values()) < 1e-9

    def test_obstructed_case(self):
        L, B = ch1(1.5)
        res = all_residuals(build_geometry(L, B), ch1_candidate(1.5))
        assert res["dpq"] == pytest.approx(abs(math.sqrt(0.875) * (4.5 - 4.0 / 1.5)))
        assert res["t_pq"] < 1e-14 and res["w_pq"] < 1e-14


def transport(cand, R):
    """The candidate in the frame e'_i = sum_k R[k, i] e_k of
    conjugate_algebra, for R = [[X, -Y], [Y, X]] with U = X + iY unitary:
    kappa -> R^T kappa, and the complex cubic form C = Sa + i Sb ->
    C(conj(U) ., conj(U) ., conj(U) .)."""
    n = cand.n
    U = R[:n, :n] + 1j * R[n:, :n]
    triples = sym_triples(n)
    C = np.zeros((n, n, n), dtype=complex)
    for idx in np.ndindex(n, n, n):
        u = triples.index(tuple(sorted(x + 1 for x in idx)))
        C[idx] = cand.Sa[u] + 1j * cand.Sb[u]
    V = U.conj()
    C = np.einsum("abc,ai,bj,ck->ijk", C, V, V, V)
    entries = np.array([C[i - 1, j - 1, k - 1] for i, j, k in triples])
    return PSKCandidate(entries.real, entries.imag, R.T @ cand.kappa)


FRAME_CASES = {
    "ch1_curved": lambda: (ch1(2.0 / math.sqrt(3.0)), ch1_candidate(2.0 / math.sqrt(3.0))),
    "ch1_flat": lambda: (ch1(2.0), ch1_flat_candidate(2.0)),
    "four_dim": lambda: (four_dim_example(), four_dim_candidate()),
    "ch1_cubed": lambda: (ch1_cubed(2.0), ch1_cubed_candidate()),
    "ch2_flat": lambda: (complex_hyperbolic(2), complex_hyperbolic_candidate(2)),
    "ch3_flat": lambda: (complex_hyperbolic(3), complex_hyperbolic_candidate(3)),
}


@pytest.mark.parametrize("name", FRAME_CASES)
def test_unitary_frame_change_keeps_psk(name):
    # A U(n) change of adapted frame maps a PSK candidate to a PSK candidate
    # of the conjugated algebra, for the intrinsic residuals and the oracle.
    (L, B), cand = FRAME_CASES[name]()
    rng = np.random.default_rng(sorted(FRAME_CASES).index(name))
    for _ in range(3):
        R = _unitary_conjugation(B.n, rng)
        Lr = conjugate_algebra(L, R)
        moved = transport(cand, R)
        moved.validate(Lr)
        assert max(all_residuals(build_geometry(Lr, B), moved).values()) < 1e-9
        assert oracle_residual(Lr, B, moved) < 1e-9
        # kappa left in the old frame is no primitive there
        with pytest.raises(DSquaredError):
            oracle_residual(Lr, B, PSKCandidate(moved.Sa, moved.Sb, cand.kappa))
