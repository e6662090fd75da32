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
from pskmap.cmap import (
    EXP_SIGN,
    NotInvariantError,
    NotPSKError,
    build_twist_frame,
    hk_forms,
    qk_algebra,
    qk_verify,
    twist_differential,
    verify_hyperkahler_frame,
)
from pskmap.cone import CForm, TrigLaurent
from pskmap.connection import levi_civita
from pskmap.intrinsic import PSKCandidate, rotate_tensors
from pskmap.lie import LieAlgebra, adjoint_matrix, jacobi_residual


@pytest.fixture(scope="module")
def frame_ch1():
    L, B = ch1(2.0)
    return build_twist_frame(L, B, ch1_flat_candidate(2.0), levi_civita(L, B))


class TestTwistFrame:
    def test_d_squared_zero(self, frame_ch1):
        assert frame_ch1.d_squared_residual() < 1e-12

    def test_curvature_correction_closed(self, frame_ch1):
        assert frame_ch1.d(frame_ch1.curvature_correction()).norm_inf() < 1e-12

    def test_flatness_required(self):
        # an obstructed candidate has a non-flat special connection
        L, B = ch1(1.5)
        with pytest.raises(NotPSKError):
            build_twist_frame(L, B, ch1_candidate(1.5), levi_civita(L, B))


class TestTwistDifferential:
    def test_psi_tilde_closed(self, frame_ch1):
        TF = frame_ch1
        psit = CForm.basis(TF.m, TF.idx_psi).scale(TrigLaurent.t_power(-1))
        assert twist_differential(TF, psit).norm_inf() < 1e-14

    def test_base_forms_unchanged(self, frame_ch1):
        TF = frame_ch1
        a1 = CForm.basis(TF.m, 1)
        assert (twist_differential(TF, a1) - TF.d(a1)).norm_inf() == 0.0

    def test_phi_picks_up_curvature(self, frame_ch1):
        TF = frame_ch1
        phi = CForm.basis(TF.m, TF.idx_phi)
        correction = TF.curvature_correction().scale(TrigLaurent.t_power(-2, 2.0))
        expect = TF.d(phi) + correction
        assert (twist_differential(TF, phi) - expect).norm_inf() < 1e-14

    def test_non_invariant_rejected(self, frame_ch1):
        TF = frame_ch1
        delta_1 = CForm.basis(TF.m, TF.delta_index(1))
        with pytest.raises(NotInvariantError):
            twist_differential(TF, delta_1)


class TestHKForms:
    def test_omega_I_fiber_coefficients(self, frame_ch1):
        hk = hk_forms(frame_ch1)
        TF = frame_ch1
        key = (TF.delta_index(1), TF.delta_index(2))
        assert hk.omega_I.coeffs[key].constant_part() == pytest.approx(1.0)

    def test_F_is_minus_omega_I(self, frame_ch1):
        hk = hk_forms(frame_ch1)
        assert (hk.F + hk.omega_I).norm_inf() < 1e-14

    def test_g_N_at_t1_is_twice_identity(self, frame_ch1):
        hk = hk_forms(frame_ch1)
        for idx in range(1, frame_ch1.m + 1):
            assert hk.g_N[idx].eval(1.0, 0.0) == pytest.approx(2.0)

    def test_hyperkahler_triple_verified(self, frame_ch1):
        rep = verify_hyperkahler_frame(frame_ch1)
        assert rep["closed"] < 1e-12
        assert rep["squares"] < 1e-12
        assert rep["ij_minus_k"] < 1e-12
        assert rep["rotation"] < 1e-12
        assert rep["invariance_i"] < 1e-12

    def test_hyperkahler_triple_nonflat_case(self):
        L, B = four_dim_example()
        TF = build_twist_frame(L, B, four_dim_candidate(), levi_civita(L, B))
        rep = verify_hyperkahler_frame(TF)
        assert max(rep.values()) < 1e-12


class TestQKAlgebra:
    def test_ch1_c2_output(self):
        L, B = ch1(2.0)
        Q = qk_algebra(L, B, ch1_flat_candidate(2.0))
        assert Q.dim == 8
        assert Q.jacobi < 1e-10
        assert jacobi_residual(Q.algebra) < 1e-10

    def test_four_dim_output(self):
        L, B = four_dim_example()
        Q = qk_algebra(L, B, four_dim_candidate())
        assert Q.dim == 12

    def test_second_ch1_structure_differs(self):
        c = 2.0 / math.sqrt(3.0)
        Q1 = qk_algebra(*ch1(2.0), ch1_flat_candidate(2.0))
        Q2 = qk_algebra(*ch1(c), ch1_candidate(c))
        assert Q1.dim == Q2.dim == 8
        r1, r2 = qk_verify(Q1), qk_verify(Q2)
        assert r1.derived_series != r2.derived_series

    def test_flat_model_n2(self):
        L, B = complex_hyperbolic(2)
        Q = qk_algebra(L, B, complex_hyperbolic_candidate(2))
        assert Q.dim == 12
        assert qk_verify(Q).sp1_residual < 1e-8

    def test_rejects_non_psk(self):
        L, B = ch1(1.5)
        with pytest.raises(NotPSKError):
            qk_algebra(L, B, ch1_candidate(1.5))

    def test_gauge_independent_invariants(self):
        L, B = four_dim_example()
        cand = four_dim_candidate()
        sa, sb = rotate_tensors(cand.Sa, cand.Sb, 0.73)
        rep0 = qk_verify(qk_algebra(L, B, cand))
        rep1 = qk_verify(qk_algebra(L, B, PSKCandidate(sa, sb, cand.kappa)))
        assert rep0.derived_series == rep1.derived_series
        assert np.abs(np.array(rep0.killing_eigs) - np.array(rep1.killing_eigs)).max() < 1e-8


class TestQKVerify:
    @pytest.mark.parametrize(
        "algebra,cand,dim",
        [
            ("ch1_c2", None, 8),
            ("ch1_c43", None, 8),
            ("four_dim", None, 12),
            ("cubed", None, 16),
        ],
    )
    def test_all_outputs_green(self, algebra, cand, dim):
        cases = {
            "ch1_c2": (ch1(2.0), ch1_flat_candidate(2.0)),
            "ch1_c43": (ch1(2.0 / math.sqrt(3.0)), ch1_candidate(2.0 / math.sqrt(3.0))),
            "four_dim": (four_dim_example(), four_dim_candidate()),
            "cubed": (ch1_cubed(2.0), ch1_cubed_candidate()),
        }
        (L, B), candidate = cases[algebra]
        Q = qk_algebra(L, B, candidate)
        rep = qk_verify(Q)
        assert rep.dim == dim
        assert rep.jacobi_residual < 1e-9
        assert rep.gram_min_eig > 0.1
        assert rep.sp1_residual < 1e-8
        assert rep.completely_solvable

    def test_kappa_shift_along_closed_form_rotates_ad_e1(self):
        # A solver output on CH(2) can sit anywhere along the closed one-form
        # a^1: shifting kappa by l there gives ad_{e1} of the output
        # eigenvalues with imaginary part exactly 2l, so complete solvability
        # fails for l well above noise, while the sp(1) fit stays exact.
        L, B = complex_hyperbolic(2)
        flat = complex_hyperbolic_candidate(2)
        l = 0.0306
        shifted = PSKCandidate(flat.Sa, flat.Sb, flat.kappa + np.array([l, 0.0, 0.0, 0.0]))
        Q = qk_algebra(L, B, shifted)
        eig = np.linalg.eigvals(adjoint_matrix(Q.algebra, np.eye(Q.dim)[0]))
        assert abs(np.abs(eig.imag).max() - 2.0 * l) < 1e-6
        rep = qk_verify(Q)
        assert not rep.completely_solvable
        assert rep.sp1_residual < 1e-8
        assert qk_verify(qk_algebra(L, B, flat)).adjoint_imag_max < 1e-5

    def test_perturbed_constants_fail(self, rng):
        L, B = ch1(2.0)
        Q = qk_algebra(L, B, ch1_flat_candidate(2.0))
        rows = [list(b) for b in Q.algebra.brackets]
        rows[0][3] += 0.05
        rows[4][3] -= 0.07
        bad = LieAlgebra.from_brackets(Q.dim, [tuple(r) for r in rows])
        assert jacobi_residual(bad) > 1e-3
        from dataclasses import replace

        Qbad = replace(Q, algebra=bad, jacobi=jacobi_residual(bad))
        rep = qk_verify(Qbad)
        assert rep.jacobi_residual > 1e-3
        assert rep.sp1_residual > 1e-6

    def test_exponential_sign_locked(self):
        # the invariant fiber coframe exists only for exp(-i tau); the
        # mechanical checks in qk_algebra enforce it, this is the record
        assert EXP_SIGN == -1.0

    def test_wrong_exponential_sign_caught(self, monkeypatch):
        import pskmap.cmap as cmap_module

        monkeypatch.setattr(cmap_module, "EXP_SIGN", +1.0)
        L, B = ch1(2.0)
        with pytest.raises(cmap_module.NonConstantError):
            qk_algebra(L, B, ch1_flat_candidate(2.0))
