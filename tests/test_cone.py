import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pskmap.catalog import (
    abelian,
    ch1,
    ch1_candidate,
    ch1_flat_candidate,
    complex_hyperbolic,
    complex_hyperbolic_candidate,
    four_dim_candidate,
    four_dim_example,
)
from pskmap.cone import (
    CForm,
    DSquaredError,
    TrigLaurent,
    _diagonal,
    cone_coframe,
    oracle_residual,
    special_blocks,
    special_cone,
    verify_eta_conditions,
    wedge_sum,
)
from pskmap.catalog import conjugate_algebra
from pskmap.cli import main
from pskmap.connection import levi_civita
from pskmap.forms import DenseExterior, all_keys, max_abs
from pskmap.intrinsic import all_residuals, build_geometry, pq_from_tensors, rotate, sym_tensor
from pskmap.io import save_algebra_file
from pskmap.lie import solve_primitive
from pskmap.tolerance import PRUNE


def integrability_display_residual(sc) -> float:
    """Residual of the differentiated-flatness displays in (u, v) form:
    M~^u - u^M~ + Lam~^v + v^Lam~ + 4 omega~_S ^ v  (and its partner)."""
    u, v = sc.u, sc.v
    M_l, L_l = sc.base_curvature
    four_omega_s = _diagonal(sc.CA._fixed["omega_s"].scale(4.0), sc.CA.n)
    r1 = wedge_sum((M_l, u), (-u, M_l), (L_l, v), (v, L_l), (four_omega_s, v))
    r2 = wedge_sum((M_l, v), (-v, M_l), (-L_l, u), (-u, L_l), (-four_omega_s, u))
    return max(r1.norm_inf(), r2.norm_inf())


def _padded(x, m):
    """A dense base one-form (a row of p or q) over the m cone generators."""
    return np.pad(x, (0, m - len(x)))


def _special_cone(L, B, cand):
    CA = cone_coframe(L, B, cand.kappa)
    p, q = pq_from_tensors(cand.Sa, cand.Sb)
    return special_cone(CA, levi_civita(L, B), p, q)


# Monomials t^k cos^a sin^b with negative t powers and unreduced sin powers;
# the public constructor reduces them to canonical form.
monomials = st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3))
coefficients = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1e-15, -1e-15]))
trig_laurents = st.dictionaries(monomials, coefficients, max_size=5).map(TrigLaurent)
points = st.tuples(st.floats(0.5, 2.0), st.floats(-math.pi, math.pi))


def assert_canonical(f):
    for (k, a, b), c in f.terms.items():
        assert a >= 0 and b in (0, 1)
        assert abs(c) > PRUNE


def close(got, want, *sizes):
    """Pointwise agreement up to rounding, scaled by the operands' sizes."""
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * (1.0 + sum(sizes)))


def size(f, t):
    """Bound on |f| near t (every monomial at its largest)."""
    return sum(abs(c) * max(t, 1.0 / t) ** abs(k) for (k, _, _), c in f.terms.items())


class TestTrigLaurent:
    def test_product_and_reduction(self):
        s = TrigLaurent.sin_tau()
        c = TrigLaurent.cos_tau()
        s2 = s * s
        # sin^2 = 1 - cos^2
        assert s2.terms == {(0, 0, 0): 1.0, (0, 2, 0): -1.0}
        prod = (s * c) * (s * c)
        tau = 0.77
        assert prod.eval(1.0, tau) == pytest.approx((math.sin(tau) * math.cos(tau)) ** 2)

    def test_derivatives(self):
        f = TrigLaurent.t_power(2) * TrigLaurent.cos_tau()
        t, tau = 1.3, 0.4
        assert f.dt().eval(t, tau) == pytest.approx(2 * t * math.cos(tau))
        assert f.dtau().eval(t, tau) == pytest.approx(-t * t * math.sin(tau))

    def test_double_angle(self):
        tau = 1.1
        assert TrigLaurent.cos_2tau().eval(1.0, tau) == pytest.approx(math.cos(2 * tau))
        assert TrigLaurent.sin_2tau().eval(1.0, tau) == pytest.approx(math.sin(2 * tau))

    def test_laurent_negative_power(self):
        f = TrigLaurent.t_power(-2, 3.0)
        assert f.eval(2.0, 0.0) == pytest.approx(0.75)
        assert f.dt().eval(2.0, 0.0) == pytest.approx(-6.0 / 8.0)

    def test_constant_detection(self):
        f = TrigLaurent.const(2.0) + TrigLaurent.sin_tau() * 0.0
        assert f.nonconstant_norm() == 0.0
        g = TrigLaurent.sin_tau() * TrigLaurent.sin_tau() + TrigLaurent.cos_tau() * TrigLaurent.cos_tau()
        assert g.nonconstant_norm() == 0.0 and g.constant_part() == pytest.approx(1.0)


class TestTrigLaurentProperties:
    """The trusted fast paths against pointwise evaluation."""

    @settings(max_examples=200, deadline=None)
    @given(trig_laurents, trig_laurents, points)
    def test_ring_operations(self, f, g, point):
        t, tau = point
        fv, gv = f.eval(t, tau), g.eval(t, tau)
        sf, sg = size(f, t), size(g, t)
        for got, want, bound in ((f + g, fv + gv, sf + sg), (f - g, fv - gv, sf + sg),
                                 (-f, -fv, sf), (f * g, fv * gv, sf * sg)):
            assert_canonical(got)
            close(got.eval(t, tau), want, bound)

    @settings(max_examples=200, deadline=None)
    @given(trig_laurents, st.floats(-3.0, 3.0), points)
    def test_constant_factor_products(self, f, c, point):
        t, tau = point
        want = c * f.eval(t, tau)
        for got in (f * TrigLaurent.const(c), TrigLaurent.const(c) * f, f * c, c * f):
            assert_canonical(got)
            close(got.eval(t, tau), want, abs(c) * size(f, t))

    @settings(max_examples=200, deadline=None)
    @given(trig_laurents, points)
    def test_derivatives(self, f, point):
        t, tau = point
        cs, sn = math.cos(tau), math.sin(tau)
        want_t = want_tau = 0.0
        for (k, a, b), c in f.terms.items():
            want_t += c * k * t ** (k - 1) * cs ** a * sn ** b
            want_tau += c * t ** k * (b * cs ** (a + 1) * sn ** max(b - 1, 0)
                                      - a * cs ** max(a - 1, 0) * sn ** (b + 1))
        ft, ftau = f.dt(), f.dtau()
        assert_canonical(ft)
        assert_canonical(ftau)
        close(ft.eval(t, tau), want_t, 3.0 * size(f, t) / t)
        close(ftau.eval(t, tau), want_tau, 3.0 * size(f, t))

    @given(trig_laurents)
    def test_constructor_output_canonical(self, f):
        assert_canonical(f)


class TestConeCoframe:
    def test_d_psi_hat_zero(self):
        L, B = four_dim_example()
        CA = cone_coframe(L, B, four_dim_candidate().kappa)
        psi_hat = CA.hatted_coframe()[-1]
        assert CA.d(psi_hat).norm_inf() == 0.0

    def test_d_phi_hat_display(self):
        L, B = four_dim_example()
        CA = cone_coframe(L, B, four_dim_candidate().kappa)
        phi_hat = CA.hatted_coframe()[2 * 2]
        # at t=1: psi ^ phi + 2 a~^T ^ b~
        got = CA.d(phi_hat).eval_at(1.0, 0.0)
        keys = all_keys(CA.m, 2)
        expect = np.zeros(len(keys))
        for key, val in {(5, 6): -1.0, (1, 3): 2.0, (2, 4): 2.0}.items():
            expect[keys.index(key)] = val
        assert max_abs(got - expect) < 1e-12

    def test_d_hatted_base(self):
        L, B = ch1(2.0)
        CA = cone_coframe(L, B, ch1_flat_candidate(2.0).kappa)
        a_hat = CA.hatted_coframe()[0]
        # d(t a~) = psi ^ a~ + t d(a~); here d(a~) = 0
        got = CA.d(a_hat)
        expect = CForm.basis(CA.m, CA.idx_psi).wedge(CForm.basis(CA.m, 1))
        assert (got - expect).norm_inf() < 1e-14

    def test_d_tau_one_form_closed(self):
        L, B = four_dim_example()
        CA = cone_coframe(L, B, four_dim_candidate().kappa)
        assert CA.d(CA.dtau).norm_inf() < 1e-14

    def test_d_squared_zero(self):
        L, B = four_dim_example()
        CA = cone_coframe(L, B, four_dim_candidate().kappa)
        assert CA.d_squared_residual() < 1e-12

    def test_bad_kappa_rejected(self):
        L, B = ch1(2.0)
        with pytest.raises(DSquaredError):
            cone_coframe(L, B, np.array([0.0, 1.0]))  # d(kappa) = 2 omega


class TestConeLeviCivita:
    # special_cone builds omega_LC with cone_lc, which raises on any residual
    def test_abelian_cone_structural(self):
        L, B = abelian(1)
        zero = np.zeros((1, 1, 2))
        special_cone(cone_coframe(L, B, None), levi_civita(L, B), zero, zero)

    def test_ch1_structural(self):
        _special_cone(*ch1(2.0), ch1_flat_candidate(2.0))

    def test_product_structural(self):
        _special_cone(*four_dim_example(), four_dim_candidate())


class TestEta:
    def test_tau_zero_slice_is_p(self):
        L, B = four_dim_example()
        cand = four_dim_candidate()
        sc = _special_cone(L, B, cand)
        p, q = pq_from_tensors(cand.Sa, cand.Sb)
        for i in range(2):
            for j in range(2):
                u0 = sc.u[i, j].eval_at(1.0, 0.0)
                assert max_abs(u0 - _padded(p[i, j], sc.CA.m)) < 1e-14
                v0 = sc.v[i, j].eval_at(1.0, 0.0)
                assert max_abs(v0 - _padded(q[i, j], sc.CA.m)) < 1e-14

    def test_quarter_z_slice(self):
        # at tau = pi/8 the rotation angle is pi/4: u = (p - q)/sqrt(2)
        L, B = four_dim_example()
        cand = four_dim_candidate()
        sc = _special_cone(L, B, cand)
        p, q = pq_from_tensors(cand.Sa, cand.Sb)
        u = sc.u[0, 1].eval_at(1.0, math.pi / 8)
        expect = _padded(p[0, 1] - q[0, 1], sc.CA.m) / math.sqrt(2)
        assert max_abs(u - expect) < 1e-12

    def test_zero_candidate_zero_eta(self):
        assert _special_cone(*ch1(2.0), ch1_flat_candidate(2.0)).eta.norm_inf() == 0.0


class TestEtaConditions:
    def _report(self, L, B, cand):
        return verify_eta_conditions(_special_cone(L, B, cand))

    def test_worked_example_all_zero(self):
        L, B = four_dim_example()
        rep = self._report(L, B, four_dim_candidate())
        assert max(rep.values()) < 1e-12

    def test_flat_cone_all_zero(self):
        L, B = ch1(2.0)
        rep = self._report(L, B, ch1_flat_candidate(2.0))
        assert max(rep.values()) < 1e-12

    def test_obstructed_case_flatness_only(self):
        L, B = ch1(1.5)
        rep = self._report(L, B, ch1_candidate(1.5))
        flat = rep.pop("flatness")
        assert max(rep.values()) < 1e-12
        assert flat > 1e-3


class TestSpecialBlocks:
    def test_worked_example_vanishes_identically(self):
        T, U, V, W = special_blocks(_special_cone(*four_dim_example(), four_dim_candidate()))
        assert max(x.norm_inf() for x in (T, U, V, W)) < 1e-12

    def test_flat_model(self):
        for n in (1, 2):
            sc = _special_cone(*complex_hyperbolic(n), complex_hyperbolic_candidate(n))
            assert max(x.norm_inf() for x in special_blocks(sc)) < 1e-12

    def test_doubled_kappa_breaks_uv_only(self):
        L, B = four_dim_example()
        cand = four_dim_candidate()
        conn = levi_civita(L, B)
        CA = cone_coframe(L, B, cand.kappa)
        p, q = pq_from_tensors(cand.Sa, cand.Sb)
        # replace skips cone_coframe's d^2 check, which would reject 2 kappa
        wrong = dataclasses.replace(CA, kappa=2.0 * cand.kappa)
        T, U, V, W = special_blocks(special_cone(wrong, conn, p, q))
        assert T.norm_inf() < 1e-12
        assert W.norm_inf() < 1e-12
        assert U.norm_inf() > 1.0
        assert V.norm_inf() > 1.0

    def test_tau_independence_of_T_and_W(self, rng):
        L, B = four_dim_example()
        conn = levi_civita(L, B)
        kappa = four_dim_candidate().kappa
        CA = cone_coframe(L, B, kappa)
        count = 0
        for _ in range(100):
            sa = rng.uniform(-1, 1, 4)
            sb = rng.uniform(-1, 1, 4)
            p, q = pq_from_tensors(sa, sb)
            T, U, V, W = special_blocks(special_cone(CA, conn, p, q))
            assert T.nonconstant_norm() < 1e-12
            assert W.nonconstant_norm() < 1e-12
            count += 1
        assert count == 100

    def test_differentiated_flatness_displays(self):
        # T = W = 0 with torsion makes the displayed (u, v) integrability
        # pair vanish even when U, V do not (kappa shifted off the solution)
        L, B = four_dim_example()
        cand = four_dim_candidate()
        conn = levi_civita(L, B)
        p, q = pq_from_tensors(cand.Sa, cand.Sb)
        shifted = cand.kappa + np.array([0.4, 0.0, 0.0, 0.0])
        sc = special_cone(cone_coframe(L, B, shifted), conn, p, q)
        T, U, V, W = special_blocks(sc)
        assert max(T.norm_inf(), W.norm_inf()) < 1e-12
        assert max(U.norm_inf(), V.norm_inf()) > 0.1
        assert integrability_display_residual(sc) < 1e-12


class TestOracleEquivalence:
    def test_solutions_and_non_solutions_agree(self, rng):
        cases = []
        L6, B6 = four_dim_example()
        cand6 = four_dim_candidate()
        cases.append((L6, B6, cand6, True))
        sa, sb = rotate(cand6.Sa, cand6.Sb, 1.1)
        from pskmap.intrinsic import PSKCandidate

        cases.append((L6, B6, PSKCandidate(sa, sb, cand6.kappa), True))
        cases.append((L6, B6,
                      PSKCandidate(sym_tensor(2, [(1, 1, 1, 0.7)]),
                                   sym_tensor(2, []), cand6.kappa), False))
        L1, B1 = ch1(2.0)
        cases.append((L1, B1, ch1_flat_candidate(2.0), True))
        c43 = 2.0 / math.sqrt(3.0)
        L4, B4 = ch1(c43)
        cases.append((L4, B4, ch1_candidate(c43), True))
        L15, B15 = ch1(1.5)
        cases.append((L15, B15, ch1_candidate(1.5), False))
        for L, B, cand, should_pass in cases:
            intrinsic = max(all_residuals(build_geometry(L, B), cand).values())
            cone = oracle_residual(L, B, cand)
            assert (intrinsic < 1e-9) == should_pass
            assert (cone < 1e-9) == should_pass
            if not should_pass:
                ratio = cone / intrinsic
                assert 0.25 <= ratio <= 4.0

    def test_three_factor_case(self, rng):
        from pskmap.catalog import ch1_cubed, ch1_cubed_candidate
        from pskmap.intrinsic import PSKCandidate

        L, B = ch1_cubed(2.0)
        good = ch1_cubed_candidate()
        assert oracle_residual(L, B, good) < 1e-12
        bad = PSKCandidate(
            rng.uniform(-1, 1, 10),
            rng.uniform(-1, 1, 10),
            good.kappa,
        )
        intrinsic = max(all_residuals(build_geometry(L, B), bad).values())
        cone = oracle_residual(L, B, bad)
        assert intrinsic > 1e-9 and cone > 1e-9
        assert 0.25 <= cone / intrinsic <= 4.0


def _unitary_frame(n, rng):
    """Random U(n) acting on (a_1..a_n, b_1..b_n), as a real 2n x 2n matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    return np.block([[q.real, -q.imag], [q.imag, q.real]])


def _random_cform(rng, m, degree):
    coeffs = {}
    for _ in range(4):
        key = tuple(sorted(rng.choice(np.arange(1, m + 1), size=degree, replace=False)))
        terms = {(int(rng.integers(-2, 3)), int(rng.integers(0, 3)), int(rng.integers(0, 2))):
                 float(rng.uniform(-2, 2)) for _ in range(3)}
        coeffs[key] = TrigLaurent(terms)
    return CForm(m, degree, coeffs)


class TestDerivationDense:
    def test_d_squared_on_random_forms_rotated_product(self, rng):
        # In a random U(2) frame every generator's rule is dense, so the
        # derivation splices every rule term into every monomial.
        L0, B = four_dim_example()
        L = conjugate_algebra(L0, _unitary_frame(2, rng))
        kappa, _ = solve_primitive(L, DenseExterior(4).kahler())
        CA = cone_coframe(L, B, kappa)
        assert all(len(CA.d_rules[i].coeffs) >= 4 for i in range(4))
        for degree in range(0, 4):
            for _ in range(5):
                f = _random_cform(rng, CA.m, degree)
                assert CA.d(CA.d(f)).norm_inf() < 1e-11 * (1.0 + f.norm_inf())


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestConeVerifyCommand:
    def test_builds_curvature_and_lc_once(self, monkeypatch, capsys):
        import pskmap.cone as cone_module

        calls = {"curvature_of": 0, "cone_lc": 0}
        for name in calls:
            original = getattr(cone_module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cone_module, name, counted)
        assert main(["cone-verify", str(FIXTURES / "ch1_cubed.json")]) == 0
        assert calls == {"curvature_of": 1, "cone_lc": 1}

    def test_obstructed_residuals_pinned(self, tmp_path, capsys):
        # Values of the implementation that rebuilt every object per check.
        pinned = {
            "torsion": 0.0, "special_symplectic_i": 0.0, "special_symplectic_g": 0.0,
            "conic_x": 0.0, "conic_jx": 0.0, "flatness": 3.42985260454278,
            "blocks_T": 0.0, "blocks_U": 3.42985260454278,
            "blocks_V": 3.42985260454278, "blocks_W": 0.0,
        }
        path = tmp_path / "ch1_1p5.json"
        save_algebra_file(str(path), *ch1(1.5), candidate=ch1_candidate(1.5))
        assert main(["cone-verify", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ResidualFailure"
        residuals = report["results"]["residuals"]
        assert residuals.keys() == pinned.keys()
        for name, value in pinned.items():
            assert residuals[name] == pytest.approx(value, rel=1e-12), name
