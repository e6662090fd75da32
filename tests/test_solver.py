import math
import sys

import numpy as np
import pytest

from pskmap import cone, solver
from pskmap.catalog import (
    _unitary_conjugation,
    ch1,
    ch1_cubed,
    ch1_cubed_candidate,
    ch1_flat_candidate,
    ch1_product,
    complex_hyperbolic,
    conjugate_algebra,
    flat_plus_ch1,
    four_dim_candidate,
    four_dim_example,
)
from pskmap.connection import curvature, levi_civita
from pskmap.intrinsic import PSKCandidate, all_residuals, rotate_tensors
from pskmap.lie import NotExactError, PreconditionError
from pskmap.solver import (
    CompiledResidual,
    SolveConfig,
    build_geometry,
    certify_gauge_orbit,
    compiled,
    residual_vector,
    scan_curvature,
    solve,
)
from pskmap.tolerance import INFEASIBILITY_FLOOR


def _rotated_ch1_squared():
    L, B = ch1_product([1.5, 2.5])
    return conjugate_algebra(L, _unitary_conjugation(2, np.random.default_rng(11))), B


# Geometries the compiled residual is checked on: exact ones of every n up
# to 5, a dense (rotated) frame, and the kappa-free stack.
GEOMETRIES = {
    "four_dim": lambda: build_geometry(*four_dim_example()),
    "ch1_model": lambda: build_geometry(*complex_hyperbolic(1)),
    "ch2_model": lambda: build_geometry(*complex_hyperbolic(2)),
    "ch3_model": lambda: build_geometry(*complex_hyperbolic(3)),
    "ch4_model": lambda: build_geometry(*complex_hyperbolic(4)),
    "ch5_model": lambda: build_geometry(*complex_hyperbolic(5)),
    "ch1_cubed": lambda: build_geometry(*ch1_cubed(2.0)),
    "rotated_ch1_squared": lambda: build_geometry(*_rotated_ch1_squared()),
    "flat_plus_ch1": lambda: build_geometry(*flat_plus_ch1(2.0), allow_nonexact=True),
}


class TestConfig:
    def test_defaults_valid(self):
        cfg = SolveConfig()
        assert cfg.starts == 64 and cfg.success_threshold < INFEASIBILITY_FLOOR

    def test_threshold_ordering_enforced(self):
        with pytest.raises(PreconditionError):
            SolveConfig(success_threshold=0.1)


class TestResidualVector:
    def test_worked_example_zero(self):
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        r = residual_vector(four_dim_candidate(), geom)
        assert np.abs(r).max() < 1e-12

    def test_flat_cone_zero(self):
        L, B = ch1(2.0)
        geom = build_geometry(L, B)
        r = residual_vector(ch1_flat_candidate(2.0), geom)
        assert np.abs(r).max() == 0.0

    def test_mismatched_curvature_entry(self):
        L, B = ch1(1.0)
        geom = build_geometry(L, B)
        r = residual_vector(ch1_flat_candidate(1.0), geom)
        assert np.abs(r).max() == pytest.approx(3.0)

    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_compiled_matches_direct(self, rng, name):
        geom = GEOMETRIES[name]()
        fun = compiled(geom)
        for _ in range(10):
            x = rng.standard_normal(geom.n_unknowns)
            assert np.abs(fun(x) - residual_vector(x, geom)).max() < 1e-12

    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_quadratic_term_symmetric(self, name):
        # The triplet (r * d + i, j, v) stands for Q[r, i, j] = v; the set
        # of triplets equals its own (i, j) transpose.
        geom = GEOMETRIES[name]()
        fun = compiled(geom)
        row, i = np.divmod(fun.q_rows, geom.n_unknowns)
        j = fun.q_cols

        def ordered(first, second):
            order = np.lexsort((second, first, row))
            return row[order], first[order], second[order], fun.q_vals[order]

        for a, b in zip(ordered(i, j), ordered(j, i)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["four_dim", "flat_plus_ch1"])
    def test_compile_never_evaluates_residual_vector(self, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError("compile evaluated residual_vector")

        geom = GEOMETRIES[name]()
        monkeypatch.setattr(solver, "residual_vector", refuse)
        fun = compiled(geom)
        R, d = len(fun.r0), geom.n_unknowns
        assert fun.r0.shape == (R,) and fun.A.shape == (R, d)
        nnz = len(fun.q_vals)
        assert nnz > 0
        assert fun.q_rows.shape == fun.q_cols.shape == fun.q_vals.shape == (nnz,)
        assert 0 <= fun.q_rows.min() and fun.q_rows.max() < R * d
        assert 0 <= fun.q_cols.min() and fun.q_cols.max() < d

    def test_not_exact_propagates(self):
        L, B = flat_plus_ch1(2.0)
        with pytest.raises(NotExactError):
            build_geometry(L, B)
        geom = build_geometry(L, B, allow_nonexact=True)
        assert not geom.exact


def test_ch4_quadratic_term_is_held_sparse():
    # The ndarray attributes of the CH(4) compile weigh under 2 MB (about
    # 1.1 MB), where the dense (R, d, d) quadratic term alone took 24 MB; the
    # triplets are exactly the non-zeros of that dense term, with no repeats.
    geom = GEOMETRIES["ch4_model"]()
    fun = compiled(geom)
    arrays = [a for a in vars(fun).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 2_000_000
    R, d = fun.A.shape
    dense = np.zeros((R * d, d))
    np.add.at(dense, (fun.q_rows, fun.q_cols), fun.q_vals)
    assert dense.nbytes > 24_000_000
    assert np.count_nonzero(dense) == len(fun.q_vals)


@pytest.mark.parametrize("name", ["four_dim", "flat_plus_ch1"])
def test_intrinsic_side_never_calls_form_kernel(monkeypatch, rng, name):
    # The connection, curvature, residuals and compile run on the dense
    # kernel; the cone oracle's ring-coefficient form arithmetic (every
    # product expands pairs in _expand and every result is summed by
    # _canonical; its bracket rules are its own) is its own, so acceptance 6
    # compares two independent computations.
    geom = GEOMETRIES[name]()
    calls = []
    for target in (cone._expand, cone._canonical, cone._bracket_rules):
        def counted(*args, _f=target, **kwargs):
            calls.append(_f.__name__)
            return _f(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if (module_name.split(".")[0] == "pskmap"
                    and getattr(module, target.__name__, None) is target):
                monkeypatch.setattr(module, target.__name__, counted)
    L, B = geom.L, geom.B
    conn = levi_civita(L, B)
    K = curvature(conn, L)
    if geom.exact:
        all_residuals(L, B, four_dim_candidate(), conn, K)
        all_residuals(L, B, four_dim_candidate())
    residual_vector(rng.standard_normal(geom.n_unknowns), geom)
    CompiledResidual(geom)
    assert calls == []


class TestJacobian:
    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_matches_finite_differences(self, rng, name):
        geom = GEOMETRIES[name]()
        fun = compiled(geom)
        h = 1e-6
        count = 0
        for _ in range(100):
            x = rng.standard_normal(geom.n_unknowns)
            J = fun.jacobian(x)
            cols = rng.choice(geom.n_unknowns, size=3, replace=False)
            for i in cols:
                e = np.zeros(geom.n_unknowns)
                e[i] = h
                fd = (fun(x + e) - fun(x - e)) / (2 * h)
                denom = 1.0 + np.abs(J[:, i]).max()
                assert np.abs(J[:, i] - fd).max() / denom < 1e-5
            count += 1
        assert count == 100

    def test_quadratic_exactness(self, rng):
        # r(x + h) - r(x) - J(x) h must be exactly quadratic in h:
        # three-point collinearity of the second difference
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        fun = compiled(geom)
        for _ in range(20):
            x = rng.standard_normal(geom.n_unknowns)
            h = rng.standard_normal(geom.n_unknowns)
            J = fun.jacobian(x)

            def excess(scale):
                return fun(x + scale * h) - fun(x) - scale * (J @ h)

            e1, e2, e4 = excess(1.0), excess(2.0), excess(4.0)
            # quadratic => excess(s) = s^2 excess(1)
            assert np.abs(e2 - 4.0 * e1).max() < 1e-8 * (1 + np.abs(e2).max())
            assert np.abs(e4 - 16.0 * e1).max() < 1e-8 * (1 + np.abs(e4).max())

    def test_gauge_flat_direction(self, rng):
        # the 2-norm of the residual is invariant under the gauge rotation
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        t = geom.n_tensor
        for _ in range(100):
            x = rng.standard_normal(geom.n_unknowns)
            base = np.linalg.norm(residual_vector(x, geom))
            s = float(rng.uniform(0, 2 * math.pi))
            from pskmap.intrinsic import SymTensor3

            Sa = SymTensor3.from_vector(2, x[:t])
            Sb = SymTensor3.from_vector(2, x[t:2 * t])
            Ra, Rb = rotate_tensors(Sa, Sb, s)
            xr = np.concatenate([Ra.to_vector(), Rb.to_vector(), x[2 * t:]])
            rotated = np.linalg.norm(residual_vector(xr, geom))
            assert abs(base - rotated) < 1e-9 * (1 + base)


class TestSolve:
    def test_ch1_c2_flat_solution(self):
        L, B = ch1(2.0)
        geom = build_geometry(L, B)
        res = solve(geom, SolveConfig(starts=16, seed=1))
        assert res.status == "Solved"
        assert res.best_residual < 1e-10

    def test_ch1_special_curvature(self):
        c = 2.0 / math.sqrt(3.0)
        L, B = ch1(c)
        geom = build_geometry(L, B)
        res = solve(geom, SolveConfig(starts=16, seed=1))
        assert res.status == "Solved"
        x = res.candidate.Sa.get(1, 1, 1)
        assert res.candidate.Sb.norm_inf() < 1e-8
        assert abs(abs(x) - c) < 1e-6  # |x| = 2/sqrt(3)

    def test_product_on_known_orbit(self):
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        res = solve(geom, SolveConfig(starts=16, seed=3))
        assert res.status == "Solved"
        assert res.best_residual < 1e-8
        assert certify_gauge_orbit(res.candidate, four_dim_candidate()) < 1e-7

    def test_ch5_model_solves(self):
        res = solve(build_geometry(*complex_hyperbolic(5)), SolveConfig(starts=8, seed=1))
        assert res.status == "Solved"

    def test_determinism(self):
        L, B = ch1(1.9)
        geom = build_geometry(L, B)
        cfg = SolveConfig(starts=8, seed=42)
        r1 = solve(geom, cfg)
        r2 = solve(build_geometry(L, B), cfg)
        assert r1.status == r2.status
        assert r1.best_residual == pytest.approx(r2.best_residual, abs=1e-12)
        assert r1.start_residuals == pytest.approx(r2.start_residuals, abs=1e-12)

    def test_infeasible_family(self):
        L, B = flat_plus_ch1(1.4)
        geom = build_geometry(L, B, allow_nonexact=True)
        res = solve(geom, SolveConfig(starts=16, seed=0))
        assert res.status == "LikelyInfeasible"
        assert res.mode == "kappa_free"
        assert min(res.start_residuals) > 1e-2


class TestGaugeOrbit:
    def test_same_orbit_distance_zero(self):
        cand = four_dim_candidate()
        sa, sb = rotate_tensors(cand.Sa, cand.Sb, 0.7)
        rotated = PSKCandidate(sa, sb, cand.kappa)
        assert certify_gauge_orbit(rotated, cand) < 1e-12

    def test_distance_to_zero_candidate_is_norm(self):
        cand = four_dim_candidate()
        from pskmap.intrinsic import SymTensor3

        zero = PSKCandidate(SymTensor3.zero(2), SymTensor3.zero(2), cand.kappa)
        # distance to the origin is the rotation-invariant tensor norm
        va, vb = cand.Sa.to_vector(), cand.Sb.to_vector()
        expect = math.sqrt(float(va @ va + vb @ vb))
        assert certify_gauge_orbit(cand, zero) == pytest.approx(expect)
        # and it does not depend on the gauge representative
        sa, sb = rotate_tensors(cand.Sa, cand.Sb, 1.3)
        rotated = PSKCandidate(sa, sb, cand.kappa)
        assert certify_gauge_orbit(rotated, zero) == pytest.approx(expect)

    def test_generic_candidates_apart(self, rng):
        from pskmap.intrinsic import SymTensor3

        kappa = four_dim_candidate().kappa
        a = PSKCandidate(SymTensor3.from_vector(2, rng.uniform(-1, 1, 4)),
                         SymTensor3.from_vector(2, rng.uniform(-1, 1, 4)), kappa)
        b = PSKCandidate(SymTensor3.from_vector(2, rng.uniform(-1, 1, 4)),
                         SymTensor3.from_vector(2, rng.uniform(-1, 1, 4)), kappa)
        assert certify_gauge_orbit(a, b) > 1e-3


class TestScan:
    def test_ch1_coarse_scan_brackets_minima(self):
        cfg = SolveConfig(starts=8, seed=5)
        result = scan_curvature(lambda c: ch1(c), 1.0, 3.0, 21, cfg, polish=False)
        assert len(result.points) == 21
        residuals = {round(p.parameter, 2): p.best_residual for p in result.points}
        assert residuals[2.0] < 1e-8
        assert residuals[3.0] > 1e-2

    def test_explicit_values(self):
        cfg = SolveConfig(starts=8, seed=5)
        result = scan_curvature(lambda c: ch1_cubed(c), 0, 0, 0, cfg,
                                values=[1.8, 2.0], polish=False)
        by_param = {p.parameter: p.status for p in result.points}
        assert by_param[2.0] == "Solved"
        assert by_param[1.8] == "LikelyInfeasible"
