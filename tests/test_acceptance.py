"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Every tolerance is pinned here, not configured elsewhere.
"""

import math
import time

import numpy as np

from pskmap.catalog import (
    ch1,
    ch1_candidate,
    ch1_cubed,
    ch1_cubed_candidate,
    ch1_flat_candidate,
    flat_plus_ch1,
    four_dim_candidate,
    four_dim_example,
    random_kahler_algebra,
)
from pskmap.cmap import qk_algebra, qk_verify
from pskmap.cone import cone_coframe, oracle_residual, special_blocks
from pskmap.connection import (
    _koszul_matrix,
    _structural_residual,
    ch_model,
    curvature,
    levi_civita,
)
from pskmap.forms import DenseExterior, max_abs, wedge
from pskmap.intrinsic import (
    PSKCandidate,
    SymTensor3,
    all_residuals,
    pq_from_tensors,
    rotate_tensors,
    tpq_residual,
    wpq_residual,
)
from pskmap.lie import ce_differential, solve_primitive
from pskmap.forms import kahler_form
from pskmap.solver import (
    SolveConfig,
    build_geometry,
    certify_gauge_orbit,
    compiled,
    residual_vector,
    scan_curvature,
    solve,
)

from conftest import random_form

C_SPECIAL = 2.0 / math.sqrt(3.0)


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_worked_example_residuals():
    start = time.monotonic()
    L, B = four_dim_example()
    res = all_residuals(L, B, four_dim_candidate())
    elapsed = time.monotonic() - start
    assert max(res.values()) < 1e-9, res
    assert elapsed < 1.0
    _report(1, f"worked-example residuals all < 1e-9 (max {max(res.values()):.2e}, "
               f"{elapsed:.2f}s)")


def test_criterion_2_curvature_ledger():
    start = time.monotonic()
    L, B = ch1(2.0)
    conn = levi_civita(L, B)
    K = curvature(conn, L)
    model = ch_model(1)
    ext = DenseExterior(2)
    assert max_abs(conn.lam[0, 0] + 2.0 * ext.basis(2)) < 1e-12
    assert max_abs(K.Lam[0, 0] + 4.0 * ext.basis(1, 2)) < 1e-12
    assert max_abs(K.M - model.M) < 1e-12
    assert max_abs(K.Lam - model.Lam) < 1e-12

    L6, B6 = four_dim_example()
    K6 = curvature(levi_civita(L6, B6), L6)
    ext6 = DenseExterior(4)
    r1 = float(K6.Lam[0, 0] @ ext6.basis(1, 3))
    r2 = float(K6.Lam[1, 1] @ ext6.basis(2, 4))
    assert abs(r1 + 2.0) < 1e-12 and abs(r2 + 4.0) < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, f"CH(1) blocks match the model exactly; factor curvatures "
               f"r1 = {r1:g}, r2 = {r2:g} ({elapsed:.2f}s)")


def test_criterion_3_ch1_feasibility_scan():
    start = time.monotonic()
    cfg = SolveConfig(starts=16, seed=11)
    result = scan_curvature(lambda c: ch1(c), 1.0, 3.0, 101, cfg, polish=True)
    feasible = sorted(result.feasible)
    assert len(feasible) == 2, feasible
    assert abs(feasible[0] - C_SPECIAL) < 1e-3
    assert abs(feasible[1] - 2.0) < 1e-3

    c_star = feasible[0]
    geom = build_geometry(*ch1(c_star))
    res = solve(geom, SolveConfig(starts=32, seed=11))
    assert res.status == "Solved"
    x = res.candidate.Sa.get(1, 1, 1)
    assert abs(abs(x) - C_SPECIAL) < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(3, f"feasible set {{{feasible[0]:.6f}, {feasible[1]:.6f}}}, "
               f"|x| = {abs(x):.9f} vs 2/sqrt(3) = {C_SPECIAL:.9f} ({elapsed:.1f}s)")


def test_criterion_4_triple_product():
    start = time.monotonic()
    cfg = SolveConfig(starts=24, seed=13)
    statuses = {}
    orbit_distance = None
    for c in (1.6, 1.8, 2.0, 2.2, 2.4):
        geom = build_geometry(*ch1_cubed(c))
        res = solve(geom, cfg)
        statuses[c] = res.status
        if c == 2.0:
            assert res.status == "Solved"
            orbit_distance = certify_gauge_orbit(res.candidate, ch1_cubed_candidate())
    assert statuses[2.0] == "Solved"
    assert all(s != "Solved" for c, s in statuses.items() if c != 2.0), statuses
    assert orbit_distance < 1e-7
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(4, f"CH(1)^3 solved only at c = 2; orbit distance to the cyclic "
               f"pattern {orbit_distance:.2e} ({elapsed:.1f}s)")


def test_criterion_5_flat_factor_falsification():
    start = time.monotonic()
    cfg = SolveConfig(starts=64, seed=17)
    worsts = {}
    for c in (1.2, 1.6, 2.0, 2.4, 2.8):
        geom = build_geometry(*flat_plus_ch1(c), allow_nonexact=True)
        res = solve(geom, cfg)
        assert res.status == "LikelyInfeasible", (c, res.status, res.best_residual)
        assert res.mode == "kappa_free"
        assert len(res.start_residuals) == 64
        assert min(res.start_residuals) > 1e-2
        worsts[c] = res.best_residual
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(5, "flat-factor family LikelyInfeasible at every c; best residuals "
               + ", ".join(f"{c}: {r:.2f}" for c, r in worsts.items())
               + f" (heuristic corroboration only; {elapsed:.1f}s)")


def test_criterion_6_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)

    def random_candidate(L, B):
        n = B.n
        kappa0, kernel = solve_primitive(L, kahler_form(n))
        kappa = kappa0
        for k in kernel:
            kappa = kappa + float(rng.uniform(-1, 1)) * k
        size = len(SymTensor3.zero(n).to_vector())
        sa = SymTensor3.from_vector(n, rng.uniform(-1.2, 1.2, size))
        sb = SymTensor3.from_vector(n, rng.uniform(-1.2, 1.2, size))
        return PSKCandidate(sa, sb, kappa)

    cases = []
    L1, B1 = ch1(2.0)
    cases.append((L1, B1, ch1_flat_candidate(2.0)))
    for _ in range(9):
        cases.append((L1, B1, random_candidate(L1, B1)))
    L2, B2 = ch1(C_SPECIAL)
    for k in range(5):
        sa, sb = rotate_tensors(ch1_candidate(C_SPECIAL).Sa,
                                ch1_candidate(C_SPECIAL).Sb, 0.6 * k)
        cases.append((L2, B2, PSKCandidate(sa, sb, ch1_candidate(C_SPECIAL).kappa)))
    for _ in range(5):
        cases.append((L2, B2, random_candidate(L2, B2)))
    L3, B3 = four_dim_example()
    base = four_dim_candidate()
    for k in range(5):
        sa, sb = rotate_tensors(base.Sa, base.Sb, 0.45 * k)
        cases.append((L3, B3, PSKCandidate(sa, sb, base.kappa)))
    for _ in range(5):
        cases.append((L3, B3, random_candidate(L3, B3)))
    for _ in range(2):
        L, B = random_kahler_algebra(2, rng)
        for _ in range(10):
            cases.append((L, B, random_candidate(L, B)))
    assert len(cases) == 50

    agreements = 0
    passes = 0
    for L, B, cand in cases:
        intrinsic = max(all_residuals(L, B, cand).values())
        cone = oracle_residual(L, B, cand)
        ok_i = intrinsic < 1e-9
        ok_c = cone < 1e-9
        assert ok_i == ok_c, (intrinsic, cone)
        if not ok_i:
            ratio = cone / intrinsic
            assert 0.25 <= ratio <= 4.0, ratio
        agreements += 1
        passes += ok_i
    elapsed = time.monotonic() - start
    assert agreements == 50
    assert elapsed < 120.0
    _report(6, f"intrinsic and cone verdicts agree on 50/50 candidates "
               f"({passes} feasible, {50 - passes} infeasible; {elapsed:.1f}s)")


def test_criterion_7_cmap_outputs():
    results = []
    for name, (L, B), cand, dim in (
        ("CH(1) c=2", ch1(2.0), ch1_flat_candidate(2.0), 8),
        ("CH(1) c=2/sqrt3", ch1(C_SPECIAL), ch1_candidate(C_SPECIAL), 8),
        ("CH(1)xCH(1)", four_dim_example(), four_dim_candidate(), 12),
        ("CH(1)^3", ch1_cubed(2.0), ch1_cubed_candidate(), 16),
    ):
        start = time.monotonic()
        Q = qk_algebra(L, B, cand)
        rep = qk_verify(Q)
        elapsed = time.monotonic() - start
        assert rep.dim == dim == 4 * B.n + 4
        assert rep.jacobi_residual < 1e-9
        assert rep.gram_min_eig > 0.1
        assert rep.sp1_residual < 1e-8
        assert rep.completely_solvable
        assert elapsed < 30.0
        results.append(f"{name} -> dim {rep.dim} ({elapsed:.1f}s)")
    _report(7, "; ".join(results))


class TestCriterion8PropertySuites:
    def test_wedge_properties(self, rng):
        count = 0
        for _ in range(100):
            m = int(rng.integers(4, 9))
            degs = [int(rng.integers(1, 4)) for _ in range(3)]
            x, y, z = (random_form(rng, m, d) for d in degs)
            assoc = (wedge(wedge(x, y), z) - wedge(x, wedge(y, z))).norm_inf()
            sign = (-1.0) ** (degs[0] * degs[1])
            anti = (wedge(x, y) - sign * wedge(y, x)).norm_inf()
            assert max(assoc, anti) < 1e-9
            count += 1
        assert count == 100
        _report("8a", "wedge associativity and graded anticommutativity, 100 cases")

    def test_d_squared(self, rng):
        count = 0
        for _ in range(100):
            n = int(rng.integers(1, 4))
            L, _ = random_kahler_algebra(n, rng)
            x = random_form(rng, L.dim, int(rng.integers(1, 3)))
            assert ce_differential(L, ce_differential(L, x)).norm_inf() < 1e-9
            count += 1
        assert count == 100
        _report("8b", "d o d = 0 on random invariant forms, 100 cases")

    def test_koszul_vs_structural(self, rng):
        count = 0
        for _ in range(100):
            n = int(rng.integers(1, 4))
            L, _ = random_kahler_algebra(n, rng)
            assert _structural_residual(L, _koszul_matrix(L)) < 1e-10
            count += 1
        assert count == 100
        _report("8c", "Koszul connection solves the structure equation, 100 cases")

    def test_jacobian_vs_finite_differences(self, rng):
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        fun = compiled(geom)
        h = 1e-6
        count = 0
        for _ in range(100):
            x = rng.standard_normal(geom.n_unknowns)
            J = fun.jacobian(x)
            i = int(rng.integers(geom.n_unknowns))
            e = np.zeros(geom.n_unknowns)
            e[i] = h
            fd = (fun(x + e) - fun(x - e)) / (2 * h)
            rel = np.abs(J[:, i] - fd).max() / (1.0 + np.abs(J[:, i]).max())
            assert rel < 1e-5
            count += 1
        assert count == 100
        _report("8d", "analytic Jacobian matches central differences, 100 cases")

    def test_gauge_invariance(self, rng):
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        K = curvature(levi_civita(L, B), L)
        t = geom.n_tensor
        count = 0
        for _ in range(100):
            x = rng.uniform(-1, 1, geom.n_unknowns)
            s = float(rng.uniform(0, 2 * math.pi))
            Sa = SymTensor3.from_vector(2, x[:t])
            Sb = SymTensor3.from_vector(2, x[t:2 * t])
            Ra, Rb = rotate_tensors(Sa, Sb, s)
            xr = np.concatenate([Ra.to_vector(), Rb.to_vector(), x[2 * t:]])
            n0 = np.linalg.norm(residual_vector(x, geom))
            n1 = np.linalg.norm(residual_vector(xr, geom))
            assert abs(n0 - n1) < 1e-9 * (1.0 + n0)
            p0, q0 = pq_from_tensors(Sa, Sb)
            p1, q1 = pq_from_tensors(Ra, Rb)
            assert abs(tpq_residual(K, p0, q0) - tpq_residual(K, p1, q1)) < 1e-9
            assert abs(wpq_residual(K, p0, q0) - wpq_residual(K, p1, q1)) < 1e-9
            count += 1
        assert count == 100
        _report("8e", "residual norm invariant under random gauge rotations, 100 cases")

    def test_tau_independence(self, rng):
        L, B = four_dim_example()
        conn = levi_civita(L, B)
        CA = cone_coframe(L, B, four_dim_candidate().kappa)
        count = 0
        for _ in range(100):
            sa = SymTensor3.from_vector(2, rng.uniform(-1, 1, 4))
            sb = SymTensor3.from_vector(2, rng.uniform(-1, 1, 4))
            p, q = pq_from_tensors(sa, sb)
            T, U, V, W = special_blocks(CA, conn, p, q)
            assert T.nonconstant_norm() < 1e-12
            assert W.nonconstant_norm() < 1e-12
            count += 1
        assert count == 100
        _report("8f", "T and W blocks carry no trigonometric coefficients, 100 cases")
