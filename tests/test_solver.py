import json
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from pskmap import cone, forms, intrinsic, solver
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
from pskmap.cli import main
from pskmap.forms import max_abs
from pskmap.intrinsic import PSKCandidate, all_residuals, rotate, sym_tensor
from pskmap.io import load_algebra_file
from pskmap.lie import NotExactError, PreconditionError
from pskmap.solver import (
    CompiledResidual,
    SolveConfig,
    build_geometry,
    certify_gauge_orbit,
    residual_vector,
    scan_curvature,
    solve,
)
from pskmap.tolerance import (
    INFEASIBILITY_FLOOR,
    LM_DAMPING,
    LM_DAMPING_MAX,
    LM_DAMPING_MIN,
    LM_DIAG_FLOOR,
    LM_GRADIENT_STOP,
    LM_MAX_ITERS,
    LM_RESIDUAL_STOP,
)


def _full_rows(fun, r):
    """Residuals (..., R) of the kept rows, expanded through the row map to
    every row of residual_vector's order."""
    return fun.row_sign * r[..., fun.row_map]


def _full_jacobian(fun, J):
    """Jacobians (..., R, d) of the kept rows, expanded likewise."""
    return fun.row_sign[:, None] * J[..., fun.row_map, :]


def _unmerged(monkeypatch, geom):
    """The compile of geom with every row kept: each row its own group."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_row_groups", lambda r0, *rest: (
            np.arange(len(r0)), np.arange(len(r0)), np.ones(len(r0))))
        return CompiledResidual(geom)


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
        fun = CompiledResidual(geom)
        for _ in range(10):
            x = rng.standard_normal(geom.n_unknowns)
            assert np.abs(_full_rows(fun, fun(x)) - residual_vector(x, geom)).max() < 1e-12

    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_quadratic_term_symmetric(self, name):
        # The triplet (r * d + i, j, v) stands for Q[r, i, j] = v; the set
        # of triplets equals its own (i, j) transpose.
        geom = GEOMETRIES[name]()
        fun = CompiledResidual(geom)
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
        fun = CompiledResidual(geom)
        R, d = len(fun.r0), geom.n_unknowns
        assert fun.r0.shape == (R,) and fun.shape == (R, d)
        assert fun.a_rows.shape == fun.a_vals.shape
        assert 0 <= fun.a_rows.min() and fun.a_rows.max() < R * d
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
    # 0.2 MB), where the dense (R, d, d) quadratic term of the full system
    # alone took 24 MB; the triplets are exactly the non-zeros of the kept
    # rows' dense term, with no repeats.
    geom = GEOMETRIES["ch4_model"]()
    fun = CompiledResidual(geom)
    arrays = [a for a in vars(fun).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 2_000_000
    R, d = fun.shape
    assert len(fun.row_map) * d * d * 8 > 24_000_000
    dense = np.zeros((R * d, d))
    np.add.at(dense, (fun.q_rows, fun.q_cols), fun.q_vals)
    assert np.count_nonzero(dense) == len(fun.q_vals)


def test_ch6_compiled_matches_direct(rng):
    geom = build_geometry(*complex_hyperbolic(6))
    fun = CompiledResidual(geom)
    for _ in range(3):
        x = rng.standard_normal(geom.n_unknowns)
        assert np.abs(_full_rows(fun, fun(x)) - residual_vector(x, geom)).max() < 1e-12


def test_ch6_compile_peak_memory():
    # The quadratic term is emitted from the basis stack's non-zeros, A is
    # held as triplets and the rows are grouped on integer signatures, so
    # the traced peak of the CH(6) compile stays under 24 MB (about 20.6 MB
    # here).  With a dense A it was 25.2 MB, and 37 MB with a dense
    # (c2, T, T) block per matrix entry.
    geom = build_geometry(*complex_hyperbolic(6))
    tracemalloc.start()
    try:
        CompiledResidual(geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24_000_000


# (full rows, kept rows) of each geometry of GEOMETRIES.
KEPT_ROWS = {"four_dim": (96, 47), "ch1_model": (4, 4), "ch2_model": (96, 43),
             "ch3_model": (540, 156), "ch4_model": (1792, 283), "ch5_model": (4500, 572),
             "ch1_cubed": (540, 208), "rotated_ch1_squared": (96, 78), "flat_plus_ch1": (80, 19)}


class TestRowMerging:
    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_row_map_reproduces_the_full_compile(self, monkeypatch, rng, name):
        # Expanded through the row map, the kept rows are the full compile's
        # rows: r0 and the Jacobian bit for bit.  The residuals agree to a few
        # ulps only: BLAS may sum the rows of a matrix-vector product's
        # trailing partial block in another kernel (1 ulp on 2 of the 78
        # kept rows of the rotated CH(1)^2).
        geom = GEOMETRIES[name]()
        fun, full = CompiledResidual(geom), _unmerged(monkeypatch, geom)
        X = rng.standard_normal((5, geom.n_unknowns))
        assert np.array_equal(_full_rows(fun, fun.r0), full.r0)
        for x in (np.zeros_like(X), X):
            assert np.array_equal(_full_jacobian(fun, fun.jacobian(x)), full.jacobian(x))
        r, r_full = _full_rows(fun, fun(X)), full(X)
        assert np.abs(r - r_full).max() <= 4 * np.finfo(float).eps * np.abs(r_full).max()

    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_groups_in_order_of_first_occurrence(self, name):
        # The multiplicities count every full row once; each kept row is the
        # first row of its group, unweighted, and the groups are numbered in
        # the order of their first rows (CH(4): 1,792 rows, 283 kept).
        fun = CompiledResidual(GEOMETRIES[name]())
        R = len(fun.row_map)
        assert fun.multiplicity.sum() == R
        assert np.array_equal(fun.multiplicity, np.bincount(fun.row_map))
        assert np.all(np.abs(fun.row_sign) == 1.0)
        groups, first = np.unique(fun.row_map, return_index=True)
        assert np.array_equal(groups, np.arange(len(fun.r0)))
        assert np.all(np.diff(first) > 0) and np.all(fun.row_sign[first] == 1.0)
        assert (R, len(fun.r0)) == KEPT_ROWS[name]

    def test_no_repeated_row_compiles_and_searches_unchanged(self, monkeypatch):
        # ch1(1.0) has 4 rows and none repeats: the compile keeps every row,
        # and the weighted search is the unweighted one, bit for bit.
        geom = build_geometry(*ch1(1.0))
        fun, full = CompiledResidual(geom), _unmerged(monkeypatch, geom)
        assert np.array_equal(fun.row_map, np.arange(4))
        assert np.all(fun.row_sign == 1.0) and np.all(fun.multiplicity == 1.0)
        for name in ("r0", "a_rows", "a_vals", "q_rows", "q_cols", "q_vals"):
            assert np.array_equal(getattr(fun, name), getattr(full, name))
        X = _starts(geom, 7)
        _assert_same_search(solver._lm_minimize(fun, X), _concat_searches(
            _one_start_lm(fun, x, weighted=False) for x in X))

    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_weighted_normal_equations_equal_the_full_rows(self, monkeypatch, rng, name):
        # Weighted by multiplicity, the kept rows give the full rows' cost,
        # gradient and Gauss-Newton matrix, up to rounding.
        geom = GEOMETRIES[name]()
        fun, full = CompiledResidual(geom), _unmerged(monkeypatch, geom)
        X = rng.standard_normal((3, geom.n_unknowns))
        w, r, r_full = np.sqrt(fun.multiplicity), fun(X), full(X)
        ones = np.ones(len(r_full[0]))
        pairs = [(solver._sq_norms(w * r), solver._sq_norms(r_full)),
                 *zip(solver._gauss_newton(fun, w, X, r),
                      solver._gauss_newton(full, ones, X, r_full))]
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("algebra", [four_dim_example, lambda: ch1(2.0 / math.sqrt(3.0))],
                         ids=["four_dim", "ch1_c_special"])
def test_compile_reads_the_kappa_term_sign_at_call_time(monkeypatch, rng, algebra):
    # The kappa cross terms of the compile read intrinsic.KAPPA_TERM_SIGN
    # when they are emitted, as dpq_matrices does: with the sign flipped the
    # compile still matches the direct evaluation, and differs from the
    # compile under the supported sign.
    geom = build_geometry(*algebra())
    assert len(geom.kernel) > 0
    X = rng.standard_normal((5, geom.n_unknowns))
    fun = CompiledResidual(geom)
    supported = _full_rows(fun, fun(X))
    monkeypatch.setattr(intrinsic, "KAPPA_TERM_SIGN", -1.0)
    fun = CompiledResidual(geom)
    for x, r in zip(X, supported):
        full = _full_rows(fun, fun(x))
        assert np.abs(full - residual_vector(x, geom)).max() < 1e-12
        assert np.abs(full - r).max() > 1e-3


@pytest.mark.parametrize("name", ["four_dim", "flat_plus_ch1"])
def test_intrinsic_side_never_calls_form_kernel(monkeypatch, rng, name):
    # The connection, curvature, residuals and compile run on the dense
    # kernel; the cone oracle's ring-coefficient form arithmetic (every
    # product expands pairs in _expand and every result is summed by
    # _canonical; its bracket rules are its own) is its own, so acceptance 6
    # compares two independent computations.  The geometry is built under
    # the counters, so levi_civita and curvature are watched too.
    calls = []
    for target in (cone._expand, cone._canonical, cone._bracket_rules):
        def counted(*args, _f=target, **kwargs):
            calls.append(_f.__name__)
            return _f(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if (module_name.split(".")[0] == "pskmap"
                    and getattr(module, target.__name__, None) is target):
                monkeypatch.setattr(module, target.__name__, counted)
    geom = GEOMETRIES[name]()
    if geom.exact:
        all_residuals(geom, four_dim_candidate())
    residual_vector(rng.standard_normal(geom.n_unknowns), geom)
    CompiledResidual(geom)
    assert calls == []


@pytest.mark.parametrize("name", ["four_dim", "flat_plus_ch1"])
def test_evaluators_share_the_geometry_kernel(monkeypatch, rng, name):
    # The geometry holds the one DenseExterior, which its connection,
    # curvature and CH(n) model are built on too; once it is built, no
    # residual, compile or solve report builds a kernel of its own.
    built = []
    original = forms.DenseExterior.__init__

    def counted(self, m):
        built.append(m)
        original(self, m)

    monkeypatch.setattr(forms.DenseExterior, "__init__", counted)
    geom = GEOMETRIES[name]()
    assert built == [2 * geom.n]
    built.clear()
    all_residuals(geom, four_dim_candidate())
    residual_vector(rng.standard_normal(geom.n_unknowns), geom)
    CompiledResidual(geom)
    result = solve(geom, SolveConfig(starts=2, seed=0))
    assert ("d_p" in result.per_equation) == geom.exact
    assert built == []


@pytest.mark.parametrize("name", ["abelian_r2", "ch1_c1", "ch1_c2", "ch1_c_third", "ch1_cubed",
                                  "four_dim"])
def test_check_and_solve_report_the_same_equations(monkeypatch, capsys, name):
    # check's residuals and solve's per_equation, both on the fixture's own
    # candidate: one equation list, so the shared names agree exactly and
    # check's dpq is the larger of solve's d_p and d_q.
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", f"{name}.json")
    af = load_algebra_file(path)
    geom = build_geometry(af.L, af.B, allow_nonexact=True)
    res = all_residuals(geom, af.candidate)
    main(["check", path])
    report = json.loads(capsys.readouterr().out)
    if report["status"] != "Precondition":
        assert report["results"]["residuals"] == res
    monkeypatch.setattr(solver, "_normalized_candidate", lambda g, x: (af.candidate, ""))
    per_eq = solve(geom, SolveConfig(starts=1, seed=0)).per_equation
    for key in ("t_pq", "w_pq", "integrability_1", "integrability_2"):
        assert per_eq[key] == res[key]
    assert ("d_p" in per_eq) == geom.exact
    if geom.exact:
        assert res["dpq"] == max(per_eq["d_p"], per_eq["d_q"])


class TestJacobian:
    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_matches_finite_differences(self, rng, name):
        geom = GEOMETRIES[name]()
        fun = CompiledResidual(geom)
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
        fun = CompiledResidual(geom)
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
            Sa = x[:t]
            Sb = x[t:2 * t]
            Ra, Rb = rotate(Sa, Sb, s)
            xr = np.concatenate([Ra, Rb, x[2 * t:]])
            rotated = np.linalg.norm(residual_vector(xr, geom))
            assert abs(base - rotated) < 1e-9 * (1 + base)


# Geometries the batched search is checked on: points of the CH(1) family
# (infeasible, and feasible at 2/sqrt(3) and 2), the kappa-free R^2 x CH(1)
# at c = 2 (every start stops on damping) and c = 1.4 (on the iteration
# cap), the CH(2) model and four_dim.
LM_GEOMETRIES = {
    "ch1_c1.3": lambda: build_geometry(*ch1(1.3)),
    "ch1_c_special": lambda: build_geometry(*ch1(2.0 / math.sqrt(3.0))),
    "ch1_c2": lambda: build_geometry(*ch1(2.0)),
    "flat_ch1_c2": lambda: build_geometry(*flat_plus_ch1(2.0), allow_nonexact=True),
    "flat_ch1_c1.4": lambda: build_geometry(*flat_plus_ch1(1.4), allow_nonexact=True),
    "ch2_model": lambda: build_geometry(*complex_hyperbolic(2)),
    "four_dim": lambda: build_geometry(*four_dim_example()),
}


def _starts(geom, count, seed=5):
    return np.array([np.random.default_rng((seed, s)).uniform(-1.0, 1.0, size=geom.n_unknowns)
                     for s in range(count)])


def _one_start_lm(fun, x0, weighted=True):
    """Reference: the one-start Levenberg-Marquardt loop, with the reason it
    stops; returns what _lm_minimize returns for a batch of one start.  Each
    kept row is weighted by the square root of its multiplicity, or, when
    not weighted, the plain J^T J and J^T r are taken."""
    w = np.sqrt(fun.multiplicity) if weighted else 1.0
    x, lam, iters, reason = x0.copy(), LM_DAMPING, 0, "iterations"
    r = fun(x)
    cost = float((w * r) @ (w * r))
    for _ in range(LM_MAX_ITERS):
        if np.abs(r).max() < LM_RESIDUAL_STOP:
            reason = "residual"
            break
        J = fun.jacobian(x)
        if weighted:
            J = w[:, None] * J
        g = J.T @ (w * r)
        if np.abs(g).max() < LM_GRADIENT_STOP:
            reason = "gradient"
            break
        H = J.T @ J
        diag = np.diag(np.maximum(np.diag(H), LM_DIAG_FLOOR))
        accepted = False
        while True:
            try:
                step = np.linalg.solve(H + lam * diag, -g)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(H + lam * diag, -g, rcond=None)[0]
            r_new = fun(x + step)
            cost_new = float((w * r_new) @ (w * r_new))
            if cost_new < cost:
                x, r, cost = x + step, r_new, cost_new
                lam = max(lam / 3.0, LM_DAMPING_MIN)
                iters += 1
                accepted = True
                break
            lam *= 4.0
            if lam > LM_DAMPING_MAX:
                break
        if not accepted:
            reason = "damping"
            break
    return x[None], np.array([np.abs(r).max()]), [solver.StartStop(iters, lam, reason)]


def _concat_searches(results):
    points, residuals, stops = zip(*results)
    return np.concatenate(points), np.concatenate(residuals), sum(stops, [])


def _assert_same_search(a, b):
    """Two _lm_minimize results (points, residuals, stops) agree bit for bit."""
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert a[2] == b[2]


class TestBatchedSearch:
    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_batch_rows_equal_single_calls(self, rng, name):
        geom = GEOMETRIES[name]()
        fun = CompiledResidual(geom)
        X = rng.standard_normal((5, geom.n_unknowns))
        r, J = fun(X), fun.jacobian(X)
        assert r.shape == (5, len(fun.r0)) and J.shape == (5,) + fun.shape
        for x, r_x, J_x in zip(X, r, J):
            assert np.array_equal(r_x, fun(x))
            assert np.array_equal(J_x, fun.jacobian(x))
        # a smaller batch after a larger one reads a slice of the offsets
        assert np.array_equal(fun(X[:2]), r[:2])

    @pytest.mark.parametrize("name", LM_GEOMETRIES)
    def test_batch_equals_one_start_batches(self, name):
        # ... and the one-start loop itself, stop reasons included.
        geom = LM_GEOMETRIES[name]()
        fun = CompiledResidual(geom)
        X = _starts(geom, 7)
        batched = solver._lm_minimize(fun, X)
        _assert_same_search(batched, _concat_searches(
            solver._lm_minimize(fun, X[s:s + 1]) for s in range(len(X))))
        _assert_same_search(batched, _concat_searches(_one_start_lm(fun, x) for x in X))

    @pytest.mark.parametrize("name", LM_GEOMETRIES)
    def test_solve_does_not_depend_on_chunking(self, monkeypatch, name):
        # 7 starts in one chunk, in chunks of 3 (3 + 3 + 1) and one at a time.
        geom = LM_GEOMETRIES[name]()
        size = math.prod(CompiledResidual(geom).shape)
        cfg = SolveConfig(starts=7, seed=5)
        results = []
        for batch in (solver.LM_BATCH, 3 * size, 1):
            monkeypatch.setattr(solver, "LM_BATCH", batch)
            results.append(solve(geom, cfg))
        first = results[0]
        for other in results[1:]:
            assert other.start_residuals == first.start_residuals
            assert other.start_stops == first.start_stops
            assert other.best_residual == first.best_residual
            assert other.per_equation == first.per_equation

    def test_no_jacobian_for_a_start_that_stops_on_residual(self, monkeypatch):
        # Every start on ch1(2) stops on the residual test, which runs before
        # the Jacobian: no Jacobian is built at a point that passes it.
        geom = LM_GEOMETRIES["ch1_c2"]()
        fun = CompiledResidual(geom)
        seen, jacobian = [], fun.jacobian
        monkeypatch.setattr(fun, "jacobian", lambda x: seen.append(x.copy()) or jacobian(x))
        x_end, _, stops = solver._lm_minimize(fun, _starts(geom, 7))
        assert [s.reason for s in stops] == ["residual"] * 7
        points = np.concatenate(seen)
        assert np.abs(fun(points)).max(axis=1).min() >= LM_RESIDUAL_STOP
        assert not any((points == x).all(axis=1).any() for x in x_end)

    def test_start_stops(self):
        stops = solve(LM_GEOMETRIES["ch1_c2"](), SolveConfig(starts=4, seed=1)).start_stops
        assert [s.reason for s in stops] == ["residual"] * 4
        stops = solve(LM_GEOMETRIES["flat_ch1_c2"](), SolveConfig(starts=4, seed=1)).start_stops
        assert [s.reason for s in stops] == ["damping"] * 4
        assert all(s.damping > LM_DAMPING_MAX for s in stops)
        stops = solve(LM_GEOMETRIES["flat_ch1_c1.4"](), SolveConfig(starts=2, seed=1)).start_stops
        assert [(s.iterations, s.reason) for s in stops] == [(LM_MAX_ITERS, "iterations")] * 2

    def test_singular_stack_falls_back_per_start(self, rng):
        # One singular matrix in the stack: it takes the least-squares step,
        # and every other start the step it would take alone.
        M = rng.standard_normal((4, 3, 3))
        M[2] = np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 0.5])
        rhs = rng.standard_normal((4, 3))
        steps = solver._solve_steps(M, rhs)
        for s in (0, 1, 3):
            assert np.array_equal(steps[s], np.linalg.solve(M[s], rhs[s]))
        assert np.array_equal(steps[2], np.linalg.lstsq(M[2], rhs[2], rcond=None)[0])

    @pytest.mark.parametrize("name", ["ch1_c1.3", "flat_ch1_c2", "four_dim"])
    def test_stacked_solve_failure_changes_no_start(self, monkeypatch, name):
        # Every stacked solve raises LinAlgError, so every round solves
        # each start alone: the search is the same, bit for bit.
        geom = LM_GEOMETRIES[name]()
        fun = CompiledResidual(geom)
        X = _starts(geom, 5)
        expected = solver._lm_minimize(fun, X)
        solve_one = np.linalg.solve
        stacked = []

        def failing(M, b):
            if M.ndim == 3:
                stacked.append(len(M))
                raise np.linalg.LinAlgError("Singular matrix")
            return solve_one(M, b)

        monkeypatch.setattr(np.linalg, "solve", failing)
        _assert_same_search(solver._lm_minimize(fun, X), expected)
        assert stacked and stacked[0] == 5


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
        x = res.candidate.Sa[0]  # the (1, 1, 1) entry
        assert max_abs(res.candidate.Sb) < 1e-8
        assert abs(abs(x) - c) < 1e-6  # |x| = 2/sqrt(3)

    def test_product_on_known_orbit(self):
        L, B = four_dim_example()
        geom = build_geometry(L, B)
        res = solve(geom, SolveConfig(starts=16, seed=3))
        assert res.status == "Solved"
        assert res.best_residual < 1e-8
        assert certify_gauge_orbit(res.candidate, four_dim_candidate()) < 1e-7

    def test_reports_the_first_solved_start(self):
        # Start 0 is solved, start 4 has a lower residual: the report is
        # start 0's, as when it runs alone, and best_residual the minimum.
        geom = build_geometry(*four_dim_example())
        full = solve(geom, SolveConfig(starts=8, seed=1))
        first = solve(geom, SolveConfig(starts=1, seed=1))
        assert first.status == "Solved"
        assert min(full.start_residuals) < full.start_residuals[0]
        assert full.best_residual == min(full.start_residuals)
        assert full.gauge_note == first.gauge_note
        assert full.per_equation == first.per_equation

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
        sa, sb = rotate(cand.Sa, cand.Sb, 0.7)
        rotated = PSKCandidate(sa, sb, cand.kappa)
        assert certify_gauge_orbit(rotated, cand) < 1e-12

    def test_distance_to_zero_candidate_is_norm(self):
        cand = four_dim_candidate()
        zero = PSKCandidate(sym_tensor(2, []), sym_tensor(2, []), cand.kappa)
        # distance to the origin is the rotation-invariant tensor norm
        va, vb = cand.Sa, cand.Sb
        expect = math.sqrt(float(va @ va + vb @ vb))
        assert certify_gauge_orbit(cand, zero) == pytest.approx(expect)
        # and it does not depend on the gauge representative
        sa, sb = rotate(cand.Sa, cand.Sb, 1.3)
        rotated = PSKCandidate(sa, sb, cand.kappa)
        assert certify_gauge_orbit(rotated, zero) == pytest.approx(expect)

    def test_generic_candidates_apart(self, rng):
        kappa = four_dim_candidate().kappa
        a = PSKCandidate(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4), kappa)
        b = PSKCandidate(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4), kappa)
        assert certify_gauge_orbit(a, b) > 1e-3


class TestScan:
    def test_ch1_coarse_scan_brackets_minima(self):
        cfg = SolveConfig(starts=8, seed=5)
        grid = [1.0 + (3.0 - 1.0) * i / 20 for i in range(21)]
        result = scan_curvature(lambda c: ch1(c), grid, cfg, polish=False)
        assert len(result.points) == 21
        residuals = {round(p.parameter, 2): p.best_residual for p in result.points}
        assert residuals[2.0] < 1e-8
        assert residuals[3.0] > 1e-2

    def test_explicit_values(self):
        cfg = SolveConfig(starts=8, seed=5)
        result = scan_curvature(lambda c: ch1_cubed(c), [1.8, 2.0], cfg, polish=False)
        by_param = {p.parameter: p.status for p in result.points}
        assert by_param[2.0] == "Solved"
        assert by_param[1.8] == "LikelyInfeasible"
