"""The cone oracle's coordinate kernel against the dict reference.

tests/dict_cone.py is the oracle's former kernel: dicts of terms, one term
pair at a time.  Every operation of the coordinate kernel (wedge, the
derivation, interior, substitute, and a float matrix times a form matrix
as CFormMatrix.constant(S).wedge(A)) must give the same terms on random
forms, up to rounding: negative t powers, sin * sin products (rewritten as
1 - cos^2) and the dense rules of cones in random U(n) frames and of a
twist frame included.
"""

import ast
import inspect
import math

import dict_cone as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pskmap.cone as cone
from pskmap.catalog import conjugate_algebra, four_dim_candidate, four_dim_example
from pskmap.catalog import ch1_cubed
from pskmap.cmap import build_twist_frame
from pskmap.cone import (
    K_LIMIT,
    CForm,
    CFormMatrix,
    KeyTables,
    TrigLaurent,
    cone_coframe,
)
from pskmap.connection import levi_civita
from pskmap.forms import DenseExterior
from pskmap.lie import solve_primitive
from pskmap.tolerance import PRUNE

BOUND = 1e-12
PROPERTY = settings(max_examples=40, deadline=None)
seeds = st.integers(0, 2**32 - 1)


# -- conversions -------------------------------------------------------------


def terms_of(x: CFormMatrix) -> dict:
    """{(row, col, key tuple, (k, a, b)): value} of a coordinate matrix."""
    keys = KeyTables(x.m).keys(x.degree)
    k, a, b = cone._fields(x.mono)
    return {(int(r), int(c), tuple(int(i) for i in keys[K]), (int(kk), int(aa), int(bb))):
            float(v) for r, c, K, kk, aa, bb, v in zip(x.row, x.col, x.key, k, a, b, x.val)}


def ref_terms_of(X) -> dict:
    """The same dict of a reference CForm or CFormMatrix."""
    grid = [[X]] if isinstance(X, ref.CForm) else X.entries
    return {(i, j, key, mono): c
            for i, row in enumerate(grid) for j, f in enumerate(row)
            for key, tl in f.coeffs.items() for mono, c in tl.terms.items()}


def ref_form(f: CForm):
    """The reference form with the terms of a 1 x 1 coordinate matrix."""
    return ref.CForm(f.m, f.degree,
                     {key: ref.TrigLaurent(tl.terms) for key, tl in f.coeffs.items()})


def ref_matrix(x: CFormMatrix):
    """The reference matrix with x's terms."""
    R, C = x.shape
    return ref.CFormMatrix([[ref_form(x[i, j]) for j in range(C)] for i in range(R)])


def assert_same(got: CFormMatrix, want) -> None:
    a, b = terms_of(got), ref_terms_of(want)
    worst = max((abs(a.get(t, 0.0) - b.get(t, 0.0)) for t in set(a) | set(b)), default=0.0)
    assert worst <= BOUND, worst


# -- random data ---------------------------------------------------------------


def random_ring(rng, size=3) -> dict:
    """Terms with negative t powers and both sin powers."""
    return {(int(rng.integers(-3, 4)), int(rng.integers(0, 4)), int(rng.integers(0, 2))):
            float(rng.uniform(-2, 2)) for _ in range(size)}


def random_form(rng, m, degree, entries=4) -> CForm:
    coeffs = {}
    for _ in range(entries):
        key = tuple(sorted(int(i) for i in rng.choice(np.arange(1, m + 1), degree,
                                                       replace=False)))
        coeffs[key] = TrigLaurent(random_ring(rng))
    return CForm(m, degree, coeffs)


def random_matrix(rng, shape, m, degree) -> CFormMatrix:
    R, C = shape
    forms = [random_form(rng, m, degree, int(rng.integers(0, 4))) for _ in range(R * C)]
    return CFormMatrix.stack(forms).reshape(shape)


def _unitary_frame(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    return np.block([[q.real, -q.imag], [q.imag, q.real]])


def _rotated_cone(L0, B, n, seed):
    L = conjugate_algebra(L0, _unitary_frame(n, np.random.default_rng(seed)))
    kappa, _ = solve_primitive(L, DenseExterior(2 * n).kahler())
    return cone_coframe(L, B, kappa)


@pytest.fixture(scope="module")
def algebras():
    """Cones with dense rules (random frames) and a twist frame, whose
    Delta rules have trigonometric coefficients."""
    L, B = four_dim_example()
    TF = build_twist_frame(L, B, four_dim_candidate(), levi_civita(L, B))
    return [_rotated_cone(*four_dim_example(), 2, 1), _rotated_cone(*ch1_cubed(2.0), 3, 2), TF]


def reference_d(CA, x):
    """The reference derivation, entry by entry."""
    rules = [ref_form(r) for r in CA.d_rules]
    dtau = ref_form(CA.dtau)
    return ref.CFormMatrix([[ref.apply_derivation(ref_form(x[i, j]), rules, dtau, CA.idx_psi,
                                                  CA.exact)
                             for j in range(x.shape[1])] for i in range(x.shape[0])])


# -- the properties ------------------------------------------------------------


class TestAgainstDictKernel:
    @PROPERTY
    @given(seeds)
    def test_wedge(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 8))
        p, q = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        R, S, C = (int(x) for x in rng.integers(1, 4, 3))
        X, Y = random_matrix(rng, (R, S), m, p), random_matrix(rng, (S, C), m, q)
        assert_same(X.wedge(Y), ref_matrix(X).wedge(ref_matrix(Y)))

    @PROPERTY
    @given(seeds)
    def test_ring_product_with_sin_squared(self, seed):
        rng = np.random.default_rng(seed)
        f, g = TrigLaurent(random_ring(rng, 4)), TrigLaurent(random_ring(rng, 4))
        want = ref.TrigLaurent(f.terms) * ref.TrigLaurent(g.terms)
        got = f * g
        keys = set(got.terms) | set(want.terms)
        assert all(b in (0, 1) for (_, _, b) in got.terms)
        assert max((abs(got.terms.get(t, 0.0) - want.terms.get(t, 0.0)) for t in keys),
                   default=0.0) <= BOUND

    @PROPERTY
    @given(seeds, st.integers(0, 2))
    def test_derivation(self, algebras, seed, which):
        CA = algebras[which]
        rng = np.random.default_rng(seed)
        degree = int(rng.integers(0, 3))
        x = random_matrix(rng, (2, 2), CA.m, degree)
        assert_same(CA.d(x), reference_d(CA, x))

    @PROPERTY
    @given(seeds, st.integers(0, 2))
    def test_interior(self, algebras, seed, which):
        CA = algebras[which]
        rng = np.random.default_rng(seed)
        x = random_matrix(rng, (2, 1), CA.m, int(rng.integers(1, 4)))
        ring = TrigLaurent(random_ring(rng))
        idx = [int(i) for i in rng.choice(np.arange(1, CA.m + 1), 2, replace=False)]
        got = x.interior({idx[0]: ring, idx[1]: TrigLaurent.t_power(1)})
        want_pairing = {idx[0]: ref.TrigLaurent(ring.terms), idx[1]: ref.TrigLaurent.t_power(1)}
        want = [[ref_form(x[i, 0]).interior(want_pairing)] for i in range(2)]
        assert_same(got, ref.CFormMatrix(want))

    @PROPERTY
    @given(seeds)
    def test_substitute(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 7))
        x = random_form(rng, m, int(rng.integers(0, 4)))
        images = [random_form(rng, m, 1, 2) for _ in range(m)]
        got = x.substitute(CFormMatrix.stack(images))
        want = ref_form(x).substitute({i + 1: ref_form(f) for i, f in enumerate(images)})
        assert_same(got, want)

    @PROPERTY
    @given(seeds)
    def test_scalar_matmul(self, seed):
        rng = np.random.default_rng(seed)
        A = random_matrix(rng, (3, 2), 5, int(rng.integers(0, 3)))
        S = rng.standard_normal((4, 3)) * (rng.random((4, 3)) < 0.6)
        assert_same(CFormMatrix.constant(S, A.m, A.tables).wedge(A),
                    ref.scalar_matmul(S, ref_matrix(A)))

    @PROPERTY
    @given(seeds, st.sampled_from([1, 3]))
    def test_products_in_small_chunks(self, algebras, seed, chunk):
        """Wedge, derivation and substitute with chunks of 1 or 3 pairs, so
        that every product takes many chunks and single left terms outrun a
        chunk."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 7))
        X, Y = random_matrix(rng, (2, 3), m, 1), random_matrix(rng, (3, 2), m, 1)
        CA = algebras[int(rng.integers(0, 3))]
        x = random_matrix(rng, (2, 2), CA.m, int(rng.integers(0, 3)))
        f = random_form(rng, m, int(rng.integers(0, 4)))
        images = [random_form(rng, m, 1, 2) for _ in range(m)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cone, "CHUNK", chunk)
            wedge, d, sub = X.wedge(Y), CA.d(x), f.substitute(CFormMatrix.stack(images))
        assert_same(wedge, ref_matrix(X).wedge(ref_matrix(Y)))
        assert_same(d, reference_d(CA, x))
        assert_same(sub, ref_form(f).substitute({i + 1: ref_form(g)
                                                 for i, g in enumerate(images)}))

    def test_d_squared_matches_on_rotated_generators(self, algebras):
        for CA in algebras:
            gens = CFormMatrix.stack([CA.basis(i) for i in range(1, CA.m + 1)])
            assert_same(CA.d(gens), reference_d(CA, gens))
            assert_same(CA.d(CA.d(gens)), reference_d(CA, CA.d(gens)))


# -- the canonical form and its range ------------------------------------------


def test_products_stay_canonical():
    rng = np.random.default_rng(7)
    X = random_matrix(rng, (3, 3), 6, 1)
    for Y in (X.wedge(X), X.wedge(X) - X.wedge(X), X.scale(TrigLaurent.sin_tau())):
        code = (((Y.row * Y.shape[1] + Y.col) * math.comb(6, Y.degree) + Y.key)
                << cone.MONO_BITS) | Y.mono
        assert (np.diff(code) > 0).all()
        assert (np.abs(Y.val) > PRUNE).all()
        assert ((Y.mono & 3) <= 1).all()


@pytest.mark.parametrize("chunk", [1, 3, 5])
def test_pairs_cover_every_pair_once_in_bounded_chunks(monkeypatch, chunk):
    monkeypatch.setattr(cone, "CHUNK", chunk)
    starts = np.array([0, 4, 4, 5, 9])          # runs of 4, 0, 1 and 4 right terms
    group = np.array([3, 0, 1, 2, 0, 3])
    chunks = list(cone._pairs(group, starts))
    got = sorted((int(i), int(j)) for li, rj in chunks for i, j in zip(li, rj))
    want = sorted((i, j) for i, g in enumerate(group) for j in range(starts[g], starts[g + 1]))
    assert got == want
    # a chunk is longer than CHUNK only when one left term alone outruns it
    assert all(len(li) <= chunk or len(set(li.tolist())) == 1 for li, _ in chunks)
    assert len(chunks) > 1


def test_entries_out_of_range_raise():
    rng = np.random.default_rng(3)
    X = random_matrix(rng, (3, 2), 4, 1)
    assert terms_of(X[-1, -2]) == terms_of(X[2, 0])
    assert terms_of(X[1]) == terms_of(X[1, 0])
    for ij in (3, -4, (0, 2), (0, -3), (3, 0)):
        with pytest.raises(IndexError):
            X[ij]


def test_monomial_outside_the_code_range_raises():
    high = TrigLaurent.t_power(K_LIMIT - 1)
    with pytest.raises(OverflowError):
        high * high
    with pytest.raises(OverflowError):
        TrigLaurent.t_power(K_LIMIT)
    with pytest.raises(OverflowError):
        TrigLaurent({(0, cone.A_LIMIT, 0): 1.0})
    cos_sin = TrigLaurent({(0, cone.A_LIMIT - 1, 1): 1.0})    # d/dtau raises cos's power
    with pytest.raises(OverflowError):
        cos_sin.dtau()


def test_oracle_builds_its_own_sign_tables():
    """cone.py imports no parity code from the intrinsic side."""
    tree = ast.parse(inspect.getsource(cone))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "sort_with_sign" not in imported
    assert "sort_with_sign" not in vars(cone)


# -- dense frames end to end ---------------------------------------------------


@pytest.fixture(scope="module")
def dense_frame_files(tmp_path_factory):
    """Solved CH(1)^2 and CH(1)^3 candidates in random U(n) frames, as files:
    every bracket, rule and connection entry is dense there."""
    from pskmap.catalog import ch1_product
    from pskmap.io import save_algebra_file
    from pskmap.solver import SolveConfig, build_geometry, solve

    out = tmp_path_factory.mktemp("dense")
    files = {}
    for n, cs, seed in ((2, [math.sqrt(2.0), 2.0], 11), (3, [2.0, 2.0, 2.0], 12)):
        L0, B = ch1_product(cs)
        L = conjugate_algebra(L0, _unitary_frame(n, np.random.default_rng(seed)))
        result = solve(build_geometry(L, B), SolveConfig(starts=8, seed=seed))
        assert result.status == "Solved"
        files[n] = out / f"ch1pow{n}_rotated.json"
        save_algebra_file(str(files[n]), L, B, candidate=result.candidate)
    return files


@pytest.mark.parametrize("n", [2, 3])
def test_dense_frame_candidates_pass_oracle_and_twist(dense_frame_files, n, capsys):
    import json

    from pskmap.cli import main

    path = str(dense_frame_files[n])
    for command in ("cone-verify", "cmap"):
        assert main([command, path]) == 0, command
        assert json.loads(capsys.readouterr().out)["status"] == "ok"


@pytest.mark.parametrize("n", [2, 3])
def test_dense_frame_tampered_candidate_fails_oracle(dense_frame_files, n, tmp_path, capsys):
    import json

    from pskmap.cli import main

    obj = json.loads(dense_frame_files[n].read_text(encoding="utf-8"))
    row = max(obj["candidate"]["Sa"], key=lambda r: abs(r[3]))
    row[3] *= 1.0 + 1e-3
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj))
    assert main(["cone-verify", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "ResidualFailure"
