"""Known bugs, planted one at a time, and the check that catches each.

Each case monkeypatches one mistake into the library and asserts which
check fails.  The Koszul case and a sign flip of the intrinsic side's d-rules
(lie.d_matrix) are caught by levi_civita's own structure equation; the same
flip of the oracle's own bracket rules (cone.cone_coframe) by the cone's
d^2 = 0 check on its tau-dependent coefficients; the kappa-sign and curvature cases by the intrinsic
residuals alone, so the oracle (which has no such sign and computes its own
base curvature) disagrees with them as acceptance 6 would report; the
exponential-sign case by the twist's invariance check.  The cone checks its
own wiring too: a lifted lam that does not match the Levi-Civita connection
is caught by cone_lc's structure equation, and a SpecialCone whose mu
disagrees with its omega_LC by special_blocks' cross-check of the honest
curvature blocks against their displayed formulas.  A g_N that is not a
rescaling of g_H plane by plane is refused by the twist's output triple.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

import pskmap.cmap as cmap_module
import pskmap.cone as cone_module
import pskmap.connection as connection_module
import pskmap.intrinsic as intrinsic_module
import pskmap.lie as lie_module
from pskmap.catalog import (
    ch1,
    ch1_candidate,
    complex_hyperbolic,
    complex_hyperbolic_candidate,
    four_dim_candidate,
    four_dim_example,
)
from pskmap.cmap import NonConstantError, qk_algebra
from pskmap.cone import (
    DSquaredError,
    TrigLaurent,
    cone_coframe,
    cone_lc,
    oracle_residual,
    special_blocks,
    special_cone,
)
from pskmap.connection import levi_civita
from pskmap.intrinsic import all_residuals, build_geometry, pq_from_tensors


def _special_cone(L, B, cand):
    CA = cone_coframe(L, B, cand.kappa)
    return special_cone(CA, levi_civita(L, B), *pq_from_tensors(cand.Sa, cand.Sb))


def test_koszul_sign_flip_caught_by_structure_equation(monkeypatch):
    def bad_koszul(L):
        # the last term of gamma = (c_ijk - c_jki + c_kij) / 2 with its sign flipped
        c = L.constants()
        gamma = 0.5 * (c - np.einsum("jki->ijk", c) - np.einsum("kij->ijk", c))
        return gamma.transpose(2, 1, 0)

    L, B = four_dim_example()
    levi_civita(L, B)
    monkeypatch.setattr(connection_module, "_koszul_matrix", bad_koszul)
    with pytest.raises(RuntimeError, match="structure equation"):
        levi_civita(L, B)


def test_d_table_sign_caught_by_structure_equation(monkeypatch):
    original = lie_module._d_rules

    def bad_d_rules(L):
        # d(e^k) = +c^k_ij e^i ^ e^j instead of -c^k_ij e^i ^ e^j
        return [[(key, -c) for key, c in rule] for rule in original(L)]

    L, B = four_dim_example()
    levi_civita(L, B)
    monkeypatch.setattr(lie_module, "_d_rules", bad_d_rules)
    with pytest.raises(RuntimeError, match="structure equation"):
        levi_civita(L, B)


def test_oracle_bracket_rule_sign_caught_by_cone_d_squared(monkeypatch):
    # d^2 = 0 still holds on the generators with every base rule negated, but
    # d(d tau) = 2 (omega_S - d kappa) then reads 4 omega_S, so d^2 of the
    # tau-dependent ring samples fails and the cone is rejected before any
    # block is built.  The intrinsic side does not read these rules.
    original = cone_module._bracket_rules

    def bad_bracket_rules(L, m):
        return [-rule for rule in original(L, m)]

    L, B = four_dim_example()
    cand = four_dim_candidate()
    assert oracle_residual(L, B, cand) < 1e-9
    monkeypatch.setattr(cone_module, "_bracket_rules", bad_bracket_rules)
    with pytest.raises(DSquaredError, match="d\\^2 residual"):
        oracle_residual(L, B, cand)
    assert max(all_residuals(build_geometry(L, B), cand).values()) < 1e-9


def test_kappa_term_sign_caught_by_intrinsic_residuals_only(monkeypatch):
    # The curved CH(1) candidate: with q = 0 (the flat one) the kappa terms vanish.
    c = 2.0 / math.sqrt(3.0)
    L, B = ch1(c)
    cand = ch1_candidate(c)
    geom = build_geometry(L, B)
    assert max(all_residuals(geom, cand).values()) < 1e-9
    # planted after the geometry is built: the sign is read at call time
    monkeypatch.setattr(intrinsic_module, "KAPPA_TERM_SIGN", -1.0)
    assert max(all_residuals(geom, cand).values()) > 1e-3
    assert oracle_residual(L, B, cand) < 1e-9


@pytest.mark.parametrize("case", ["ch1_curved", "four_dim"])
def test_curvature_lam_scale_caught_by_intrinsic_residuals_only(monkeypatch, case):
    # The oracle builds its base curvature from the lifted mu and lam itself,
    # so a wrong Lam in connection.curvature reaches the intrinsic side only.
    if case == "ch1_curved":
        c = 2.0 / math.sqrt(3.0)
        (L, B), cand = ch1(c), ch1_candidate(c)
    else:
        (L, B), cand = four_dim_example(), four_dim_candidate()
    assert max(all_residuals(build_geometry(L, B), cand).values()) < 1e-9
    original = connection_module.curvature

    def bad_curvature(C, L, **kwargs):
        K = original(C, L, **kwargs)
        return connection_module.CurvatureData(K.M, 1.05 * K.Lam)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pskmap" and getattr(module, "curvature", None) is original:
            monkeypatch.setattr(module, "curvature", bad_curvature)
    # planted before the geometry is built, which holds the curvature
    assert max(all_residuals(build_geometry(L, B), cand).values()) > 1e-3
    assert oracle_residual(L, B, cand) < 1e-9


def test_exponential_sign_caught_by_twist(monkeypatch):
    # tests/test_cmap.py plants the same bug on the flat CH(1) candidate (q = 0);
    # here it is planted on four_dim, whose q is not zero.
    L, B = four_dim_example()
    qk_algebra(L, B, four_dim_candidate())
    monkeypatch.setattr(cmap_module, "EXP_SIGN", +1.0)
    with pytest.raises(NonConstantError):
        qk_algebra(L, B, four_dim_candidate())


def test_lifted_lam_scale_caught_by_cone_structure_equation():
    sc = _special_cone(*four_dim_example(), four_dim_candidate())
    cone_lc(sc.CA, sc.mu, sc.lam)
    with pytest.raises(AssertionError, match="cone structure equation fails"):
        cone_lc(sc.CA, sc.mu, sc.lam.scale(1.01))


def test_lifted_mu_scale_caught_by_display_cross_check():
    # CH(2) has mu != 0 (four_dim and CH(1)^k have mu = 0).  omega_LC, and so
    # the honest curvature Omega, stays right; only the displays read mu.
    sc = _special_cone(*complex_hyperbolic(2), complex_hyperbolic_candidate(2))
    special_blocks(sc)
    bad = dataclasses.replace(sc, mu=sc.mu.scale(1.01))
    with pytest.raises(AssertionError, match="honest curvature blocks disagree"):
        special_blocks(bad)


def test_metric_ratio_mismatch_caught_by_output_triple(monkeypatch):
    # g_N/g_H on phi no longer matches psi, its partner in omega_I's phi ^ psi
    original = cmap_module.hk_forms

    def bad_hk_forms(TF):
        hk = original(TF)
        return dataclasses.replace(hk, g_N={**hk.g_N, TF.idx_phi: TrigLaurent.const(3.0)})

    L, B = four_dim_example()
    monkeypatch.setattr(cmap_module, "hk_forms", bad_hk_forms)
    with pytest.raises(AssertionError, match="g_N/g_H differs"):
        qk_algebra(L, B, four_dim_candidate())
