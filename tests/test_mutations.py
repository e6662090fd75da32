"""Known bugs, planted one at a time, and the check that catches each.

Each case monkeypatches one mistake into the library and asserts which
check fails.  The Koszul and d-table cases are caught by levi_civita's own
structure equation; the kappa-sign and curvature cases by the intrinsic
residuals alone, so the oracle (which has no such sign and computes its own
base curvature) disagrees with them as acceptance 6 would report; the
exponential-sign case by the twist's invariance check.
"""

import math
import sys

import numpy as np
import pytest

import pskmap.cmap as cmap_module
import pskmap.connection as connection_module
import pskmap.intrinsic as intrinsic_module
import pskmap.lie as lie_module
from pskmap.catalog import ch1, ch1_candidate, four_dim_candidate, four_dim_example
from pskmap.cmap import NonConstantError, qk_algebra
from pskmap.cone import oracle_residual
from pskmap.connection import levi_civita
from pskmap.intrinsic import all_residuals


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
    original = lie_module._d_table

    def bad_d_table(L):
        # d(e^k) = +c^k_ij e^i ^ e^j instead of -c^k_ij e^i ^ e^j
        return tuple(-f for f in original(L))

    L, B = four_dim_example()
    levi_civita(L, B)
    monkeypatch.setattr(lie_module, "_D_TABLE_CACHE", {})
    monkeypatch.setattr(lie_module, "_d_table", bad_d_table)
    with pytest.raises(RuntimeError, match="structure equation"):
        levi_civita(L, B)


def test_kappa_term_sign_caught_by_intrinsic_residuals_only(monkeypatch):
    # The curved CH(1) candidate: with q = 0 (the flat one) the kappa terms vanish.
    c = 2.0 / math.sqrt(3.0)
    L, B = ch1(c)
    cand = ch1_candidate(c)
    assert max(all_residuals(L, B, cand).values()) < 1e-9
    monkeypatch.setattr(intrinsic_module, "KAPPA_TERM_SIGN", -1.0)
    assert max(all_residuals(L, B, cand).values()) > 1e-3
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
    assert max(all_residuals(L, B, cand).values()) < 1e-9
    original = connection_module.curvature

    def bad_curvature(C, L):
        K = original(C, L)
        return connection_module.CurvatureData(K.M, 1.05 * K.Lam)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pskmap" and getattr(module, "curvature", None) is original:
            monkeypatch.setattr(module, "curvature", bad_curvature)
    assert max(all_residuals(L, B, cand).values()) > 1e-3
    assert oracle_residual(L, B, cand) < 1e-9


def test_exponential_sign_caught_by_twist(monkeypatch):
    # tests/test_cmap.py plants the same bug on the flat CH(1) candidate (q = 0);
    # here it is planted on four_dim, whose q is not zero.
    L, B = four_dim_example()
    qk_algebra(L, B, four_dim_candidate())
    monkeypatch.setattr(cmap_module, "EXP_SIGN", +1.0)
    with pytest.raises(NonConstantError):
        qk_algebra(L, B, four_dim_candidate())
