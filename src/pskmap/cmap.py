"""The twist construction: from a verified PSK group datum to the
quaternionic Kahler Lie algebra of dimension 4n+4.

The cotangent frame Delta_1..Delta_{2n+2} satisfies
d(Delta) = -Delta ^ omega_nabla; flatness of the special connection is
re-verified here as d*d = 0 on these generators.  The invariant fiber
coframe is delta = (1/t) Delta exp(-i tau) (matrix exponential of the
complex structure).  The exponent sign is forced by requiring
L_X(delta) = 0, which the code checks mechanically, as it does the
constancy of every twisted differential in the invariant frame; no final
closed-form display is trusted.

Twisted differential: d_Q(beta) = d(beta) + (2/t^2) F ^ (X . beta) with
F = -a^T^b + phi^psi - A^T^B + Phi^Psi in the hatted coframe.  The lift
X of the circle generator is taken to contract trivially with the fiber
coframe; d_Q^2 = 0 (the output Jacobi identity) validates that choice a
posteriori.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import (
    CForm,
    ConeAlgebra,
    TrigLaurent,
    _i_matrix,
    cone_coframe,
    special_cone,
)
from .connection import ConnectionData, levi_civita
from .forms import all_keys, max_abs, sort_with_sign
from .intrinsic import PSKCandidate, all_residuals, pq_from_tensors
from .lie import (
    AdaptedBasis,
    LieAlgebra,
    d_matrix,
    derived_series_dims,
    is_completely_solvable,
    jacobi_residual,
    killing_spectrum,
    max_adjoint_imag,
)

# delta = (1/t) Delta exp(EXP_SIGN * i * tau).  Only -1 makes delta
# X-invariant given phi(X) = 1 and a fiber coframe that X contracts to
# zero; the invariance check below would reject +1.
EXP_SIGN = -1.0


class NotPSKError(Exception):
    """Candidate fails the intrinsic residuals; the twist needs a PSK input."""


class NotInvariantError(Exception):
    """Twisting is defined for X-invariant forms only."""


class NonConstantError(Exception):
    """A twisted differential kept t/tau dependence in the invariant frame."""


class TwistFrame(ConeAlgebra):
    """The cone algebra plus the parallel cotangent coframe Delta.

    Same generators, ring and derivation as ConeAlgebra (d(tau) included);
    d_rules just carries 2n+2 more of them.  Generator indices: 1..2n base,
    2n+1 phi, 2n+2 psi = dt, 2n+2+k = Delta_k for k = 1..2n+2.
    """

    def delta_index(self, k: int) -> int:
        return 2 * self.n + 2 + k

    def curvature_correction(self) -> CForm:
        """F = -a^T^b + phi^psi - A^T^B + Phi^Psi in the hatted coframe."""
        n, m = self.n, self.m
        t2 = TrigLaurent.t_power(2)
        out = CForm.zero(m, 2)
        for i in range(1, n + 1):
            out = out - CForm.basis(m, i, n + i).scale(t2)
            out = out - CForm.basis(m, self.delta_index(i), self.delta_index(n + i))
        out = out + CForm.basis(m, self.idx_phi, self.idx_psi).scale(TrigLaurent.t_power(1))
        out = out + CForm.basis(m, self.delta_index(2 * n + 1), self.delta_index(2 * n + 2))
        return out


def twist_differential(TF: TwistFrame, beta: CForm, tol: float = 1e-9) -> CForm:
    """d_Q(beta) = d(beta) + (2/t^2) F ^ (X . beta) for X-invariant beta."""
    d_beta = TF.d(beta)
    x_beta = TF.interior_x(beta)
    res = (TF.interior_x(d_beta) + TF.d(x_beta)).norm_inf()   # L_X beta
    if res > tol * (1.0 + beta.norm_inf()):
        raise NotInvariantError(f"Lie derivative along X has norm {res:.3e}")
    correction = TF.curvature_correction().scale(
        TrigLaurent.t_power(-2, 2.0)
    ).wedge(x_beta)
    return d_beta + correction


def build_twist_frame(L: LieAlgebra, B: AdaptedBasis, cand: PSKCandidate,
                      conn: ConnectionData, tol: float = 1e-9) -> TwistFrame:
    """Assemble the extended frame over a verified geometry and check that
    d*d = 0 on the cotangent coframe (flatness of the special connection).

    conn is the Levi-Civita connection of (L, B), which the caller has
    already built to check the candidate."""
    n = B.n
    CA = cone_coframe(L, B, cand.kappa)
    sc = special_cone(CA, conn, *pq_from_tensors(cand.Sa, cand.Sb))

    m_small, m_big = 2 * n + 2, 4 * n + 4

    def enlarge(f: CForm) -> CForm:
        return CForm(m_big, f.degree, dict(f.coeffs))

    rules = [enlarge(r) for r in CA.d_rules]
    for k in range(1, m_small + 1):
        acc = CForm.zero(m_big, 2)
        for j in range(1, m_small + 1):
            entry = sc.omega_nabla[j - 1, k - 1]
            if entry.coeffs:
                acc = acc - CForm.basis(m_big, 2 * n + 2 + j).wedge(enlarge(entry))
        rules.append(acc)
    TF = TwistFrame(L=L, B=B, kappa=cand.kappa, d_rules=tuple(rules), exact=True)
    scale = 1.0 + L.max_constant() ** 2 + max_abs(sc.p) ** 2
    res = TF.d_squared_residual()
    if res > tol * scale:
        raise NotPSKError(
            f"d^2 = {res:.3e} on the cotangent coframe: special connection not flat"
        )
    return TF


def _exp_entries(n: int, sign: float):
    """Matrix exponential exp(sign * i * tau) as TrigLaurent entries."""
    m = 2 * n + 2
    i_mat = _i_matrix(n)
    cos, sin = TrigLaurent.cos_tau(), TrigLaurent.sin_tau()
    E = [[cos if r == c else TrigLaurent() for c in range(m)] for r in range(m)]
    for r, c in zip(*np.nonzero(i_mat)):            # off the diagonal
        E[r][c] = sin * (sign * i_mat[r, c])
    return E


def _rotated_fiber(TF: TwistFrame, sign: float, scale: TrigLaurent) -> list:
    """The one-forms scale * sum_k Delta_k E^k_j, j = 1..2n+2, with
    E = exp(sign * i * tau)."""
    m_fiber = 2 * TF.n + 2
    E = _exp_entries(TF.n, sign)
    out = []
    for j in range(m_fiber):
        coeffs = {}
        for k in range(m_fiber):
            if E[k][j].terms:
                coeffs[(TF.delta_index(k + 1),)] = scale * E[k][j]
        out.append(CForm(TF.m, 1, coeffs))
    return out


def _invariant_fiber_coframe(TF: TwistFrame):
    """delta_j = (1/t) sum_k Delta_k E^k_j with E = exp(EXP_SIGN i tau)."""
    return _rotated_fiber(TF, EXP_SIGN, TrigLaurent.t_power(-1))


def _output_substitution(TF: TwistFrame) -> dict:
    """Rewrite map into the invariant output frame:
    psi -> t * psi-tilde (same slot), Delta_k -> t * sum_m delta_m Einv^m_k."""
    t = TrigLaurent.t_power(1)
    sub = {TF.idx_psi: CForm(TF.m, 1, {(TF.idx_psi,): t})}
    for k, image in enumerate(_rotated_fiber(TF, -EXP_SIGN, t), start=1):
        sub[TF.delta_index(k)] = image
    return sub


def output_labels(n: int) -> list:
    base = [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]
    base += ["phi", "psit"]
    fiber = [f"A{i}" for i in range(1, n + 1)] + [f"B{i}" for i in range(1, n + 1)]
    fiber += ["Phi", "Psi"]
    return base + fiber


@dataclass(frozen=True)
class QKStructure:
    """c-map image: the output Lie algebra with its quaternionic data at t=1."""

    algebra: LieAlgebra
    n_base: int
    labels: tuple
    gram: np.ndarray
    omega_triple: tuple
    jacobi: float

    @property
    def dim(self) -> int:
        return self.algebra.dim


@dataclass(frozen=True)
class HKForms:
    """Displayed objects on the cotangent space of the cone (hatted frame)."""

    g_H: dict
    omega_I: CForm
    omega_J: CForm
    omega_K: CForm
    g_N: dict
    F: CForm


def _frame_two_forms(TF: TwistFrame) -> tuple:
    """The six mixed frame two-forms sum_i x_i ^ y_i, i = 1..n:
    aTb, ATB, ATa, BTb, ATb, BTa (a, b base; A, B fiber Delta_i, Delta_{n+i})."""
    n, m, di = TF.n, TF.m, TF.delta_index
    frame = [(i, n + i, di(i), di(n + i)) for i in range(1, n + 1)]   # a, b, A, B
    pairs = ((0, 1), (2, 3), (2, 0), (3, 1), (2, 1), (3, 0))
    return tuple(sum((CForm.basis(m, row[x], row[y]) for row in frame), CForm.zero(m, 2))
                 for x, y in pairs)


def hk_forms(TF: TwistFrame) -> HKForms:
    """Transcription of the hyperKahler metric, its Kahler triple, the
    deformed metric g_N and the twist curvature F over the extended frame."""
    n, m = TF.n, TF.m
    t2 = TrigLaurent.t_power(2)
    two = TrigLaurent.const(2.0)
    two_over_t2 = TrigLaurent.t_power(-2, 2.0)
    di = TF.delta_index
    g_H, g_N = {}, {}
    for i in range(1, 2 * n + 1):          # base a, b
        g_H[i] = t2
        g_N[i] = two
    g_H[TF.idx_phi] = -1.0 * t2
    g_N[TF.idx_phi] = two
    g_H[TF.idx_psi] = TrigLaurent.const(-1.0)
    g_N[TF.idx_psi] = two_over_t2
    for k in range(1, 2 * n + 3):          # fiber coframe is already hatted
        sign = -1.0 if k > 2 * n else 1.0
        g_H[di(k)] = TrigLaurent.const(sign)
        g_N[di(k)] = two_over_t2

    aTb, ATB, ATa, BTb, ATb, BTa = _frame_two_forms(TF)
    t = TrigLaurent.t_power(1)
    phi_psi = CForm.basis(m, TF.idx_phi, TF.idx_psi).scale(t)
    Phi_Psi = CForm.basis(m, di(2 * n + 1), di(2 * n + 2))
    Phi_phi = CForm.basis(m, di(2 * n + 1), TF.idx_phi).scale(t)
    Psi_psi = CForm.basis(m, di(2 * n + 2), TF.idx_psi)
    Phi_psi = CForm.basis(m, di(2 * n + 1), TF.idx_psi)
    Psi_phi = CForm.basis(m, di(2 * n + 2), TF.idx_phi).scale(t)

    omega_I = aTb.scale(t2) - phi_psi + ATB - Phi_Psi
    omega_J = (ATa + BTb).scale(t) + Phi_phi + Psi_psi
    omega_K = (ATb - BTa).scale(t) + Phi_psi - Psi_phi
    return HKForms(g_H=g_H, omega_I=omega_I, omega_J=omega_J, omega_K=omega_K,
                   g_N=g_N, F=TF.curvature_correction())


def _hk_triple(TF: TwistFrame, hk: HKForms) -> tuple:
    """The pseudo-hyperKahler triple (omega_i, omega_j, omega_k) in the hatted frame.

    omega_j and omega_k are hk_forms' transcriptions of their displays.
    omega_i is hk_forms' with its fiber block A^T^B - Phi^Psi negated: the
    cotangent complex structure acts on covectors by xi -> -xi o I, and with
    the displayed sign the induced endomorphisms fail I J = K (the product
    is not even skew-adjoint).
    """
    n, di = TF.n, TF.delta_index
    ATB = _frame_two_forms(TF)[1]
    Phi_Psi = CForm.basis(TF.m, di(2 * n + 1), di(2 * n + 2))
    return hk.omega_I - (ATB - Phi_Psi).scale(2.0), hk.omega_J, hk.omega_K


def verify_hyperkahler_frame(TF: TwistFrame) -> dict:
    """Mechanical verification that the cotangent space carries the
    pseudo-hyperKahler triple used by the twist (_hk_triple).

    Reports closure of all three, the quaternion relations at t=1, and the
    rotation of the J/K pair along the circle generator.
    """
    m = TF.m
    hk = hk_forms(TF)
    omega_i, omega_j, omega_k = _hk_triple(TF, hk)
    gram = np.array([hk.g_H[r].eval(1.0, 0.0) for r in range(1, m + 1)])

    def endomorphism(f: CForm) -> np.ndarray:
        E = np.zeros((m, m))
        for (r, s), v in zip(all_keys(m, 2), f.eval_at(1.0, 0.0)):
            E[s - 1, r - 1] = v / gram[s - 1]
            E[r - 1, s - 1] = -v / gram[r - 1]
        return E

    I_m, J_m, K_m = map(endomorphism, (omega_i, omega_j, omega_k))
    eye = np.eye(m)
    lj = TF.lie_x(omega_j)
    return {
        "closed": max(TF.d(omega_i).norm_inf(), TF.d(omega_j).norm_inf(),
                      TF.d(omega_k).norm_inf()),
        "squares": max(np.abs(I_m @ I_m + eye).max(), np.abs(J_m @ J_m + eye).max(),
                       np.abs(K_m @ K_m + eye).max()),
        "ij_minus_k": float(np.abs(I_m @ J_m - K_m).max()),
        "rotation": min((lj - omega_k).norm_inf(), (lj + omega_k).norm_inf()),
        "invariance_i": TF.lie_x(omega_i).norm_inf(),
    }


def _constant_or_raise(name: str, f: CForm, tol: float, scale: float) -> np.ndarray:
    bad = f.nonconstant_norm()
    if bad > tol * scale:
        raise NonConstantError(
            f"{name} keeps t/tau dependence of size {bad:.3e}; "
            "input data is not left-invariant"
        )
    return f.constant_form()


def qk_algebra(L: LieAlgebra, B: AdaptedBasis, cand: PSKCandidate,
               tol: float = 1e-8) -> QKStructure:
    """Run the twist and read off the 4n+4-dimensional output algebra.

    All differentials are computed mechanically in the graded algebra and
    evaluated in the invariant frame (a~, b~, phi, dt/t, delta); the
    output basis is its dual at t = 1, tau = 0.
    """
    conn = levi_civita(L, B)
    res = all_residuals(L, B, cand, conn)
    worst = max(res.values())
    if worst > tol:
        raise NotPSKError(f"candidate residuals up to {worst:.3e} exceed {tol:.1e}")

    TF = build_twist_frame(L, B, cand, conn)
    n, m = TF.n, TF.m
    deltas = _invariant_fiber_coframe(TF)
    sub = _output_substitution(TF)
    scale = 1.0 + L.max_constant() ** 2

    # invariance of the fiber coframe fixes the exponential convention
    for j, dl in enumerate(deltas):
        drift = TF.lie_x(dl).norm_inf()
        if drift > 1e-9 * scale:
            raise NonConstantError(
                f"delta_{j + 1} is not X-invariant (drift {drift:.3e}); "
                "exponential convention violated"
            )

    generators = [CForm.basis(m, i) for i in range(1, 2 * n + 2)]   # a, b, phi
    psit = CForm.basis(m, TF.idx_psi).scale(TrigLaurent.t_power(-1))
    frame = generators + [psit] + deltas

    d_out = []
    for idx, gen in enumerate(frame):
        dq = twist_differential(TF, gen)
        rewritten = dq.substitute(sub)
        d_out.append(_constant_or_raise(f"d_Q of generator {idx + 1}", rewritten,
                                        1e-9, scale))

    keys = all_keys(m, 2)
    entries = [(*keys[r], g, -f[r]) for g, f in enumerate(d_out, start=1)
               for r in np.flatnonzero(f)]
    out = LieAlgebra.from_brackets(m, entries)
    jac = jacobi_residual(out)
    if jac > 1e-9 * (1.0 + out.max_constant()) ** 2:
        raise NotPSKError(f"output Jacobi residual {jac:.3e}; twist assumptions violated")

    omega_triple = _output_triple(TF, sub, scale)
    return QKStructure(
        algebra=out,
        n_base=n,
        labels=tuple(output_labels(n)),
        gram=2.0 * np.eye(m),
        omega_triple=omega_triple,
        jacobi=jac,
    )


def _output_triple(TF: TwistFrame, sub: dict, scale: float):
    """The three quaternionic two-forms of g_N, transferred to the output frame.

    The g_N triple is the hatted one (_hk_triple) with each plane e^r ^ e^s
    rescaled by g_N/g_H, which must be the same on e^r and e^s.  omega_I is
    X-invariant as is; the J/K pair rotates under X, so the invariant
    representatives are the cos/sin recombination.  Constancy after
    substitution is asserted, not assumed.
    """
    hk = hk_forms(TF)
    ratio = {}
    for r, g in hk.g_H.items():
        ((k, _, _), c), = g.terms.items()       # g_H[r] is one monomial c t^k
        ratio[r] = hk.g_N[r] * TrigLaurent.t_power(-k, 1.0 / c)

    def to_g_N(f: CForm) -> CForm:
        out = {}
        for (r, s), c in f.coeffs.items():
            if (ratio[r] - ratio[s]).terms:
                raise AssertionError(f"g_N/g_H differs between generators {r} and {s}")
            out[(r, s)] = c * ratio[r]
        return CForm(f.m, 2, out)

    omega_i_n, omega_j_n, omega_k_n = map(to_g_N, _hk_triple(TF, hk))
    cos, sin = TrigLaurent.cos_tau(), TrigLaurent.sin_tau()
    omega_j_inv = omega_j_n.scale(cos) - omega_k_n.scale(sin)
    omega_k_inv = omega_j_n.scale(sin) + omega_k_n.scale(cos)

    out = []
    for name, f in (("omega_I", omega_i_n), ("omega_J", omega_j_inv),
                    ("omega_K", omega_k_inv)):
        out.append(_constant_or_raise(name, f.substitute(sub), 1e-9, scale))
    return tuple(out)


@dataclass(frozen=True)
class QKReport:
    dim: int
    jacobi_residual: float
    gram_min_eig: float
    sp1_residual: float
    completely_solvable: bool
    derived_series: tuple
    adjoint_imag_max: float
    killing_eigs: tuple


def sp1_fit_residual(Q: QKStructure) -> float:
    """Least-squares fit of connection one-forms alpha_I, alpha_J, alpha_K to
    d(omega_i) = sum_{jk} eps_ijk alpha_j ^ omega_k in the output algebra.

    The e^g ^ omega_k columns are built from omega_k's non-zero keys, so no
    dense (1, 2) sign table of the 4n+4 generators is materialised."""
    L = Q.algebra
    m = L.dim
    omegas = Q.omega_triple
    D2 = d_matrix(L, 2)
    keys2 = all_keys(m, 2)
    keys3 = all_keys(m, 3)
    key_index = {k: r for r, k in enumerate(keys3)}
    rows = 3 * len(keys3)
    cols = 3 * m
    A = np.zeros((rows, cols))
    b = np.concatenate([D2 @ w for w in omegas])
    eps = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
           (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}
    for i in range(3):
        base = i * len(keys3)
        for j in range(3):
            for k in range(3):
                sign = eps.get((i, j, k))
                if not sign:
                    continue
                for r in np.flatnonzero(omegas[k]):
                    val = omegas[k][r]
                    for gen in range(1, m + 1):
                        s, key = sort_with_sign((gen,) + keys2[r])
                        if s:
                            A[base + key_index[key], j * m + gen - 1] += sign * s * val
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return float(np.abs(A @ sol - b).max())


def qk_verify(Q: QKStructure) -> QKReport:
    """Necessary-condition report for the output quaternionic structure.

    In real dimension 8 (n = 1) the sp(1) fit is necessary but not
    sufficient; no sufficiency is claimed there.
    """
    return QKReport(
        dim=Q.dim,
        jacobi_residual=Q.jacobi,
        gram_min_eig=float(np.linalg.eigvalsh(Q.gram).min()),
        sp1_residual=sp1_fit_residual(Q),
        completely_solvable=is_completely_solvable(Q.algebra),
        derived_series=derived_series_dims(Q.algebra),
        adjoint_imag_max=max_adjoint_imag(Q.algebra),
        killing_eigs=tuple(np.round(killing_spectrum(Q.algebra), 10)),
    )
