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
    CFormMatrix,
    ConeAlgebra,
    KeyTables,
    TrigLaurent,
    _canonical,
    _concat,
    _diagonal,
    _i_matrix,
    cone_coframe,
    mono_code,
    special_cone,
    wedge_sum,
)
from .connection import ConnectionData
from .forms import max_abs
from .intrinsic import PSKCandidate, all_residuals, build_geometry, pq_from_tensors
from .lie import (
    AdaptedBasis,
    LieAlgebra,
    derived_series_dims,
    jacobi_residual,
    killing_spectrum,
    max_adjoint_imag,
)
from .tolerance import COMPLETELY_SOLVABLE, EXACT, REPORT

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
        n, di = self.n, self.delta_index
        base = range(1, n + 1)
        return _planes(self, [(i, n + i, -1.0, 2) for i in base]
                       + [(di(i), di(n + i), -1.0, 0) for i in base]
                       + [(self.idx_phi, self.idx_psi, 1.0, 1),
                          (di(2 * n + 1), di(2 * n + 2), 1.0, 0)])


def _planes(TF: TwistFrame, planes) -> CForm:
    """The two-form sum of c t^k e^r ^ e^s over planes (r, s, c, k)."""
    r, s, c, k = (np.array(x) for x in zip(*planes))
    zeros = np.zeros(len(r), dtype=np.int64)
    keys = TF.tables.rank(np.sort(np.stack([r, s], axis=1), axis=1))
    monos = np.array([mono_code(int(x), 0, 0) for x in k], dtype=np.int64)
    return _canonical((1, 1), TF.m, 2, TF.tables, zeros, zeros, keys, monos,
                      np.where(r < s, c, -c).astype(float))


def twist_differential(TF: TwistFrame, beta: CFormMatrix) -> CFormMatrix:
    """d_Q(beta) = d(beta) + (2/t^2) F ^ (X . beta) for X-invariant beta,
    entrywise over a matrix of forms."""
    d_beta = TF.d(beta)
    x_beta = TF.interior_x(beta)
    drift = wedge_sum(TF.interior_x(d_beta), TF.d(x_beta)).entry_norms()   # L_X beta
    bad = drift > EXACT * (1.0 + beta.entry_norms())
    if bad.any():
        raise NotInvariantError(f"Lie derivative along X has norm {drift[bad][0]:.3e}")
    F = TF.curvature_correction().scale(TrigLaurent.t_power(-2, 2.0))
    return wedge_sum(d_beta, (_diagonal(F, beta.shape[0]), x_beta))


def build_twist_frame(L: LieAlgebra, B: AdaptedBasis, cand: PSKCandidate,
                      conn: ConnectionData) -> TwistFrame:
    """Assemble the extended frame over a verified geometry and check that
    d*d = 0 on the cotangent coframe (flatness of the special connection).

    conn is the Levi-Civita connection of (L, B), which the caller's
    geometry already holds from checking the candidate.  The rule of Delta_k is
    -sum_j Delta_j ^ omega_nabla[j, k]: one row-by-matrix wedge."""
    n = B.n
    CA = cone_coframe(L, B, cand.kappa)
    sc = special_cone(CA, conn, *pq_from_tensors(cand.Sa, cand.Sb))
    m_small, m_big = 2 * n + 2, 4 * n + 4
    big = KeyTables(m_big)
    deltas = CFormMatrix.one_forms((1, m_small), m_big, big, np.zeros(m_small, dtype=np.int64),
                                   np.arange(m_small), np.arange(m_small) + m_small + 1, -1.0)
    fiber = deltas.wedge(sc.omega_nabla.embed(big))
    rules = [r.embed(big) for r in CA.d_rules] + [fiber[0, k] for k in range(m_small)]
    TF = TwistFrame(L=L, B=B, kappa=cand.kappa, d_rules=tuple(rules), exact=True)
    scale = 1.0 + L.max_constant() ** 2 + max_abs(sc.p) ** 2
    res = TF.d_squared_residual()
    if res > EXACT * scale:
        raise NotPSKError(
            f"d^2 = {res:.3e} on the cotangent coframe: special connection not flat"
        )
    return TF


def _rotated_fiber(TF: TwistFrame, sign: float, k: int) -> CFormMatrix:
    """The column of one-forms t^k * sum_l Delta_l E^l_j, j = 1..2n+2, with
    E = exp(sign * i * tau): cos(tau) on the diagonal and sign * sin(tau) * i
    off it."""
    m_fiber = 2 * TF.n + 2
    diag = np.arange(m_fiber)
    l, j = np.nonzero(_i_matrix(TF.n))
    return CFormMatrix.one_forms(
        (m_fiber, 1), TF.m, TF.tables, np.concatenate([diag, j]),
        np.zeros(m_fiber + len(j), dtype=np.int64),
        np.concatenate([diag, l]) + TF.delta_index(1),
        np.concatenate([np.ones(m_fiber), sign * _i_matrix(TF.n)[l, j]]),
        np.concatenate([np.full(m_fiber, mono_code(k, 1, 0)),
                        np.full(len(j), mono_code(k, 0, 1))]))


def _invariant_fiber_coframe(TF: TwistFrame) -> CFormMatrix:
    """delta_j = (1/t) sum_k Delta_k E^k_j with E = exp(EXP_SIGN i tau)."""
    return _rotated_fiber(TF, EXP_SIGN, -1)


def _output_substitution(TF: TwistFrame) -> CFormMatrix:
    """Images of the generators in the invariant output frame, as a column:
    the base generators and phi stay, psi -> t * psi-tilde (same slot),
    Delta_k -> t * sum_m delta_m Einv^m_k."""
    m_base = 2 * TF.n + 1
    keep = TF.generators(range(1, m_base + 1))
    psi = TF.generators([TF.idx_psi], mono=mono_code(1, 0, 0))
    fiber = _rotated_fiber(TF, -EXP_SIGN, 1)
    return _concat((TF.m, 1), TF.m, 1, TF.tables, [keep, psi, fiber],
                   [(0, 0), (m_base, 0), (m_base + 1, 0)])


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


def _frame_planes(TF: TwistFrame, x: int, y: int, c: float, k: int) -> list:
    """The planes of the mixed frame two-form c t^k sum_i x_i ^ y_i, i = 1..n,
    with x, y in 0..3 for a, b (base) and A, B (fiber Delta_i, Delta_{n+i})."""
    n, di = TF.n, TF.delta_index
    frame = [(i, n + i, di(i), di(n + i)) for i in range(1, n + 1)]
    return [(row[x], row[y], c, k) for row in frame]


def hk_forms(TF: TwistFrame) -> HKForms:
    """Transcription of the hyperKahler metric, its Kahler triple, the
    deformed metric g_N and the twist curvature F over the extended frame.

    Each two-form is a list of planes c t^k e^r ^ e^s; with a, b, A, B the
    frame of _frame_planes:
    omega_I = t^2 a^T^b - t phi^psi + A^T^B - Phi^Psi,
    omega_J = t (A^T^a + B^T^b) + t Phi^phi + Psi^psi,
    omega_K = t (A^T^b - B^T^a) + Phi^psi - t Psi^phi."""
    n = TF.n
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

    a, b, A, B = 0, 1, 2, 3
    phi, psi, Phi, Psi = TF.idx_phi, TF.idx_psi, di(2 * n + 1), di(2 * n + 2)
    omega_I = _planes(TF, _frame_planes(TF, a, b, 1.0, 2) + _frame_planes(TF, A, B, 1.0, 0)
                      + [(phi, psi, -1.0, 1), (Phi, Psi, -1.0, 0)])
    omega_J = _planes(TF, _frame_planes(TF, A, a, 1.0, 1) + _frame_planes(TF, B, b, 1.0, 1)
                      + [(Phi, phi, 1.0, 1), (Psi, psi, 1.0, 0)])
    omega_K = _planes(TF, _frame_planes(TF, A, b, 1.0, 1) + _frame_planes(TF, B, a, -1.0, 1)
                      + [(Phi, psi, 1.0, 0), (Psi, phi, -1.0, 1)])
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
    fiber = _planes(TF, _frame_planes(TF, 2, 3, 2.0, 0) + [(di(2 * n + 1), di(2 * n + 2), -2.0, 0)])
    return hk.omega_I - fiber, hk.omega_J, hk.omega_K


def _constant_or_raise(names: list, forms: CFormMatrix, scale: float) -> np.ndarray:
    """The constant forms of a column, (rows, keys); raises on the first row
    that keeps a t or tau dependence above EXACT * scale."""
    bad = forms.entry_norms(nonconstant=True)[:, 0]
    over = np.flatnonzero(bad > EXACT * scale)
    if len(over):
        i = over[0]
        raise NonConstantError(
            f"{names[i]} keeps t/tau dependence of size {bad[i]:.3e}; "
            "input data is not left-invariant"
        )
    return forms.constant_form()[:, 0]


def qk_algebra(L: LieAlgebra, B: AdaptedBasis, cand: PSKCandidate,
               tol: float = REPORT) -> QKStructure:
    """Run the twist and read off the 4n+4-dimensional output algebra.

    All differentials are computed mechanically in the graded algebra and
    evaluated in the invariant frame (a~, b~, phi, dt/t, delta); the
    output basis is its dual at t = 1, tau = 0.  The frame is one column,
    so each step is one operation over all generators.
    """
    # The gate reads the candidate's kappa, so a Kahler form without an
    # invariant primitive reaches it (and is refused there), not NotExactError.
    geom = build_geometry(L, B, allow_nonexact=True)
    res = all_residuals(geom, cand)
    worst = max(res.values())
    if worst > tol:
        raise NotPSKError(f"candidate residuals up to {worst:.3e} exceed {tol:.1e}")

    TF = build_twist_frame(L, B, cand, geom.conn)
    n, m = TF.n, TF.m
    deltas = _invariant_fiber_coframe(TF)
    sub = _output_substitution(TF)
    scale = 1.0 + L.max_constant() ** 2

    # invariance of the fiber coframe fixes the exponential convention
    drift = TF.lie_x(deltas).entry_norms()[:, 0]
    over = np.flatnonzero(drift > EXACT * scale)
    if len(over):
        j = over[0]
        raise NonConstantError(
            f"delta_{j + 1} is not X-invariant (drift {drift[j]:.3e}); "
            "exponential convention violated"
        )

    m_base = 2 * n + 1                                              # a, b, phi
    frame = _concat((m, 1), m, 1, TF.tables,
                    [TF.generators(range(1, m_base + 1)),
                     TF.generators([TF.idx_psi], mono=mono_code(-1, 0, 0)), deltas],
                    [(0, 0), (m_base, 0), (m_base + 1, 0)])
    d_out = _constant_or_raise([f"d_Q of generator {g}" for g in range(1, m + 1)],
                               twist_differential(TF, frame).substitute(sub), scale)

    keys = TF.tables.keys(2).tolist()
    entries = [(*keys[r], g, -f[r]) for g, f in enumerate(d_out, start=1)
               for r in np.flatnonzero(f)]
    out = LieAlgebra.from_brackets(m, entries)
    jac = jacobi_residual(out)
    if jac > EXACT * (1.0 + out.max_constant()) ** 2:
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


def _output_triple(TF: TwistFrame, sub: CFormMatrix, scale: float):
    """The three quaternionic two-forms of g_N, transferred to the output frame.

    The g_N triple is the hatted one (_hk_triple) with each plane e^r ^ e^s
    rescaled by g_N/g_H, which must be the same on e^r and e^s.  omega_I is
    X-invariant as is; the J/K pair rotates under X, so the invariant
    representatives are the cos/sin recombination.  Constancy after
    substitution is asserted, not assumed.
    """
    hk = hk_forms(TF)
    ratio = []
    for r in range(1, TF.m + 1):
        ((k, _, _), c), = hk.g_H[r].terms.items()       # g_H[r] is one monomial c t^k
        ratio.append(hk.g_N[r] * TrigLaurent.t_power(-k, 1.0 / c))
    triple = _rescale_planes(CFormMatrix.stack(_hk_triple(TF, hk)),
                             CFormMatrix.stack(ratio, TF.m, TF.tables))
    cos, sin = TrigLaurent.cos_tau(), TrigLaurent.sin_tau()
    omega_i_n, omega_j_n, omega_k_n = triple[0], triple[1], triple[2]
    invariant = CFormMatrix.stack([
        omega_i_n,
        omega_j_n.scale(cos) - omega_k_n.scale(sin),
        omega_j_n.scale(sin) + omega_k_n.scale(cos),
    ])
    out = _constant_or_raise(["omega_I", "omega_J", "omega_K"], invariant.substitute(sub), scale)
    return tuple(out)


def _rescale_planes(forms: CFormMatrix, ratio: CFormMatrix) -> CFormMatrix:
    """Each plane e^r ^ e^s of the two-forms in forms times ratio[r - 1],
    which must equal ratio[s - 1] (ratio is a column of ring elements).

    The ratios of the planes present are read off by selection matrices:
    row u of first ^ ratio is the ratio of the first generator of plane u."""
    t, m = forms.tables, forms.m
    present = np.unique(forms.key)
    planes = t.keys(2)[present]
    select = [CFormMatrix.constant(np.eye(m)[planes[:, i] - 1], m, t) for i in (0, 1)]
    first = select[0].wedge(ratio)
    differ = wedge_sum((select[1], -ratio), first)
    if len(differ):
        r, s = planes[differ.row[0]]
        raise AssertionError(f"g_N/g_H differs between generators {r} and {s}")
    op = CFormMatrix._of((1, len(present)), m, 2, t, np.zeros_like(first.row), first.row,
                         present[first.row], first.mono, first.val)
    return forms.apply(op, np.searchsorted(present, forms.key))


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


def _d_two_forms(L: LieAlgebra, forms, tables: KeyTables) -> np.ndarray:
    """d of dense two-forms of L (rows of forms, over tables.keys(2)), as
    three-forms: d(e^K) = sum_g d(e^g) ^ (e_g . e^K), with
    d(e^g) = -sum c^g_ij e^i ^ e^j read off the brackets."""
    m, n2 = L.dim, tables.count(2)
    rules = np.zeros((m, n2))
    if L.brackets:
        i, j, g, c = (np.array(x) for x in zip(*L.brackets))
        rules[g - 1, tables.rank(np.stack([i, j], axis=1))] = -c
    contract = tables.contraction_table(2)
    K, g = np.nonzero(contract)
    sign = np.sign(contract[K, g])
    code = tables.wedge_table(2, 1).reshape(n2, m)[:, np.abs(contract[K, g]) - 1].T
    hit = code != 0
    target = np.abs(code[hit]) - 1
    return np.stack([np.bincount(target, weights=((w[K] * sign)[:, None] * rules[g]
                                                  * np.sign(code))[hit],
                                 minlength=tables.count(3)) for w in forms])


def sp1_fit_residual(Q: QKStructure) -> float:
    """Least-squares fit of connection one-forms alpha_I, alpha_J, alpha_K to
    d(omega_i) = sum_{jk} eps_ijk alpha_j ^ omega_k in the output algebra.

    The e^g ^ omega_k columns come from omega_k's non-zero keys and the signed
    (1, 2) key table, so no dense (1, 2) sign table of the 4n+4 generators is
    materialised."""
    m = Q.algebra.dim
    omegas = Q.omega_triple
    tables = KeyTables(m)
    n3 = tables.count(3)
    table = tables.wedge_table(1, 2).reshape(m, -1)
    A = np.zeros((3 * n3, 3 * m))
    b = _d_two_forms(Q.algebra, omegas, tables).ravel()
    for i, j, k, sign in ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
                          (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0)):
        r = np.flatnonzero(omegas[k])
        gen, rr = np.nonzero(table[:, r])
        code = table[gen, r[rr]]
        A[i * n3 + np.abs(code) - 1, j * m + gen] += sign * np.sign(code) * omegas[k][r[rr]]
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return float(np.abs(A @ sol - b).max())


def qk_verify(Q: QKStructure) -> QKReport:
    """Necessary-condition report for the output quaternionic structure.

    In real dimension 8 (n = 1) the sp(1) fit is necessary but not
    sufficient; no sufficiency is claimed there.  Each diagnostic is
    computed once; complete solvability is read off the derived series and
    the adjoint spectra (see tolerance.COMPLETELY_SOLVABLE).
    """
    derived = derived_series_dims(Q.algebra)
    imag = max_adjoint_imag(Q.algebra)
    return QKReport(
        dim=Q.dim,
        jacobi_residual=Q.jacobi,
        gram_min_eig=float(np.linalg.eigvalsh(Q.gram).min()),
        sp1_residual=sp1_fit_residual(Q),
        completely_solvable=derived[-1] == 0 and imag < COMPLETELY_SOLVABLE,
        derived_series=derived,
        adjoint_imag_max=imag,
        killing_eigs=tuple(np.round(killing_spectrum(Q.algebra), 10)),
    )
