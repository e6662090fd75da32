"""Symbolic cone-level oracle for the special Kahler conditions.

The cone over the group is modelled as a graded differential algebra on
generators (a~^i, b~^i, phi, psi) with coefficients in a ring of finite
sums r * t^k * cos^a(tau) * sin^b(tau).  Differentiation rules:

    d(a~), d(b~)  from the base algebra,
    d(phi) = 2 omega~_S,         d(psi) = 0  (psi = dt),
    d(t)   = psi,                d(tau) = phi - 2 kappa~.

d*d = 0 on this algebra encodes the Jacobi identity, closedness of the
Kahler form, and d(kappa) = omega_S all at once.  The flatness blocks of
the special connection are then computed honestly from
Omega = d(omega) + omega ^ omega and compared with their displayed
formulas.

Canonical form.  A TrigLaurent keeps its terms keyed by (k, a, b) with
b in {0, 1} (sin^2 rewritten as 1 - cos^2) and drops every coefficient
with |c| <= PRUNE; a CForm keeps only sorted keys with non-zero
coefficients.  The public constructors establish this; the ring, form and
derivation operations preserve it and wrap their results with the trusted
constructors TrigLaurent._canonical and CForm._of, which do not re-check.
Nothing mutates a value after it is built, so results may share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connection import ConnectionData
from .forms import Form, FormMatrix, max_abs, sort_with_sign
from .intrinsic import pq_from_tensors
from .lie import AdaptedBasis, LieAlgebra, _d_table, check_adapted

PRUNE = 1e-14


class DSquaredError(Exception):
    """The derivation fails d*d = 0 (bad kappa or bad algebra)."""


# ---------------------------------------------------------------------
# coefficient ring
# ---------------------------------------------------------------------


class TrigLaurent:
    """Finite sums r * t^k * cos^a(tau) * sin^b(tau), with b reduced to 0 or 1
    via sin^2 = 1 - cos^2.

    Canonical form: ``terms`` maps (k, a, b) with a >= 0 and b in {0, 1} to
    a coefficient with |coefficient| > PRUNE.  The zero test is then a plain
    coefficient check.  The public constructor reduces and prunes whatever it
    is given; every ring and calculus operation keeps the invariant itself
    and builds its result with ``_canonical``, which trusts its input.
    Values are never mutated after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for (k, a, b), coeff in (terms or {}).items():
            _accumulate(self.terms, k, a, b, coeff)

    # -- constructors --------------------------------------------------

    @classmethod
    def _canonical(cls, terms: dict) -> "TrigLaurent":
        """Wrap a dict that is already in canonical form, without checking it."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def const(cls, value: float) -> "TrigLaurent":
        return cls({(0, 0, 0): float(value)})

    @classmethod
    def t_power(cls, k: int, value: float = 1.0) -> "TrigLaurent":
        return cls({(k, 0, 0): float(value)})

    @classmethod
    def cos_tau(cls) -> "TrigLaurent":
        return cls({(0, 1, 0): 1.0})

    @classmethod
    def sin_tau(cls) -> "TrigLaurent":
        return cls({(0, 0, 1): 1.0})

    @classmethod
    def cos_2tau(cls) -> "TrigLaurent":
        return cls({(0, 2, 0): 2.0, (0, 0, 0): -1.0})

    @classmethod
    def sin_2tau(cls) -> "TrigLaurent":
        return cls({(0, 1, 1): 2.0})

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "TrigLaurent") -> "TrigLaurent":
        out = dict(self.terms)
        for key, val in other.terms.items():
            new = out.get(key, 0.0) + val
            if abs(new) <= PRUNE:
                out.pop(key, None)
            else:
                out[key] = new
        return _canonical(out)

    def __sub__(self, other: "TrigLaurent") -> "TrigLaurent":
        return self + (-other)

    def __neg__(self) -> "TrigLaurent":
        return _canonical({k: -v for k, v in self.terms.items()})

    def _scaled(self, factor) -> "TrigLaurent":
        out = {}
        for key, val in self.terms.items():
            prod = val * factor
            if abs(prod) > PRUNE:
                out[key] = prod
        return _canonical(out)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._scaled(other)
        left, right = self.terms, other.terms
        # A constant factor only rescales the other one's coefficients.
        if len(right) == 1 and _CONST_KEY in right:
            return self._scaled(right[_CONST_KEY])
        if len(left) == 1 and _CONST_KEY in left:
            return other._scaled(left[_CONST_KEY])
        out: dict = {}
        get, pop = out.get, out.pop
        for (k1, a1, b1), c1 in left.items():
            for (k2, a2, b2), c2 in right.items():
                coeff = c1 * c2
                if abs(coeff) <= PRUNE:
                    continue
                k, a = k1 + k2, a1 + a2
                if b1 and b2:
                    # sin^2 = 1 - cos^2
                    key = (k, a, 0)
                    new = get(key, 0.0) + coeff
                    if abs(new) <= PRUNE:
                        pop(key, None)
                    else:
                        out[key] = new
                    key, coeff = (k, a + 2, 0), -coeff
                else:
                    key = (k, a, b1 + b2)
                new = get(key, 0.0) + coeff
                if abs(new) <= PRUNE:
                    pop(key, None)
                else:
                    out[key] = new
        return _canonical(out)

    __rmul__ = __mul__

    # -- calculus -------------------------------------------------------

    def dt(self) -> "TrigLaurent":
        # distinct keys stay distinct, so only pruning is needed
        out = {}
        for (k, a, b), c in self.terms.items():
            if k != 0 and abs(prod := k * c) > PRUNE:
                out[(k - 1, a, b)] = prod
        return _canonical(out)

    def dtau(self) -> "TrigLaurent":
        out: dict = {}
        for (k, a, b), c in self.terms.items():
            if a:
                _accumulate(out, k, a - 1, b + 1, -a * c)
            if b:
                _accumulate(out, k, a + 1, b - 1, b * c)
        return _canonical(out)

    # -- queries ----------------------------------------------------------

    def eval(self, t: float, tau: float) -> float:
        total = 0.0
        for (k, a, b), c in self.terms.items():
            total += c * t ** k * math.cos(tau) ** a * math.sin(tau) ** b
        return total

    def norm_inf(self) -> float:
        return max((abs(v) for v in self.terms.values()), default=0.0)

    def is_constant(self, tol: float = 1e-12) -> bool:
        return all(
            key == (0, 0, 0) or abs(val) <= tol for key, val in self.terms.items()
        )

    def constant_part(self) -> float:
        return self.terms.get((0, 0, 0), 0.0)

    def nonconstant_norm(self) -> float:
        return max(
            (abs(v) for k, v in self.terms.items() if k != (0, 0, 0)), default=0.0
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "TrigLaurent(0)"
        bits = []
        for (k, a, b), c in sorted(self.terms.items()):
            mono = f"{c:g}"
            if k:
                mono += f"*t^{k}"
            if a:
                mono += f"*c^{a}"
            if b:
                mono += "*s"
            bits.append(mono)
        return "TL(" + " + ".join(bits) + ")"


_CONST_KEY = (0, 0, 0)
_canonical = TrigLaurent._canonical


def _accumulate(store: dict, k: int, a: int, b: int, coeff: float) -> None:
    """Add coeff * t^k c^a s^b, rewriting sin powers >= 2 via sin^2 = 1 - cos^2."""
    if abs(coeff) <= PRUNE:
        return
    if b <= 1:
        key = (k, a, b)
        new = store.get(key, 0.0) + coeff
        if abs(new) <= PRUNE:
            store.pop(key, None)
        else:
            store[key] = new
        return
    half, rem = divmod(b, 2)
    for j in range(half + 1):
        _accumulate(store, k, a + 2 * j, rem, coeff * math.comb(half, j) * (-1.0) ** j)


TL_ZERO = TrigLaurent()
TL_ONE = TrigLaurent.const(1.0)


# ---------------------------------------------------------------------
# forms with ring coefficients
# ---------------------------------------------------------------------


class CForm:
    """Homogeneous form over generator indices 1..m with TrigLaurent coefficients.

    ``coeffs`` maps sorted index tuples to non-zero TrigLaurent values.  The
    public constructor enforces that; operations build their results with
    ``_of``, which trusts it.
    """

    __slots__ = ("m", "degree", "coeffs")

    def __init__(self, m: int, degree: int, coeffs=None):
        self.m = m
        self.degree = degree
        self.coeffs = {}
        for key, val in (coeffs or {}).items():
            if not isinstance(val, TrigLaurent):
                val = TrigLaurent.const(val)
            if val.terms:
                self.coeffs[tuple(key)] = val

    @classmethod
    def _of(cls, m: int, degree: int, coeffs: dict) -> "CForm":
        """Wrap a dict of sorted keys to non-zero TrigLaurent values, unchecked."""
        out = object.__new__(cls)
        out.m = m
        out.degree = degree
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls, m: int, degree: int) -> "CForm":
        return cls._of(m, degree, {})

    @classmethod
    def basis(cls, m: int, *indices: int) -> "CForm":
        sign, key = sort_with_sign(indices)
        if sign == 0:
            return cls.zero(m, len(indices))
        return cls(m, len(indices), {key: TrigLaurent.const(float(sign))})

    @classmethod
    def from_form(cls, form: Form, m: int, scale: TrigLaurent | float = 1.0) -> "CForm":
        """Lift a float-coefficient form into the first indices of a bigger algebra."""
        if not isinstance(scale, TrigLaurent):
            scale = TrigLaurent.const(scale)
        return cls(m, form.degree, {k: scale * v for k, v in form.coeffs.items()})

    def __add__(self, other: "CForm") -> "CForm":
        if self.m != other.m or self.degree != other.degree:
            raise ValueError("incompatible forms")
        out = dict(self.coeffs)
        _merge(out, other.coeffs)
        return CForm._of(self.m, self.degree, out)

    def __sub__(self, other: "CForm") -> "CForm":
        return self + (-other)

    def __neg__(self) -> "CForm":
        return CForm._of(self.m, self.degree, {k: -v for k, v in self.coeffs.items()})

    def scale(self, factor) -> "CForm":
        if not isinstance(factor, TrigLaurent):
            factor = TrigLaurent.const(factor)
        out = {}
        for key, val in self.coeffs.items():
            prod = factor * val
            if prod.terms:
                out[key] = prod
        return CForm._of(self.m, self.degree, out)

    def wedge(self, other: "CForm") -> "CForm":
        if self.m != other.m:
            raise ValueError("mismatched generator count")
        return CForm._of(self.m, self.degree + other.degree,
                         _wedge_coeffs(self.coeffs, other.coeffs))

    def interior(self, pairing: dict) -> "CForm":
        """Contraction with a vector given by its pairings {index: TrigLaurent}."""
        out: dict = {}
        for key, val in self.coeffs.items():
            for pos, idx in enumerate(key):
                if idx in pairing:
                    sub = key[:pos] + key[pos + 1:]
                    term = val * pairing[idx] * (-1.0 if pos % 2 else 1.0)
                    out[sub] = out[sub] + term if sub in out else term
        return CForm._of(self.m, max(self.degree - 1, 0),
                         {k: v for k, v in out.items() if v.terms})

    def substitute(self, mapping: dict) -> "CForm":
        """Replace generators by degree-1 images (identity where unmapped)."""
        out: dict = {}
        for key, val in self.coeffs.items():
            piece = {(): val}
            for idx in key:
                image = mapping.get(idx)
                if image is None:
                    image = CForm.basis(self.m, idx)
                piece = _wedge_coeffs(piece, image.coeffs)
            _merge(out, piece)
        return CForm._of(self.m, self.degree, out)

    def eval_at(self, t: float, tau: float) -> Form:
        return Form(self.m, self.degree,
                    {k: v.eval(t, tau) for k, v in self.coeffs.items()})

    def norm_inf(self) -> float:
        return max((v.norm_inf() for v in self.coeffs.values()), default=0.0)

    def nonconstant_norm(self) -> float:
        return max((v.nonconstant_norm() for v in self.coeffs.values()), default=0.0)

    def constant_form(self) -> Form:
        return Form(self.m, self.degree,
                    {k: v.constant_part() for k, v in self.coeffs.items()})

    def __repr__(self) -> str:
        return f"CForm(m={self.m}, deg={self.degree}, {len(self.coeffs)} terms)"


def _wedge_coeffs(left: dict, right: dict) -> dict:
    """Coefficients of the wedge of two CForms, given by their coefficient dicts."""
    out: dict = {}
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            sign, key = sort_with_sign(k1 + k2)
            if sign == 0:
                continue
            term = c1 * c2
            if sign < 0:
                term = -term
            out[key] = out[key] + term if key in out else term
    return {k: v for k, v in out.items() if v.terms}


def _add_term(store: dict, key: tuple, val: TrigLaurent) -> None:
    """Add a non-zero coefficient into store in place, dropping it if it cancels."""
    if key in store:
        val = store[key] + val
        if not val.terms:
            del store[key]
            return
    store[key] = val


def _merge(store: dict, coeffs: dict) -> None:
    for key, val in coeffs.items():
        _add_term(store, key, val)


class CFormMatrix(FormMatrix):
    """FormMatrix of CForm entries, with the cone's one-pass matrix wedge."""

    __slots__ = ()

    def wedge(self, other: "CFormMatrix") -> "CFormMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        if self.m != other.m:
            raise ValueError("mismatched generator count")
        m, degree = self.m, self.degree + other.degree
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc: dict = {}
                for k in range(self.cols):
                    _merge(acc, _wedge_coeffs(self.entries[i][k].coeffs,
                                              other.entries[k][j].coeffs))
                row.append(CForm._of(m, degree, acc))
            out.append(row)
        return CFormMatrix(out)

    def nonconstant_norm(self) -> float:
        return max(f.nonconstant_norm() for row in self.entries for f in row)


# ---------------------------------------------------------------------
# the cone differential algebra
# ---------------------------------------------------------------------


def apply_derivation(x: CForm, d_rules, dtau: CForm, idx_psi: int,
                     exact: bool) -> CForm:
    """Graded derivation of degree +1 with coefficient calculus.

    Generator differentials come from d_rules; coefficient functions are
    differentiated with d(t) = psi and d(tau) = the supplied one-form.
    The terms go into one dict in a fixed order (per monomial of x: dt,
    then dtau, then each generator's rule), which fixes the rounding of the
    sums.
    """
    m = x.m
    out: dict = {}
    for key, coeff in x.coeffs.items():
        ct = coeff.dt()
        if ct.terms:
            sign, k2 = sort_with_sign((idx_psi,) + key)
            if sign:
                _add_term(out, k2, ct if sign > 0 else -ct)
        ctau = coeff.dtau()
        if ctau.terms:
            if not exact:
                raise DSquaredError("tau-dependent coefficients need a valid kappa")
            for dkey, dval in dtau.coeffs.items():
                sign, k2 = sort_with_sign(dkey + key)
                if sign:
                    term = ctau * dval
                    if term.terms:
                        _add_term(out, k2, term if sign > 0 else -term)
        # d(g_1 ^ ... ^ g_r) = sum_pos (-1)^pos g_1 ^ .. d(g_pos) .. ^ g_r
        for pos, idx in enumerate(key):
            head, tail = key[:pos], key[pos + 1:]
            parity = -1 if pos % 2 else 1
            for rkey, rval in d_rules[idx - 1].coeffs.items():
                sign, k2 = sort_with_sign(head + rkey + tail)
                if sign:
                    term = coeff * rval
                    if term.terms:
                        _add_term(out, k2, term if sign * parity > 0 else -term)
    return CForm._of(m, x.degree + 1, out)


@dataclass(frozen=True)
class ConeAlgebra:
    """Generators a~^1..a~^n, b~^1..b~^n, phi (index 2n+1), psi (index 2n+2),
    then any further generators that d_rules differentiates (m = len(d_rules))."""

    L: LieAlgebra
    B: AdaptedBasis
    kappa: Form | None
    d_rules: tuple
    exact: bool

    @property
    def n(self) -> int:
        return self.B.n

    @property
    def m(self) -> int:
        return len(self.d_rules)

    @property
    def idx_phi(self) -> int:
        return 2 * self.B.n + 1

    @property
    def idx_psi(self) -> int:
        return 2 * self.B.n + 2

    @cached_property
    def dtau(self) -> CForm:
        """d(tau) = phi - 2 kappa~, used to differentiate trig coefficients;
        built on first use and kept with the algebra."""
        phi = CForm.basis(self.m, self.idx_phi)
        if self.kappa is None:
            return phi
        return phi - CForm.from_form(self.kappa, self.m, 2.0)

    def d(self, x: CForm) -> CForm:
        return apply_derivation(x, self.d_rules, self.dtau, self.idx_psi, self.exact)

    # -- contractions with the cone symmetry ---------------------------

    def interior_x(self, x: CForm) -> CForm:
        """Contraction with the circle generator: pairs only with phi."""
        return x.interior({self.idx_phi: TL_ONE})

    def interior_jx(self, x: CForm) -> CForm:
        """Contraction with t d/dt: pairs only with psi = dt, value t."""
        return x.interior({self.idx_psi: TrigLaurent.t_power(1)})

    def lie_x(self, x: CForm) -> CForm:
        return self.interior_x(self.d(x)) + self.d(self.interior_x(x))

    def hatted_coframe(self) -> list:
        """t a~, t b~, t phi, psi -- the unitary cone coframe."""
        t = TrigLaurent.t_power(1)
        out = [CForm.basis(self.m, i).scale(t) for i in range(1, 2 * self.n + 2)]
        out.append(CForm.basis(self.m, self.idx_psi))
        return out

    def d_squared_residual(self) -> float:
        """Max residual of d(d(.)) over generators and ring-coefficient forms.

        The tau-dependent samples are what detect a kappa that is not a
        primitive of the Kahler form.
        """
        worst = 0.0
        for i in range(1, self.m + 1):
            worst = max(worst, self.d(self.d(CForm.basis(self.m, i))).norm_inf())
        coeffs = [TrigLaurent.t_power(1), TrigLaurent.t_power(-2)]
        if self.exact:
            coeffs += [
                TrigLaurent.cos_tau(),
                TrigLaurent.sin_tau(),
                TrigLaurent.cos_2tau() * TrigLaurent.t_power(-1, 0.5),
                TrigLaurent.sin_2tau() * TrigLaurent.cos_tau(),
            ]
        for c in coeffs:
            f = CForm(self.m, 0, {(): c})
            worst = max(worst, self.d(self.d(f)).norm_inf())
        return worst


def _lift_matrix(CA: ConeAlgebra, X: np.ndarray, scale=1.0) -> CFormMatrix:
    """Entrywise lift of an (n, n, 2n) array of base one-forms into the cone;
    coefficients of size at most PRUNE are dropped, as Form drops them."""
    if not isinstance(scale, TrigLaurent):
        scale = TrigLaurent.const(scale)
    return CFormMatrix([[CForm(CA.m, 1, {(k + 1,): scale * float(v)
                                         for k, v in enumerate(entry) if abs(v) > PRUNE})
                         for entry in row] for row in X])


def _base_curvature(CA: ConeAlgebra, mu: CFormMatrix, lam: CFormMatrix):
    """Lifted curvature blocks of the base, M~ = d(mu~) + mu~^mu~ - lam~^lam~ and
    Lam~ = d(lam~) + mu~^lam~ + lam~^mu~, computed with the cone's own d."""
    M = mu.map(CA.d) + mu.wedge(mu) - lam.wedge(lam)
    Lam = lam.map(CA.d) + mu.wedge(lam) + lam.wedge(mu)
    return M, Lam


def _omega_s(n: int, m: int) -> CForm:
    """omega~_S = sum_i a~^i ^ b~^i over m generators."""
    omega = CForm.zero(m, 2)
    for i in range(1, n + 1):
        omega = omega + CForm.basis(m, i, n + i)
    return omega


def cone_coframe(L: LieAlgebra, B: AdaptedBasis, kappa: Form | None,
                 tol: float = 1e-9) -> ConeAlgebra:
    """Build the cone algebra; verifies d*d = 0 (raises DSquaredError).

    kappa may be None for diagnostics that never touch tau-dependent
    coefficients (the exactness-dependent part of the ring is then
    disabled).  Otherwise d(d tau) = 2 (omega~_S - d kappa~) is also
    checked on its own: it is linear in the bracket constants, so the
    quadratic d^2 scale would let a wrong kappa through once they are large.
    """
    check_adapted(L, B)
    n = B.n
    m = 2 * n + 2
    base_d = _d_table(L)
    rules = [CForm.from_form(base_d[i], m) for i in range(2 * n)]
    rules.append(_omega_s(n, m).scale(2.0))     # d(phi) = 2 omega~_S
    rules.append(CForm.zero(m, 2))              # d(psi) = 0
    CA = ConeAlgebra(L=L, B=B, kappa=kappa, d_rules=tuple(rules), exact=kappa is not None)
    scale = 1.0 + L.max_constant() ** 2
    res = CA.d_squared_residual()
    if res > tol * scale:
        raise DSquaredError(f"d^2 residual {res:.3e} (bad kappa or bad algebra)")
    if kappa is not None:
        res = CA.d(CA.dtau).norm_inf()
        if res > tol * (1.0 + L.max_constant() * (1.0 + kappa.norm_inf())):
            raise DSquaredError(f"d(d tau) = {res:.3e}: kappa is not a primitive of omega_S")
    return CA


def _i_matrix(n: int) -> np.ndarray:
    """The complex-structure matrix on the 2n+2 cone indices."""
    m = 2 * n + 2
    i_mat = np.zeros((m, m))
    for i in range(n):
        i_mat[i, n + i] = 1.0
        i_mat[n + i, i] = -1.0
    i_mat[2 * n, 2 * n + 1] = 1.0
    i_mat[2 * n + 1, 2 * n] = -1.0
    return i_mat


def _g_matrix(n: int) -> np.ndarray:
    m = 2 * n + 2
    g = np.eye(m)
    g[2 * n, 2 * n] = -1.0
    g[2 * n + 1, 2 * n + 1] = -1.0
    return g


def scalar_matmul(S, A: CFormMatrix, side: str = "left") -> CFormMatrix:
    """Multiply a CForm matrix by a float matrix on the given side."""
    rows, cols = (S.shape[0], A.cols) if side == "left" else (A.rows, S.shape[1])
    inner = A.rows if side == "left" else A.cols
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc: dict = {}
            for k in range(inner):
                s, f = (S[i, k], A[k, j]) if side == "left" else (S[k, j], A[i, k])
                if s:
                    _merge(acc, f.scale(float(s)).coeffs)
            row.append(CForm._of(A.m, A.degree, acc))
        out.append(row)
    return CFormMatrix(out)


def cone_lc(CA: ConeAlgebra, C: ConnectionData, tol: float = 1e-9) -> CFormMatrix:
    """Levi-Civita connection matrix of the cone metric in the hatted coframe.

    Asserts the structure equation and both defining symmetries; raises
    with the offending block on failure.
    """
    n = CA.n
    m = CA.m
    phi = CForm.basis(m, CA.idx_phi)
    a = [CForm.basis(m, i) for i in range(1, n + 1)]
    b = [CForm.basis(m, n + i) for i in range(1, n + 1)]
    mu, lam = _lift_matrix(CA, C.mu), _lift_matrix(CA, C.lam)
    rows = []
    for i in range(n):                      # a-block rows
        row = [mu[i, j] for j in range(n)]
        row += [lam[i, j] + (phi if i == j else CForm.zero(m, 1)) for j in range(n)]
        row += [b[i], a[i]]
        rows.append(row)
    for i in range(n):                      # b-block rows
        row = [-lam[i, j] - (phi if i == j else CForm.zero(m, 1)) for j in range(n)]
        row += [mu[i, j] for j in range(n)]
        row += [-a[i], b[i]]
        rows.append(row)
    rows.append([b[j] for j in range(n)] + [-a[j] for j in range(n)]
                + [CForm.zero(m, 1), phi])
    rows.append([a[j] for j in range(n)] + [b[j] for j in range(n)]
                + [-phi, CForm.zero(m, 1)])
    omega = CFormMatrix(rows)

    theta = CFormMatrix([[f] for f in CA.hatted_coframe()])
    struct = theta.map(CA.d) + omega.wedge(theta)
    if struct.norm_inf() > tol:
        bad = max(range(m), key=lambda r: struct[r, 0].norm_inf())
        raise AssertionError(
            f"cone structure equation fails in coframe row {bad}: "
            f"residual {struct[bad, 0].norm_inf():.3e}"
        )
    G, I = _g_matrix(n), _i_matrix(n)
    sym_g = (scalar_matmul(G, omega.transpose(), "right")
             + scalar_matmul(G, omega, "left")).norm_inf()
    sym_i = (scalar_matmul(I, omega, "left") - scalar_matmul(I, omega, "right")).norm_inf()
    if max(sym_g, sym_i) > tol:
        raise AssertionError(f"cone connection symmetry residuals G={sym_g:.2e} i={sym_i:.2e}")
    return omega


@dataclass(frozen=True)
class EtaForm:
    """Difference of the special and Levi-Civita connections on the cone.

    Only the upper-left 2n x 2n part is populated, with block pattern
    [[u, v], [v, -u]] for symmetric matrices u, v of one-forms in the
    span of a~, b~."""

    matrix: CFormMatrix
    u: CFormMatrix
    v: CFormMatrix


def eta_from_pq(CA: ConeAlgebra, p, q) -> EtaForm:
    """u = p~ cos(2 tau) - q~ sin(2 tau), v = p~ sin(2 tau) + q~ cos(2 tau)."""
    n = CA.n
    m = CA.m
    cz, sz = TrigLaurent.cos_2tau(), TrigLaurent.sin_2tau()
    u = _lift_matrix(CA, p, cz) - _lift_matrix(CA, q, sz)
    v = _lift_matrix(CA, p, sz) + _lift_matrix(CA, q, cz)
    zero = CForm.zero(m, 1)
    rows = []
    for i in range(n):
        rows.append(list(u.entries[i]) + list(v.entries[i]) + [zero, zero])
    for i in range(n):
        rows.append(list(v.entries[i]) + [-f for f in u.entries[i]] + [zero, zero])
    rows.append([zero] * m)
    rows.append([zero] * m)
    return EtaForm(CFormMatrix(rows), u, v)


def curvature_of(CA: ConeAlgebra, omega: CFormMatrix) -> CFormMatrix:
    """Omega = d(omega) + omega ^ omega, evaluated in the cone algebra."""
    return omega.map(CA.d) + omega.wedge(omega)


def verify_eta_conditions(CA: ConeAlgebra, eta: EtaForm, omega_nabla: CFormMatrix,
                          curvature: CFormMatrix | None = None) -> dict:
    """Residuals of the six special conditions for omega_nabla = omega_LC + eta.

    ``curvature`` is curvature_of(CA, omega_nabla) when the caller already
    has it; it is computed here otherwise.
    """
    n = CA.n
    m = CA.m
    theta = CFormMatrix([[f] for f in CA.hatted_coframe()])
    G, I = _g_matrix(n), _i_matrix(n)
    em = eta.matrix
    # eta anticommutes with the complex structure but COMMUTES with G in
    # the pairing sense (eta^T G = G eta); together these say eta is
    # symmetric for the symplectic pairing G*i, which is what
    # "special symplectic" preserves.
    report = {
        "torsion": em.wedge(theta).norm_inf(),
        "special_symplectic_i": (scalar_matmul(I, em, "left")
                                 + scalar_matmul(I, em, "right")).norm_inf(),
        "special_symplectic_g": (scalar_matmul(G, em.transpose(), "right")
                                 - scalar_matmul(G, em, "left")).norm_inf(),
        "conic_x": em.map(CA.interior_x).norm_inf(),
        "conic_jx": em.map(CA.interior_jx).norm_inf(),
        "flatness": (curvature if curvature is not None
                     else curvature_of(CA, omega_nabla)).norm_inf(),
    }
    return report


def special_blocks(CA: ConeAlgebra, C: ConnectionData, p, q,
                   kappa: Form | None = None, match_tol: float = 1e-9, *,
                   eta: EtaForm | None = None, curvature: CFormMatrix | None = None):
    """Flatness blocks (T, U, V, W) of the special connection.

    Computed honestly from Omega = d(omega_nabla) + omega_nabla^2 and
    cross-checked against the displayed formulas (first terms taken as
    the curvature blocks, as dimensional analysis requires).  Passing an
    explicit kappa overrides the cone's own, without re-verifying
    d*d = 0 -- that is precisely how a wrong kappa shows up as U, V != 0.

    A caller that already built eta_from_pq(CA, p, q) and its curvature
    Omega on CA passes them as ``eta`` and ``curvature``; both are then
    used as given, and omega_LC is not rebuilt.
    """
    if kappa is not None and kappa is not CA.kappa:
        if curvature is not None:
            raise ValueError("a precomputed curvature belongs to the cone's own kappa")
        CA = ConeAlgebra(L=CA.L, B=CA.B, kappa=kappa, d_rules=CA.d_rules, exact=True)
    n = CA.n
    if eta is None:
        eta = eta_from_pq(CA, p, q)
    Om = curvature
    if Om is None:
        Om = curvature_of(CA, cone_lc(CA, C) + eta.matrix)

    def block(r0, c0):
        return CFormMatrix([[Om[r0 + i, c0 + j] for j in range(n)] for i in range(n)])

    B11, B12, B21, B22 = block(0, 0), block(0, n), block(n, 0), block(n, n)
    half = lambda A: A.map(lambda f: f.scale(0.5))
    T = half(B11 + B22)
    U = half(B11 - B22)
    V = half(B12 + B21)
    W = half(B12 - B21)

    # displayed formulas, with curvature-type first terms
    m = CA.m
    a = [CForm.basis(m, i + 1) for i in range(n)]
    b = [CForm.basis(m, n + i + 1) for i in range(n)]
    omega_s = _omega_s(n, m)
    u, v = eta.u, eta.v
    mu, lam = _lift_matrix(CA, C.mu), _lift_matrix(CA, C.lam)
    M_l, L_l = _base_curvature(CA, mu, lam)
    phi = CForm.basis(m, CA.idx_phi)
    aaT = CFormMatrix([[a[i].wedge(a[j]) for j in range(n)] for i in range(n)])
    bbT = CFormMatrix([[b[i].wedge(b[j]) for j in range(n)] for i in range(n)])
    abT = CFormMatrix([[a[i].wedge(b[j]) for j in range(n)] for i in range(n)])
    baT = CFormMatrix([[b[i].wedge(a[j]) for j in range(n)] for i in range(n)])
    omega_id = CFormMatrix(
        [[omega_s if i == j else CForm.zero(m, 2) for j in range(n)] for i in range(n)]
    )

    T_disp = M_l + aaT + bbT + u.wedge(u) + v.wedge(v)
    U_disp = (u.map(CA.d) + mu.wedge(u) + u.wedge(mu) + lam.wedge(v) - v.wedge(lam)
              + v.map(lambda f: phi.wedge(f).scale(2.0)))
    V_disp = (v.map(CA.d) + mu.wedge(v) + v.wedge(mu) - lam.wedge(u) + u.wedge(lam)
              - u.map(lambda f: phi.wedge(f).scale(2.0)))
    W_disp = (L_l + abT - baT + omega_id.map(lambda f: f.scale(2.0))
              + u.wedge(v) - v.wedge(u))

    mismatch = max(
        (T - T_disp).norm_inf(), (U - U_disp).norm_inf(),
        (V - V_disp).norm_inf(), (W - W_disp).norm_inf(),
    )
    scale = 1.0 + CA.L.max_constant() ** 2 + max_abs(p) ** 2 + max_abs(q) ** 2
    if mismatch > match_tol * scale:
        raise AssertionError(
            f"honest curvature blocks disagree with displayed formulas by {mismatch:.3e}"
        )
    return T, U, V, W


def special_block_residual(CA: ConeAlgebra, C: ConnectionData, p, q,
                           kappa: Form | None = None) -> float:
    T, U, V, W = special_blocks(CA, C, p, q, kappa)
    return max(T.norm_inf(), U.norm_inf(), V.norm_inf(), W.norm_inf())


def integrability_display_residual(CA: ConeAlgebra, C: ConnectionData, p, q) -> float:
    """Residual of the differentiated-flatness displays in (u, v) form:
    M~^u - u^M~ + Lam~^v + v^Lam~ + 4 omega~_S ^ v  (and its partner)."""
    eta = eta_from_pq(CA, p, q)
    u, v = eta.u, eta.v
    M_l, L_l = _base_curvature(CA, _lift_matrix(CA, C.mu), _lift_matrix(CA, C.lam))
    omega_s = _omega_s(CA.n, CA.m)
    r1 = (M_l.wedge(u) - u.wedge(M_l) + L_l.wedge(v) + v.wedge(L_l)
          + v.map(lambda f: omega_s.wedge(f).scale(4.0)))
    r2 = (M_l.wedge(v) - v.wedge(M_l) - L_l.wedge(u) - u.wedge(L_l)
          - u.map(lambda f: omega_s.wedge(f).scale(4.0)))
    return max(r1.norm_inf(), r2.norm_inf())


def oracle_residual(L: LieAlgebra, B: AdaptedBasis, cand) -> float:
    """End-to-end cone verdict for a candidate: max of the T, U, V, W norms."""
    from .connection import levi_civita

    C = levi_civita(L, B)
    CA = cone_coframe(L, B, cand.kappa)
    p, q = pq_from_tensors(cand.Sa, cand.Sb)
    return special_block_residual(CA, C, p, q)
