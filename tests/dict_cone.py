"""Dict-based reference for the cone oracle's ring-coefficient forms, for the
tests only.

This is the kernel the oracle used before it moved to flat coordinate
arrays: a TrigLaurent is a dict from monomials (k, a, b), meaning
t^k cos^a(tau) sin^b(tau) with b in {0, 1}, to coefficients; a CForm a dict
from sorted index tuples to TrigLaurents; a CFormMatrix a grid of CForms.
Every product walks term pairs in Python.  It shares no arithmetic with
pskmap.cone, so the coordinate kernel can be checked against it term by
term.
"""

import math

from dict_forms import monomial_sign as sort_with_sign

PRUNE = 1e-14


class DSquaredError(Exception):
    """tau-dependent coefficients met a derivation without a valid kappa."""


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

    def norm_inf(self) -> float:
        return max((v.norm_inf() for v in self.coeffs.values()), default=0.0)

    def nonconstant_norm(self) -> float:
        return max((v.nonconstant_norm() for v in self.coeffs.values()), default=0.0)

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


class CFormMatrix:
    """Dense matrix of CForms, homogeneous in degree and generator count, with
    the cone's one-pass matrix wedge.  Every operation returns a new matrix."""

    __slots__ = ("rows", "cols", "m", "degree", "entries")

    def __init__(self, entries):
        rows = list(entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        self.rows = len(rows)
        self.cols = len(rows[0])
        first = rows[0][0]
        self.m = first.m
        self.degree = first.degree
        for r in rows:
            if len(r) != self.cols:
                raise ValueError("ragged matrix")
            for f in r:
                if f.m != self.m or f.degree != self.degree:
                    raise ValueError("inhomogeneous matrix entries")
        self.entries = tuple(tuple(r) for r in rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other: "CFormMatrix") -> "CFormMatrix":
        self._check_shape(other)
        return CFormMatrix(
            [[self[i, j] + other[i, j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __sub__(self, other: "CFormMatrix") -> "CFormMatrix":
        self._check_shape(other)
        return CFormMatrix(
            [[self[i, j] - other[i, j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __neg__(self) -> "CFormMatrix":
        return self.map(lambda f: -f)

    def _check_shape(self, other: "CFormMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        if self.m != other.m:
            raise ValueError("mismatched basis dimension")

    def transpose(self) -> "CFormMatrix":
        return CFormMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def map(self, fn) -> "CFormMatrix":
        return CFormMatrix([[fn(f) for f in row] for row in self.entries])

    def norm_inf(self) -> float:
        return max(f.norm_inf() for row in self.entries for f in row)

    def __repr__(self) -> str:
        return f"CFormMatrix({self.rows}x{self.cols}, deg={self.degree}, m={self.m})"

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


def scalar_matmul(S, A: CFormMatrix) -> CFormMatrix:
    """The product S A of a float matrix S and a CForm matrix A."""
    out = []
    for i in range(S.shape[0]):
        row = []
        for j in range(A.cols):
            acc: dict = {}
            for k in range(A.rows):
                s = S[i, k]
                if s:
                    _merge(acc, A[k, j].scale(float(s)).coeffs)
            row.append(CForm._of(A.m, A.degree, acc))
        out.append(row)
    return CFormMatrix(out)
