"""Exterior algebra over a fixed m-dimensional dual basis.

A homogeneous degree-k form is stored sparsely as a map from strictly
increasing k-tuples of basis indices (1-based) to float coefficients.
All values are immutable after construction and every operation returns
a fresh object, so unrestricted concurrent use is safe.

DenseExterior is the numeric kernel of the intrinsic side: a degree-k form
is a float array over all_keys(m, k), a matrix of forms is an array with the
key axis last, and wedge products contract with (k, l) sign tables.  The
connection, the curvature, p and q, the residuals and the solver's compile
all live on it.  Form is kept at the boundaries: parsing and reports, the
candidate's kappa, the primitives and closed one-forms of lie.py, and the
cone oracle and the twist, which lift the dense data into the cone.

Basis ordering convention: indices 1..n are the a-forms, n+1..2n the
b-forms; when a cone is attached, 2n+1 and 2n+2 are the two extra
generators.  This makes block extraction a plain index slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

PRUNE_EPS = 1e-14


@dataclass(frozen=True)
class ZeroTolerance:
    """Absolute/relative tolerance pair used for all form comparisons."""

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9

    def __post_init__(self) -> None:
        if self.abs_eps <= 0.0 or self.rel_eps <= 0.0:
            raise ValueError("tolerances must be strictly positive")

    def bound(self, scale: float = 0.0) -> float:
        return self.abs_eps + self.rel_eps * abs(scale)


DEFAULT_TOL = ZeroTolerance()


def sort_with_sign(indices):
    """Sort a monomial index tuple; return (sign, sorted tuple).

    The sign is the parity of the sorting permutation, or 0 when an
    index repeats (the monomial vanishes).
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(idx)


class Form:
    """Homogeneous exterior form over basis indices 1..m."""

    __slots__ = ("m", "degree", "coeffs")

    def __init__(self, m: int, degree: int, coeffs=None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean = {}
        for key, val in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError(f"key {key} does not match degree {degree}")
            if any(i < 1 or i > m for i in key):
                raise ValueError(f"index out of range in {key}")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"key {key} is not strictly increasing")
            if abs(val) > PRUNE_EPS:
                clean[key] = float(val)
        self.m = m
        self.degree = degree
        self.coeffs = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, m: int, degree: int) -> "Form":
        return cls(m, degree, {})

    @classmethod
    def basis(cls, m: int, *indices: int) -> "Form":
        sign, key = sort_with_sign(indices)
        if sign == 0:
            return cls.zero(m, len(indices))
        return cls(m, len(indices), {key: float(sign)})

    @classmethod
    def one(cls, m: int) -> "Form":
        return cls(m, 0, {(): 1.0})

    # -- linear structure --------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, 0.0) + val
        return Form(self.m, self.degree, out)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form(self.m, self.degree, {k: -v for k, v in self.coeffs.items()})

    def __mul__(self, scalar: float) -> "Form":
        s = float(scalar)
        return Form(self.m, self.degree, {k: s * v for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def _check_compatible(self, other: "Form") -> None:
        if self.m != other.m:
            raise ValueError("mismatched basis dimension")
        if self.degree != other.degree:
            raise ValueError("mismatched degree")

    # -- queries ------------------------------------------------------

    def coeff(self, *indices: int) -> float:
        sign, key = sort_with_sign(indices)
        if sign == 0:
            return 0.0
        return sign * self.coeffs.get(key, 0.0)

    def norm_inf(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def is_zero(self, tol: ZeroTolerance = DEFAULT_TOL, scale: float = 0.0) -> bool:
        return self.norm_inf() <= tol.bound(scale)

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"Form({self.m}, deg={self.degree}, 0)"
        parts = " + ".join(f"{v:g}*e{list(k)}" for k, v in sorted(self.coeffs.items()))
        return f"Form({self.m}, deg={self.degree}, {parts})"


def wedge(x: Form, y: Form) -> Form:
    """Exterior product of two forms over the same basis."""
    if x.m != y.m:
        raise ValueError("mismatched basis dimension")
    deg = x.degree + y.degree
    out: dict = {}
    for k1, c1 in x.coeffs.items():
        for k2, c2 in y.coeffs.items():
            sign, key = sort_with_sign(k1 + k2)
            if sign == 0:
                continue
            out[key] = out.get(key, 0.0) + sign * c1 * c2
    return Form(x.m, deg, out)


def interior(v: int, x: Form) -> Form:
    """Contraction of x with the basis vector dual to index v.

    Graded derivation of degree -1; on one-forms it is the dual pairing.
    """
    if v < 1 or v > x.m:
        raise ValueError(f"basis index {v} out of range 1..{x.m}")
    if x.degree == 0:
        return Form.zero(x.m, 0)
    out: dict = {}
    for key, val in x.coeffs.items():
        for pos, idx in enumerate(key):
            if idx == v:
                sub = key[:pos] + key[pos + 1:]
                sign = -1.0 if pos % 2 else 1.0
                out[sub] = out.get(sub, 0.0) + sign * val
                break
    return Form(x.m, x.degree - 1, out)


class FormMatrix:
    """Dense matrix of forms, homogeneous in degree and basis dimension.

    The container does not care what its entries are: anything with ``m``
    and ``degree`` attributes, ``+``, ``-``, unary ``-`` and ``norm_inf()``
    will do (``cone.CForm`` in the cone's subclass ``cone.CFormMatrix``).
    Every operation returns ``type(self)``, so a subclass keeps its own type.
    """

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

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        self._check_shape(other)
        return type(self)(
            [[self[i, j] + other[i, j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        self._check_shape(other)
        return type(self)(
            [[self[i, j] - other[i, j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __neg__(self) -> "FormMatrix":
        return self.map(lambda f: -f)

    def _check_shape(self, other: "FormMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        if self.m != other.m:
            raise ValueError("mismatched basis dimension")

    def transpose(self) -> "FormMatrix":
        return type(self)(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def map(self, fn) -> "FormMatrix":
        return type(self)([[fn(f) for f in row] for row in self.entries])

    def norm_inf(self) -> float:
        return max(f.norm_inf() for row in self.entries for f in row)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows}x{self.cols}, deg={self.degree}, m={self.m})"


# -- adapted-basis helpers -------------------------------------------


def kahler_form(n: int) -> Form:
    """The standard invariant two-form sum_i a^i ^ b^i."""
    out = Form.zero(2 * n, 2)
    for i in range(1, n + 1):
        out = out + Form.basis(2 * n, i, n + i)
    return out


def coframe_labels(n: int, cone: bool = False) -> list:
    labels = [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]
    if cone:
        labels += ["phi", "psi"]
    return labels


def all_keys(m: int, degree: int):
    """All strictly increasing index tuples, in lexicographic order."""
    return list(combinations(range(1, m + 1), degree))


def max_abs(x: np.ndarray) -> float:
    """Largest absolute entry of a dense form array; 0.0 when it is empty."""
    return float(np.abs(x).max(initial=0.0))


class DenseExterior:
    """Dense exterior algebra over m generators.

    A degree-k form is a float array of length comb(m, k) over
    all_keys(m, k); a matrix of forms is an array with the key axis last.
    Every product is a broadcast, a two-operand einsum or tensordots, and
    one matrix product with the (k, l) sign table, so no call searches for
    an einsum path.  The tables are built on first use and belong to the
    instance, so their lifetime is the caller's.
    """

    def __init__(self, m: int):
        self.m = m
        self._index: dict = {}
        self._tables: dict = {}

    def _key_index(self, degree: int) -> dict:
        index = self._index.get(degree)
        if index is None:
            index = {key: r for r, key in enumerate(all_keys(self.m, degree))}
            self._index[degree] = index
        return index

    def dense(self, x: Form) -> np.ndarray:
        if x.m != self.m:
            raise ValueError("mismatched basis dimension")
        out = np.zeros(comb(self.m, x.degree))
        index = self._key_index(x.degree)
        for key, val in x.coeffs.items():
            out[index[key]] = val
        return out

    def basis(self, *indices: int) -> np.ndarray:
        """The monomial e^i1 ^ ... ^ e^ik as a dense k-form."""
        sign, key = sort_with_sign(indices)
        out = np.zeros(comb(self.m, len(indices)))
        if sign:
            out[self._key_index(len(indices))[key]] = sign
        return out

    def kahler(self) -> np.ndarray:
        """omega_S = sum_i e^i ^ e^(n+i) over m = 2n generators."""
        n = self.m // 2
        return sum(self.basis(i, n + i) for i in range(1, n + 1))

    def table(self, k: int, l: int) -> np.ndarray:
        """sign[a * comb(m, l) + b, c]: coefficient of key c in key_a ^ key_b
        (0, +1 or -1)."""
        table = self._tables.get((k, l))
        if table is None:
            out_index = self._key_index(k + l)
            left, right = all_keys(self.m, k), all_keys(self.m, l)
            table = np.zeros((len(left) * len(right), len(out_index)))
            for a, ka in enumerate(left):
                for b, kb in enumerate(right):
                    sign, key = sort_with_sign(ka + kb)
                    if sign:
                        table[a * len(right) + b, out_index[key]] = sign
            self._tables[(k, l)] = table
        return table

    def _contract(self, outer: np.ndarray, k: int, l: int) -> np.ndarray:
        """(..., comb(m, k), comb(m, l)) key products -> (..., comb(m, k + l))."""
        a, b = outer.shape[-2:]
        return outer.reshape(outer.shape[:-2] + (a * b,)) @ self.table(k, l)

    def wedge(self, x: np.ndarray, y: np.ndarray, k: int, l: int) -> np.ndarray:
        """Degree-k x ^ degree-l y, entrywise over broadcast leading axes."""
        return self._contract(x[..., :, None] * y[..., None, :], k, l)

    def wedge_matrix(self, X: np.ndarray, Y: np.ndarray, k: int, l: int) -> np.ndarray:
        """Matrix product with the wedge, X (..., r, s, *) by Y (..., s, c, *),
        over broadcast leading axes."""
        return self._contract(np.einsum("...rsa,...scb->...rcab", X, Y), k, l)

    def pair_wedge_matrix(self, X: np.ndarray, Y: np.ndarray, k: int, l: int) -> np.ndarray:
        """All pairwise matrix wedges of two stacks: out[r, c, o, u, v] is
        entry (r, c), key o of X[u] ^ Y[v].

        The sign table is contracted into X first, so that the sum over the
        inner index and Y's keys is one matrix product."""
        signs = self.table(k, l).reshape(X.shape[-1], Y.shape[-1], -1)
        XS = np.tensordot(X, signs, axes=(3, 0))                # (u, r, s, b, o)
        prod = np.tensordot(XS, Y, axes=([2, 3], [1, 3]))       # (u, r, o, v, c)
        return prod.transpose(1, 4, 2, 0, 3)
