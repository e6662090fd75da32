"""Symbolic cone-level oracle for the special Kahler conditions.

The cone over the group is modelled as a graded differential algebra on
generators (a~^i, b~^i, phi, psi) with coefficients in a ring of finite
sums r * t^k * cos^a(tau) * sin^b(tau).  Differentiation rules:

    d(a~), d(b~)  read off the base algebra's brackets,
    d(phi) = 2 omega~_S,         d(psi) = 0  (psi = dt),
    d(t)   = psi,                d(tau) = phi - 2 kappa~.

d*d = 0 on this algebra encodes the Jacobi identity, closedness of the
Kahler form, and d(kappa) = omega_S all at once.  The flatness blocks of
the special connection are then computed honestly from
Omega = d(omega) + omega ^ omega and compared with their displayed
formulas.

Representation.  A matrix of degree-p forms over m generators with ring
coefficients is one set of flat coordinate arrays row, col, key, mono and
val: each index i is the term val[i] * mono[i] * e^key[i] in entry
(row[i], col[i]).  key indexes the strictly increasing index p-tuples in
lexicographic order; mono is the integer code of a monomial t^k cos^a sin^b
with b in {0, 1} (sin^2 is rewritten as 1 - cos^2).  A CForm is a 1 x 1
matrix and a TrigLaurent a 1 x 1 matrix of degree-0 forms over no
generators, so ring elements, forms and matrices share one arithmetic path.

Canonical form.  The terms are sorted by (row, col, key, mono), each such
combination occurs once, no |val| <= PRUNE is kept, and every monomial has
|k| < K_LIMIT and a < A_LIMIT.  Every operation ends in _canonical, which
sums equal terms, prunes, sorts and checks the range; a monomial outside
it raises OverflowError instead of wrapping into a neighbouring code.
Nothing mutates the arrays of a value after it is built.

Tables.  A product of keys looks up a signed index table per (p, q), built
from the oracle's own parity count (KeyTables); the derivation applies a
per-degree operator built from the generator rules.  Both are built on
first use and belong to one ConeAlgebra, so they live as long as it does.
Products expand term pairs in chunks of at most CHUNK pairs, which bounds
the temporaries of one operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .connection import ConnectionData
from .forms import max_abs
from .intrinsic import pq_from_tensors
from .lie import AdaptedBasis, LieAlgebra, check_adapted
from .tolerance import CONSTANT, EXACT, PRUNE

# Monomial code of t^k cos^a sin^b: (k + _K_OFFSET) << 12 | a << 2 | b.  The
# product of two codes is their sum minus ONE: with |k| < K_LIMIT and
# a < A_LIMIT in both factors, neither field of the sum (nor the b = 2 of a
# sin^2 before it is rewritten) can carry into the next one.
_A_SHIFT, _K_SHIFT, MONO_BITS = 2, 12, 24
A_LIMIT, K_LIMIT, _K_OFFSET = 256, 512, 2048
ONE = _K_OFFSET << _K_SHIFT
_CODE_LO = (_K_OFFSET - K_LIMIT + 1) << _K_SHIFT
_CODE_HI = (_K_OFFSET + K_LIMIT) << _K_SHIFT
_A_HIGH = (1023 - (A_LIMIT - 1)) << _A_SHIFT
_MONO_MASK = (1 << MONO_BITS) - 1
_SLOT_LIMIT = 1 << (63 - MONO_BITS)
CHUNK = 1 << 12


class DSquaredError(Exception):
    """The derivation fails d*d = 0 (bad kappa or bad algebra)."""


def mono_code(k: int, a: int, b: int) -> int:
    """Code of t^k cos^a(tau) sin^b(tau), b in {0, 1}; raises outside the range."""
    if not (abs(k) < K_LIMIT and 0 <= a < A_LIMIT and b in (0, 1)):
        raise OverflowError(f"monomial t^{k} cos^{a} sin^{b} outside the code range")
    return ((k + _K_OFFSET) << _K_SHIFT) | (a << _A_SHIFT) | b


def _fields(mono: np.ndarray):
    """(k, a, b) arrays of monomial codes."""
    return (mono >> _K_SHIFT) - _K_OFFSET, (mono >> _A_SHIFT) & 1023, mono & 3


# ---------------------------------------------------------------------
# key tables
# ---------------------------------------------------------------------


class KeyTables:
    """Keys and signed product tables of the exterior algebra on m generators.

    A signed code s * (r + 1) stands for s * e^(key r), and 0 for a product
    that vanishes.  The parity of a product is its inversion count.  Every
    table is built on first use and kept by the instance.
    """

    def __init__(self, m: int):
        self.m = m
        self._cache: dict = {}

    def _get(self, name: str, build, *args):
        value = self._cache.get((name, *args))
        if value is None:
            value = self._cache[(name, *args)] = build(*args)
        return value

    def count(self, p: int) -> int:
        return math.comb(self.m, p)

    def keys(self, p: int) -> np.ndarray:
        """(count(p), p) array of the 1-based index tuples, in lexicographic order."""
        def build(p):
            rows = list(combinations(range(1, self.m + 1), p))
            return np.array(rows, dtype=np.int64).reshape(len(rows), p)
        return self._get("keys", build, p)

    def rank(self, idx: np.ndarray) -> np.ndarray:
        """Lexicographic position of strictly increasing index rows (N, p)."""
        n, p = idx.shape
        if p == 0:
            return np.zeros(n, dtype=np.int64)
        binom = self._get("binom", lambda p: np.array(
            [[math.comb(r, s) for s in range(p + 1)] for r in range(self.m + 1)],
            dtype=np.int64), p)
        return self.count(p) - 1 - binom[self.m - idx, p - np.arange(p)].sum(axis=1)

    def wedge_table(self, p: int, q: int) -> np.ndarray:
        """Signed code of key_a ^ key_b at a * count(q) + b."""
        return self._get("wedge", self._wedge_table, p, q)

    def _wedge_table(self, p: int, q: int) -> np.ndarray:
        if p == 0 or q == 0:
            return np.arange(1, self.count(p) * self.count(q) + 1)
        left, right = self.keys(p), self.keys(q)
        inversions = (left[:, None, :, None] > right[None, :, None, :]).sum(axis=(2, 3))
        joined = np.sort(np.concatenate(
            [np.repeat(left, len(right), axis=0), np.tile(right, (len(left), 1))], axis=1),
            axis=1)
        repeated = (joined[:, 1:] == joined[:, :-1]).any(axis=1)
        code = (1 - 2 * (inversions.ravel() & 1)) * (self.rank(joined) + 1)
        code[repeated] = 0
        return code

    def contraction_table(self, p: int) -> np.ndarray:
        """(count(p), m): signed code of the contraction of key r with the dual
        vector of generator g + 1, at [r, g]."""
        def build(p):
            keys = self.keys(p)
            out = np.zeros((len(keys), self.m), dtype=np.int64)
            rows = np.arange(len(keys))
            for pos in range(p):
                rest = np.delete(keys, pos, axis=1)
                out[rows, keys[:, pos] - 1] = (-1) ** pos * (self.rank(rest) + 1)
            return out
        return self._get("contract", build, p)


# ---------------------------------------------------------------------
# the coordinate kernel
# ---------------------------------------------------------------------


def _class_for(shape, m: int, degree: int):
    if shape != (1, 1):
        return CFormMatrix
    return TrigLaurent if m == 0 and degree == 0 else CForm


def _canonical(shape, m, degree, tables, row, col, key, mono, val):
    """The canonical matrix of the given terms: equal (row, col, key, mono)
    summed, sums of size at most PRUNE dropped, the rest sorted.  Only
    products and derivatives make new monomials; _sum and _checked check
    their range."""
    R, C = shape
    nk = math.comb(m, degree)
    if R * C * nk >= _SLOT_LIMIT:
        raise OverflowError(f"{R} x {C} matrix of {nk}-key forms exceeds the slot range")
    code = (((row * C + col) * nk + key) << MONO_BITS) | mono
    order = code.argsort()
    code, val = code[order], val[order]
    if len(code) > 1:
        first = np.empty(len(code), dtype=bool)
        first[0] = True
        np.not_equal(code[1:], code[:-1], out=first[1:])
        if np.count_nonzero(first) < len(code):
            starts = np.flatnonzero(first)
            code, val = code[starts], np.add.reduceat(val, starts)
    keep = np.abs(val) > PRUNE
    if np.count_nonzero(keep) < len(code):
        code, val = code[keep], val[keep]
    slot, key = np.divmod(code >> MONO_BITS, nk)
    row, col = np.divmod(slot, C)
    return _class_for(shape, m, degree)._of(shape, m, degree, tables, row, col, key,
                                            code & _MONO_MASK, val)


def _pairs(group: np.ndarray, starts: np.ndarray):
    """Index pairs (i, j) with starts[group[i]] <= j < starts[group[i] + 1],
    in chunks of at most CHUNK pairs (a left term whose run alone is longer
    is a chunk of its own)."""
    first = starts[group]
    counts = starts[group + 1] - first
    ends = np.cumsum(counts)
    lo, done = 0, 0
    while lo < len(group):
        hi = len(group) if ends[-1] - done <= CHUNK else \
            max(int(np.searchsorted(ends, done + CHUNK, side="right")), lo + 1)
        c = counts[lo:hi]
        total = int(ends[hi - 1]) - done
        if total:
            rj = np.repeat(first[lo:hi] - (ends[lo:hi] - c - done), c)
            rj += np.arange(total)
            yield np.repeat(np.arange(lo, hi), c), rj
        done, lo = int(ends[hi - 1]), hi


class _Terms(NamedTuple):
    """Terms placed at (row, col), not yet sorted or summed."""

    row: np.ndarray
    col: np.ndarray
    key: np.ndarray
    mono: np.ndarray
    val: np.ndarray


def _expand(spec, left, right, group, starts, place) -> list:
    """The products of left's terms with the right terms of their group, as
    pieces of terms to be summed.  left and right supply mono and val;
    place(li, rj) gives each product's row, column and signed key code, and
    code 0 drops it.  spec = (shape, m, degree, tables) of the result: when
    the pairs take more than one chunk, each chunk is summed into a running
    total, so the terms alive at once stay near one chunk plus the result."""
    pieces = []
    for li, rj in _pairs(group, starts):
        row, col, code = place(li, rj)
        keep = code != 0
        if np.count_nonzero(keep) < len(code):
            li, rj, row, col, code = li[keep], rj[keep], row[keep], col[keep], code[keep]
        val = left.val[li] * right.val[rj]
        val[code < 0] *= -1.0
        key = np.abs(code) - 1
        mono = left.mono[li] + right.mono[rj] - ONE
        split = (mono & 3) == 2
        if np.count_nonzero(split):
            # sin^2 = 1 - cos^2: b 2 -> 0, plus the term with a + 2 and -val
            mono[split] -= 2
            row, col, key = (np.concatenate([x, x[split]]) for x in (row, col, key))
            mono = np.concatenate([mono, mono[split] + (2 << _A_SHIFT)])
            val = np.concatenate([val, -val[split]])
        pieces.append(_Terms(row, col, key, mono, val))
        if len(pieces) > 1:
            pieces = [_canonical(*spec, *_joined(pieces))]
    return pieces


def _sum(spec, pieces) -> "CFormMatrix":
    """The canonical sum of pieces of terms (matrices are pieces too), with
    the range of the monomials checked."""
    if len(pieces) == 1 and isinstance(pieces[0], CFormMatrix):
        return _checked(pieces[0])
    return _checked(_canonical(*spec, *_joined(pieces)))


def _joined(pieces) -> _Terms:
    """The terms of several pieces (or matrices) in one set of arrays."""
    if not pieces:
        empty = np.zeros(0, dtype=np.int64)
        return _Terms(empty, empty, empty, empty, np.zeros(0))
    return _Terms(*(np.concatenate([getattr(x, f) for x in pieces]) for f in _Terms._fields))


def _checked(x: "CFormMatrix") -> "CFormMatrix":
    """x, once every monomial is known to lie in the code range."""
    if (np.count_nonzero((x.mono - _CODE_LO).view(np.uint64) >= _CODE_HI - _CODE_LO)
            or np.count_nonzero(x.mono & _A_HIGH)):
        raise OverflowError(f"monomial outside the code range (|k| < {K_LIMIT}, a < {A_LIMIT})")
    return x


def _concat(shape, m, degree, tables, pieces, offsets=None) -> "CFormMatrix":
    """Canonical sum of matrices, each placed at its (row, col) offset."""
    offsets = offsets or [(0, 0)] * len(pieces)
    return _canonical(shape, m, degree, tables,
                      np.concatenate([x.row + r for x, (r, _) in zip(pieces, offsets)]),
                      np.concatenate([x.col + c for x, (_, c) in zip(pieces, offsets)]),
                      np.concatenate([x.key for x in pieces]),
                      np.concatenate([x.mono for x in pieces]),
                      np.concatenate([x.val for x in pieces]))


def _apply_pieces(spec, terms, group, op, starts=None) -> list:
    """The linear map on keys whose image of key group g is column g of the
    one-row matrix op (starts: where op's columns begin), applied to terms
    placed at their (row, col)."""
    if starts is None:
        starts = np.searchsorted(op.col, np.arange(op.shape[1] + 1))
    return _expand(spec, terms, op, group, starts,
                   lambda li, rj: (terms.row[li], terms.col[li], op.key[rj] + 1))


def wedge_sum(*items) -> "CFormMatrix":
    """The sum of matrices and of wedge products given as pairs (X, Y), with
    one canonicalisation for all of them."""
    first = items[0]
    X = first[0] if isinstance(first, tuple) else first
    if isinstance(first, tuple):
        spec = ((X.shape[0], first[1].shape[1]), X.m, X.degree + first[1].degree, X.tables)
    else:
        spec = (X.shape, X.m, X.degree, X.tables)
    pieces = []
    for item in items:
        if isinstance(item, tuple):
            pieces += item[0]._wedge_pieces(item[1])
        else:
            pieces.append(item)
    return _sum(spec, pieces)


def _index(i: int, n: int) -> int:
    """i as an index into n entries; negative i counts from the end, as for a list."""
    if not -n <= i < n:
        raise IndexError(f"index {i} out of range for {n} entries")
    return i % n


def _dt(mono: np.ndarray, val: np.ndarray):
    """d/dt of the terms: (source index, code, value) of the non-zero results."""
    k = (mono >> _K_SHIFT) - _K_OFFSET
    nz = np.flatnonzero(k)
    return nz, mono[nz] - (1 << _K_SHIFT), val[nz] * k[nz]


def _dtau(mono: np.ndarray, val: np.ndarray):
    """d/dtau of the terms, as (source index, code, value).  With b in {0, 1}
    and sin^2 = 1 - cos^2: d(c^a) = -a c^(a-1) s and
    d(c^a s) = (a + 1) c^(a+1) - a c^(a-1)."""
    a, b = (mono >> _A_SHIFT) & 1023, mono & 1
    down, up = np.flatnonzero(a), np.flatnonzero(b)
    return (np.concatenate([down, up]),
            np.concatenate([mono[down] - 3 - 2 * b[down], mono[up] + 3]),
            np.concatenate([-a[down] * val[down], (a[up] + 1) * val[up]]))


class CFormMatrix:
    """Matrix of homogeneous degree-p forms over m generators with ring
    coefficients, in canonical coordinate form (see the module docstring).
    Every operation returns a new value."""

    __slots__ = ("shape", "m", "degree", "tables", "row", "col", "key", "mono", "val")

    @classmethod
    def _of(cls, shape, m, degree, tables, row, col, key, mono, val):
        """Wrap arrays that are already canonical, without checking them."""
        out = object.__new__(cls)
        out.shape, out.m, out.degree, out.tables = shape, m, degree, tables
        out.row, out.col, out.key, out.mono, out.val = row, col, key, mono, val
        return out

    @classmethod
    def _zero(cls, shape, m, degree, tables):
        empty = np.zeros(0, dtype=np.int64)
        return _class_for(shape, m, degree)._of(shape, m, degree, tables,
                                                empty, empty, empty, empty, np.zeros(0))

    @classmethod
    def constant(cls, S, m: int, tables: KeyTables | None = None) -> "CFormMatrix":
        """A float matrix as a matrix of degree-0 forms over m generators."""
        S = np.asarray(S, dtype=float)
        row, col = np.nonzero(S)
        return _canonical(S.shape, m, 0, tables or KeyTables(m), row, col,
                          np.zeros_like(row), np.full(len(row), ONE), S[row, col])

    @classmethod
    def one_forms(cls, shape, m, tables, row, col, gen, val, mono=ONE) -> "CFormMatrix":
        """The matrix with val * mono * e^gen at (row, col), summed."""
        row, col, gen = (np.asarray(x, dtype=np.int64) for x in (row, col, gen))
        return _canonical(shape, m, 1, tables, row, col, gen - 1,
                          np.broadcast_to(np.asarray(mono, dtype=np.int64), row.shape),
                          np.broadcast_to(np.asarray(val, dtype=float), row.shape))

    @classmethod
    def stack(cls, forms, m: int | None = None, tables=None) -> "CFormMatrix":
        """Column of CForms of one degree (row i = forms[i]); m and tables
        relabel degree-0 forms, such as TrigLaurents, over m generators."""
        first = forms[0]
        m = first.m if m is None else m
        return _concat((len(forms), 1), m, first.degree, tables or first.tables,
                       list(forms), [(i, 0) for i in range(len(forms))])

    def __len__(self) -> int:
        return len(self.val)

    def _like(self, row, col, key, mono, val, shape=None):
        shape = shape or self.shape
        return _class_for(shape, self.m, self.degree)._of(
            shape, self.m, self.degree, self.tables, row, col, key, mono, val)

    def _select(self, keep, row=None, col=None, shape=None):
        """The terms where keep holds, optionally re-placed; the order is kept,
        which stays canonical when the placement is monotone."""
        return self._like(self.row[keep] if row is None else row,
                          self.col[keep] if col is None else col,
                          self.key[keep], self.mono[keep], self.val[keep], shape)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij) -> "CForm":
        """Entry (i, j); a single index i means (i, 0) of a column."""
        i, j = ij if isinstance(ij, tuple) else (ij, 0)
        i, j = _index(i, self.shape[0]), _index(j, self.shape[1])
        keep = (self.row == i) & (self.col == j)
        n = int(keep.sum())
        zeros = np.zeros(n, dtype=np.int64)
        return self._select(keep, zeros, zeros, (1, 1))

    def block(self, r0: int, c0: int, rows: int, cols: int) -> "CFormMatrix":
        keep = ((self.row >= r0) & (self.row < r0 + rows)
                & (self.col >= c0) & (self.col < c0 + cols))
        return self._select(keep, self.row[keep] - r0, self.col[keep] - c0, (rows, cols))

    def reshape(self, shape) -> "CFormMatrix":
        """Same entries in row-major order, in a matrix of another shape."""
        slot = self.row * self.shape[1] + self.col
        row, col = np.divmod(slot, shape[1])
        return self._like(row, col, self.key, self.mono, self.val, tuple(shape))

    def transpose(self) -> "CFormMatrix":
        R, C = self.shape
        return _canonical((C, R), self.m, self.degree, self.tables,
                          self.col, self.row, self.key, self.mono, self.val)

    def embed(self, tables: KeyTables) -> "CFormMatrix":
        """The same forms over the larger generator set of tables (the first
        m generators keep their indices, so the key order is kept)."""
        remap = tables.rank(self.tables.keys(self.degree))
        return _class_for(self.shape, tables.m, self.degree)._of(
            self.shape, tables.m, self.degree, tables, self.row, self.col, remap[self.key],
            self.mono, self.val)

    # -- linear structure ---------------------------------------------------

    def _check(self, other) -> None:
        if (self.shape, self.m, self.degree) != (other.shape, other.m, other.degree):
            raise ValueError("incompatible forms")

    def __add__(self, other: "CFormMatrix") -> "CFormMatrix":
        self._check(other)
        if not len(other):
            return self
        if not len(self):
            return other
        return _concat(self.shape, self.m, self.degree, self.tables, [self, other])

    def __sub__(self, other: "CFormMatrix") -> "CFormMatrix":
        return self + (-other)

    def __neg__(self) -> "CFormMatrix":
        return self._like(self.row, self.col, self.key, self.mono, -self.val)

    def scale(self, factor) -> "CFormMatrix":
        """Every coefficient times a number or a ring element (a TrigLaurent)."""
        if isinstance(factor, CFormMatrix):
            if len(factor) != 1 or factor.mono[0] != ONE:
                spec = (self.shape, self.m, self.degree, self.tables)
                starts = np.array([0, len(factor)])
                return _sum(spec, _expand(
                    spec, self, factor, np.zeros(len(self), dtype=np.int64), starts,
                    lambda li, rj: (self.row[li], self.col[li], self.key[li] + 1)))
            factor = factor.val[0]
        val = self.val * float(factor)
        keep = np.abs(val) > PRUNE
        return self._like(self.row[keep], self.col[keep], self.key[keep], self.mono[keep],
                          val[keep])

    # -- products -------------------------------------------------------------

    def wedge(self, other: "CFormMatrix") -> "CFormMatrix":
        """Matrix product with the wedge: out[r, c] = sum_s self[r, s] ^ other[s, c]."""
        return wedge_sum((self, other))

    def _wedge_pieces(self, other: "CFormMatrix") -> list:
        (R, S), (S2, C) = self.shape, other.shape
        if S != S2:
            raise ValueError("shape mismatch")
        if self.m != other.m:
            raise ValueError("mismatched generator count")
        tab = self.tables.wedge_table(self.degree, other.degree)
        nq = self.tables.count(other.degree)
        starts = np.searchsorted(other.row, np.arange(S + 1))
        spec = ((R, C), self.m, self.degree + other.degree, self.tables)
        return _expand(spec, self, other, self.col, starts,
                       lambda li, rj: (self.row[li], other.col[rj],
                                       tab[self.key[li] * nq + other.key[rj]]))

    def interior(self, pairing: dict) -> "CFormMatrix":
        """Contraction with the vector sum_idx pairing[idx] * e_idx (the dual
        basis vectors scaled by ring elements)."""
        p, t = self.degree, self.tables
        if p == 0:
            return CFormMatrix._zero(self.shape, self.m, 0, t)
        table = t.contraction_table(p)
        nk = len(table)
        ops = []
        for idx, factor in pairing.items():
            code = table[:, idx - 1]
            K = np.flatnonzero(code)
            op = CFormMatrix._of((1, nk), self.m, p - 1, t, np.zeros_like(K), K,
                                 np.abs(code[K]) - 1, np.full(len(K), ONE),
                                 np.sign(code[K]).astype(float))
            ops.append(op.scale(factor))
        return self.apply(ops[0] if len(ops) == 1 else _concat((1, nk), self.m, p - 1, t, ops))

    def substitute(self, images: "CFormMatrix") -> "CFormMatrix":
        """Replace generator i by the one-form images[i - 1] (a column of m)."""
        p, t, m = self.degree, self.tables, self.m
        present = np.unique(self.key)
        keys = t.keys(p)[present]
        U = len(present)
        piece = CFormMatrix._of((1, U), m, 0, t, np.zeros(U, dtype=np.int64), np.arange(U),
                                np.zeros(U, dtype=np.int64), np.full(U, ONE), np.ones(U))
        starts = np.searchsorted(images.row, np.arange(m + 1))
        for pos in range(p):
            tab = t.wedge_table(pos, 1)
            spec = ((1, U), m, pos + 1, t)
            piece = _sum(spec, _expand(
                spec, piece, images, keys[piece.col, pos] - 1, starts,
                lambda li, rj, x=piece: (x.row[li], x.col[li],
                                         tab[x.key[li] * m + images.key[rj]])))
        return self.apply(piece, np.searchsorted(present, self.key))

    def apply(self, op: "CFormMatrix", group: np.ndarray | None = None) -> "CFormMatrix":
        """The linear map on keys that sends key group g (by default the key
        itself) to column g of the one-row matrix op, entrywise."""
        spec = (self.shape, self.m, op.degree, self.tables)
        return _sum(spec, _apply_pieces(spec, self, self.key if group is None else group, op))

    # -- queries ---------------------------------------------------------------

    def norm_inf(self) -> float:
        return float(np.abs(self.val).max(initial=0.0))

    def nonconstant_norm(self) -> float:
        return float(np.abs(self.val[self.mono != ONE]).max(initial=0.0))

    def entry_norms(self, nonconstant: bool = False) -> np.ndarray:
        """(rows, cols) array of the entries' norm_inf (or nonconstant_norm)."""
        R, C = self.shape
        keep = self.mono != ONE if nonconstant else np.ones(len(self), dtype=bool)
        out = np.zeros(R * C)
        np.maximum.at(out, (self.row * C + self.col)[keep], np.abs(self.val[keep]))
        return out.reshape(R, C)

    def _dense(self, weights: np.ndarray) -> np.ndarray:
        R, C = self.shape
        nk = math.comb(self.m, self.degree)
        slot = (self.row * C + self.col) * nk + self.key
        return np.bincount(slot, weights=weights, minlength=R * C * nk).reshape(R, C, nk)

    def eval_at(self, t: float, tau: float) -> np.ndarray:
        """The coefficients at (t, tau): a (rows, cols, keys) float array."""
        k, a, b = _fields(self.mono)
        return self._dense(self.val * float(t) ** k.astype(float)
                           * math.cos(tau) ** a * math.sin(tau) ** b)

    def constant_form(self) -> np.ndarray:
        """The constant parts of the coefficients: a (rows, cols, keys) array."""
        return self._dense(np.where(self.mono == ONE, self.val, 0.0))

    def __repr__(self) -> str:
        R, C = self.shape
        return f"{type(self).__name__}({R}x{C}, deg={self.degree}, m={self.m}, {len(self)} terms)"


class CForm(CFormMatrix):
    """Homogeneous form over generators 1..m with ring coefficients: a 1 x 1
    CFormMatrix.  The public constructor takes {sorted index tuple:
    TrigLaurent or number} and makes it canonical."""

    __slots__ = ()

    def __init__(self, m: int, degree: int, coeffs=None, tables: KeyTables | None = None):
        tables = tables or KeyTables(m)
        keys, monos, vals = [], [], []
        for key, c in (coeffs or {}).items():
            if not isinstance(c, CFormMatrix):
                c = TrigLaurent.const(c)
            keys += [tuple(key)] * len(c)
            monos += c.mono.tolist()
            vals += c.val.tolist()
        idx = np.array(keys, dtype=np.int64).reshape(len(keys), degree)
        if len(idx) and ((idx < 1).any() or (idx > m).any()
                         or (np.diff(idx, axis=1) <= 0).any()):
            raise ValueError("form keys must be increasing indices in 1..m")
        zeros = np.zeros(len(keys), dtype=np.int64)
        out = _canonical((1, 1), m, degree, tables, zeros, zeros, tables.rank(idx),
                         np.array(monos, dtype=np.int64), np.array(vals, dtype=float))
        self.shape, self.m, self.degree, self.tables = (1, 1), m, degree, tables
        self.row, self.col, self.key, self.mono, self.val = (
            out.row, out.col, out.key, out.mono, out.val)

    @classmethod
    def zero(cls, m: int, degree: int, tables: KeyTables | None = None) -> "CForm":
        return CFormMatrix._zero((1, 1), m, degree, tables or KeyTables(m))

    @classmethod
    def basis(cls, m: int, *indices: int, tables: KeyTables | None = None) -> "CForm":
        """e^i1 ^ ... ^ e^ik, with the sign of the sorting permutation."""
        if len(set(indices)) < len(indices):
            return cls.zero(m, len(indices), tables)
        inversions = sum(a > b for i, a in enumerate(indices) for b in indices[i + 1:])
        return cls(m, len(indices), {tuple(sorted(indices)): (-1.0) ** inversions}, tables)

    @property
    def coeffs(self) -> dict:
        """{sorted index tuple: TrigLaurent} of the non-zero coefficients."""
        keys = self.tables.keys(self.degree)
        out = {}
        bounds = np.flatnonzero(np.diff(self.key, prepend=-1, append=-1))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            out[tuple(int(i) for i in keys[self.key[lo]])] = TrigLaurent._of(
                (1, 1), 0, 0, None, self.row[lo:hi], self.col[lo:hi],
                np.zeros(hi - lo, dtype=np.int64), self.mono[lo:hi], self.val[lo:hi])
        return out

    def eval_at(self, t: float, tau: float) -> np.ndarray:
        """The coefficients at (t, tau), as a float form over the keys."""
        return super().eval_at(t, tau)[0, 0]

    def constant_form(self) -> np.ndarray:
        return super().constant_form()[0, 0]


class TrigLaurent(CForm):
    """Finite sums r * t^k * cos^a(tau) * sin^b(tau), with b reduced to 0 or 1
    via sin^2 = 1 - cos^2: a 1 x 1 matrix of degree-0 forms over no generators.

    The public constructor takes {(k, a, b): coefficient} with any b >= 0,
    reduces and prunes it; ring operations are the matrix operations.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        reduced: dict = {}
        for (k, a, b), c in (terms or {}).items():
            _accumulate(reduced, int(k), int(a), int(b), float(c))
        items = sorted((mono_code(k, a, b), c) for (k, a, b), c in reduced.items())
        zeros = np.zeros(len(items), dtype=np.int64)
        self.shape, self.m, self.degree, self.tables = (1, 1), 0, 0, None
        self.row, self.col, self.key = zeros, zeros, zeros
        self.mono = np.array([code for code, _ in items], dtype=np.int64)
        self.val = np.array([c for _, c in items], dtype=float)

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

    @property
    def terms(self) -> dict:
        k, a, b = _fields(self.mono)
        return {(int(x), int(y), int(z)): float(c)
                for x, y, z, c in zip(k, a, b, self.val)}

    def __mul__(self, other):
        if isinstance(other, TrigLaurent) or not isinstance(other, CFormMatrix):
            return self.scale(other)
        return other.scale(self)

    __rmul__ = __mul__

    def _derived(self, parts) -> "TrigLaurent":
        idx, mono, val = parts
        zeros = np.zeros(len(idx), dtype=np.int64)
        return _checked(_canonical((1, 1), 0, 0, None, zeros, zeros, zeros, mono, val))

    def dt(self) -> "TrigLaurent":
        return self._derived(_dt(self.mono, self.val))

    def dtau(self) -> "TrigLaurent":
        return self._derived(_dtau(self.mono, self.val))

    def eval(self, t: float, tau: float) -> float:
        return float(self.eval_at(t, tau)[0])

    def is_constant(self) -> bool:
        return bool((np.abs(self.val[self.mono != ONE]) <= CONSTANT).all())

    def constant_part(self) -> float:
        return float(self.val[self.mono == ONE].sum())

    def __repr__(self) -> str:
        if not len(self):
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
_T = mono_code(1, 0, 0)


def scalar_matmul(S, A: CFormMatrix) -> CFormMatrix:
    """The product S A of a float matrix S and a CForm matrix A.  The right
    product A S is A.wedge(CFormMatrix.constant(S, A.m))."""
    return CFormMatrix.constant(S, A.m, A.tables).wedge(A)


# ---------------------------------------------------------------------
# the cone differential algebra
# ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConeAlgebra:
    """Generators a~^1..a~^n, b~^1..b~^n, phi (index 2n+1), psi (index 2n+2),
    then any further generators that d_rules differentiates (m = len(d_rules)).
    kappa is the base one-form as a (2n,) array, or None.

    The key tables and the derivation's per-degree operators are built on
    first use and kept with the algebra."""

    L: LieAlgebra
    B: AdaptedBasis
    kappa: np.ndarray | None
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
    def tables(self) -> KeyTables:
        return self.d_rules[0].tables

    @cached_property
    def _operators(self) -> dict:
        return {}

    def basis(self, *indices: int) -> CForm:
        return CForm.basis(self.m, *indices, tables=self.tables)

    def generators(self, indices, shape=None, mono=ONE) -> CFormMatrix:
        return _generators(self.tables, indices, shape, mono)

    @cached_property
    def dtau(self) -> CForm:
        """d(tau) = phi - 2 kappa~, used to differentiate trig coefficients;
        built on first use and kept with the algebra."""
        gens, vals = [self.idx_phi], [1.0]
        if self.kappa is not None:
            nz = np.flatnonzero(np.abs(self.kappa) > PRUNE)
            gens += (nz + 1).tolist()
            vals += (-2.0 * self.kappa[nz]).tolist()
        zeros = np.zeros(len(gens), dtype=np.int64)
        return CFormMatrix.one_forms((1, 1), self.m, self.tables, zeros, zeros, gens, vals)

    @cached_property
    def _rows(self) -> tuple:
        """The one-forms [psi, dtau] and the two-forms [d(e^1) .. d(e^m)], as rows."""
        t, m, dtau = self.tables, self.m, self.dtau
        calculus = CFormMatrix._of((1, 2), m, 1, t, np.zeros(len(dtau) + 1, dtype=np.int64),
                                   np.r_[0, dtau.col + 1], np.r_[self.idx_psi - 1, dtau.key],
                                   np.r_[ONE, dtau.mono], np.r_[1.0, dtau.val])
        rules = _joined(self.d_rules)
        rules = CFormMatrix._of((1, m), m, 2, t, rules.row,
                                np.repeat(np.arange(m), [len(r) for r in self.d_rules]),
                                rules.key, rules.mono, rules.val)
        return calculus, rules

    def _operator(self, p: int):
        """The derivation on degree p as one row over 3 * count(p) columns:
        column r is the generator part of d(e^key r), column count(p) + r is
        psi ^ e^key r (for d/dt) and column 2 count(p) + r is dtau ^ e^key r.
        The generator part is d(e^K) = sum_i d(e^i) ^ (e_i . e^K): the row of
        rules times the m x count(p) matrix of contractions."""
        op = self._operators.get(p)
        if op is None:
            t, m = self.tables, self.m
            nk = t.count(p)
            calculus, rules = self._rows
            # [psi, dtau] times the identity on the d/dt and d/dtau column blocks
            cols = np.arange(nk, 3 * nk)
            ident = CFormMatrix._of((2, 3 * nk), m, p, t, np.repeat([0, 1], nk), cols,
                                    cols % nk, np.full(2 * nk, ONE), np.ones(2 * nk))
            products = [(calculus, ident)]
            if p:
                table = t.contraction_table(p)
                g, K = np.nonzero(table.T)
                code = table[K, g]
                iota = CFormMatrix._of((m, 3 * nk), m, p - 1, t, g, K, np.abs(code) - 1,
                                       np.full(len(K), ONE), np.sign(code).astype(float))
                products.append((rules, iota))
            op = wedge_sum(*products)
            op = self._operators[p] = (op, np.searchsorted(op.col, np.arange(3 * nk + 1)))
        return op

    def d(self, x: CFormMatrix) -> CFormMatrix:
        """Graded derivation of degree +1, entrywise, with coefficient calculus:
        d(c e^K) = dc/dt psi ^ e^K + dc/dtau dtau ^ e^K + c d(e^K)."""
        op, starts = self._operator(x.degree)
        nk = self.tables.count(x.degree)
        it, mono_t, val_t = _dt(x.mono, x.val)
        iu, mono_u, val_u = _dtau(x.mono, x.val)
        if len(iu) and not self.exact:
            raise DSquaredError("tau-dependent coefficients need a valid kappa")
        src = np.concatenate([np.arange(len(x)), it, iu])
        terms = _Terms(x.row[src], x.col[src], None, np.concatenate([x.mono, mono_t, mono_u]),
                       np.concatenate([x.val, val_t, val_u]))
        group = np.concatenate([x.key, nk + x.key[it], 2 * nk + x.key[iu]])
        spec = (x.shape, self.m, x.degree + 1, self.tables)
        return _sum(spec, _apply_pieces(spec, terms, group, op, starts))

    # -- contractions with the cone symmetry ---------------------------

    def interior_x(self, x: CFormMatrix) -> CFormMatrix:
        """Contraction with the circle generator: pairs only with phi."""
        return x.interior({self.idx_phi: TL_ONE})

    def interior_jx(self, x: CFormMatrix) -> CFormMatrix:
        """Contraction with t d/dt: pairs only with psi = dt, value t."""
        return x.interior({self.idx_psi: TrigLaurent.t_power(1)})

    def lie_x(self, x: CFormMatrix) -> CFormMatrix:
        return self.interior_x(self.d(x)) + self.d(self.interior_x(x))

    def hatted_coframe(self) -> CFormMatrix:
        """Column t a~, t b~, t phi, psi -- the unitary cone coframe."""
        return self._fixed["theta"]

    @cached_property
    def _fixed(self) -> dict:
        """The constant matrices the checks share, built once per algebra:
        the hatted coframe, G and the complex structure i as degree-0
        matrices, omega~_S and the columns of a~ and b~."""
        n, m, t = self.n, self.m, self.tables
        hatted = self.generators(range(1, 2 * n + 2), mono=_T)
        return {
            "theta": _concat((2 * n + 2, 1), m, 1, t, [hatted, self.basis(self.idx_psi)],
                             [(0, 0), (2 * n + 1, 0)]),
            "G": CFormMatrix.constant(_g_matrix(n), m, t),
            "I": CFormMatrix.constant(_i_matrix(n), m, t),
            "omega_s": _omega_s(n, t),
            "a": self.generators(range(1, n + 1)),
            "b": self.generators(range(n + 1, 2 * n + 1)),
        }

    def d_squared_residual(self) -> float:
        """Max residual of d(d(.)) over generators and ring-coefficient forms.

        The tau-dependent samples are what detect a kappa that is not a
        primitive of the Kahler form.
        """
        worst = self.d(self.d(self.generators(range(1, self.m + 1)))).norm_inf()
        coeffs = [TrigLaurent.t_power(1), TrigLaurent.t_power(-2)]
        if self.exact:
            coeffs += [
                TrigLaurent.cos_tau(),
                TrigLaurent.sin_tau(),
                TrigLaurent.cos_2tau() * TrigLaurent.t_power(-1, 0.5),
                TrigLaurent.sin_2tau() * TrigLaurent.cos_tau(),
            ]
        samples = CFormMatrix.stack(coeffs, self.m, self.tables)
        return max(worst, self.d(self.d(samples)).norm_inf())


def _lift_matrix(CA: ConeAlgebra, X: np.ndarray, scale: TrigLaurent = TL_ONE) -> CFormMatrix:
    """Entrywise lift of an (n, n, 2n) array of base one-forms into the cone,
    scaled by a ring element; coefficients of size at most PRUNE are dropped."""
    i, j, k = np.nonzero(np.abs(X) > PRUNE)
    f = len(scale)
    return _canonical(X.shape[:2], CA.m, 1, CA.tables, np.repeat(i, f), np.repeat(j, f),
                      np.repeat(k, f), np.tile(scale.mono, len(i)),
                      np.repeat(X[i, j, k], f) * np.tile(scale.val, len(i)))


def _generators(tables: KeyTables, indices, shape=None, mono=ONE) -> CFormMatrix:
    """The column (or, with shape, the row-major matrix) of mono * e^i: one
    term per entry, in entry order, so already canonical."""
    indices = np.asarray(list(indices), dtype=np.int64)
    shape = shape or (len(indices), 1)
    row, col = np.divmod(np.arange(len(indices)), shape[1])
    return _class_for(shape, tables.m, 1)._of(shape, tables.m, 1, tables, row, col,
                                              indices - 1, np.full(len(indices), mono),
                                              np.ones(len(indices)))


def _omega_s(n: int, tables: KeyTables) -> CForm:
    """omega~_S = sum_i a~^i ^ b~^i."""
    a = _generators(tables, range(1, n + 1), shape=(1, n))
    return a.wedge(_generators(tables, range(n + 1, 2 * n + 1)))


def _bracket_rules(L: LieAlgebra, m: int) -> list:
    """d(a~), d(b~) over m generators, read off the brackets:
    d(e^k) = -sum c^k_ij e^i ^ e^j."""
    tables = KeyTables(m)
    rules: list = [{} for _ in range(L.dim)]
    for (i, j, k, c) in L.brackets:
        rules[k - 1][(i, j)] = -c
    return [CForm(m, 2, r, tables) for r in rules]


def cone_coframe(L: LieAlgebra, B: AdaptedBasis, kappa: np.ndarray | None) -> ConeAlgebra:
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
    rules = list(_bracket_rules(L, m))
    tables = rules[0].tables
    rules.append(_omega_s(n, tables).scale(2.0))    # d(phi) = 2 omega~_S
    rules.append(CForm.zero(m, 2, tables))          # d(psi) = 0
    CA = ConeAlgebra(L=L, B=B, kappa=kappa, d_rules=tuple(rules), exact=kappa is not None)
    scale = 1.0 + L.max_constant() ** 2
    res = CA.d_squared_residual()
    if res > EXACT * scale:
        raise DSquaredError(f"d^2 residual {res:.3e} (bad kappa or bad algebra)")
    if kappa is not None:
        res = CA.d(CA.dtau).norm_inf()
        if res > EXACT * (1.0 + L.max_constant() * (1.0 + max_abs(kappa))):
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


def _constant_frame(CA: ConeAlgebra) -> CFormMatrix:
    """The part of the cone connection that is not lifted from the base: the
    phi in the lam blocks and the a~, b~, phi entries of the last two rows
    and columns."""
    n = CA.n
    phi, x, y = CA.idx_phi, 2 * n, 2 * n + 1
    entries = [(x, y, phi, 1.0), (y, x, phi, -1.0)]     # (row, col, generator, sign)
    for i in range(n):
        a, b = i + 1, n + i + 1
        entries += [(i, n + i, phi, 1.0), (n + i, i, phi, -1.0),
                    (i, x, b, 1.0), (i, y, a, 1.0), (n + i, x, a, -1.0), (n + i, y, b, 1.0),
                    (x, i, b, 1.0), (x, n + i, a, -1.0), (y, i, a, 1.0), (y, n + i, b, 1.0)]
    row, col, gen, val = zip(*entries)
    return CFormMatrix.one_forms((CA.m, CA.m), CA.m, CA.tables, row, col, gen, val)


def cone_lc(CA: ConeAlgebra, mu: CFormMatrix, lam: CFormMatrix) -> CFormMatrix:
    """Levi-Civita connection matrix of the cone metric in the hatted coframe,
    from the lifted base connection blocks mu~, lam~.

    Asserts the structure equation and both defining symmetries; raises
    with the offending block on failure.
    """
    n, m = CA.n, CA.m
    omega = _concat((m, m), m, 1, CA.tables, [mu, lam, -lam, mu, _constant_frame(CA)],
                    [(0, 0), (0, n), (n, 0), (n, n), (0, 0)])
    theta = CA.hatted_coframe()
    struct = wedge_sum(CA.d(theta), (omega, theta))
    if struct.norm_inf() > EXACT:
        rows = struct.entry_norms()[:, 0]
        bad = int(np.argmax(rows))
        raise AssertionError(
            f"cone structure equation fails in coframe row {bad}: "
            f"residual {rows[bad]:.3e}"
        )
    G, I = CA._fixed["G"], CA._fixed["I"]
    sym_g = wedge_sum((omega.transpose(), G), (G, omega)).norm_inf()
    sym_i = wedge_sum((I, omega), (-omega, I)).norm_inf()
    if max(sym_g, sym_i) > EXACT:
        raise AssertionError(f"cone connection symmetry residuals G={sym_g:.2e} i={sym_i:.2e}")
    return omega


def curvature_of(CA: ConeAlgebra, omega: CFormMatrix) -> CFormMatrix:
    """Omega = d(omega) + omega ^ omega, evaluated in the cone algebra."""
    return wedge_sum(CA.d(omega), (omega, omega))


@dataclass(frozen=True, eq=False)
class SpecialCone:
    """The special connection omega_nabla = omega_LC + eta on one cone.

    mu, lam are the lifted base connection blocks and p, q the base data
    that u, v lift.  eta, the difference of the special and Levi-Civita
    connections, is populated only in its upper-left 2n x 2n part, with
    block pattern [[u, v], [v, -u]] for symmetric matrices u, v of one-forms
    in the span of a~, b~.  omega_nabla, its curvature Omega and the lifted
    base curvature are built on first use and kept.
    """

    CA: ConeAlgebra
    p: np.ndarray
    q: np.ndarray
    mu: CFormMatrix
    lam: CFormMatrix
    u: CFormMatrix
    v: CFormMatrix
    eta: CFormMatrix
    omega_lc: CFormMatrix

    @cached_property
    def omega_nabla(self) -> CFormMatrix:
        return self.omega_lc + self.eta

    @cached_property
    def curvature(self) -> CFormMatrix:
        """Omega = curvature_of(CA, omega_nabla)."""
        return curvature_of(self.CA, self.omega_nabla)

    @cached_property
    def base_curvature(self) -> tuple:
        """Lifted curvature blocks of the base, M~ = d(mu~) + mu~^mu~ - lam~^lam~
        and Lam~ = d(lam~) + mu~^lam~ + lam~^mu~, computed with the cone's own d."""
        d, mu, lam = self.CA.d, self.mu, self.lam
        M = wedge_sum(d(mu), (mu, mu), (-lam, lam))
        Lam = wedge_sum(d(lam), (mu, lam), (lam, mu))
        return M, Lam


def special_cone(CA: ConeAlgebra, conn: ConnectionData, p, q) -> SpecialCone:
    """Lift the base connection and p, q into the cone:
    u = p~ cos(2 tau) - q~ sin(2 tau), v = p~ sin(2 tau) + q~ cos(2 tau)."""
    n, m = CA.n, CA.m
    mu, lam = _lift_matrix(CA, conn.mu), _lift_matrix(CA, conn.lam)
    cz, sz = TrigLaurent.cos_2tau(), TrigLaurent.sin_2tau()
    u = _lift_matrix(CA, p, cz) - _lift_matrix(CA, q, sz)
    v = _lift_matrix(CA, p, sz) + _lift_matrix(CA, q, cz)
    eta = _concat((m, m), m, 1, CA.tables, [u, v, v, -u], [(0, 0), (0, n), (n, 0), (n, n)])
    return SpecialCone(CA=CA, p=p, q=q, mu=mu, lam=lam, u=u, v=v,
                       eta=eta, omega_lc=cone_lc(CA, mu, lam))


def verify_eta_conditions(sc: SpecialCone) -> dict:
    """Residuals of the six special conditions for omega_nabla = omega_LC + eta."""
    CA = sc.CA
    theta, G, I = CA.hatted_coframe(), CA._fixed["G"], CA._fixed["I"]
    em = sc.eta
    # eta anticommutes with the complex structure but COMMUTES with G in
    # the pairing sense (eta^T G = G eta); together these say eta is
    # symmetric for the symplectic pairing G*i, which is what
    # "special symplectic" preserves.
    return {
        "torsion": em.wedge(theta).norm_inf(),
        "special_symplectic_i": wedge_sum((I, em), (em, I)).norm_inf(),
        "special_symplectic_g": wedge_sum((em.transpose(), G), (-G, em)).norm_inf(),
        "conic_x": CA.interior_x(em).norm_inf(),
        "conic_jx": CA.interior_jx(em).norm_inf(),
        "flatness": sc.curvature.norm_inf(),
    }


def _diagonal(f: CForm, n: int) -> CFormMatrix:
    """The n x n matrix with f on the diagonal."""
    i = np.repeat(np.arange(n), len(f))
    return CFormMatrix._of((n, n), f.m, f.degree, f.tables, i, i, np.tile(f.key, n),
                           np.tile(f.mono, n), np.tile(f.val, n))


def special_blocks(sc: SpecialCone):
    """Flatness blocks (T, U, V, W) of the special connection.

    Computed honestly from Omega = d(omega_nabla) + omega_nabla^2 and
    cross-checked against the displayed formulas (first terms taken as
    the curvature blocks, as dimensional analysis requires).  A cone whose
    kappa is not the candidate's (built with dataclasses.replace, so d*d = 0
    is not re-verified) shows up here as U, V != 0.
    """
    CA = sc.CA
    n = CA.n
    Om = sc.curvature
    B11, B12, B21, B22 = (Om.block(r, c, n, n) for r, c in ((0, 0), (0, n), (n, 0), (n, n)))
    T = (B11 + B22).scale(0.5)
    U = (B11 - B22).scale(0.5)
    V = (B12 + B21).scale(0.5)
    W = (B12 - B21).scale(0.5)

    # displayed formulas, with curvature-type first terms; each line is
    # block - display
    a, b, omega_s = CA._fixed["a"], CA._fixed["b"], CA._fixed["omega_s"]
    aT, bT = a.reshape((1, n)), b.reshape((1, n))
    u, v, mu, lam = sc.u, sc.v, sc.mu, sc.lam
    M_l, L_l = sc.base_curvature
    two_phi = _diagonal(CA.basis(CA.idx_phi).scale(2.0), n)
    mismatch = max(
        wedge_sum(T, -M_l, (-a, aT), (-b, bT), (-u, u), (-v, v)).norm_inf(),
        wedge_sum(U, -CA.d(u), (-mu, u), (-u, mu), (-lam, v), (v, lam),
                  (-two_phi, v)).norm_inf(),
        wedge_sum(V, -CA.d(v), (-mu, v), (-v, mu), (lam, u), (-u, lam),
                  (two_phi, u)).norm_inf(),
        wedge_sum(W, -L_l, (-a, bT), (b, aT), _diagonal(omega_s, n).scale(-2.0),
                  (-u, v), (v, u)).norm_inf(),
    )
    scale = 1.0 + CA.L.max_constant() ** 2 + max_abs(sc.p) ** 2 + max_abs(sc.q) ** 2
    if mismatch > EXACT * scale:
        raise AssertionError(
            f"honest curvature blocks disagree with displayed formulas by {mismatch:.3e}"
        )
    return T, U, V, W


def integrability_display_residual(sc: SpecialCone) -> float:
    """Residual of the differentiated-flatness displays in (u, v) form:
    M~^u - u^M~ + Lam~^v + v^Lam~ + 4 omega~_S ^ v  (and its partner)."""
    u, v = sc.u, sc.v
    M_l, L_l = sc.base_curvature
    four_omega_s = _diagonal(sc.CA._fixed["omega_s"].scale(4.0), sc.CA.n)
    r1 = wedge_sum((M_l, u), (-u, M_l), (L_l, v), (v, L_l), (four_omega_s, v))
    r2 = wedge_sum((M_l, v), (-v, M_l), (-L_l, u), (-u, L_l), (-four_omega_s, u))
    return max(r1.norm_inf(), r2.norm_inf())


def oracle_residual(L: LieAlgebra, B: AdaptedBasis, cand) -> float:
    """End-to-end cone verdict for a candidate: max of the T, U, V, W norms."""
    from .connection import levi_civita

    C = levi_civita(L, B)
    CA = cone_coframe(L, B, cand.kappa)
    p, q = pq_from_tensors(cand.Sa, cand.Sb)
    return max(X.norm_inf() for X in special_blocks(special_cone(CA, C, p, q)))
