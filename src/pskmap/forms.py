"""Exterior algebra over a fixed m-dimensional dual basis.

Every float-coefficient form is a numpy array: a degree-k form is a float
array over all_keys(m, k) (strictly increasing 1-based index tuples in
lexicographic order), and a matrix of forms is an array with the key axis
last.  DenseExterior holds the (k, l) sign tables that wedge products
contract with.  The connection, the curvature, p and q, kappa and the
closed one-forms and the residuals all live on it, and the solver's
compile reads the (1, 1) table to emit its quadratic term from the
non-zeros of sparse stacks; the cone oracle and the twist lift these
arrays into their own ring-coefficient forms (cone.CForm).

Basis ordering convention: indices 1..n are the a-forms, n+1..2n the
b-forms; when a cone is attached, 2n+1 and 2n+2 are the two extra
generators.  This makes block extraction a plain index slice.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np


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


# -- adapted-basis helpers -------------------------------------------


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
    Every product is a broadcast or a two-operand einsum, and one matrix
    product with the (k, l) sign table, so no call searches for an einsum
    path.  The tables are built on first use and belong to the
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
