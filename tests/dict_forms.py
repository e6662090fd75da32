"""Dict-based reference exterior algebra, for the tests only.

A degree-k form is a dict from strictly increasing 1-based index k-tuples to
float coefficients.  It shares no arithmetic with pskmap: the sign of a
monomial is the parity of its inversion count, and d comes straight from the
brackets, so the dense kernel (forms.DenseExterior, lie.d_matrix) can be
checked against it.
"""

from itertools import combinations

import numpy as np


def monomial_sign(indices):
    """(sign, sorted tuple) of a monomial; (0, ()) when an index repeats."""
    if len(set(indices)) < len(indices):
        return 0, ()
    inversions = sum(a > b for i, a in enumerate(indices) for b in indices[i + 1:])
    return (-1) ** inversions, tuple(sorted(indices))


def add(x, y, scale=1.0):
    out = dict(x)
    for key, val in y.items():
        out[key] = out.get(key, 0.0) + scale * val
    return out


def wedge(x, y):
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            sign, key = monomial_sign(k1 + k2)
            if sign:
                out[key] = out.get(key, 0.0) + sign * c1 * c2
    return out


def ce_differential(L, x):
    """d of an invariant form: d(e^k) = -sum c^k_ij e^i ^ e^j on generators,
    extended as a graded derivation."""
    d_gen = {}
    for (i, j, k, c) in L.brackets:
        d_gen.setdefault(k, {})[(i, j)] = -c
    out = {}
    for key, val in x.items():
        for pos, idx in enumerate(key):
            head = {key[:pos]: (-1.0) ** pos * val}
            out = add(out, wedge(wedge(head, d_gen.get(idx, {})), {key[pos + 1:]: 1.0}))
    return out


def dense(x, m, degree):
    """The form as an array over lexicographic index tuples (pskmap's all_keys)."""
    return np.array([x.get(key, 0.0) for key in combinations(range(1, m + 1), degree)])


def random_form(rng, m, degree, terms=4, scale=2.0):
    """Sparse random form with a handful of monomials."""
    coeffs = {}
    for _ in range(terms):
        key = tuple(sorted(rng.choice(np.arange(1, m + 1), size=degree, replace=False)))
        coeffs[key] = float(rng.uniform(-scale, scale))
    return coeffs
