"""The averaged diagonal descent basis of the invariant ring (test oracle).

``ecomu3.diagonal.invariant_ring_presentation`` verifies relations between
a few named averaged classes.  This builds the whole basis independently,
one averaged descent monomial per permutation, whose degrees the major
index predicts, and ranks classes over Q.
"""

from fractions import Fraction
from itertools import permutations

from ecomu3.polynomial import rational_rref
from ecomu3.diagonal import TensorSquare


def maj(perm):
    """Major index: the sum of the 1-based descent positions."""
    return sum(i + 1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


def descent_monomial(perm, n=None):
    """The diagonal descent monomial of a permutation (0-based tuple).

    Left factor: product of x_1..x_i over descents i of the inverse.
    Right factor: product of y_{w(1)}..y_{w(j)} over descents j of w.
    """
    w = tuple(perm)
    n = n or len(w)
    inv = [0] * n
    for i, wi in enumerate(w):
        inv[wi] = i
    ex = [0] * n
    for i in range(n - 1):
        if inv[i] > inv[i + 1]:
            for t in range(i + 1):
                ex[t] += 1
    ey = [0] * n
    for j in range(n - 1):
        if w[j] > w[j + 1]:
            for t in range(j + 1):
                ey[w[t]] += 1
    return {(tuple(ex), tuple(ey)): Fraction(1)}


def descent_basis(n):
    """(permutation, averaged descent class) for every group element."""
    ts = TensorSquare(n)
    out = []
    for w in sorted(permutations(range(n))):
        out.append((w, ts.averaging(ts.normal_form(descent_monomial(w, n)))))
    return out


def coordinates(elements):
    """Stack elements as rational vectors over the tensor staircase basis."""
    keys = sorted({k for el in elements for k in el})
    return [[Fraction(el.get(k, 0)) for k in keys] for el in elements]


def rank_over_q(elements):
    return len(rational_rref(coordinates(elements)))
