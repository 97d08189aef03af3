"""Invariant factors from determinantal divisors, and what a Smith form
gives (test helpers).

``ecomu3.linalg`` finds the Smith form by pivoting with row and column
operations.  This oracle uses none of that: the k-th determinantal divisor
d_k of an integer matrix is the gcd of all its k x k minors, and its k-th
invariant factor is d_k / d_(k-1), up to the rank (the largest k with
d_k != 0).  Each minor is a fraction-free (Bareiss) determinant.

The program reads only the factors and the kernel of one elimination;
``apply``, ``kernel_columns`` and ``solve`` read the transforms of a full
Smith form for the tests.
"""

from itertools import combinations
from math import gcd

from ecomu3.linalg import smith_normal_form


def det(rows):
    """Determinant of a square integer matrix, given as a list of rows."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def determinantal_divisors(rows, ncols):
    """[d_1, d_2, ...] up to the rank: d_k = gcd of the k x k minors."""
    out = []
    for k in range(1, min(len(rows), ncols) + 1):
        g = 0
        for r in combinations(rows, k):
            for c in combinations(range(ncols), k):
                g = gcd(g, det([[row[j] for j in c] for row in r]))
        if g == 0:
            break
        out.append(g)
    return out


def invariant_factors_by_minors(m):
    """The nonzero invariant factors of the IntMatrix ``m``."""
    divisors = [1] + determinantal_divisors(m.to_lists(), m.cols)
    return [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]


def apply(m, vec):
    """The IntMatrix ``m`` times the column vector ``vec``."""
    assert len(vec) == m.cols, (len(vec), m.cols)
    return [sum(m[i, j] * vec[j] for j in range(m.cols)) for i in range(m.rows)]


def kernel_columns(snf):
    """The columns of V^-1 beyond the rank, which span ker(A) for A = U D V.
    The kernel of a 0 x n map is Z^n, that of an n x 0 map 0."""
    r = len(snf.invariant_factors)
    return [snf.Vinv.column(j) for j in range(r, snf.Vinv.cols)]


def solve(A, b):
    """One integer solution x of A x = b, or None if there is none."""
    if A.rows == 0:
        return [0] * A.cols
    snf = smith_normal_form(A)
    c = apply(snf.Uinv, b)
    y = [0] * A.cols
    for i, d in enumerate(snf.invariant_factors):
        if c[i] % d != 0:
            return None
        y[i] = c[i] // d
    for i in range(len(snf.invariant_factors), A.rows):
        if c[i] != 0:
            return None
    return apply(snf.Vinv, y) if A.cols else []
