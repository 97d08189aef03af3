"""Exact linear algebra over Z: Smith normal form, kernels, and the one
Hermite lattice (:class:`ColumnLattice`).

Everything here is arbitrary precision: matrix entries are Python ints, so
Smith normal form pivoting can blow coefficients up without ever overflowing.
The sizes that show up in this project (boundary maps of free resolutions,
cochain complexes over a seven-object poset) stay well under a few hundred
rows, so no probabilistic tricks are used.  The matrix type and elimination
over F_p live in :mod:`ecomu3.matrix`, which the higher-limits code and the
robustness sweep import without this module; its names are re-exported here.

Conventions
-----------
A matrix with ``rows`` rows and ``cols`` columns represents a homomorphism
Z^cols -> Z^rows acting on column vectors.  The Smith decomposition follows
``A == U * D * V`` with U, V unimodular, so the integer kernel of A is spanned
by the columns of V^-1 beyond the rank.  One elimination serves three
callers and tracks only the transforms each reads: ``smith_normal_form``
all four, ``kernel_and_factors`` V^-1 alone and ``invariant_factors``
none.  ``kernel_and_factors`` returns the kernel and the diagonal of the
same elimination, so a resolution step that needs a boundary's kernel gets
its invariant factors for nothing.

>>> A = IntMatrix.from_rows([[2, 0], [0, 3]])
>>> smith_normal_form(A).invariant_factors
[1, 6]
>>> invariant_factors(A)
[1, 6]
>>> smith_normal_form(IntMatrix.identity(3)).invariant_factors
[1, 1, 1]
>>> smith_normal_form(IntMatrix.from_rows([[1, 1, 1]])).invariant_factors
[1]
"""

from __future__ import annotations

# modp_rank and modp_solve are re-exported only because the benchmark's
# span targets still name them here; F_p callers import from matrix
from .matrix import IntMatrix, modp_rank, modp_solve


class SNFDecomposition:
    """A == U * D * V with U, V unimodular and D diagonal, d_i | d_{i+1}.

    A plain class rather than a dataclass: importing ``dataclasses`` pulls in
    ``inspect`` and ``ast``, about 1 MB of resident memory in a process that
    needs only the linear algebra.
    """

    def __init__(self, U, D, V, Uinv, Vinv, invariant_factors):
        self.U, self.D, self.V = U, D, V
        self.Uinv, self.Vinv = Uinv, Vinv
        self.invariant_factors = invariant_factors


class _Worker:
    """Mutable elimination state: D plus the unimodular transforms the caller reads.

    ``full`` tracks U, U^-1 and V; ``vinv`` tracks V^-1.  An untracked
    transform is None and costs nothing, and the pivot sequence never depends
    on what is tracked, so every caller sees the same elimination.
    """

    def __init__(self, A, full, vinv):
        self.m = m = A.rows
        self.n = n = A.cols
        self.D = [A.row(i) for i in range(m)]
        self.U = _identity_rows(m) if full else None
        self.Uinv = _identity_rows(m) if full else None
        self.V = _identity_rows(n) if full else None
        self.Vinv = _identity_rows(n) if vinv else None

    # Row operations transform D := E * D, so U picks up E^-1 on the right
    # (column ops) and Uinv picks up E on the left (row ops).

    def row_add(self, i, j, c):
        D = self.D
        D[i] = [a + c * b for a, b in zip(D[i], D[j])]
        if self.U is not None:
            for r in self.U:
                r[j] -= c * r[i]
            Uinv = self.Uinv
            Uinv[i] = [a + c * b for a, b in zip(Uinv[i], Uinv[j])]

    def row_swap(self, i, j):
        if i == j:
            return
        self.D[i], self.D[j] = self.D[j], self.D[i]
        if self.U is not None:
            for r in self.U:
                r[i], r[j] = r[j], r[i]
            self.Uinv[i], self.Uinv[j] = self.Uinv[j], self.Uinv[i]

    def row_negate(self, i):
        self.D[i] = [-a for a in self.D[i]]
        if self.U is not None:
            for r in self.U:
                r[i] = -r[i]
            self.Uinv[i] = [-a for a in self.Uinv[i]]

    # Column operations transform D := D * F, so V picks up F^-1 on the left
    # (row ops) and Vinv picks up F on the right (column ops).

    def col_add(self, j, i, c):
        """col_j += c * col_i."""
        for r in self.D:
            r[j] += c * r[i]
        if self.V is not None:
            V = self.V
            V[i] = [a - c * b for a, b in zip(V[i], V[j])]
        if self.Vinv is not None:
            for r in self.Vinv:
                r[j] += c * r[i]

    def col_swap(self, i, j):
        if i == j:
            return
        for r in self.D:
            r[i], r[j] = r[j], r[i]
        if self.V is not None:
            self.V[i], self.V[j] = self.V[j], self.V[i]
        if self.Vinv is not None:
            for r in self.Vinv:
                r[i], r[j] = r[j], r[i]


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _eliminate(A, full, vinv):
    """Diagonalize A; returns the worker (D diagonal) and the rank.

    Each stage re-selects the smallest nonzero absolute value in the trailing
    submatrix (ties broken by (row, col), so the decomposition is
    deterministic), reduces its row and column by remainders, and only
    advances once the pivot divides the whole trailing submatrix.  The last
    condition is what keeps coefficient growth in check -- clearing without
    it squares entry sizes on unlucky dense inputs -- and it makes the
    divisibility chain hold with no separate pass.
    """
    w = _Worker(A, full, vinv)
    m, n, D = w.m, w.n, w.D

    k = 0
    while k < min(m, n):
        # the first (row, col) of least absolute value; 1 cannot be beaten
        low, pi, pj = 0, 0, 0
        for i in range(k, m):
            Di = D[i]
            for j in range(k, n):
                e = abs(Di[j])
                if e and (not low or e < low):
                    low, pi, pj = e, i, j
                    if e == 1:
                        break
            if low == 1:
                break
        if not low:
            break
        w.row_swap(k, pi)
        w.col_swap(k, pj)
        a = D[k][k]
        dirty = False
        for i in range(k + 1, m):
            if D[i][k]:
                w.row_add(i, k, -(D[i][k] // a))
                if D[i][k]:
                    dirty = True
        for j in range(k + 1, n):
            if D[k][j]:
                w.col_add(j, k, -(D[k][j] // a))
                if D[k][j]:
                    dirty = True
        if dirty:
            continue    # a strictly smaller entry exists now; re-select
        # pivot must divide the trailing submatrix or the invariant factors
        # (and the entry sizes of later stages) go wrong
        pull = None
        if low != 1:
            for i in range(k + 1, m):
                Di = D[i]
                if any(Di[j] % a for j in range(k + 1, n)):
                    pull = i
                    break
        if pull is not None:
            w.row_add(k, pull, 1)
            continue
        if a < 0:
            w.row_negate(k)
        k += 1
    return w, k


def smith_normal_form(A):
    """Smith normal form with full transform tracking."""
    w, r = _eliminate(A, full=True, vinv=True)
    m, n, D = w.m, w.n, w.D
    return SNFDecomposition(
        U=IntMatrix.from_rows(w.U) if m else IntMatrix.zero(0, 0),
        D=IntMatrix.from_rows(D) if m * n else IntMatrix.zero(m, n),
        V=IntMatrix.from_rows(w.V) if n else IntMatrix.zero(0, 0),
        Uinv=IntMatrix.from_rows(w.Uinv) if m else IntMatrix.zero(0, 0),
        Vinv=IntMatrix.from_rows(w.Vinv) if n else IntMatrix.zero(0, 0),
        invariant_factors=[D[i][i] for i in range(r)],
    )


def invariant_factors(A):
    """The nonzero invariant factors of A (its rank is their count); no transforms."""
    w, r = _eliminate(A, full=False, vinv=False)
    return [w.D[i][i] for i in range(r)]


def kernel_and_factors(A):
    """(kernel basis in column-Hermite form, nonzero invariant factors) of A,
    both from one elimination.

    The raw Smith-form kernel vectors can carry enormous entries; reducing
    the kernel lattice to Hermite form keeps downstream boundary matrices
    small, which is what stops pivot growth from compounding across the
    degrees of a resolution.
    """
    w, r = _eliminate(A, full=False, vinv=True)
    lattice = ColumnLattice(A.cols)
    for j in range(r, w.n):
        lattice.add([row[j] for row in w.Vinv])
    return lattice.hermite_basis(), [w.D[i][i] for i in range(r)]


def kernel_basis_reduced(A):
    """Kernel basis in column-Hermite form: triangular, size-reduced, canonical
    (see :func:`kernel_and_factors`)."""
    return kernel_and_factors(A)[0]


class ColumnLattice:
    """Growing sublattice of Z^dim with a triangular basis for membership.

    ``pivots[row]`` is the basis vector whose first nonzero entry, positive,
    is at ``row``.
    """

    def __init__(self, dim):
        self.dim = dim
        self.pivots = {}

    def add(self, vec):
        """Enlarge the lattice by ``vec``, one xgcd step per pivot it meets."""
        v = list(vec)
        for row in range(self.dim):
            if v[row] == 0:
                continue
            if row in self.pivots:
                b = self.pivots[row]
                if v[row] % b[row] == 0:
                    q = v[row] // b[row]
                    v = [a - q * c for a, c in zip(v, b)]
                else:
                    g, x, y = _xgcd(b[row], v[row])
                    nb = [x * a + y * c for a, c in zip(b, v)]
                    nv = [(b[row] // g) * c - (v[row] // g) * a
                          for a, c in zip(b, v)]
                    self.pivots[row] = nb
                    v = nv
            else:
                if v[row] < 0:
                    v = [-a for a in v]
                self.pivots[row] = v
                return

    def contains(self, vec):
        v = list(vec)
        for row in range(self.dim):
            if v[row] == 0:
                continue
            b = self.pivots.get(row)
            if b is None or v[row] % b[row] != 0:
                return False
            q = v[row] // b[row]
            v = [a - q * c for a, c in zip(v, b)]
        return True

    def hermite_basis(self):
        """The basis in pivot order, each entry above a later pivot reduced
        into [0, pivot): the lattice's canonical Hermite form."""
        pivots = self.pivots
        order = sorted(pivots)
        for i, r in enumerate(order):
            b = pivots[r]
            for r2 in order[i + 1:]:
                c = pivots[r2]
                if b[r2]:
                    q = b[r2] // c[r2]
                    if q:
                        pivots[r] = b = [a - q * d for a, d in zip(b, c)]
        return [pivots[r] for r in order]


def _xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y

