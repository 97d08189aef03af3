"""The integer matrix type and linear algebra over prime fields.

Matrix entries are Python ints.  Every rank over F_p is taken by inserting
sparse rows (:func:`sparse_rows`) into an :class:`EchelonBasis`
(:func:`modp_rank`, the hexagon and the image in (0,1,2) of the higher
limits, once per block and per variant in the robustness sweep, the Koszul
oracle), because those matrices are mostly identity and zero blocks.
:func:`modp_rref` is the dense reducer that solutions, kernels and normal
forms read, and the tests' independent oracle for those ranks.  Smith normal
form and integer kernels, which the limits and the robustness sweep never
use, are in :mod:`ecomu3.linalg`.

A matrix with ``rows`` rows and ``cols`` columns represents a homomorphism
Z^cols -> Z^rows (or F_p^cols -> F_p^rows) acting on column vectors.
"""

from __future__ import annotations

from math import isqrt


class ShapeMismatch(ValueError):
    """Raised when matrix dimensions do not compose."""


class CompositionNonzero(ValueError):
    """Raised when two maps that should form a complex do not compose to zero."""


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ShapeMismatch("negative dimensions")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, data):
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if data else 0
        for r in data:
            if len(r) != cols:
                raise ShapeMismatch("ragged rows")
        return cls(rows, cols, [e for r in data for e in r])

    @classmethod
    def from_int_rows(cls, data):
        """``from_rows`` for parsed JSON: a float or a bool (JSON ``true`` is an
        ``int`` subclass) raises ValueError instead of being truncated."""
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ValueError("a matrix is a list of rows")
        for i, r in enumerate(data):
            for j, e in enumerate(r):
                if type(e) is not int:
                    raise ValueError(
                        f"entry {e!r} at row {i}, column {j} is not an integer")
        return cls.from_rows(data)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def from_columns(cls, columns, rows=None):
        """Build a matrix whose columns are the given vectors."""
        columns = [list(c) for c in columns]
        if rows is None:
            if not columns:
                raise ShapeMismatch("cannot infer row count of empty column list")
            rows = len(columns[0])
        for c in columns:
            if len(c) != rows:
                raise ShapeMismatch("ragged columns")
        return cls(rows, len(columns),
                   [columns[j][i] for i in range(rows) for j in range(len(columns))])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def column(self, j):
        return list(self.entries[j::self.cols])

    def to_lists(self):
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ShapeMismatch(f"{self.cols} != {other.rows}")
            n, m, k = self.rows, other.cols, self.cols
            a, b = self.entries, other.entries
            out = [0] * (n * m)
            for i in range(n):
                arow = a[i * k:(i + 1) * k]
                for t in range(k):
                    c = arow[t]
                    if c:
                        brow = b[t * m:(t + 1) * m]
                        base = i * m
                        for j in range(m):
                            out[base + j] += c * brow[j]
            return IntMatrix(n, m, out)
        raise TypeError(other)

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [self.entries[i * self.cols + j]
                          for j in range(self.cols) for i in range(self.rows)])

    def is_zero(self):
        return all(e == 0 for e in self.entries)


def modp_rref(rows, n, p):
    """Row reduce a list of length-n rows over F_p; returns (rref, pivots)."""
    mat = [[e % p for e in r] for r in rows]
    pivots = []
    rr = 0
    for col in range(n):
        piv = None
        for i in range(rr, len(mat)):
            if mat[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        mat[rr], mat[piv] = mat[piv], mat[rr]
        inv = pow(mat[rr][col], -1, p)
        mat[rr] = [(e * inv) % p for e in mat[rr]]
        for i in range(len(mat)):
            if i != rr and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(a - c * b) % p for a, b in zip(mat[i], mat[rr])]
        pivots.append(col)
        rr += 1
    return mat[:rr], pivots


class EchelonBasis:
    """A row echelon basis over F_p, grown by inserting sparse rows.

    A row is a ``{column: value}`` dict with values in 1..p-1 (zero entries
    are left out).  Each kept row is scaled to 1 at its leading (smallest)
    column and stored, without that entry, under the column; stored rows are
    never changed afterwards.  ``insert`` is forward elimination of one row
    against the basis and is the one rank primitive: the rank of a set of
    rows is the number of insertions that keep a row.
    """

    __slots__ = ("p", "pivots")

    def __init__(self, p):
        self.p = p
        self.pivots = {}

    def __len__(self):
        return len(self.pivots)

    def insert(self, row):
        """Reduce ``row`` against the basis; keep it iff it is independent."""
        p, pivots = self.p, self.pivots
        row = dict(row)
        while row:
            col = min(row)
            c = row.pop(col)
            tail = pivots.get(col)
            if tail is None:
                if c != 1:
                    inv = pow(c, -1, p)
                    row = {j: v * inv % p for j, v in row.items()}
                pivots[col] = row
                return True
            for j, v in tail.items():
                e = (row.get(j, 0) - c * v) % p
                if e:
                    row[j] = e
                else:
                    del row[j]
        return False

    def insert_all(self, rows):
        """Insert every row; the number kept."""
        return sum(self.insert(row) for row in rows)

    def copy(self):
        """A basis with the same rows that grows on its own; the stored rows
        are shared, as neither basis ever changes them."""
        clone = EchelonBasis(self.p)
        clone.pivots = dict(self.pivots)
        return clone


def prime_fault(p):
    """Why ``p`` is not taken as a prime, or None.  Trial division up to the
    root of 2^31 - 1, the largest p taken, takes about 4 ms."""
    if p > 2**31 - 1:
        return f"{p} is above the largest prime taken, 2^31 - 1"
    if p < 2 or not all(p % q for q in range(2, isqrt(p) + 1)):
        return f"{p} is not prime"


def sparse_rows(m, offset, sign, p):
    """The rows of sign * m mod p as sparse ``{index: value}`` dicts, with
    m's columns at the indices from offset on."""
    n = m.cols
    return [{offset + j: sign * e % p
             for j, e in enumerate(m.entries[i * n:(i + 1) * n]) if e % p}
            for i in range(m.rows)]


def modp_rank(A, p):
    return EchelonBasis(p).insert_all(sparse_rows(A, 0, 1, p))


def modp_solve(A, b, p):
    """One solution x of A x = b over F_p, or None."""
    if A.cols == 0:
        return [] if all(e % p == 0 for e in b) else None
    aug = [A.row(i) + [b[i]] for i in range(A.rows)]
    rref, pivots = modp_rref(aug, A.cols + 1, p)
    if A.cols in pivots:
        return None
    x = [0] * A.cols
    for row, piv in zip(rref, pivots):
        x[piv] = row[A.cols] % p
    return x


def modp_kernel_basis(A, p):
    """Basis of ker(A mod p) as vectors over F_p."""
    if A.cols == 0:
        return []
    if A.rows == 0:
        return [[1 if i == j else 0 for i in range(A.cols)] for j in range(A.cols)]
    rref, pivots = modp_rref(A.to_lists(), A.cols, p)
    free = [j for j in range(A.cols) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * A.cols
        v[f] = 1
        for i, col in enumerate(pivots):
            v[col] = (-rref[i][f]) % p
        basis.append(v)
    return basis
