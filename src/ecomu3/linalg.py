"""Exact linear algebra over Z and over prime fields.

Everything here is arbitrary precision: matrix entries are Python ints, so
Smith normal form pivoting can blow coefficients up without ever overflowing.
The sizes that show up in this project (boundary maps of free resolutions,
cochain complexes over a seven-object poset) stay well under a few hundred
rows, so no probabilistic tricks are used; mod-p ranks eliminate sparse rows
because the cochain differentials are mostly identity and zero blocks.

Conventions
-----------
A matrix with ``rows`` rows and ``cols`` columns represents a homomorphism
Z^cols -> Z^rows acting on column vectors.  The Smith decomposition follows
``A == U * D * V`` with U, V unimodular, so the integer kernel of A is spanned
by the columns of V^-1 beyond the rank.  One elimination serves three
callers and tracks only the transforms each reads: ``smith_normal_form``
all four, ``kernel_basis`` V^-1 alone and ``invariant_factors`` none.

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

    def apply(self, vec):
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ShapeMismatch(f"{len(vec)} != {self.cols}")
        return [sum(self.entries[i * self.cols + j] * vec[j]
                    for j in range(self.cols)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [self.entries[i * self.cols + j]
                          for j in range(self.cols) for i in range(self.rows)])

    def hstack(self, other):
        if self.rows != other.rows:
            raise ShapeMismatch("row counts differ")
        data = []
        for i in range(self.rows):
            data.extend(self.row(i))
            data.extend(other.row(i))
        return IntMatrix(self.rows, self.cols + other.cols, data)

    def is_zero(self):
        return all(e == 0 for e in self.entries)

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols, "data": self.to_lists()}

    @classmethod
    def from_json(cls, obj):
        m = cls.from_int_rows(obj["data"]) if obj["data"] else cls.zero(obj["rows"], obj["cols"])
        if (m.rows, m.cols) != (obj["rows"], obj["cols"]):
            raise ShapeMismatch("json shape disagrees with data")
        return m


class SNFDecomposition:
    """A == U * D * V with U, V unimodular and D diagonal, d_i | d_{i+1}.

    A plain class rather than a dataclass: importing ``dataclasses`` pulls in
    ``inspect`` and ``ast``, about 1 MB of resident memory in a process that
    needs only this module (the robustness sweep).
    """

    def __init__(self, U, D, V, Uinv, Vinv, invariant_factors):
        self.U, self.D, self.V = U, D, V
        self.Uinv, self.Vinv = Uinv, Vinv
        self.invariant_factors = invariant_factors

    @property
    def rank(self):
        return len(self.invariant_factors)

    def kernel_basis(self):
        """Columns of V^-1 beyond the rank span ker(A) (a saturated sublattice)."""
        r = self.rank
        return [self.Vinv.column(j) for j in range(r, self.Vinv.cols)]


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


def kernel_basis(A):
    """Basis of ker(A): the columns of V^-1 beyond the rank (only V^-1 is
    tracked).  The kernel of a 0 x n map is Z^n, that of an n x 0 map 0."""
    w, r = _eliminate(A, full=False, vinv=True)
    return [[row[j] for row in w.Vinv] for j in range(r, w.n)]


def kernel_basis_reduced(A):
    """Kernel basis in column-Hermite form: triangular, size-reduced, canonical.

    The raw Smith-form kernel vectors can carry enormous entries; reducing
    the kernel lattice to Hermite form keeps downstream boundary matrices
    small, which is what stops pivot growth from compounding across the
    degrees of a resolution.
    """
    raw = kernel_basis(A)
    pivots = {}
    for vec in raw:
        v = list(vec)
        for row in range(len(v)):
            if v[row] == 0:
                continue
            if row in pivots:
                b = pivots[row]
                if v[row] % b[row] == 0:
                    q = v[row] // b[row]
                    v = [a - q * c for a, c in zip(v, b)]
                else:
                    g, x, y = _xgcd(b[row], v[row])
                    nb = [x * a + y * c for a, c in zip(b, v)]
                    nv = [(b[row] // g) * c - (v[row] // g) * a for a, c in zip(b, v)]
                    pivots[row] = nb
                    v = nv
            else:
                if v[row] < 0:
                    v = [-a for a in v]
                pivots[row] = v
                break
    # reduce entries above each pivot
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


def solve(A, b):
    """One integer solution x of A x = b, or None if there is none."""
    if A.rows == 0:
        return [0] * A.cols
    snf = smith_normal_form(A)
    c = snf.Uinv.apply(b)
    y = [0] * A.cols
    for i, d in enumerate(snf.invariant_factors):
        if c[i] % d != 0:
            return None
        y[i] = c[i] // d
    for i in range(len(snf.invariant_factors), A.rows):
        if c[i] != 0:
            return None
    return snf.Vinv.apply(y) if A.cols else []


# ---------------------------------------------------------------------------
# mod-p linear algebra (Gaussian elimination)


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
    never changed afterwards, so ``copy`` only copies the pivot table.
    ``insert`` is forward elimination of one row against the basis and is
    the one rank primitive: the rank of a set of rows is the number of
    insertions that keep a row.
    """

    __slots__ = ("p", "pivots")

    def __init__(self, p, pivots=None):
        self.p = p
        self.pivots = {} if pivots is None else pivots

    def __len__(self):
        return len(self.pivots)

    def copy(self):
        return EchelonBasis(self.p, dict(self.pivots))

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


def modp_rank(A, p):
    n, e = A.cols, A.entries
    return EchelonBasis(p).insert_all(
        {j: v % p for j, v in enumerate(e[i * n:(i + 1) * n]) if v % p}
        for i in range(A.rows))


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
