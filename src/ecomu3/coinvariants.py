"""The coinvariant algebra of the symmetric group.

Z[x_1..x_n]/(elementary symmetric polynomials) is the integral cohomology
ring of the manifold of complete flags in C^n, with the symmetric group
permuting the variables.  The monomials x^e with e_j <= n - j (the staircase
monomials) form a Z-basis; cohomological degree is twice polynomial degree.

Normal forms are computed degreewise by exact linear algebra: in each
polynomial degree the span of {monomial * sigma_i} is row reduced over Q with
pivots forced onto non-staircase monomials, which expresses every monomial in
the staircase basis.  The table is integral (the staircase basis is a Z-basis)
and the code asserts that.

>>> A = CoinvariantAlgebra(3)
>>> A.normal_form({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
{}
>>> A.normal_form({(2, 0, 0): 1, (0, 1, 1): -1})
{}
>>> A.normal_form({(2, 1, 0): 1}) == {(2, 1, 0): 1}
True
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .groups import GroupModule, symmetric_group
from .linalg import IntMatrix


class DecompositionAmbiguous(RuntimeError):
    """Raised when a representation matches zero or several catalog modules."""


def monomials_of_degree(n, d):
    """Exponent tuples of total degree d in n variables, lexicographic."""
    if n == 0:
        return [()] if d == 0 else []
    out = []
    for picks in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in picks:
            e[i] += 1
        out.append(tuple(e))
    return sorted(set(out), reverse=True)


def elementary_symmetric(n, i):
    """sigma_i as a polynomial dict in n variables."""
    from itertools import combinations
    out = {}
    for subset in combinations(range(n), i):
        e = [0] * n
        for j in subset:
            e[j] = 1
        out[tuple(e)] = 1
    return out


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


class CoinvariantAlgebra:
    """Exact arithmetic in Z[x_1..x_n]/(sigma_1..sigma_n)."""

    def __init__(self, n):
        self.n = n
        self.top_degree = n * (n - 1) // 2
        self._tables = {}

    def staircase_basis(self, degree):
        """Staircase monomials (e_j <= n - j, 1-indexed) of the given degree."""
        return [e for e in monomials_of_degree(self.n, degree)
                if all(e[j] <= self.n - 1 - j for j in range(self.n))]

    def dimensions(self):
        return [len(self.staircase_basis(d)) for d in range(self.top_degree + 1)]

    def _table(self, degree):
        """monomial -> staircase coordinates, as integer dicts."""
        if degree in self._tables:
            return self._tables[degree]
        n = self.n
        monos = monomials_of_degree(n, degree)
        stair = set(self.staircase_basis(degree))
        # columns: non-staircase monomials first so RREF pivots land on them
        cols = [m for m in monos if m not in stair] + [m for m in monos if m in stair]
        col_of = {m: i for i, m in enumerate(cols)}
        rows = []
        for i in range(1, min(n, degree) + 1):
            sig = elementary_symmetric(n, i)
            for m in monomials_of_degree(n, degree - i):
                prod = poly_mul({m: 1}, sig)
                row = [Fraction(0)] * len(cols)
                for e, c in prod.items():
                    row[col_of[e]] = Fraction(c)
                rows.append(row)
        rref = _rref(rows)
        table = {}
        for m in stair:
            table[m] = {m: 1}
        n_nonstair = len(cols) - len(stair)
        pivot_of = {}
        for row in rref:
            lead = next(i for i, c in enumerate(row) if c)
            if lead >= n_nonstair:
                raise AssertionError("ideal meets the staircase span")
            pivot_of[lead] = row
        if len(pivot_of) != n_nonstair and degree <= self.top_degree:
            raise AssertionError("staircase monomials do not span the quotient")
        for j in range(n_nonstair):
            row = pivot_of.get(j)
            m = cols[j]
            if row is None:
                raise AssertionError(f"monomial {m} not reducible")
            nf = {}
            for i in range(j + 1, len(cols)):
                if row[i]:
                    if cols[i] not in stair:
                        raise AssertionError("pivot row touches a later non-staircase column")
                    c = -row[i]
                    if c.denominator != 1:
                        raise AssertionError("non-integral reduction")
                    nf[cols[i]] = int(c)
            table[m] = nf
        self._tables[degree] = table
        return table

    def reduce_monomial(self, mono):
        d = sum(mono)
        if d > self.top_degree:
            return {}
        return self._table(d)[mono]

    def normal_form(self, poly):
        """Image of an arbitrary polynomial dict in the staircase basis."""
        out = {}
        for e, c in poly.items():
            if not c:
                continue
            for b, t in self.reduce_monomial(tuple(e)).items():
                v = out.get(b, 0) + c * t
                if v:
                    out[b] = v
                elif b in out:
                    del out[b]
        return out

    def multiply(self, a, b):
        return self.normal_form(poly_mul(a, b))

    def permute(self, perm, poly):
        """Action of a permutation (0-based tuple) sending x_i to x_{perm(i)}."""
        out = {}
        for e, c in poly.items():
            ne = [0] * self.n
            for i, exp in enumerate(e):
                ne[perm[i]] = exp
            key = tuple(ne)
            out[key] = out.get(key, 0) + c
        return {e: c for e, c in out.items() if c}

    def degree_representation(self, degree):
        """Integer matrices of the permutation action on the staircase basis."""
        group = symmetric_group(self.n)
        basis = self.staircase_basis(degree)
        index = {b: i for i, b in enumerate(basis)}
        gens = {}
        for g in group.generators:
            cols = []
            for b in basis:
                nf = self.normal_form(self.permute(g, {b: 1}))
                col = [0] * len(basis)
                for m, c in nf.items():
                    if not (isinstance(c, int) or c.denominator == 1):
                        raise ValueError(f"non-integral coefficient {c} in {nf}")
                    col[index[m]] = int(c)
                cols.append(col)
            gens[g] = IntMatrix.from_columns(cols, rows=len(basis)) if basis \
                else IntMatrix.zero(0, 0)
        return GroupModule(group, len(basis), gens, name=f"flag-degree-{degree}")


def _rref(rows):
    """Reduced row echelon form over Fraction; returns the nonzero rows."""
    mat = [list(r) for r in rows]
    out = []
    lead_cols = {}
    width = len(mat[0]) if mat else 0
    for row in mat:
        row = row[:]
        while True:
            lead = next((i for i, c in enumerate(row) if c), None)
            if lead is None:
                break
            if lead in lead_cols:
                pivot = lead_cols[lead]
                f = row[lead] / pivot[lead]
                row = [a - f * b for a, b in zip(row, pivot)]
            else:
                inv = row[lead]
                row = [a / inv for a in row]
                lead_cols[lead] = row
                out.append(row)
                break
    # back-substitute to full reduction
    for col, pivot in sorted(lead_cols.items(), reverse=True):
        for other in out:
            if other is pivot or not other[col]:
                continue
            f = other[col]
            for i in range(len(other)):
                other[i] -= f * pivot[i]
    return out


# --- named identification against the module catalog ------------------------


def integral_isomorphisms(mod_a, mod_b):
    """All unimodular T with T a(g) = b(g) T for every generator, up to search.

    Returns one witness T per isomorphism (or None).  T is found by solving
    the integer linear system for the entries of T and searching small
    combinations of the solution lattice for determinant +-1.
    """
    if mod_a.rank != mod_b.rank:
        return None
    r = mod_a.rank
    if r == 0:
        return IntMatrix.zero(0, 0)
    rows = []
    for g in mod_a.group.generators:
        a = mod_a.action_matrix(g)
        b = mod_b.action_matrix(g)
        # (T a - b T)[i][j] = sum_k T[i][k] a[k][j] - b[i][k] T[k][j] = 0
        for i in range(r):
            for j in range(r):
                row = [0] * (r * r)
                for k in range(r):
                    row[i * r + k] += a[k, j]
                    row[k * r + j] -= b[i, k]
                rows.append(row)
    from .linalg import kernel_basis_reduced
    basis = kernel_basis_reduced(IntMatrix.from_rows(rows))
    if not basis:
        return None
    rng = range(-2, 3)
    from itertools import product as iproduct
    for coeffs in iproduct(rng, repeat=len(basis)):
        if not any(coeffs):
            continue
        vec = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(r * r)]
        T = IntMatrix(r, r, vec)
        if abs(_det(T)) == 1:
            return T
    return None


def _det(M):
    n = M.rows
    a = M.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def identify_in_catalog(module, catalog):
    """The unique catalog name integrally isomorphic to ``module``."""
    matches = []
    for name, cand in catalog.items():
        if cand.rank == module.rank and cand.character() == module.character():
            if integral_isomorphisms(module, cand) is not None:
                matches.append(name)
    if len(matches) != 1:
        raise DecompositionAmbiguous(
            f"rank-{module.rank} module matches {matches or 'nothing'}")
    return matches[0]


def kunneth_decompose(d, catalog=None):
    """H^d of the square of the flag threefold as a multiset of catalog names.

    d is a cohomological degree (even, 0..12); the diagonal symmetric group
    action on each Kunneth summand is identified integrally in the catalog
    {trivial, sign, standard, standard(x)standard, standard(x)sign}.
    """
    if d % 2 or not 0 <= d <= 12:
        raise ValueError("need an even degree between 0 and 12")
    if catalog is None:
        from .groups import standard_modules
        catalog = standard_modules(3)
    algebra = CoinvariantAlgebra(3)
    reps = {a: algebra.degree_representation(a) for a in range(4)}
    names = []
    for a in range(4):
        b = d // 2 - a
        if not 0 <= b <= 3:
            continue
        piece = reps[a].tensor(reps[b])
        names.append(identify_in_catalog(piece, catalog))
    return sorted(names)
