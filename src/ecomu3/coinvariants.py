"""The coinvariant algebra of the symmetric group.

Z[x_1..x_n]/(elementary symmetric polynomials) is the integral cohomology
ring of the manifold of complete flags in C^n, with the symmetric group
permuting the variables.  The monomials x^e with e_j <= n - j (the staircase
monomials) form a Z-basis; cohomological degree is twice polynomial degree.

Normal forms are read degree by degree from a
:class:`~ecomu3.polynomial.GradedQuotient` over Q by sigma_1..sigma_n.  Its
monomial order (lex, x_n most significant) makes the staircase monomials the
normal basis, and as they are a Z-basis every normal form is integral; the
code asserts both.

The algebra is a fixed object, so :func:`coinvariant_algebra` builds one per
n and process, and every caller shares it.  It fills its normal-form tables
and its degree representations lazily, one degree at a time, each checked
once when it is built; a table entry is handed out read-only.

>>> A = CoinvariantAlgebra(3)
>>> A.normal_form({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
{}
>>> A.normal_form({(2, 0, 0): 1, (0, 1, 1): -1})
{}
>>> A.normal_form({(2, 1, 0): 1}) == {(2, 1, 0): 1}
True
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .polynomial import GradedQuotient, monomials_of_degree, poly_mul


class DecompositionAmbiguous(RuntimeError):
    """Raised when a representation matches zero or several catalog modules."""


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


_ZERO = MappingProxyType({})


class CoinvariantAlgebra:
    """Exact arithmetic in Z[x_1..x_n]/(sigma_1..sigma_n)."""

    def __init__(self, n):
        self.n = n
        self.top_degree = n * (n - 1) // 2
        self._tables = {}       # degree -> monomial -> read-only normal form
        self._reps = {}         # degree -> verified GroupModule

    def staircase_basis(self, degree):
        """Staircase monomials (e_j <= n - j, 1-indexed) of the given degree;
        there are none above ``top_degree``."""
        if degree > self.top_degree:
            return []
        return [e for e in monomials_of_degree(self.n, degree)
                if all(e[j] <= self.n - 1 - j for j in range(self.n))]

    def dimensions(self):
        return [len(self.staircase_basis(d)) for d in range(self.top_degree + 1)]

    def _table(self, degree):
        """monomial -> staircase coordinates, as integer dicts, read from a
        quotient by sigma_1..sigma_n that is dropped once the degree is read.
        Its basis must be the staircase and its normal forms integral."""
        if degree in self._tables:
            return self._tables[degree]
        n = self.n
        quotient = GradedQuotient(
            [1] * n, [elementary_symmetric(n, i) for i in range(1, n + 1)])
        if set(quotient.basis(degree)) != set(self.staircase_basis(degree)):
            raise AssertionError(f"degree-{degree} basis is not the staircase")
        table = {}
        for m in monomials_of_degree(n, degree):
            nf = quotient.normal_form({m: 1})
            if any(c.denominator != 1 for c in nf.values()):
                raise AssertionError(f"non-integral reduction of {m}")
            table[m] = MappingProxyType({b: int(c) for b, c in nf.items()})
        self._tables[degree] = table
        return table

    def reduce_monomial(self, mono):
        """The normal form of x^mono, shared read-only with every caller."""
        d = sum(mono)
        if d > self.top_degree:
            return _ZERO
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
        """Integer matrices of the permutation action on the staircase basis,
        built and verified once per degree and shared by every caller."""
        if degree in self._reps:
            return self._reps[degree]
        from .groups import GroupModule, symmetric_group
        from .matrix import IntMatrix
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
                    col[index[m]] = c
                cols.append(col)
            gens[g] = IntMatrix.from_columns(cols, rows=len(basis)) if basis \
                else IntMatrix.zero(0, 0)
        rep = GroupModule(group, len(basis), gens, name=f"flag-degree-{degree}")
        if degree <= self.top_degree:   # every degree above is the zero module
            self._reps[degree] = rep
        return rep


@lru_cache(maxsize=None)
def coinvariant_algebra(n):
    """The coinvariant algebra in n variables, one per process, shared by
    every caller; it builds nothing until a degree is asked for."""
    return CoinvariantAlgebra(n)


# --- named identification against the module catalog ------------------------


def integral_isomorphisms(mod_a, mod_b):
    """One T invertible over Z with T a(g) = b(g) T for every generator, or
    None when the search finds none.

    T is found by solving the integer linear system for the entries of T and
    searching small combinations of the solution lattice for one whose
    invariant factors are r ones: full rank and unit factors, so |det T| = 1.
    """
    from .matrix import IntMatrix
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
    from .linalg import invariant_factors, kernel_basis_reduced
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
        if invariant_factors(T) == [1] * r:
            return T
    return None


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


def kunneth_decompose(d):
    """H^d of the square of the flag threefold as a multiset of catalog names.

    d is a cohomological degree (even, 0..12); the diagonal symmetric group
    action on each Kunneth summand is identified integrally in the catalog
    {trivial, sign, standard, standard(x)standard, standard(x)sign}.
    """
    if d % 2 or not 0 <= d <= 12:
        raise ValueError("need an even degree between 0 and 12")
    from .groups import standard_modules
    catalog = standard_modules(3)
    algebra = coinvariant_algebra(3)
    reps = {a: algebra.degree_representation(a) for a in range(4)}
    names = []
    for a in range(4):
        b = d // 2 - a
        if not 0 <= b <= 3:
            continue
        piece = reps[a].tensor(reps[b])
        names.append(identify_in_catalog(piece, catalog))
    return sorted(names)
