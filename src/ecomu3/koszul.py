"""Chern classes by the Whitney formula, and the multiplicative spectral
sequence of a principal unitary-group bundle over a product of infinite
complex projective spaces.

The only multiplicative engine this project needs is the Koszul shape
Lambda[z_1, z_3, z_5] (x) F_p[b_1..b_k] with transgressive exterior
generators: d_{2i}(z_{2i-1}) is the i-th Chern class of the bundle reduced in
the current base quotient, extended multiplicatively.  Generators whose
transgression reduces to zero survive; the others die and impose their
transgression as a relation.  The base quotient and the presented ring,
whose Hilbert series is the reported one, are
:class:`~ecomu3.polynomial.GradedQuotient` instances over F_p.  The
presentation is cross-checked against an independent oracle: the homology
of the full Koszul complex, computed degree by degree by F_p linear algebra,
which is the Tor computation that the collapsed spectral sequence abuts to.

>>> [sorted(c.items()) for c in whitney_chern([[1, 0], [1, 0], [0, 1]])]
[[((0, 1), 1), ((1, 0), 2)], [((1, 1), 2), ((2, 0), 1)], [((2, 1), 1)]]
"""

from __future__ import annotations

from itertools import combinations

from .abelian import PoincareSeries
from .diagonal import RingPresentation
from .matrix import EchelonBasis
from .polynomial import (GradedQuotient, format_poly, monomials_of_degree,
                         poly_mul)

TOP = 16    # the last degree of every series reported


def whitney_chern(weights):
    """Chern classes c_1..c_m of a sum of line bundles with given weights.

    ``weights`` has one row per line bundle; row entries are the multidegrees
    over the base classes b_1..b_k (each of cohomological degree 2).  The
    total class is the product of (1 + sum_j a_ij b_j).
    """
    if not weights:
        return []
    k = len(weights[0])
    zero = (0,) * k
    total = {zero: 1}
    for row in weights:
        if len(row) != k:
            raise ValueError("ragged weight rows")
        factor = {zero: 1}
        for j, a in enumerate(row):
            if a:
                e = tuple(1 if t == j else 0 for t in range(k))
                factor[e] = a
        total = poly_mul(total, factor)
    cherns = []
    for i in range(1, len(weights) + 1):
        ci = {e: c for e, c in total.items() if sum(e) == i}
        cherns.append(ci)
    return cherns


def koszul_homology_series(cherns, k, p, top):
    """Oracle: F_p dimensions of the Koszul complex homology per total degree.

    Basis elements are z_S * m with S a subset of the exterior generators
    (z_i of degree 2i-1) and m a base monomial; d(z_S m) drops one z_i with
    the Koszul sign and multiplies by c_i.
    """
    m = len(cherns)
    cmods = [{e: c % p for e, c in ci.items() if c % p} for ci in cherns]
    # build one degree past the reporting window: the kernel at the top
    # degree needs its targets, or the homology there is inflated
    reach = top + 1
    basis = {}   # total degree -> list of (S, mono)
    for size in range(m + 1):
        for S in combinations(range(1, m + 1), size):
            zdeg = sum(2 * i - 1 for i in S)
            if zdeg > reach:
                continue
            for d in range(0, (reach - zdeg) // 2 + 1):
                for mono in monomials_of_degree(k, d):
                    basis.setdefault(zdeg + 2 * d, []).append((S, mono))
    index = {deg: {b: i for i, b in enumerate(items)}
             for deg, items in basis.items()}

    def rank(deg):
        """F_p rank of d: degree -> degree + 1, from its sparse target rows."""
        tgt = index.get(deg + 1, {})
        rows = {}
        for j, (S, mono) in enumerate(basis.get(deg, [])):
            for pos, i in enumerate(S):
                rest = tuple(x for x in S if x != i)
                sign = (-1) ** pos
                for e, c in cmods[i - 1].items():
                    key = (rest, tuple(a + b for a, b in zip(mono, e)))
                    if key in tgt:
                        row = rows.setdefault(tgt[key], {})
                        row[j] = (row.get(j, 0) + sign * c) % p
        return EchelonBasis(p).insert_all(
            {j: v for j, v in row.items() if v} for row in rows.values())

    ranks = [rank(deg) for deg in range(top + 1)]
    return PoincareSeries([len(basis.get(deg, [])) - ranks[deg]
                           - (ranks[deg - 1] if deg else 0)
                           for deg in range(top + 1)])


def transgressive_quotient(weights, p):
    """Run the transgression bookkeeping and return the full analysis.

    Returns a dict with the presentation, its Poincare series, the oracle
    series from the Koszul homology (they must agree), and one record per
    exterior generator with its raw and reduced transgression image.
    """
    cherns = whitney_chern(weights)
    k = len(weights[0]) if weights else 0
    names = [f"b{j + 1}" for j in range(k)]
    relations = []
    base = GradedQuotient([1] * k, relations, p)
    steps = []
    survivors = []
    for i, ci in enumerate(cherns, start=1):
        raw = {e: c % p for e, c in ci.items() if c % p}
        reduced = base.normal_form(raw)
        dies = bool(reduced)
        steps.append({
            "generator": f"z{2 * i - 1}",
            "page": 2 * i,
            "raw": format_poly(raw, names),
            "reduced": format_poly(reduced, names),
            "dies": dies,
        })
        if dies:
            relations.append(reduced)
            base = GradedQuotient([1] * k, relations, p)
        else:
            survivors.append(2 * i - 1)

    # a linear relation (only c_1 is one) eliminates its leading variable;
    # the others are the degree-1 basis, and the later relations, being
    # normal forms, are polynomials in them
    live = sorted(e.index(1) for e in base.basis(1))
    gens = [(f"z{d}", d) for d in survivors] + [
        ("b" if len(live) == 1 else f"b{j + 1}", 2) for j in live]
    exterior = [0] * len(survivors)
    squares = [{tuple(2 * (t == s) for t in range(len(gens))): 1}
               for s in range(len(survivors))]
    pres = RingPresentation(gens, squares + [
        {tuple(exterior + [e[j] for j in live]): c for e, c in rel.items()}
        for rel in relations if base.degree(next(iter(rel))) > 1], p)

    series = pres.poincare_polynomial(TOP)
    oracle = koszul_homology_series(cherns, k, p, TOP)
    if series.coefficients != oracle.coefficients:
        raise AssertionError(
            f"transgression bookkeeping ({series}) disagrees with the Koszul "
            f"homology oracle ({oracle})")
    return {"presentation": pres, "series": series, "oracle": oracle,
            "steps": steps, "prime": p}


U3T2_WEIGHTS = [[1, 0], [1, 0], [0, 1]]
PU3_WEIGHTS = [[1], [1], [1]]


def u3t2_cohomology(p):
    """Mod-p cohomology of the quotient of U(3) by the blockwise 2-torus."""
    if p not in (2, 3):
        raise ValueError("this bundle is bundled for p = 2 and 3")
    return transgressive_quotient(U3T2_WEIGHTS, p)


def pu3_cohomology(p):
    """Mod-p cohomology of the projective unitary group PU(3)."""
    return transgressive_quotient(PU3_WEIGHTS, p)
