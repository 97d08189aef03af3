"""Diagonal invariants of the square of the coinvariant algebra.

Elements live in Q[x_1..x_n, y_1..y_n] / (sym(x), sym(y)), stored as maps
from staircase exponent pairs to rational coefficients.  The symmetric group
acts diagonally (the same permutation on both variable groups); averaging
over the group projects onto the invariant subring, which is the rational
cohomology of the total space of the classifying space for commutativity in
U(3) when n = 3.

The averaged diagonal descent monomials form a basis of the invariant ring;
their degrees are controlled by the major index of the permutation and its
inverse (the tests build that basis as an oracle).  Verifying the
multiplicative relations between averaged classes in exact rational
arithmetic produces the ring presentation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .abelian import PoincareSeries
from .polynomial import (GradedQuotient, format_poly, poly_add, poly_mul,
                         poly_scale)


class NonRationalScalars(TypeError):
    """Averaging divides by the group order; integers and F_p are not enough."""


class RelationFailure(RuntimeError):
    """An expected ring relation failed in exact arithmetic."""


class TensorSquare:
    """Arithmetic in the tensor square of the coinvariant algebra."""

    def __init__(self, n):
        # imported here: koszul needs only RingPresentation from this module
        from .coinvariants import coinvariant_algebra
        self.n = n
        self.algebra = coinvariant_algebra(n)

    def normal_form(self, element):
        """Reduce {(ex, ey): coeff} so both exponents are staircase."""
        out = {}
        for (ex, ey), c in element.items():
            if not c:
                continue
            nfx = self.algebra.reduce_monomial(tuple(ex))
            nfy = self.algebra.reduce_monomial(tuple(ey))
            for bx, cx in nfx.items():
                for by, cy in nfy.items():
                    key = (bx, by)
                    v = out.get(key, 0) + c * cx * cy
                    if v:
                        out[key] = v
                    elif key in out:
                        del out[key]
        return out

    def multiply(self, a, b):
        # as polynomials in the 2n variables x_1..x_n, y_1..y_n
        n = self.n
        product = poly_mul({ex + ey: c for (ex, ey), c in a.items()},
                           {ex + ey: c for (ex, ey), c in b.items()})
        return self.normal_form({(e[:n], e[n:]): c for e, c in product.items()})

    scale = staticmethod(poly_scale)
    add = staticmethod(poly_add)

    def permute(self, perm, element):
        """The diagonal action: the same permutation on x and y variables."""
        out = {}
        for (ex, ey), c in element.items():
            nx = [0] * self.n
            ny = [0] * self.n
            for i in range(self.n):
                nx[perm[i]] = ex[i]
                ny[perm[i]] = ey[i]
            key = (tuple(nx), tuple(ny))
            out[key] = out.get(key, 0) + c
        return self.normal_form(out)

    def averaging(self, element):
        """The projector (1/n!) sum over the diagonal group action."""
        for c in element.values():
            if not isinstance(c, (int, Fraction)):
                raise NonRationalScalars(type(c))
        perms = list(permutations(range(self.n)))
        total = {}
        for w in perms:
            total = self.add(total, self.permute(w, element))
        inv = Fraction(1, len(perms))
        return {k: v * inv for k, v in total.items() if v}

    @staticmethod
    def cohomological_degree(element):
        """Twice the (bi-homogeneous) polynomial degree, or None for 0."""
        degs = {2 * (sum(ex) + sum(ey)) for (ex, ey), c in element.items() if c}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element, degrees {sorted(degs)}")
        return degs.pop()


class RingPresentation:
    """A graded presentation field[generators]/(relations), over Q when ``p``
    is None and over F_p otherwise.

    ``relations`` are polynomial dicts over the generators, in their order;
    the normal monomials, and so the Poincare polynomial, are those of the
    :class:`~ecomu3.polynomial.GradedQuotient` they present.
    """

    def __init__(self, generators, relations, p=None):
        self.generators = list(generators)   # (name, degree)
        self.relations = list(relations)
        self.field = "Q" if p is None else f"F{p}"
        self.quotient = GradedQuotient([d for _, d in self.generators],
                                       self.relations, p)

    def formatted_relations(self):
        names = [name for name, _ in self.generators]
        return [format_poly(rel, names) for rel in self.relations]

    def poincare_polynomial(self, top_degree):
        return PoincareSeries(self.quotient.hilbert_series(top_degree))

    def __str__(self):
        gens = ", ".join(name for name, _ in self.generators)
        return f"{self.field}[{gens}]/({', '.join(self.formatted_relations())})"


def invariant_ring_presentation():
    """Verify the diagonal-invariant ring relations and emit the presentation.

    The three generating classes are the averaged descent classes
    g4 = avg(x1 (x) y2), g6 = avg(x1 (x) y2 y3), g6' = avg(x1 x2 (x) y3); the
    degree-8 basis element is fixed to be g4^2 (the averaged class
    c8 = avg(x1 x2 (x) y2 y3) equals -2 g4^2) and the top class is recovered
    from the product 3 g6 g6' = 2 avg(x1^2 x2 (x) y3^2 y2).

    Exact arithmetic forces one correction to the relation list sometimes
    quoted for this ring: g4^3 is NOT zero.  The invariant ring inherits
    Poincare duality from the tensor square, the degree-12 line is spanned by
    the top class, and 8 g4^3 = g6 g6' holds on the nose.  The claim that the
    product of g4 with the degree-8 basis class vanishes is recorded as a
    discrepancy note instead of being asserted; the note's witness
    -6 g4 c8 = c12 must hold, or RelationFailure is raised.

    Returns (presentation, verified relation names, named basis classes,
    discrepancy notes).
    """
    ts = TensorSquare(3)

    def cls(ex, ey):
        return ts.normal_form({(tuple(ex), tuple(ey)): Fraction(1)})

    g4 = ts.averaging(cls((1, 0, 0), (0, 1, 0)))
    g6 = ts.averaging(cls((1, 0, 0), (0, 1, 1)))
    g6t = ts.averaging(cls((1, 1, 0), (0, 0, 1)))
    c8 = ts.averaging(cls((1, 1, 0), (0, 1, 1)))
    c12 = ts.averaging(cls((2, 1, 0), (0, 1, 2)))

    checks = []

    def require(name, lhs, rhs):
        if lhs != rhs:
            raise RelationFailure(f"{name}: {lhs} != {rhs}")
        checks.append(name)

    two_g4_sq = ts.scale(Fraction(2), ts.multiply(g4, g4))
    require("2*g4^2 == -avg(x1x2 (x) y2y3)", two_g4_sq, ts.scale(Fraction(-1), c8))
    lhs = ts.scale(Fraction(3), ts.multiply(g6, g6t))
    require("3*g6*g6' == 2*avg(x1^2x2 (x) y3^2y2)", lhs, ts.scale(Fraction(2), c12))

    # vanishing products: everything of degree 10 or degree > 12, i.e. every
    # pairwise product of non-unit basis classes except g4*g4, g6*g6', g4*c8
    named = [("g4", g4), ("g6", g6), ("g6'", g6t), ("c8", c8), ("c12", c12)]
    nonzero = {("g4", "g4"), ("g6", "g6'"), ("g6'", "g6"), ("g4", "c8"), ("c8", "g4")}
    for na, a in named:
        for nb, b in named:
            if (na, nb) in nonzero:
                continue
            require(f"{na}*{nb} == 0", ts.multiply(a, b), {})

    # the cubic: 8 g4^3 == g6 g6' (both span the degree-12 line)
    g4cubed = ts.multiply(g4, ts.multiply(g4, g4))
    require("8*g4^3 == g6*g6'", ts.scale(Fraction(8), g4cubed),
            ts.multiply(g6, g6t))

    discrepancies = []
    g4_c8 = ts.multiply(g4, c8)
    if g4_c8 != {}:
        witness = ts.scale(Fraction(-6), g4_c8)
        if witness != c12:
            raise RelationFailure(f"-6*g4*c8 == c12: {witness} != {c12}")
        discrepancies.append(
            "the relation list (g4^3, g6^2, g6'^2, g4*g6, g4*g6') overstates "
            "the vanishing: exact arithmetic gives g4 * avg(x1x2 (x) y2y3) = "
            "-2 g4^3 = -(1/6) avg(x1^2x2 (x) y3^2y2) != 0; the presented ring "
            "uses 8*g4^3 - g6*g6' instead of g4^3")

    basis = {"1": ts.normal_form({((0, 0, 0), (0, 0, 0)): Fraction(1)}),
             "g4": g4, "g6": g6, "g6'": g6t, "g4^2": ts.multiply(g4, g4),
             "g6*g6'": ts.multiply(g6, g6t)}
    # exponents over (g4, g6, g6'): g6^2, g6'^2, g4*g6, g4*g6', 8*g4^3 - g6*g6'
    pres = RingPresentation(
        [("g4", 4), ("g6", 6), ("g6'", 6)],
        [{(0, 2, 0): 1}, {(0, 0, 2): 1}, {(1, 1, 0): 1}, {(1, 0, 1): 1},
         {(3, 0, 0): 8, (0, 1, 1): -1}])
    return pres, checks, basis, discrepancies
