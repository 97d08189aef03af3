"""Diagonal invariants of the square of the coinvariant algebra.

Elements live in Q[x_1..x_n, y_1..y_n] / (sym(x), sym(y)), stored as maps
from staircase exponent pairs to rational coefficients.  The symmetric group
acts diagonally (the same permutation on both variable groups); averaging
over the group projects onto the invariant subring, which is the rational
cohomology of the total space of the classifying space for commutativity in
U(3) when n = 3.

The averaged diagonal descent monomials form a basis of the invariant ring;
their degrees are controlled by the major index of the permutation and its
inverse.  Verifying the multiplicative relations between them in exact
rational arithmetic produces the ring presentation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .abelian import PoincareSeries
from .coinvariants import CoinvariantAlgebra


class NonRationalScalars(TypeError):
    """Averaging divides by the group order; integers and F_p are not enough."""


class RelationFailure(RuntimeError):
    """An expected ring relation failed in exact arithmetic."""


class TensorSquare:
    """Arithmetic in the tensor square of the coinvariant algebra."""

    def __init__(self, n):
        self.n = n
        self.algebra = CoinvariantAlgebra(n)

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
        out = {}
        for (ex, ey), c in a.items():
            for (fx, fy), d in b.items():
                key = (tuple(p + q for p, q in zip(ex, fx)),
                       tuple(p + q for p, q in zip(ey, fy)))
                v = out.get(key, 0) + c * d
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return self.normal_form(out)

    def scale(self, c, element):
        return {k: c * v for k, v in element.items() if c * v}

    def add(self, a, b):
        out = dict(a)
        for k, v in b.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return out

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

    def cohomological_degree(self, element):
        """Twice the (bi-homogeneous) polynomial degree, or None for 0."""
        degs = {2 * (sum(ex) + sum(ey)) for (ex, ey), c in element.items() if c}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element, degrees {sorted(degs)}")
        return degs.pop()

    def coordinates(self, elements):
        """Stack elements as rational vectors over the tensor staircase basis."""
        keys = sorted({k for el in elements for k in el})
        return [[Fraction(el.get(k, 0)) for k in keys] for el in elements]


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


def rank_over_q(ts, elements):
    return _rational_rank(ts.coordinates(elements))


def _rational_rank(rows):
    pivots = []
    for row in rows:
        row = list(row)
        for lead, pivot in pivots:
            if row[lead]:
                f = row[lead]
                row = [a - f * b for a, b in zip(row, pivot)]
        lead = next((i for i, c in enumerate(row) if c), None)
        if lead is not None:
            inv = row[lead]
            pivots.append((lead, [a / inv for a in row]))
    return len(pivots)


class RingPresentation:
    """A graded presentation field[generators]/(relations).

    ``relations`` is the display form; ``leading_monomials`` are the initial
    monomials of a Groebner basis of the relation ideal, which is what the
    normal-monomial enumeration uses.  When every relation is a monomial the
    two coincide and ``leading_monomials`` may be omitted.
    """

    def __init__(self, generators, relations, leading_monomials=None, field="Q"):
        self.generators = list(generators)   # (name, degree)
        self.relations = list(relations)     # strings over generator names
        self.field = field
        self.leading_monomials = list(leading_monomials) if leading_monomials \
            else list(relations)

    def normal_monomials(self, top_degree=24):
        """Exponent vectors divisible by no leading monomial, up to a degree."""
        from itertools import product as iproduct
        names = [g for g, _ in self.generators]
        degs = {g: d for g, d in self.generators}
        rel_exps = [_parse_monomial(rel, names) for rel in self.leading_monomials]
        bounds = []
        for g, d in self.generators:
            bound = top_degree // d
            for re_ in rel_exps:
                if sum(re_.values()) == re_.get(g, 0) and g in re_:
                    bound = min(bound, re_[g] - 1)
            bounds.append(bound)
        out = []
        for exps in iproduct(*(range(b + 1) for b in bounds)):
            e = dict(zip(names, exps))
            if any(all(e.get(g, 0) >= k for g, k in re_.items()) for re_ in rel_exps):
                continue
            deg = sum(degs[g] * k for g, k in e.items())
            if deg <= top_degree:
                out.append((deg, {g: k for g, k in e.items() if k}))
        out.sort(key=lambda t: (t[0], sorted(t[1].items())))
        return out

    def poincare_polynomial(self, top_degree=24):
        coeffs = [0] * (top_degree + 1)
        for deg, _ in self.normal_monomials(top_degree):
            coeffs[deg] += 1
        return PoincareSeries(coeffs)

    def __str__(self):
        gens = ", ".join(name for name, _ in self.generators)
        rels = ", ".join(self.relations)
        return f"{self.field}[{gens}]/({rels})"

    def to_json(self):
        return {"field": self.field,
                "generators": [[g, d] for g, d in self.generators],
                "relations": self.relations,
                "leading_monomials": self.leading_monomials}


def _parse_monomial(text, names):
    out = {}
    for factor in text.split("*"):
        factor = factor.strip()
        if "^" in factor:
            base, exp = factor.split("^")
            out[base.strip()] = out.get(base.strip(), 0) + int(exp)
        else:
            out[factor] = out.get(factor, 0) + 1
    for g in out:
        if g not in names:
            raise ValueError(f"unknown generator {g}")
    return out


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
    discrepancy witness instead of being asserted.

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
        discrepancies.append(
            "the relation list (g4^3, g6^2, g6'^2, g4*g6, g4*g6') overstates "
            "the vanishing: exact arithmetic gives g4 * avg(x1x2 (x) y2y3) = "
            "-2 g4^3 = -(1/6) avg(x1^2x2 (x) y3^2y2) != 0; the presented ring "
            "uses 8*g4^3 - g6*g6' instead of g4^3"
            + ("" if witness == c12 else " [unexpected witness]"))

    basis = {"1": ts.normal_form({((0, 0, 0), (0, 0, 0)): Fraction(1)}),
             "g4": g4, "g6": g6, "g6'": g6t, "g4^2": ts.multiply(g4, g4),
             "g6*g6'": ts.multiply(g6, g6t)}
    pres = RingPresentation(
        [("g4", 4), ("g6", 6), ("g6'", 6)],
        ["g6^2", "g6'^2", "g4*g6", "g4*g6'", "8*g4^3 - g6*g6'"],
        leading_monomials=["g6^2", "g6'^2", "g4*g6", "g4*g6'", "g6*g6'", "g4^4"])
    return pres, checks, basis, discrepancies
