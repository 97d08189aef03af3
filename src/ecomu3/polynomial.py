"""Sparse polynomial arithmetic and graded quotients, shared by every engine
that multiplies.

A polynomial is a dict from exponent tuples to nonzero coefficients (ints,
Fractions or residues); a coefficient that cancels is dropped.
:class:`GradedQuotient` is the one elimination of an ideal slice: the
coinvariant algebra, the transgression's base ring and every ring
presentation reduce through it.  This module imports no other engine but
:mod:`ecomu3.matrix`, and that only on a quotient's F_p path, so the
coinvariant algebra and the polynomial parser load no matrix code.

>>> poly_mul({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1})
{(2, 0): 1, (0, 2): -1}
>>> monomials_of_degree(2, 2)
[(2, 0), (1, 1), (0, 2)]
>>> ring = GradedQuotient([1, 1], [{(1, 1): 1}, {(2, 0): 1, (0, 2): -1}])
>>> ring.hilbert_series(3), ring.basis(2)
([1, 2, 1, 0], ((2, 0),))
>>> ring.normal_form({(0, 2): 3, (1, 1): 5})
{(2, 0): Fraction(3, 1)}
>>> format_poly({(3, 0): 8, (0, 2): -1}, ["a", "b"])
'8*a^3 - b^2'
"""

from __future__ import annotations

from fractions import Fraction


def weighted_monomials(weights, d):
    """Exponent tuples of weighted degree d, variable j of weight
    ``weights[j]`` > 0, decreasing with the last variable most significant."""
    if not weights:
        return [()] if d == 0 else []
    *head, w = weights
    return [e + (k,) for k in range(d // w, -1, -1)
            for e in weighted_monomials(head, d - k * w)]


def monomials_of_degree(n, d):
    """Exponent tuples of total degree d in n variables, lexicographically
    decreasing."""
    return sorted(weighted_monomials([1] * n, d), reverse=True)


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def poly_scale(c, a):
    return {e: c * v for e, v in a.items() if c * v}


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


def format_poly(poly, names):
    """A polynomial as text, ``names[j]`` naming variable j, its terms in
    decreasing exponent order; a negative coefficient prints as ``- c*mono``."""
    text = ""
    for e in sorted(poly, reverse=True):
        c = poly[e]
        mono = "*".join(names[j] if k == 1 else f"{names[j]}^{k}"
                        for j, k in enumerate(e) if k)
        a = abs(c)
        term = f"{a}*{mono}" if mono and a != 1 else mono or str(a)
        if text:
            text += " - " if c < 0 else " + "
        elif c < 0:
            text = "-"
        text += term
    return text or "0"


def rational_rref(rows):
    """Reduced row echelon form over Fraction; returns the nonzero rows, so
    their number is the rank over Q.  The one elimination over Q."""
    out = []
    lead_cols = {}
    for row in rows:
        row = list(row)
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


class GradedQuotient:
    """k[x_1..x_n]/(relations) with x_j of weight ``weights[j]``; k is Q when
    ``p`` is None and F_p otherwise.  The relations are homogeneous.

    Per weighted degree d, the monomial multiples of the relations that land
    in degree d are row reduced once, with ``rational_rref`` or
    ``matrix.modp_rref``, over the degree-d monomials in the order of
    :func:`weighted_monomials` (lex with x_n > ... > x_1).  The pivot
    monomials are then the leading monomials of the ideal, the others are
    ``basis(d)``, and a pivot's reduced row is its normal form.  Only that
    table is kept per degree, not the rows.
    """

    def __init__(self, weights, relations, p=None):
        self.weights = tuple(weights)
        self.relations = list(relations)
        self.p = p
        self._slices = {}   # degree -> (basis, pivot monomial -> normal form)

    def degree(self, mono):
        return sum(w * e for w, e in zip(self.weights, mono))

    def _slice(self, d):
        if d in self._slices:
            return self._slices[d]
        monos = weighted_monomials(self.weights, d)
        column = {m: i for i, m in enumerate(monos)}
        scalar = Fraction if self.p is None else int
        rows = []
        for rel in self.relations:
            rest = d - self.degree(next(iter(rel)))
            for m in weighted_monomials(self.weights, rest):
                row = [0] * len(monos)
                for e, c in rel.items():
                    row[column[tuple(a + b for a, b in zip(m, e))]] = scalar(c)
                rows.append(row)
        if self.p is None:
            rref = rational_rref(rows)
            pivots = [next(i for i, c in enumerate(row) if c) for row in rref]
        else:
            from .matrix import modp_rref
            rref, pivots = modp_rref(rows, len(monos), self.p)
        reductions = {monos[i]: {monos[j]: -c for j, c in enumerate(row)
                                 if c and j != i}
                      for i, row in zip(pivots, rref)}
        basis = tuple(m for m in monos if m not in reductions)
        self._slices[d] = basis, reductions
        return basis, reductions

    def basis(self, d):
        """The normal monomials of weighted degree d."""
        return self._slice(d)[0]

    def hilbert_series(self, top):
        """The dimensions of degrees 0..top."""
        return [len(self.basis(d)) for d in range(top + 1)]

    def normal_form(self, poly):
        """The image of a polynomial in the normal monomials; over F_p its
        coefficients are residues in 1..p-1."""
        out = {}
        for e, c in poly.items():
            for m, t in self._slice(self.degree(e))[1].get(e, {e: 1}).items():
                out[m] = out.get(m, 0) + c * t
        if self.p is not None:
            out = {m: c % self.p for m, c in out.items()}
        return {m: c for m, c in out.items() if c}
