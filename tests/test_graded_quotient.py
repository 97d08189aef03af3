"""The one graded-quotient elimination, against independent ranks.

Hypothesis draws homogeneous relations in at most three weighted variables,
over Q and F_2, F_3, F_5.  Per degree the quotient's basis must have as many
monomials as the slice has monomials, less the rank of the slice's rows, a
rank taken here by another elimination: ``EchelonBasis`` over F_p, the
invariant factors of the integer-scaled rows over Q.
"""

from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from ecomu3.coinvariants import CoinvariantAlgebra, elementary_symmetric
from ecomu3.linalg import invariant_factors
from ecomu3.matrix import EchelonBasis, IntMatrix
from ecomu3.polynomial import GradedQuotient, poly_mul

TOP = 6


def monomials(weights, d):
    """Every exponent tuple of weighted degree d, by brute force."""
    return [e for e in product(*(range(d // w + 1) for w in weights))
            if sum(w * k for w, k in zip(weights, e)) == d]


def degree(weights, e):
    return sum(w * k for w, k in zip(weights, e))


def slice_rows(weights, relations, d):
    """The monomial multiples of the relations in degree d, as dense rows."""
    column = {m: i for i, m in enumerate(monomials(weights, d))}
    rows = []
    for rel in relations:
        for m in monomials(weights, d - degree(weights, next(iter(rel)))):
            row = [0] * len(column)
            for e, c in poly_mul({m: 1}, rel).items():
                row[column[e]] = c
            rows.append(row)
    return rows


def rank(rows, p):
    if p is not None:
        return EchelonBasis(p).insert_all(
            {j: c % p for j, c in enumerate(row) if c % p} for row in rows)
    scaled = [[int(c * lcm(*(Fraction(x).denominator for x in row)))
               for c in row] for row in rows]
    return len(invariant_factors(IntMatrix.from_rows(scaled))) if rows else 0


@st.composite
def quotients(draw):
    p = draw(st.sampled_from([None, 2, 3, 5]))
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    coefficient = (st.builds(Fraction, st.integers(-4, 4).filter(bool),
                             st.integers(1, 3)) if p is None
                   else st.integers(1, p - 1))
    relations = []
    for d in draw(st.lists(st.integers(1, 4), max_size=3)):
        monos = monomials(weights, d)
        if monos:
            chosen = draw(st.lists(st.sampled_from(monos), min_size=1,
                                   max_size=3, unique=True))
            relations.append({m: draw(coefficient) for m in chosen})
    polys = st.dictionaries(
        st.sampled_from([m for d in range(TOP // 2 + 1)
                         for m in monomials(weights, d)]),
        coefficient, max_size=4)
    return weights, relations, p, draw(polys), draw(polys)


@settings(max_examples=80, deadline=None)
@given(quotients())
def test_quotient_against_an_independent_rank(case):
    weights, relations, p, a, b = case
    ring = GradedQuotient(weights, relations, p)
    for d in range(TOP + 1):
        monos = monomials(weights, d)
        basis = ring.basis(d)
        assert set(basis) <= set(monos) and len(set(basis)) == len(basis)
        assert len(basis) == len(monos) - rank(slice_rows(weights, relations, d), p)
    assert ring.hilbert_series(TOP) == [len(ring.basis(d)) for d in range(TOP + 1)]

    nf = ring.normal_form
    for rel in relations:
        for d in range(TOP + 1 - degree(weights, next(iter(rel)))):
            for m in monomials(weights, d):
                assert nf(poly_mul({m: 1}, rel)) == {}
    for d in range(TOP + 1):
        for m in ring.basis(d):
            assert nf({m: 1}) == {m: 1}
    for poly in (a, b):
        reduced = nf(poly)
        assert all(m in ring.basis(degree(weights, m)) for m in reduced)
        assert nf(reduced) == reduced
        # poly - nf(poly) lies in the ideal, degree by degree
        for d in range(TOP // 2 + 1):
            rows = slice_rows(weights, relations, d)
            diff = [poly.get(m, 0) - reduced.get(m, 0)
                    for m in monomials(weights, d)]
            assert rank(rows + [diff], p) == rank(rows, p)
    assert nf(poly_mul(a, b)) == nf(poly_mul(nf(a), nf(b)))


def q_factorial(n):
    out = [1]
    for i in range(1, n + 1):
        out = [sum(out[k - j] for j in range(i) if 0 <= k - j < len(out))
               for k in range(len(out) + i - 1)]
    return out


@pytest.mark.parametrize("n, p", [(2, None), (3, None), (4, 2), (4, 3), (4, 5)])
def test_coinvariant_quotient_is_the_staircase(n, p):
    """Hilbert series [n]_q!, and the normal monomials are the staircase."""
    ring = GradedQuotient(
        [1] * n, [elementary_symmetric(n, i) for i in range(1, n + 1)], p)
    top = n * (n - 1) // 2
    assert ring.hilbert_series(top + 1) == q_factorial(n) + [0]
    staircase = CoinvariantAlgebra(n).staircase_basis
    for d in range(top + 1):
        assert set(ring.basis(d)) == set(staircase(d))
