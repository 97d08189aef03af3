"""Coinvariant algebra: staircase normal forms, representations, Kunneth."""

import random
from fractions import Fraction

import pytest

from ecomu3 import cli, coinvariants, polynomial
from ecomu3.coinvariants import (CoinvariantAlgebra, DecompositionAmbiguous,
                                 coinvariant_algebra, identify_in_catalog,
                                 integral_isomorphisms, kunneth_decompose,
                                 monomials_of_degree, poly_mul)
from ecomu3.diagonal import TensorSquare

from snf_oracle import det


@pytest.fixture(scope="module")
def algebra():
    return CoinvariantAlgebra(3)


def test_staircase_dimensions(algebra):
    assert algebra.dimensions() == [1, 2, 2, 1]
    assert sum(algebra.dimensions()) == 6


def test_normal_form_examples(algebra):
    assert algebra.normal_form({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}) == {}
    assert algebra.normal_form({(2, 0, 0): 1, (0, 1, 1): -1}) == {}
    assert algebra.normal_form({(2, 1, 0): 1}) == {(2, 1, 0): 1}
    # x1 * x1 equals the normal form of x2 x3
    sq = algebra.multiply({(1, 0, 0): 1}, {(1, 0, 0): 1})
    assert sq == algebra.normal_form({(0, 1, 1): 1})


def test_unit_and_top_degree(algebra):
    one = {(0, 0, 0): 1}
    a = algebra.normal_form({(1, 1, 0): 2, (1, 0, 0): -1})
    assert algebra.multiply(one, a) == a
    top = algebra.staircase_basis(3)
    assert algebra.multiply({top[0]: 1}, {top[0]: 1}) == {}


def test_normal_form_is_ring_homomorphism(algebra):
    rng = random.Random(5)
    monos = monomials_of_degree(3, 1) + monomials_of_degree(3, 2)
    for _ in range(40):
        f = {m: rng.randint(-3, 3) for m in rng.sample(monos, 3)}
        g = {m: rng.randint(-3, 3) for m in rng.sample(monos, 3)}
        lhs = algebra.normal_form(poly_mul(f, g))
        rhs = algebra.multiply(algebra.normal_form(f), algebra.normal_form(g))
        assert lhs == rhs


def test_reduction_against_ideal_membership(algebra):
    # independent oracle: f - nf(f) must lie in the ideal, checked by the
    # substitution rules x3 -> -x1-x2, then the degree-wise h-relations
    def rewrite(poly):
        out = {}
        for e, c in poly.items():
            outed = {(e[0], e[1], 0): c}
            for _ in range(e[2]):
                nxt = {}
                for key, coeff in outed.items():
                    for var, s in (((1, 0, 0), -1), ((0, 1, 0), -1)):
                        k2 = tuple(a + b for a, b in zip(key, var))
                        nxt[k2] = nxt.get(k2, 0) + coeff * s
                outed = nxt
            for k2, coeff in outed.items():
                out[k2] = out.get(k2, 0) + coeff
        # now reduce x2^2 -> -x1^2 - x1 x2 and x1^3 -> 0
        changed = True
        while changed:
            changed = False
            for e in list(out):
                c = out.get(e, 0)
                if not c:
                    out.pop(e, None)
                    continue
                if e[1] >= 2:
                    changed = True
                    out.pop(e)
                    base = (e[0], e[1] - 2, e[2])
                    for delta, s in (((2, 0, 0), -1), ((1, 1, 0), -1)):
                        k2 = tuple(a + b for a, b in zip(base, delta))
                        out[k2] = out.get(k2, 0) + c * s
                elif e[0] >= 3:
                    changed = True
                    out.pop(e)
        return {e: c for e, c in out.items() if c}

    rng = random.Random(9)
    monos = [m for d in range(4) for m in monomials_of_degree(3, d)]
    for _ in range(50):
        f = {m: rng.randint(-4, 4) for m in rng.sample(monos, 4)}
        assert algebra.normal_form(f) == rewrite(f)


def test_degree_representations(algebra):
    assert algebra.degree_representation(0).character() == [1, 1, 1]
    assert algebra.degree_representation(1).character() == [2, 0, -1]
    assert algebra.degree_representation(2).character() == [2, 0, -1]
    assert algebra.degree_representation(3).character() == [1, -1, 1]
    for d in range(4):
        algebra.degree_representation(d).verify_homomorphism()


def assert_witness(T, a, b):
    """T a(g) = b(g) T for every generator g, and |det T| = 1."""
    for g in a.group.generators:
        assert T * a.action_matrix(g) == b.action_matrix(g) * T, g
    assert abs(det(T.to_lists())) == 1, T.to_lists()


def test_degree_one_and_two_integrally_isomorphic(algebra):
    r1 = algebra.degree_representation(1)
    r2 = algebra.degree_representation(2)
    assert_witness(integral_isomorphisms(r1, r2), r1, r2)


def test_catalog_pairs_of_equal_rank(catalog):
    """Each module is isomorphic to itself by a witness, and to no other
    module of its rank: sign is not trivial, and standard(x)sign has the
    standard character but is not isomorphic to it over Z."""
    pairs = 0
    for x, a in catalog.items():
        for y, b in catalog.items():
            if a.rank != b.rank:
                continue
            T = integral_isomorphisms(a, b)
            assert (T is not None) == (x == y), (x, y)
            if T is not None:
                assert_witness(T, a, b)
            pairs += 1
    assert pairs == 9


def test_standard_not_isomorphic_to_twist(catalog):
    assert integral_isomorphisms(catalog["standard"],
                                 catalog["standard(x)sign"]) is None


def test_identify_in_catalog(algebra, catalog):
    assert identify_in_catalog(algebra.degree_representation(3), catalog) == "sign"
    assert identify_in_catalog(algebra.degree_representation(2), catalog) == "standard"


def test_kunneth_list():
    expected = {
        0: ["trivial"],
        2: ["standard", "standard"],
        4: ["standard", "standard", "standard(x)standard"],
        6: ["sign", "sign", "standard(x)standard", "standard(x)standard"],
        8: ["standard(x)sign", "standard(x)sign", "standard(x)standard"],
        10: ["standard(x)sign", "standard(x)sign"],
        12: ["trivial"],
    }
    for d, names in expected.items():
        assert kunneth_decompose(d) == sorted(names), d
    with pytest.raises(ValueError):
        kunneth_decompose(5)


def test_general_rank_staircase():
    a4 = CoinvariantAlgebra(4)
    assert a4.dimensions() == [1, 3, 5, 6, 5, 3, 1]
    assert sum(a4.dimensions()) == 24
    assert a4.normal_form({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1,
                           (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}) == {}


def test_one_algebra_per_process():
    assert coinvariant_algebra(3) is coinvariant_algebra(3)
    assert TensorSquare(3).algebra is coinvariant_algebra(3)
    algebra = coinvariant_algebra(3)
    assert algebra.degree_representation(2) is algebra.degree_representation(2)


def test_each_table_is_built_once_per_process(monkeypatch, capsys):
    """Every flag op and rational-ring, run twice in one process, reduce
    through one algebra that builds each degree's table once."""
    coinvariant_algebra.cache_clear()
    quotients = []

    def counted(*args):
        quotients.append(polynomial.GradedQuotient(*args))
        return quotients[-1]

    monkeypatch.setattr(coinvariants, "GradedQuotient", counted)
    calls = [["flag", "nf", "x1^2*x2 + x3"], ["flag", "mul", "x1 + x2", "x2^2"],
             *(["flag", "rep", str(d)] for d in range(4)),
             *(["flag", "kunneth", str(d)] for d in range(0, 13, 2)),
             ["rational-ring"]]
    for _ in range(2):
        for argv in calls:
            assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert sorted(coinvariant_algebra(3)._tables) == [0, 1, 2, 3]
    # one quotient by sigma_1..sigma_n per degree, which eliminates the
    # slice of that degree alone
    assert sorted(list(q._slices) for q in quotients) == [[0], [1], [2], [3]]


def test_a_caller_cannot_change_a_shared_table_entry():
    algebra = coinvariant_algebra(3)
    # x2 x3 is not a staircase monomial; it reduces to x1^2
    reduced = algebra.normal_form({(0, 1, 1): 1})
    assert reduced == {(2, 0, 0): 1}
    for mono in ((0, 1, 1), (2, 0, 0)):
        entry = algebra.reduce_monomial(mono)
        with pytest.raises(TypeError):
            entry[(1, 1, 0)] = 7
        with pytest.raises(TypeError):
            del entry[next(iter(entry))]
    # above the top degree every monomial reduces to the one shared zero
    with pytest.raises(TypeError):
        algebra.reduce_monomial((4, 0, 0))[(0, 0, 0)] = 1
    assert algebra.normal_form({(0, 1, 1): 1}) == reduced
    assert algebra.normal_form({(4, 0, 0): 1}) == {}
    # a normal form is the caller's own
    reduced[(1, 1, 0)] = 7
    assert algebra.normal_form({(0, 1, 1): 1}) == {(2, 0, 0): 1}
