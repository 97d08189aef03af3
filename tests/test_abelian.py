"""Abelian group canonical forms and complex cohomology."""

import random
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from ecomu3.abelian import (AbelianGroup, CompositionNonzero, PoincareSeries,
                            cohomology_at, cohomology_dim_modp, mod_p_series,
                            p_primary)
from ecomu3.linalg import IntMatrix, smith_normal_form

from cohomology_oracle import cohomology_by_kernel_coordinates
from snf_oracle import kernel_columns


def inflate(series, k):
    """The series with t -> t^k substituted."""
    out = [0] * (k * len(series.coefficients))
    for i, c in enumerate(series.coefficients):
        out[k * i] = c
    return PoincareSeries(out)


def test_canonical_form():
    with pytest.raises(ValueError):
        AbelianGroup(torsion=[4, 2])
    g = AbelianGroup(free_rank=1, torsion=[2, 6])
    assert str(g) == "Z + Z/2 + Z/6"


def test_records_are_frozen_values():
    # what @dataclass(frozen=True) gave: value equality and hash, a field
    # repr, no assignment -- and no equality with a plain tuple
    from ecomu3.serre import Move
    move = Move(2, (1, 1), 1)
    records = [(AbelianGroup(1, [2]), AbelianGroup(free_rank=1, torsion=(2,)),
                "AbelianGroup(free_rank=1, torsion=(2,))", (1, (2,))),
               (PoincareSeries([1, 0, 2, 0]), PoincareSeries((1, 0, 2)),
                "PoincareSeries(coefficients=(1, 0, 2))", ((1, 0, 2),)),
               (move, Move(2, (1, 1), 1), "Move(page=2, source=(1, 1), rank=1)",
                (2, (1, 1), 1))]
    for a, b, text, fields in records:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert repr(a) == text
        assert a != fields
        name = type(a).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert AbelianGroup(1) != AbelianGroup(2)
    assert move != Move(2, (1, 1), 2)


def test_p_primary():
    assert p_primary(AbelianGroup(torsion=[6]), 3) == AbelianGroup(torsion=[3])
    assert p_primary(AbelianGroup(torsion=[6]), 2) == AbelianGroup(torsion=[2])
    assert p_primary(AbelianGroup(free_rank=1), 5) == AbelianGroup(free_rank=1)
    assert p_primary(AbelianGroup(torsion=[4, 12]), 2) == AbelianGroup(torsion=[4, 4])
    with pytest.raises(ValueError):
        p_primary(AbelianGroup(), 4)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(1, 12), max_size=5),
       st.sampled_from([2, 3, 5, 7]))
def test_p_primary_of_a_chain(free, steps, p):
    """Each factor t of a chain t_i = t_(i-1) * step_i becomes p^v_p(t),
    a chain again, keeping the free rank and the count of p-torsion."""
    torsion, t = [], 1
    for step in steps:
        t *= step
        torsion.append(t)
    g = AbelianGroup(free, torsion)
    h = p_primary(g, p)
    assert h.free_rank == free
    assert h.p_torsion_count(p) == g.p_torsion_count(p)
    for f in h.torsion:
        while f % p == 0:
            f //= p
        assert f == 1
    order, part = prod(g.torsion), 1
    while order % p == 0:
        order //= p
        part *= p
    assert prod(h.torsion) == part
    assert p_primary(h, p) == h


def test_cohomology_zero_maps():
    g = cohomology_at(IntMatrix.zero(5, 0), IntMatrix.zero(0, 5))
    assert g == AbelianGroup(free_rank=5)


def test_cohomology_cyclic():
    # Z --2--> Z --0--> Z has middle cohomology Z/2
    two = IntMatrix.from_rows([[2]])
    zero = IntMatrix.from_rows([[0]])
    assert cohomology_at(two, zero) == AbelianGroup(torsion=[2])
    # and a complex that fails to compose raises
    with pytest.raises(CompositionNonzero):
        cohomology_at(two, IntMatrix.from_rows([[1]]))


def test_cohomology_matches_modp_dims():
    # with the complex stopped (zero outgoing map) there is no Tor term, so
    # the F_p dimension equals free rank plus the p-torsion count exactly
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(0, 3)
        d_in = IntMatrix(n, m, [rng.randint(-3, 3) for _ in range(n * m)])
        g = cohomology_at(d_in, IntMatrix.zero(0, n))
        for p in (2, 3):
            dim = cohomology_dim_modp(d_in, IntMatrix.zero(0, n), p)
            assert dim == g.free_rank + g.p_torsion_count(p)


@st.composite
def _complexes(draw):
    """(d_in, d_out) with d_out * d_in = 0: d_in = K X for a kernel basis K of
    d_out, so the invariant factors of X show up as torsion."""
    n, rows, cols = (draw(st.integers(0, 5)) for _ in range(3))
    entries = st.integers(-4, 4)
    d_out = IntMatrix(rows, n, draw(st.lists(entries, min_size=rows * n,
                                             max_size=rows * n)))
    kernel = kernel_columns(smith_normal_form(d_out))
    x = draw(st.lists(st.lists(entries, min_size=len(kernel),
                               max_size=len(kernel)),
                      min_size=cols, max_size=cols))
    d_in = IntMatrix.from_columns(
        [[sum(c * v[i] for c, v in zip(xj, kernel)) for i in range(n)]
         for xj in x], rows=n)
    return d_in, d_out


@settings(max_examples=300, deadline=None)
@given(_complexes())
@example((IntMatrix.zero(0, 3), IntMatrix.zero(2, 0)))
@example((IntMatrix.zero(4, 0), IntMatrix.zero(0, 4)))
@example((IntMatrix.from_rows([[2, 0], [0, 6], [0, 0]]),
          IntMatrix.from_rows([[0, 0, 5]])))
def test_cohomology_matches_kernel_coordinates_oracle(complex_):
    d_in, d_out = complex_
    assert cohomology_at(d_in, d_out) == \
        cohomology_by_kernel_coordinates(d_in, d_out)


def test_mod_p_series_examples():
    graded = [AbelianGroup(free_rank=1)] + [AbelianGroup()] \
        + [AbelianGroup(torsion=[2]), AbelianGroup(), AbelianGroup(torsion=[2]),
           AbelianGroup(), AbelianGroup(torsion=[2])]
    assert mod_p_series(graded, 2).coefficients == (1, 1, 1, 1, 1, 1, 1)
    graded = [AbelianGroup(free_rank=1), AbelianGroup(), AbelianGroup(),
              AbelianGroup(), AbelianGroup(torsion=[3]), AbelianGroup(torsion=[3])]
    assert mod_p_series(graded, 3).coefficients == (1, 0, 0, 1, 2, 1)
    graded = [AbelianGroup(free_rank=4)]
    assert mod_p_series(graded, 7).coefficients == (4,)


def test_series_algebra():
    # series are compared, and hashed, by their coefficients
    assert PoincareSeries([1, 2, 2, 1, 0]) == PoincareSeries([1, 2, 2, 1])
    assert len({PoincareSeries([1, 0, 2]), PoincareSeries((1, 0, 2))}) == 1
    # the flag threefold staircase count in doubled degrees
    assert inflate(PoincareSeries([1, 2, 2, 1]), 2).coefficients == \
        (1, 0, 2, 0, 2, 0, 1)
    with pytest.raises(ValueError):
        PoincareSeries([1, -1])


def test_series_strips_trailing_zeros():
    assert PoincareSeries([1, 0, 2, 0, 0]).coefficients == (1, 0, 2)
    assert str(PoincareSeries([1, 1, 0, 3])) == "1 + t + 3t^3"
