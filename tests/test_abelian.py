"""Abelian group canonical forms and complex cohomology."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ecomu3.abelian import (AbelianGroup, CompositionNonzero, PoincareSeries,
                            cohomology_at, cohomology_dim_modp, mod_p_series,
                            p_primary, zero_map_from, zero_map_into)
from ecomu3.linalg import IntMatrix, kernel_basis

from cohomology_oracle import cohomology_by_kernel_coordinates


def test_canonical_form():
    assert AbelianGroup.from_cyclic_orders([2, 3]) == AbelianGroup(torsion=[6])
    assert AbelianGroup.from_cyclic_orders([2, 2, 3]) == AbelianGroup(torsion=[2, 6])
    assert AbelianGroup.from_cyclic_orders([4, 6]) == AbelianGroup(torsion=[2, 12])
    assert AbelianGroup.from_cyclic_orders([0, 0]) == AbelianGroup(free_rank=2)
    with pytest.raises(ValueError):
        AbelianGroup(torsion=[4, 2])
    g = AbelianGroup(free_rank=1, torsion=[2, 6])
    assert AbelianGroup.from_json(g.to_json()) == g
    assert str(g) == "Z + Z/2 + Z/6"


def test_direct_sum():
    a = AbelianGroup(free_rank=1, torsion=[2])
    b = AbelianGroup(torsion=[3])
    assert a.direct_sum(b) == AbelianGroup(free_rank=1, torsion=[6])


def test_p_primary():
    assert p_primary(AbelianGroup(torsion=[6]), 3) == AbelianGroup(torsion=[3])
    assert p_primary(AbelianGroup(torsion=[6]), 2) == AbelianGroup(torsion=[2])
    assert p_primary(AbelianGroup(free_rank=1), 5) == AbelianGroup(free_rank=1)
    assert p_primary(AbelianGroup(torsion=[4, 12]), 2) == AbelianGroup(torsion=[4, 4])
    with pytest.raises(ValueError):
        p_primary(AbelianGroup(), 4)


def test_cohomology_zero_maps():
    g = cohomology_at(zero_map_into(5), zero_map_from(5))
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
    kernel = kernel_basis(d_out)
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
    a = PoincareSeries([1, 1])
    b = PoincareSeries([1, 1, 1])
    c = PoincareSeries([1, 0, 2])
    assert (a * b).coefficients == (b * a).coefficients
    assert ((a * b) * c).coefficients == (a * (b * c)).coefficients
    # the flag threefold staircase count in doubled degrees
    assert (a * b).inflate(2).coefficients == (1, 0, 2, 0, 2, 0, 1)
    assert PoincareSeries([1, 2, 1]).is_palindromic()
    assert not PoincareSeries([1, 2, 0, 1]).is_palindromic()
    with pytest.raises(ValueError):
        PoincareSeries([1, -1])


def test_series_strips_trailing_zeros():
    assert PoincareSeries([1, 0, 2, 0, 0]).coefficients == (1, 0, 2)
    assert str(PoincareSeries([1, 1, 0, 3])) == "1 + t + 3t^3"
