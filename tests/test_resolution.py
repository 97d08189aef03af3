"""Free resolutions over the group ring and group cohomology.

The expected cohomology values are the published tables; degree zero is also
checked against the brute-force invariant computation, and everything is
recomputed from a resolution built with a permuted generator-selection order.
The period-4 oracle (Swan) reads each degree through the kernel-coordinates
route of ``cohomology_oracle``, not through the deduplicated tables.
"""

import pytest

from cohomology_oracle import (cyclic_group, invariants_degree_zero,
                               periodicity_verify)
from ecomu3 import linalg, published
from ecomu3.abelian import AbelianGroup
from ecomu3.groups import symmetric_group, trivial_module
from ecomu3.linalg import invariant_factors
from ecomu3.matrix import IntMatrix
from ecomu3.resolution import (FreeResolution, ResolutionFailure, free_resolution,
                               greedy_generators, group_cohomology,
                               group_cohomology_table)


def test_c2_periodic_resolution():
    c2 = cyclic_group(2)
    res = free_resolution(c2, 9)
    assert res.ranks == [1] * 10
    res.verify()
    # boundaries alternate multiplication by (1 - t) and (1 + t): verified by
    # exactness, not matrix equality; the cohomology pattern pins them down
    table = group_cohomology_table(res, trivial_module(c2), 7)
    want = [AbelianGroup(free_rank=1)] + [
        AbelianGroup(torsion=[2]) if d % 2 == 0 else AbelianGroup()
        for d in range(1, 8)]
    assert table == want
    assert periodicity_verify(res, trivial_module(c2), 2, 8)


def test_s3_resolution_verifies(resolution):
    assert resolution.ranks[0] == 1
    assert max(resolution.ranks) <= 13
    resolution.verify()


@pytest.mark.parametrize("defect, homology", [("dropped", "Z"),
                                               ("doubled", "Z/2")])
def test_verify_rejects_non_exact(defect, homology):
    # The last generator at the top degree is not in the span of the other
    # orbits, so losing it (a rank defect) or keeping only twice it (a Z/2
    # that only the invariant factors see) breaks exactness one degree down.
    group = symmetric_group(3)
    good = free_resolution(group, 4)
    *top, last = good.generator_vectors[-1]
    if defect == "doubled":
        top.append([2 * x for x in last])
    bad = FreeResolution(group, good.ranks[:-1] + [len(top)],
                         good.generator_vectors[:-1] + [top])
    with pytest.raises(ResolutionFailure,
                       match=f"not exact at degree 3: {homology}$"):
        bad.verify()


def test_build_eliminates_each_boundary_once(monkeypatch):
    # the greedy step's elimination of d_{k-1} also gives the invariant
    # factors verify() reads, so the ten distinct boundaries (augmentation
    # included) of the S3 resolution are eliminated once each
    calls = []
    original = linalg._eliminate

    def counting(A, full, vinv):
        calls.append((A.rows, A.cols))
        return original(A, full, vinv)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    res = free_resolution(symmetric_group(3), 15)
    distinct = sorted({res.first_equal_degree(k) for k in range(16)})
    assert distinct == list(range(10))
    assert len(calls) == 10
    stored = [res.boundary_factors(j) for j in distinct]
    assert len(calls) == 10
    assert stored == [invariant_factors(res.boundary(j) if j else res.augmentation())
                      for j in distinct]


def test_verify_checks_each_generator_against_the_boundary_below():
    # d_{k-1} d_k = 0 is checked on the generator images of d_k alone; a
    # generator outside ker d_{k-1} at a degree the build does not copy fails
    group = symmetric_group(3)
    good = free_resolution(group, 5)
    assert good.first_equal_degree(3) == 3
    gens = [[list(v) for v in step] for step in good.generator_vectors]
    outside = [0] * len(gens[2][0])
    outside[0] = 1                       # column 0 of d_2, which is nonzero
    assert any(good.boundary(2).column(0))
    gens[2][0] = outside
    bad = FreeResolution(group, good.ranks, gens)
    with pytest.raises(ResolutionFailure, match="d_2 d_3 != 0"):
        bad.verify()


def test_verify_refuses_a_column_outside_the_kernel_off_the_generators():
    # a non-generator column of d_3 outside ker d_2 passes the generator-only
    # d^2 check; the equivariance check must refuse it
    group = symmetric_group(3)
    good = free_resolution(group, 5)
    bad = FreeResolution(group, good.ranks, good.generator_vectors)
    d3 = good.boundary(3)
    cols = [d3.column(c) for c in range(d3.cols)]
    cols[1] = [1] + [0] * (d3.rows - 1)
    assert any(good.boundary(2).column(0))
    bad._boundaries[3] = IntMatrix.from_columns(cols, rows=d3.rows)
    with pytest.raises(ResolutionFailure, match="boundary 3 not equivariant"):
        bad.verify()


def test_boundary_squared_zero(resolution):
    aug = resolution.augmentation()
    for k in range(1, resolution.length + 1):
        prev = aug if k == 1 else resolution.boundary(k - 1)
        assert (prev * resolution.boundary(k)).is_zero()


@pytest.mark.parametrize("name", ["trivial", "standard", "sign",
                                  "standard(x)standard", "standard(x)sign"])
def test_s3_cohomology_tables(resolution, catalog, name):
    expected = published.S3_COHOMOLOGY[name]
    table = group_cohomology_table(resolution, catalog[name], 12)
    for d, got in enumerate(table):
        assert got == expected(d), f"H^{d}(S3; {name}) = {got}"


def test_degree_zero_is_brute_force_invariants(resolution, catalog):
    for name, mod in catalog.items():
        assert group_cohomology(resolution, mod, 0) == invariants_degree_zero(mod)


def test_torsion_divides_group_order(resolution, catalog):
    for mod in catalog.values():
        for d in range(12):
            for t in group_cohomology(resolution, mod, d).torsion:
                assert 6 % t == 0


def test_results_independent_of_resolution(catalog):
    alt = free_resolution(symmetric_group(3), 12, generator_order="reversed")
    base = free_resolution(symmetric_group(3), 12)
    assert alt.ranks != base.ranks or alt.generator_vectors != base.generator_vectors
    for name, mod in catalog.items():
        a = group_cohomology_table(base, mod, 11)
        b = group_cohomology_table(alt, mod, 11)
        assert a == b, name


def test_periodicity(resolution, catalog):
    # Swan: S3 has periodic cohomology of period 4 past degree 0, whatever
    # the coefficients and whichever resolution computes it
    alt = free_resolution(symmetric_group(3), 15, generator_order="reversed")
    for res in (resolution, alt):
        for name, mod in catalog.items():
            assert periodicity_verify(res, mod, 4, 14), name
    assert not periodicity_verify(resolution, catalog["sign"], 3, 11)
    with pytest.raises(ValueError):
        periodicity_verify(resolution, catalog["trivial"], 4, 4)


@pytest.mark.parametrize("order", ["hermite", "reversed"])
def test_greedy_step_reproduces_every_degree(order):
    # the build copies degrees past the first repeated boundary; rerunning
    # the greedy step on each stored boundary must give the stored next one
    # and the stored invariant factors
    group = symmetric_group(3)
    res = free_resolution(group, 15, generator_order=order)
    assert res.first_equal_degree(15) < 15
    for k in range(1, 16):
        if k == 1:
            prev = res.augmentation()
        else:
            alone = FreeResolution(group, res.ranks[k - 2:k],
                                   [res.generator_vectors[k - 2]])
            prev = alone.boundary(1)
        assert greedy_generators(group, prev, order) == (
            res.generator_vectors[k - 1], res.boundary_factors(k - 1)), k


def test_verify_checks_copied_degrees(resolution):
    # degree 12 is a copy of degree 8; once it differs, verify must check it
    assert resolution.first_equal_degree(12) == 8
    gens = [[list(v) for v in step] for step in resolution.generator_vectors]
    gens[11][-1] = [2 * x for x in gens[11][-1]]
    bad = FreeResolution(resolution.group, resolution.ranks, gens)
    assert bad.first_equal_degree(12) == 12
    with pytest.raises(ResolutionFailure, match="d_12 d_13 != 0"):
        bad.verify()


def test_p_primary_tables(resolution, catalog):
    # the 3- and 2-primary extractions used by the spectral sequences
    from ecomu3.abelian import p_primary
    ms3 = [group_cohomology(resolution, catalog["standard(x)sign"], d, prime=3)
           for d in range(12)]
    assert [g == AbelianGroup(torsion=[3]) for g in ms3] == \
        [d % 4 == 1 for d in range(12)]
    s2 = [group_cohomology(resolution, catalog["sign"], d, prime=2)
          for d in range(12)]
    assert [g == AbelianGroup(torsion=[2]) for g in s2] == \
        [d % 2 == 1 for d in range(12)]
    mm2 = [group_cohomology(resolution, catalog["standard(x)standard"], d, prime=2)
           for d in range(12)]
    assert mm2[0] == AbelianGroup(free_rank=1)
    assert all(g.is_trivial for g in mm2[1:])
    m2 = [group_cohomology(resolution, catalog["standard"], d, prime=2)
          for d in range(12)]
    assert all(g.is_trivial for g in m2)


def test_resolution_too_short(resolution, catalog):
    short = free_resolution(symmetric_group(3), 2)
    with pytest.raises(ResolutionFailure):
        group_cohomology(short, catalog["trivial"], 4)
