"""Free resolutions over the group ring and group cohomology.

The expected cohomology values are the published tables; degree zero is also
checked against the brute-force invariant computation, and everything is
recomputed from a resolution built with a permuted generator-selection order.
"""

import pytest

from ecomu3 import published
from ecomu3.abelian import AbelianGroup
from ecomu3.groups import cyclic_group, symmetric_group, trivial_module
from ecomu3.resolution import (FreeResolution, ResolutionFailure, free_resolution,
                               group_cohomology, group_cohomology_table,
                               invariants_degree_zero, periodicity_verify)


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
    assert periodicity_verify(resolution, catalog["trivial"], 4, 12)
    assert periodicity_verify(resolution, catalog["standard(x)sign"], 4, 11)
    assert periodicity_verify(resolution, catalog["standard"], 4, 11)
    assert not periodicity_verify(resolution, catalog["sign"], 3, 11)
    with pytest.raises(ValueError):
        periodicity_verify(resolution, catalog["trivial"], 4, 4)


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
