"""Acceptance suite.

Every criterion is exact integer or rational equality; there are no numerical
tolerances anywhere in this project.  Each test prints one PASS line when it
holds, so ``pytest -s tests/test_acceptance.py`` reads as a per-criterion
checklist.

Published values are checked verbatim wherever the method can give them.  Six
of them cannot hold, and the tests for those prove it with an identity in
which no reconstructed diagram map enters:

* the even-prime column entries at fiber degrees 5, 10, 11.  For the
  three-term cosimplicial complex in fiber degree k,
  lim^0 - lim^1 + lim^2 = n0 - n1 + n2 =: chi(k), where the n_i depend only
  on the published mod-2 series of the seven spaces and the chains of the
  subset poset.  With lim^2 = 0, chi(k) = -2, -2, 0 there, while the
  published pairs give 0, 0, -1;
* the even-prime answer in degrees 6 and 11.  H^n = lim^0(n) + lim^1(n-1)
  is at least max(0, chi(n)) + max(0, -chi(n-1)), which is 4 and 2 there,
  against the published 3 and 0;
* the quoted vanishing of the product of the degree-4 and degree-8 classes
  of the rational ring.  The invariant ring is a Poincare-duality algebra of
  top degree 12 whose degree-4 and degree-8 parts are lines, so that product
  is a nonzero multiple of the top class.

At each refuted value the test requires the computed value to be the one
recorded in the matching forced-deviation registry of ``published``, and the
registry to name exactly the refuted degrees, so that an entry there cannot
excuse any other mismatch.
"""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from ecomu3 import published
from ecomu3.abelian import AbelianGroup, mod_p_series, p_primary
from ecomu3.coinvariants import CoinvariantAlgebra
from ecomu3.diagram import load_bundled
from ecomu3.diagonal import TensorSquare, invariant_ring_presentation
from ecomu3.koszul import pu3_cohomology, u3t2_cohomology
from ecomu3.limits import bk_assemble, cosimplicial_complex, higher_limits
from ecomu3.linalg import IntMatrix, smith_normal_form
from ecomu3.poset import PosetSn
from ecomu3.resolution import group_cohomology
from ecomu3.serre import (assemble_total, forced_differentials,
                          run_to_e_infinity, serre_e2_over_bg, solve_unique)

from cohomology_oracle import is_palindromic
from descent_oracle import descent_basis, maj, rank_over_q


def ok(label):
    print(f"ACCEPTANCE {label}: PASS")


# --- criterion 1: the group cohomology oracle suite -------------------------


def test_criterion_1_group_cohomology(resolution, catalog):
    for d in range(13):
        assert group_cohomology(resolution, catalog["trivial"], d) == \
            published.s3_trivial(d)
    for d in range(12):
        assert group_cohomology(resolution, catalog["standard"], d, prime=3) \
            == p_primary(published.s3_standard(d), 3)
        assert group_cohomology(resolution, catalog["sign"], d, prime=3) \
            == p_primary(published.s3_sign(d), 3)
        assert group_cohomology(resolution, catalog["sign"], d, prime=2) \
            == p_primary(published.s3_sign(d), 2)
        assert group_cohomology(resolution, catalog["standard(x)standard"], d) \
            == published.s3_standard_standard(d)
        assert group_cohomology(resolution, catalog["standard(x)sign"], d) \
            == published.s3_standard_sign(d)
        # the two-primary remarks: the twisted module has none, the tensor
        # square only its degree-zero free part
        assert group_cohomology(resolution, catalog["standard(x)sign"], d,
                                prime=2).is_trivial
        mm2 = group_cohomology(resolution, catalog["standard(x)standard"], d,
                               prime=2)
        assert mm2 == (AbelianGroup(free_rank=1) if d == 0 else AbelianGroup())
    ok("1 (group cohomology tables, exact)")


# --- criterion 2: the unordered flag threefold ------------------------------


@pytest.fixture(scope="module")
def flbar3_reps(catalog):
    return {0: [catalog["trivial"]], 2: [catalog["standard"]],
            4: [catalog["standard"]], 6: [catalog["sign"]]}


@pytest.fixture(scope="module")
def fl3xfl3_reps(catalog):
    T, S, M = catalog["trivial"], catalog["sign"], catalog["standard"]
    MM, MS = catalog["standard(x)standard"], catalog["standard(x)sign"]
    return {0: [T], 2: [M] * 2,
            4: [M] * 2 + [MM],
            6: [S] * 2 + [MM] * 2,
            8: [MS] * 2 + [MM],
            10: [MS] * 2, 12: [T]}


def test_criterion_2_flbar3(resolution, flbar3_reps):
    page3 = serre_e2_over_bg(resolution, flbar3_reps, 3)
    specs3 = forced_differentials(page3, 6)
    assert len(specs3) == 1
    assert {(m.page, m.source, m.target) for m in specs3[0].moves} == \
        {(5, (2, 6), (7, 2)), (5, (3, 4), (8, 0))}
    g3 = assemble_total(run_to_e_infinity(page3, specs3[0]), 6, 6)
    assert g3 == published.FLBAR3[3]
    assert mod_p_series(g3, 3).coefficients == \
        published.FLBAR3_SERIES[3].coefficients

    page2 = serre_e2_over_bg(resolution, flbar3_reps, 2)
    specs2 = forced_differentials(page2, 6)
    assert len(specs2) == 1
    assert {(m.page, m.source, m.target) for m in specs2[0].moves} == \
        {(7, (1, 6), (8, 0))}
    g2 = assemble_total(run_to_e_infinity(page2, specs2[0]), 6, 6)
    assert g2 == published.FLBAR3[2]
    assert mod_p_series(g2, 2).coefficients == \
        published.FLBAR3_SERIES[2].coefficients
    ok("2 (unordered flag threefold: tables, series, unique differentials)")


# --- criterion 3: the twisted square ----------------------------------------


def test_criterion_3_twisted_square(resolution, fl3xfl3_reps):
    for p in (3, 2):
        table, want_series, note = published.SERRE["fl3xfl3", p]
        page = serre_e2_over_bg(resolution, fl3xfl3_reps, p)
        specs = forced_differentials(page, 12)
        assert len(specs) == 1
        graded = assemble_total(run_to_e_infinity(page, specs[0]), 6, 12)
        assert graded == table
        series = mod_p_series(graded, p)
        assert series.coefficients == want_series.coefficients
        if p == 3:
            assert is_palindromic(series, 12)
            # the printed series' duplicated degree-4 term is recorded,
            # not matched
            assert note
    ok("3 (twisted square: tables, both series, recorded series discrepancy)")


# --- criterion 4: the blockwise-torus quotient -------------------------------


def test_criterion_4_torus_quotient():
    out2 = u3t2_cohomology(2)
    assert set(out2["presentation"].formatted_relations()) == \
        published.U3T2_RELATIONS[2]
    assert out2["series"].coefficients == (1, 0, 1, 0, 0, 1, 0, 1)
    steps2 = {s["generator"]: s for s in out2["steps"]}
    assert steps2["z1"]["reduced"] == "b2" and steps2["z1"]["dies"]
    assert steps2["z3"]["reduced"] == "b1^2" and steps2["z3"]["dies"]
    assert steps2["z5"]["reduced"] == "0" and not steps2["z5"]["dies"]

    out3 = u3t2_cohomology(3)
    assert set(out3["presentation"].formatted_relations()) == \
        published.U3T2_RELATIONS[3]
    assert out3["series"].coefficients == (1, 0, 1, 1, 1, 1, 0, 1)
    steps3 = {s["generator"]: s for s in out3["steps"]}
    assert steps3["z1"]["raw"] == "2*b1 + b2" and steps3["z1"]["dies"]
    assert steps3["z3"]["raw"] == "b1^2 + 2*b1*b2"
    assert steps3["z3"]["reduced"] == "0" and not steps3["z3"]["dies"]
    assert steps3["z5"]["reduced"] == "b1^3" and steps3["z5"]["dies"]
    ok("4 (torus quotient: presentations, series, transgression checks)")


# --- criterion 5: higher limits ----------------------------------------------


@pytest.fixture(scope="module")
def diagram2():
    return load_bundled(2)


@pytest.fixture(scope="module")
def diagram3():
    return load_bundled(3)


def test_criterion_5_shapes_and_worked_degrees(diagram2):
    for k, want in published.WORKED_SHAPES[2].items():
        dims, _, _ = cosimplicial_complex(diagram2, k)
        assert dims == want
    for k, want in published.WORKED_LIMS[2].items():
        l0, l1, l2 = higher_limits(diagram2, k)
        assert (l0, l1) == want
    ok("5a (complex shapes and outcomes at the worked degrees)")


def test_criterion_5_lim2_vanishes(diagram2, diagram3):
    for d in (diagram2, diagram3):
        for k in range(15):
            assert higher_limits(d, k)[2] == 0
    ok("5b (second derived limit vanishes, both primes, k <= 14)")


def test_criterion_5_mod3_columns(diagram3):
    for k in range(15):
        l0, l1, _ = higher_limits(diagram3, k)
        assert l0 == published.E2_COLUMNS[3]["lim0"].get(k, 0), k
        assert l1 == published.E2_COLUMNS[3]["lim1"].get(k, 0), k
    # nothing is refuted at p=3, so nothing may be recorded
    assert published.E2_COLUMNS_FORCED_DEVIATIONS[3] == {}
    ok("5c (odd-prime column lists, exact)")


def _mod2_euler_characteristic(k):
    """chi(k) = n0 - n1 + n2 of the even-prime complex in fiber degree k.

    Computed from the published mod-2 series of the seven spaces and the
    chains of the subset poset alone: whatever the maps,
    lim^0 - lim^1 + lim^2 = chi(k).
    """
    poset = PosetSn(2)

    def dim(i):
        series = published.DIAGRAM_SERIES[2][i]
        return series[k] if 0 <= k < len(series) else 0

    return (sum(dim(i) for i in range(len(poset)))
            - sum(dim(b) for _, b in poset.chains2)
            + sum(dim(c) for _, _, c in poset.chains3))


@pytest.mark.parametrize("k", range(15))
def test_criterion_5_mod2_columns(diagram2, k):
    """Published even-prime columns, checked against lim^0 - lim^1 = chi(k).

    With lim^2 = 0 (criterion 5b), a published pair whose difference is not
    chi(k) is unattainable from the published series, whatever the maps.
    That happens at k = 5, 10, 11: chi = -2, -2, 0 against 0, 0, -1.  There
    the computed pair must be the one in E2_COLUMNS_FORCED_DEVIATIONS[2], and
    that registry must name exactly the refuted degrees.

    The identity fixes only the difference.  At k = 5 and 10 the computed
    lim^0 is the published one.  At k = 11 the split (1, 1), rather than
    (0, 0), comes from the lim^0 target in tools/make_diagram_data.py, and
    the paper does not settle it; criterion 8e is the evidence that the
    split does not depend on the reconstructed maps.
    """
    columns = published.E2_COLUMNS[2]
    pairs = {j: (columns["lim0"].get(j, 0), columns["lim1"].get(j, 0))
             for j in range(15)}
    forced = published.E2_COLUMNS_FORCED_DEVIATIONS[2]
    refuted = {j for j, (a, b) in pairs.items()
               if a - b != _mod2_euler_characteristic(j)}
    assert set(forced) == refuted

    chi = _mod2_euler_characteristic(k)
    l0, l1, l2 = higher_limits(diagram2, k)
    assert l2 == 0 and l0 - l1 == chi, (k, (l0, l1, l2), chi)
    want = pairs[k]
    if k in refuted:
        assert (l0, l1) == forced[k], (k, (l0, l1), forced[k])
        ok(f"5d (even-prime columns at k={k}: published {want} refuted by "
           f"lim0 - lim1 = chi = {chi}; computed {(l0, l1)})")
    else:
        assert (l0, l1) == want, f"k={k}: computed {(l0, l1)}, published {want}"
        ok(f"5d (even-prime columns at k={k})")


# --- criterion 6: the end-to-end answer --------------------------------------


def test_criterion_6_mod3(diagram3):
    dims, _ = bk_assemble(diagram3)
    dims += [0] * (15 - len(dims))
    assert dims == published.ECOM_U3[3]
    assert published.ECOM_U3_FORCED_DEVIATIONS[3] == {}
    ok("6a (odd-prime table, exact)")


def _mod2_lower_bound(n):
    """The least H^n = lim^0(n) + lim^1(n-1) that lim^0 - lim^1 = chi allows."""
    return (max(0, _mod2_euler_characteristic(n))
            + max(0, -_mod2_euler_characteristic(n - 1)))


@pytest.mark.parametrize("d", list(range(15)))
def test_criterion_6_mod2(diagram2, d):
    """Published even-prime answer, degree by degree, against its lower bound.

    Since lim^0 and lim^1 are nonnegative with difference chi, H^n is at
    least max(0, chi(n)) + max(0, -chi(n-1)).  The published values in
    degrees 6 and 11 (3 and 0) fall below that bound (4 and 2).  There the
    computed value must be the one in ECOM_U3_FORCED_DEVIATIONS[2], and
    that registry must name exactly the degrees below the bound.
    """
    forced = published.ECOM_U3_FORCED_DEVIATIONS[2]
    refuted = {n for n in range(15)
               if published.ECOM_U3[2][n] < _mod2_lower_bound(n)}
    assert set(forced) == refuted

    dims, _ = bk_assemble(diagram2)
    dims += [0] * (15 - len(dims))
    bound = _mod2_lower_bound(d)
    want = published.ECOM_U3[2][d]
    assert dims[d] >= bound, (d, dims[d], bound)
    if d in refuted:
        assert dims[d] == forced[d], (d, dims[d], forced[d])
        ok(f"6b (even-prime table at degree {d}: published {want} refuted by "
           f"H^n >= max(0, chi(n)) + max(0, -chi(n-1)) = {bound}; "
           f"computed {dims[d]})")
    else:
        assert dims[d] == want, f"degree {d}: computed {dims[d]}, published {want}"
        ok(f"6b (even-prime table at degree {d})")


# --- criterion 7: the rational ring -------------------------------------------


def test_criterion_7_rational_ring():
    pres, checks, basis, discrepancies = invariant_ring_presentation()
    assert "2*g4^2 == -avg(x1x2 (x) y2y3)" in checks
    assert "3*g6*g6' == 2*avg(x1^2x2 (x) y3^2y2)" in checks
    ts = TensorSquare(3)
    degrees = sorted(ts.cohomological_degree(cls) or 0
                     for _, cls in descent_basis(3))
    majs = sorted(2 * (maj(w) + maj(_inverse(w)))
                  for w, _ in descent_basis(3))
    assert degrees == majs == [0, 4, 6, 6, 8, 12]
    assert pres.poincare_polynomial(12).coefficients == \
        published.RATIONAL_SERIES.coefficients
    ok("7 (relations, basis degrees by the maj statistic, Poincare polynomial)")


def test_criterion_7_quoted_vanishing_of_all_other_products():
    """The quoted relation list: every product of two non-unit basis classes
    vanishes except g4*g4 and g6*g6'.

    Checked directly for every other pair but g4*c8, where c8 is the
    degree-8 basis class.  That product cannot vanish: the pairings of the
    descent basis into the degree-12 line are nonsingular, so the invariant
    ring is a Poincare-duality algebra, and its degree-4 and degree-8 parts
    are lines.  Exact arithmetic gives -6 g4*c8 = c12.  The presentation must
    record this as its one discrepancy.
    """
    ts = TensorSquare(3)

    def avg(ex, ey):
        return ts.averaging({(ex, ey): Fraction(1)})

    def on_line(element, line):
        """The scalar c with element == c * line."""
        key = next(iter(line))
        c = Fraction(element.get(key, 0)) / line[key]
        assert ts.scale(c, line) == element, (element, line)
        return c

    named = {"g4": avg((1, 0, 0), (0, 1, 0)),
             "g6": avg((1, 0, 0), (0, 1, 1)),
             "g6'": avg((1, 1, 0), (0, 0, 1)),
             "c8": avg((1, 1, 0), (0, 1, 1)),
             "c12": avg((2, 1, 0), (0, 1, 2))}
    quoted_nonzero = {("g4", "g4"), ("g6", "g6'")}
    refuted = ("g4", "c8")
    for a, b in combinations_with_replacement(named, 2):
        if (a, b) not in quoted_nonzero | {refuted}:
            assert ts.multiply(named[a], named[b]) == {}, f"{a}*{b} != 0"

    g4, c8, c12 = named["g4"], named["c8"], named["c12"]
    product = ts.multiply(g4, c8)
    assert product != {}
    assert ts.scale(Fraction(-6), product) == c12, (product, c12)

    by_degree = {}
    for _, cls in descent_basis(3):
        by_degree.setdefault(ts.cohomological_degree(cls) or 0, []).append(cls)
    assert [len(by_degree[d]) for d in (4, 8, 12)] == [1, 1, 1]
    assert on_line(by_degree[12][0], c12) != 0
    assert on_line(g4, by_degree[4][0]) != 0
    assert on_line(c8, by_degree[8][0]) != 0
    for d in (4, 6):
        pairing = [[on_line(ts.multiply(x, y), c12) for y in by_degree[12 - d]]
                   for x in by_degree[d]]
        assert _det(pairing) != 0, (d, pairing)

    _, _, _, discrepancies = invariant_ring_presentation()
    assert len(discrepancies) == 1, discrepancies
    assert "8*g4^3 - g6*g6'" in discrepancies[0]
    ok("7x (quoted vanishing holds for 12 of the 13 other products; "
       "g4*c8 = 0 refuted by Poincare duality: -6 g4*c8 == c12)")


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _inverse(w):
    inv = [0] * len(w)
    for i, wi in enumerate(w):
        inv[wi] = i
    return tuple(inv)


# --- criterion 8: property suites ---------------------------------------------


def test_criterion_8_snf_thousand():
    rng = random.Random(802)
    for _ in range(1000):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        A = IntMatrix(m, n, [rng.randint(-9, 9) for _ in range(m * n)])
        s = smith_normal_form(A)
        assert s.U * s.D * s.V == A
        f = s.invariant_factors
        assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
    ok("8a (Smith reconstruction on 1000 random matrices)")


def test_criterion_8_resolution_exactness(resolution):
    resolution.verify()
    ok("8b (resolution exactness and equivariance)")


def test_criterion_8_projector_properties():
    from itertools import permutations
    ts = TensorSquare(3)
    rng = random.Random(21)
    stair = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 0)]
    for _ in range(20):
        el = ts.normal_form({(rng.choice(stair), rng.choice(stair)):
                             Fraction(rng.randint(-3, 3)) for _ in range(3)})
        avg = ts.averaging(el)
        assert ts.averaging(avg) == avg
        for w in permutations(range(3)):
            assert ts.permute(w, avg) == avg
    assert rank_over_q([cls for _, cls in descent_basis(3)]) == 6
    ok("8c (averaging idempotent and invariant; descent classes independent)")


def test_criterion_8_palindromic_series(resolution, flbar3_reps, fl3xfl3_reps):
    page = serre_e2_over_bg(resolution, flbar3_reps, 2)
    g = assemble_total(run_to_e_infinity(page, solve_unique(page, 6)), 6, 6)
    assert is_palindromic(mod_p_series(g, 2), 6)
    for p in (2, 3):
        page = serre_e2_over_bg(resolution, fl3xfl3_reps, p)
        g = assemble_total(run_to_e_infinity(page, solve_unique(page, 12)), 6, 12)
        assert is_palindromic(mod_p_series(g, p), 12)
        assert is_palindromic(u3t2_cohomology(p)["series"], 7)
        assert is_palindromic(pu3_cohomology(p)["series"], 8)
    ok("8d (palindromic series for the four closed manifolds)")


def test_criterion_8_robustness(sweeps):
    for d, results in sweeps:
        assert results
        for key, res in results.items():
            assert res["stable"], (d.prime, key)
    ok("8e (limits constant across all compatible diagram-map variants)")
