"""The bundled diagrams: validation, shapes, column lists, robustness."""

import subprocess
import sys
from pathlib import Path

import pytest

from ecomu3 import published
from ecomu3.diagram import load_bundled
from ecomu3.limits import (bk_assemble, cosimplicial_complex, higher_limits,
                           lim2_vanishing_check)
from ecomu3.robustness import check_block

from dense_oracle import dense


@pytest.fixture(scope="module")
def diagram_p2():
    return load_bundled(2)


@pytest.fixture(scope="module")
def diagram_p3():
    return load_bundled(3)


def test_validate_both(diagram_p2, diagram_p3):
    assert diagram_p2.validate()
    assert diagram_p3.validate()


def test_mod2_dims_are_printed_series(diagram_p2):
    for obj, series in published.DIAGRAM_SERIES_P2.items():
        got = diagram_p2.dims[obj]
        assert got[:len(series)] == series
        assert all(c == 0 for c in got[len(series):])


def test_middle_spaces_agree(diagram_p2, diagram_p3):
    for d in (diagram_p2, diagram_p3):
        assert d.dims[4] == d.dims[6]


def test_worked_complex_shapes(diagram_p2):
    for k, want in published.WORKED_SHAPES_P2.items():
        dims, _, _ = cosimplicial_complex(diagram_p2, k)
        assert dims == want, k


def test_worked_lims(diagram_p2):
    for k, want in published.WORKED_LIMS_P2.items():
        l0, l1, l2 = higher_limits(diagram_p2, k)
        assert (l0, l1) == want and l2 == 0


def test_k3_middle_cohomology_dimension(diagram_p2):
    # the middle cohomology of the 9 -> 22 -> 12 complex is one-dimensional
    from ecomu3.abelian import cohomology_dim_modp
    (n0, n1, n2), d0, d1 = cosimplicial_complex(diagram_p2, 3)
    assert (n0, n1, n2) == (9, 22, 12)
    assert cohomology_dim_modp(dense(d0, n0), dense(d1, n1), 2) == 1


def test_lim2_vanishes_everywhere(diagram_p2, diagram_p3):
    for d in (diagram_p2, diagram_p3):
        for k in range(15):
            assert lim2_vanishing_check(d, k), (d.prime, k)
            assert higher_limits(d, k)[2] == 0


def alternating_sum(coefficients):
    return sum((-1) ** n * c for n, c in enumerate(coefficients))


def test_euler_characteristic_consistency(diagram_p2, diagram_p3):
    """The total Euler characteristic is 6 at both primes, as over Q.

    sum (-1)^n dim H^n(E_com U(3); F_p) does not depend on p, so it equals
    the rational ring's, which ``diagonal`` computes with no diagram.  The
    reported answers cover degrees 0..14 and miss nothing above: H^n is
    lim^0(n) + lim^1(n-1) + lim^2(n-2), lim^0 and lim^1 vanish above 14 (the
    top degree of the seven series), lim^2 = 0 in every degree and the
    computed lim^1(14) is 0, so H^15 = H^16 = 0.  The published mod-3 table
    sums to 6 and the published mod-2 table to 7, which refutes the mod-2
    table with no diagram map.  Each of the seven spaces has one Euler
    characteristic at both primes as well.
    """
    from ecomu3.diagonal import invariant_ring_presentation
    pres = invariant_ring_presentation()[0]
    rational = alternating_sum(pres.poincare_polynomial(12).coefficients)
    assert rational == 6
    for d in (diagram_p2, diagram_p3):
        assert d.max_degree == 14
        assert all(len(series) == 15 for series in d.dims.values())
        dims, lims = bk_assemble(d)
        assert lims[14][1] == 0 and len(dims) <= 15
        assert alternating_sum(dims) == rational, d.prime
    assert alternating_sum(published.ECOM_U3_MOD3) == rational
    assert alternating_sum(published.ECOM_U3_MOD2) == 7
    assert diagram_p2.dims.keys() == diagram_p3.dims.keys()
    for obj in diagram_p2.dims:
        assert alternating_sum(diagram_p2.dims[obj]) == \
            alternating_sum(diagram_p3.dims[obj]), obj


def test_mod3_columns_match_published(diagram_p3):
    want0 = published.E2_COLUMNS_P3["lim0"]
    want1 = published.E2_COLUMNS_P3["lim1"]
    for k in range(15):
        l0, l1, _ = higher_limits(diagram_p3, k)
        assert l0 == want0.get(k, 0), f"lim0 at {k}"
        assert l1 == want1.get(k, 0), f"lim1 at {k}"


def test_mod2_columns_match_except_forced(diagram_p2):
    """The three starred degrees cannot match the published list.

    The Euler characteristic of the degree-k complex equals lim0 - lim1, and
    the printed series of the seven spaces pin it to -2, -2, 0 at k = 5, 10,
    11 while the published columns claim 0, 0, -1.  The bundled data realizes
    the forced values; every other degree matches the published list, and
    the registry names exactly the degrees where the two differ.
    """
    want0 = published.E2_COLUMNS_P2["lim0"]
    want1 = published.E2_COLUMNS_P2["lim1"]
    forced = published.E2_COLUMNS_P2_FORCED_DEVIATIONS
    computed = {k: higher_limits(diagram_p2, k)[:2] for k in range(15)}
    differ = {k for k, pair in computed.items()
              if pair != (want0.get(k, 0), want1.get(k, 0))}
    assert set(forced) == differ
    for k in differ:
        assert computed[k] == forced[k], f"forced value at {k}"


def test_assembled_tables(diagram_p2, diagram_p3):
    dims3, _ = bk_assemble(diagram_p3)
    dims3 += [0] * (15 - len(dims3))
    assert dims3 == published.ECOM_U3_MOD3
    dims2, _ = bk_assemble(diagram_p2)
    dims2 += [0] * (15 - len(dims2))
    forced = published.ECOM_U3_MOD2_FORCED_DEVIATIONS
    differ = {d for d in range(15) if dims2[d] != published.ECOM_U3_MOD2[d]}
    assert set(forced) == differ
    for d in differ:
        assert dims2[d] == forced[d], d


def test_robustness_sweep(sweeps):
    """(lim0, lim1) is constant over every compatible variant of each
    under-determined block (kernel- and image-preserving twists of the four
    free lower arrows, re-completed to a functorial diagram)."""
    for d, results in sweeps:
        assert results, "no under-determined blocks found"
        for key, res in results.items():
            assert res["stable"], (d.prime, key, res)
            assert res["compatible"] >= 1


def test_robustness_exhaustive_small_blocks(diagram_p2):
    res = check_block(diagram_p2, (2, 4), 3)
    assert res is not None and res["exhaustive"] and res["stable"]


def test_provenance_and_notes(diagram_p2, diagram_p3):
    assert diagram_p2.provenance["dims"] == "[PAPER]"
    assert diagram_p3.provenance["dims"] == "[DERIVED]"
    assert any("recorded discrepancy" in n for n in diagram_p2.notes)


def test_json_round_trip(diagram_p2):
    from ecomu3.diagram import PosetDiagram
    clone = PosetDiagram.from_json(diagram_p2.to_json())
    assert clone.dims == diagram_p2.dims
    for key, per in diagram_p2.maps.items():
        for k, m in per.items():
            if m.rows and m.cols:
                assert clone.maps[key][k] == m
    clone.validate()


def test_diagram_tool_regenerates_bundled_files(tmp_path):
    """tools/make_diagram_data.py rebuilds both data files byte for byte."""
    root = Path(__file__).resolve().parent.parent
    subprocess.run([sys.executable, str(root / "tools" / "make_diagram_data.py"),
                    str(tmp_path)], check=True, capture_output=True)
    for p in (2, 3):
        name = f"diagram_p{p}.json"
        bundled = root / "src" / "ecomu3" / "data" / name
        assert (tmp_path / name).read_bytes() == bundled.read_bytes(), name
