"""The bundled diagrams: validation, dims, the Euler characteristic,
robustness and regeneration.  The published shapes, column lists and tables
are checked once, in the acceptance suite (criteria 5 and 6)."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from ecomu3 import published
from ecomu3.diagram import load_bundled
from ecomu3.limits import bk_assemble, cosimplicial_complex
from ecomu3.robustness import LOWER_ARROWS, check_block

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
    for obj, series in published.DIAGRAM_SERIES[2].items():
        got = diagram_p2.dims[obj]
        assert got[:len(series)] == series
        assert all(c == 0 for c in got[len(series):])


def test_middle_spaces_agree(diagram_p2, diagram_p3):
    for d in (diagram_p2, diagram_p3):
        assert d.dims[4] == d.dims[6]


def test_k3_middle_cohomology_dimension(diagram_p2):
    # the middle cohomology of the 9 -> 22 -> 12 complex is one-dimensional
    from ecomu3.abelian import cohomology_dim_modp
    (n0, n1, n2), d0, d1 = cosimplicial_complex(diagram_p2, 3)
    assert (n0, n1, n2) == (9, 22, 12)
    assert cohomology_dim_modp(dense(d0, n0), dense(d1, n1), 2) == 1


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
    assert alternating_sum(published.ECOM_U3[3]) == rational
    assert alternating_sum(published.ECOM_U3[2]) == 7
    assert diagram_p2.dims.keys() == diagram_p3.dims.keys()
    for obj in diagram_p2.dims:
        assert alternating_sum(diagram_p2.dims[obj]) == \
            alternating_sum(diagram_p3.dims[obj]), obj


def test_robustness_sweep(sweeps):
    """(lim0, lim1) is constant over every compatible variant of each
    under-determined block (kernel- and image-preserving twists of the four
    free lower arrows, re-completed to a functorial diagram)."""
    for d, results in sweeps:
        assert results, "no under-determined blocks found"
        for key, res in results.items():
            assert res["stable"], (d.prime, key, res)
            assert res["compatible"] >= 1


# (prime, arrow, degree): (baseline, variants, compatible, exhaustive, stable)
# of check_block at rng_seed 0 for every non-empty lower block of both
# bundled diagrams, as the quotient-based sweep computed them: 78 blocks,
# 2,920 variants, 2,904 compatible
SWEEP_BLOCKS_SEED0 = {
    (2, (1, 3), 0): ((1, 0), 1, 1, True, True),
    (2, (1, 3), 2): ((0, 0), 1, 1, True, True),
    (2, (1, 3), 4): ((1, 0), 1, 1, True, True),
    (2, (1, 3), 5): ((1, 3), 1, 1, True, True),
    (2, (1, 3), 7): ((0, 2), 1, 1, True, True),
    (2, (1, 3), 9): ((0, 0), 1, 1, True, True),
    (2, (1, 5), 0): ((1, 0), 1, 1, True, True),
    (2, (1, 5), 2): ((0, 0), 6, 4, True, True),
    (2, (1, 5), 4): ((1, 0), 6, 2, True, True),
    (2, (1, 5), 5): ((1, 3), 1, 1, True, True),
    (2, (1, 5), 6): ((2, 0), 1, 1, True, True),
    (2, (1, 5), 7): ((0, 2), 1, 1, True, True),
    (2, (1, 5), 9): ((0, 0), 6, 4, True, True),
    (2, (1, 5), 11): ((1, 1), 1, 1, True, True),
    (2, (2, 4), 0): ((1, 0), 1, 1, True, True),
    (2, (2, 4), 1): ((0, 0), 1, 1, True, True),
    (2, (2, 4), 2): ((0, 0), 1, 1, True, True),
    (2, (2, 4), 3): ((0, 1), 1, 1, True, True),
    (2, (2, 4), 4): ((1, 0), 1, 1, True, True),
    (2, (2, 4), 5): ((1, 3), 1, 1, True, True),
    (2, (2, 4), 6): ((2, 0), 168, 168, True, True),
    (2, (2, 4), 7): ((0, 2), 1, 1, True, True),
    (2, (2, 4), 8): ((0, 1), 6, 6, True, True),
    (2, (2, 4), 9): ((0, 0), 1, 1, True, True),
    (2, (2, 4), 10): ((0, 2), 1, 1, True, True),
    (2, (2, 4), 11): ((1, 1), 1, 1, True, True),
    (2, (2, 4), 12): ((0, 1), 1, 1, True, True),
    (2, (2, 5), 0): ((1, 0), 1, 1, True, True),
    (2, (2, 5), 1): ((0, 0), 1, 1, True, True),
    (2, (2, 5), 2): ((0, 0), 1, 1, True, True),
    (2, (2, 5), 3): ((0, 1), 1, 1, True, True),
    (2, (2, 5), 4): ((1, 0), 6, 2, True, True),
    (2, (2, 5), 5): ((1, 3), 1, 1, True, True),
    (2, (2, 5), 6): ((2, 0), 168, 168, True, True),
    (2, (2, 5), 7): ((0, 2), 1, 1, True, True),
    (2, (2, 5), 8): ((0, 1), 6, 6, True, True),
    (2, (2, 5), 9): ((0, 0), 1, 1, True, True),
    (2, (2, 5), 10): ((0, 2), 1, 1, True, True),
    (2, (2, 5), 11): ((1, 1), 1, 1, True, True),
    (2, (2, 5), 12): ((0, 1), 1, 1, True, True),
    (3, (1, 3), 0): ((1, 0), 2, 1, True, True),
    (3, (1, 3), 2): ((0, 0), 2, 2, True, True),
    (3, (1, 3), 3): ((0, 1), 2, 2, True, True),
    (3, (1, 3), 4): ((1, 0), 48, 48, True, True),
    (3, (1, 3), 5): ((1, 2), 48, 48, True, True),
    (3, (1, 3), 6): ((1, 1), 48, 48, True, True),
    (3, (1, 3), 7): ((0, 3), 200, 200, False, True),
    (3, (1, 3), 8): ((0, 2), 2, 2, True, True),
    (3, (1, 3), 9): ((0, 3), 48, 48, True, True),
    (3, (1, 3), 11): ((0, 2), 2, 2, True, True),
    (3, (1, 5), 0): ((1, 0), 2, 1, True, True),
    (3, (1, 5), 2): ((0, 0), 2, 2, True, True),
    (3, (1, 5), 3): ((0, 1), 2, 2, True, True),
    (3, (1, 5), 4): ((1, 0), 48, 48, True, True),
    (3, (1, 5), 5): ((1, 2), 48, 48, True, True),
    (3, (1, 5), 6): ((1, 1), 48, 48, True, True),
    (3, (1, 5), 7): ((0, 3), 200, 200, False, True),
    (3, (1, 5), 8): ((0, 2), 2, 2, True, True),
    (3, (1, 5), 9): ((0, 3), 48, 48, True, True),
    (3, (1, 5), 11): ((0, 2), 2, 2, True, True),
    (3, (2, 4), 0): ((1, 0), 2, 1, True, True),
    (3, (2, 4), 3): ((0, 1), 2, 2, True, True),
    (3, (2, 4), 4): ((1, 0), 200, 200, False, True),
    (3, (2, 4), 5): ((1, 2), 48, 48, True, True),
    (3, (2, 4), 6): ((1, 1), 200, 200, False, True),
    (3, (2, 4), 7): ((0, 3), 200, 200, False, True),
    (3, (2, 4), 8): ((0, 2), 200, 200, False, True),
    (3, (2, 4), 9): ((0, 3), 2, 2, True, True),
    (3, (2, 4), 12): ((0, 1), 2, 2, True, True),
    (3, (2, 5), 0): ((1, 0), 2, 1, True, True),
    (3, (2, 5), 3): ((0, 1), 2, 2, True, True),
    (3, (2, 5), 4): ((1, 0), 200, 200, False, True),
    (3, (2, 5), 5): ((1, 2), 48, 48, True, True),
    (3, (2, 5), 6): ((1, 1), 200, 200, False, True),
    (3, (2, 5), 7): ((0, 3), 200, 200, False, True),
    (3, (2, 5), 8): ((0, 2), 200, 200, False, True),
    (3, (2, 5), 9): ((0, 3), 2, 2, True, True),
    (3, (2, 5), 12): ((0, 1), 2, 2, True, True),
}


def test_robustness_sweep_pins_every_block(diagram_p2, diagram_p3, sweeps):
    """Every block's result is the recorded one, so a change to which
    variants are drawn or complete shows, not only an unstable block."""
    swept = {(d.prime, *key): res for d, results in sweeps
             for key, res in results.items()}
    got = {}
    for d in (diagram_p2, diagram_p3):
        for arrow in LOWER_ARROWS:
            for k in range(d.max_degree + 1):
                res = swept.get((d.prime, arrow, k)) or check_block(d, arrow, k)
                if res is not None:
                    got[d.prime, arrow, k] = (
                        tuple(res["baseline"]), res["variants"],
                        res["compatible"], res["exhaustive"], res["stable"])
    assert got == SWEEP_BLOCKS_SEED0
    assert sum(v[1] for v in got.values()) == 2920
    assert sum(v[2] for v in got.values()) == 2904


# (arrow, degree): SHA-256 of repr([(rows, cols, entries)]) of the variants
# check_block draws at rng_seed 0 for the ten sampled p=3 blocks.  Every one
# of them completes all 200 draws, so the counts above cannot see a change of
# which variants are drawn.
SAMPLED_VARIANTS_P3_SEED0 = {
    ((1, 3), 7): "939100824d7e2a1d1e720c170d1893787658772967a5c9d35632808435147630",
    ((2, 4), 4): "860bd256bddc72962191f0e16dd61f42fb79df9fd943a9552e1fcf82671b4218",
    ((2, 4), 6): "3fb982372fc3d50cddcaed256aefd23b75fb59b3e680783320dfd58cb45c633f",
    ((2, 4), 7): "53c3c7fa0eda4f45fc8ad93316d02b8b26c545889bad3e0f9936dbeacf4833de",
    ((2, 4), 8): "a9dd8540b46126ce330494ffc911888d2546c0733c81701fe21e1aa9f6acdca8",
    ((1, 5), 7): "b2320923678476d9c910353a98fe2a3b5ee1ef1c2e519ad3bdd76502a787ce23",
    ((2, 5), 4): "12e690b7d7e83d5806ddd5be03520cdcb08abcfae5967995882ccc4e61f722cc",
    ((2, 5), 6): "daeac5d4ffc28cef74db85d19adab9b38cae7b9bf6320013f85b6f738a59a782",
    ((2, 5), 7): "58cc07da872c66f30aee973dbd0fb2317d4e5ccf571b5e9bba0f6cadd56209c3",
    ((2, 5), 8): "0d1f8142863857523458bbaeb56b799938f55589450d88ea609cb41b6fd06468",
}


def test_sampled_blocks_draw_the_pinned_variants(diagram_p3, monkeypatch):
    """check_block's own draws, so its seed and its call are pinned too; each
    block stops once it has drawn."""
    from ecomu3 import robustness

    class Drawn(Exception):
        pass

    def recording(m, p, rng):
        raise Drawn(original(m, p, rng))

    original = robustness.kernel_image_variants
    monkeypatch.setattr(robustness, "kernel_image_variants", recording)
    got = {}
    for arrow in LOWER_ARROWS:
        for k in range(diagram_p3.max_degree + 1):
            try:
                check_block(diagram_p3, arrow, k)
            except Drawn as drawn:
                variants, exhaustive = drawn.args[0]
                if not exhaustive:
                    assert len(variants) == 200
                    data = repr([(v.rows, v.cols, v.entries) for v in variants])
                    got[arrow, k] = hashlib.sha256(data.encode()).hexdigest()
    assert got == SAMPLED_VARIANTS_P3_SEED0


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
