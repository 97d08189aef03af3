"""The incremental robustness check against the dense complex.

``check_block`` ranks only the hexagon rows of the pair a variant's arrow
enters, beside the block's fixed rows, takes lim^2 = 0 from the identity
m(4,6) (and refuses a diagram without one), and checks delta1 . delta0 = 0
chain by chain.  Here the same variants are rebuilt as dense matrices from
the formulas in the limits docstring (tests/dense_oracle) and ranked by full
row reduction.
"""

import os
import random
import subprocess
import sys
from itertools import islice, product as iproduct
from math import prod
from pathlib import Path

import pytest

from ecomu3.diagram import PosetDiagram, commutes, equal_modp, load_bundled
from ecomu3.limits import cosimplicial_complex, higher_limits
from ecomu3.matrix import IntMatrix, modp_rank, modp_rref
from ecomu3.poset import PosetSn
from ecomu3.robustness import (EXHAUSTIVE_LIMIT, LOWER_ARROWS, SAMPLE_SIZE,
                               Block, _factor, _gl_elements, check_block,
                               kernel_image_variants)

from dense_oracle import dense, dense_complex, dense_limits

SAMPLE = 10
# the arrows a completion re-solves: with the varied arrow, the only ones a
# variant changes; and the 3-chains whose commuting the solve decides
COMPLETED_ARROWS = [(3, 6), (5, 6), (0, 6), (1, 6), (2, 6)]
SOLVED_CHAINS = ((0, 4, 6), (1, 5, 6), (2, 5, 6))


@pytest.fixture(scope="module", params=[2, 3])
def diagram(request):
    return load_bundled(request.param)


def _blocks(d):
    """(arrow, degree, matrix, variants) of every non-empty lower block."""
    for arrow in LOWER_ARROWS:
        for k in range(d.max_degree + 1):
            m = d.matrix(*arrow, k)
            if m.rows and m.cols:
                variants, _ = kernel_image_variants(
                    m, d.prime, random.Random(1000 * k))
                yield arrow, k, m, variants


def _with_maps(d, k, maps):
    per = {key: dict(degrees) for key, degrees in d.maps.items()}
    for key, m in maps.items():
        per.setdefault(key, {})[k] = m
    return PosetDiagram(d.prime, d.dims, per, d.max_degree)


def test_sparse_blocks_match_dense_formulas(diagram):
    for k in range(diagram.max_degree + 1):
        (n0, n1, n2), d0, d1 = cosimplicial_complex(diagram, k)
        dims, w0, w1 = dense_complex(
            diagram.poset, lambda i: diagram.dim(i, k),
            lambda a, b: diagram.matrix(a, b, k))
        assert dims == (n0, n1, n2)
        p = diagram.prime
        for got, want in ((dense(d0, n0), w0), (dense(d1, n1), w1)):
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert all((x - y) % p == 0
                       for x, y in zip(got.entries, want.entries))


def test_variant_limits_match_dense_oracle(diagram):
    """The first compatible variants of every block, both primes: the
    block's (lim^0, lim^1) of a variant are the dense ones of its
    completion, and the dense lim^2 is 0."""
    p = diagram.prime
    for arrow, k, m, variants in _blocks(diagram):
        block = Block(diagram, arrow, k)
        done = 0
        for v in variants:
            completion = block.complete(v)
            if completion is None:
                assert block(v) is None
                continue
            want = dense_limits(diagram.poset, lambda i: diagram.dim(i, k),
                                lambda a, b: completion[a, b], p)
            assert want[2] == 0 and block(v) == want[:2], (arrow, k)
            done += 1
            if done == SAMPLE:
                break
        assert done >= 1


def test_uncompleted_variant_is_not_a_complex(diagram):
    """A variant substituted without its completion makes higher_limits
    raise the non-functorial error exactly when the dense d1 d0 is nonzero
    mod p, and otherwise give the dense limits."""
    p, raised = diagram.prime, 0
    for arrow, k, m, variants in _blocks(diagram):
        others = [v for v in variants if v != m]
        if not others:
            continue
        maps = {ab: diagram.matrix(*ab, k) for ab in diagram.poset.chains2}
        maps[arrow] = others[0]
        _, d0, d1 = dense_complex(diagram.poset, lambda i: diagram.dim(i, k),
                                  lambda a, b: maps[a, b])
        varied = _with_maps(diagram, k, {arrow: others[0]})
        if all(e % p == 0 for e in (d1 * d0).entries):
            assert higher_limits(varied, k) == dense_limits(
                diagram.poset, lambda i: diagram.dim(i, k),
                lambda a, b: maps[a, b], p)
            continue
        raised += 1
        with pytest.raises(AssertionError, match="delta1 . delta0 != 0"):
            higher_limits(varied, k)
    assert raised >= 1


def test_check_block_path_catches_a_wrong_completion(diagram):
    """One entry of m(5,6) off by one in a compatible variant's completion
    breaks the chain (1,5,6) or (2,5,6), which the block still multiplies
    out for every variant."""
    p, raised = diagram.prime, 0
    for arrow, k, m, variants in _blocks(diagram):
        block = Block(diagram, arrow, k)
        v, maps = next((v, c) for v in variants
                       if (c := block.complete(v)) is not None)
        b3 = maps[5, 6]
        # a column of m(5,6) that the image of m(1,5) or m(2,5) reaches
        hit = [j for j in range(b3.cols)
               if any(e % p for e in maps[1, 5].row(j) + maps[2, 5].row(j))]
        if not hit or not b3.rows:
            continue
        entries = list(b3.entries)
        entries[hit[0]] += 1
        maps[5, 6] = IntMatrix(b3.rows, b3.cols, entries)
        block.complete = lambda v: maps
        with pytest.raises(AssertionError, match="delta1 . delta0 != 0"):
            block(v)
        raised += 1
    assert raised >= 1


def test_completion_of_the_bundled_map_is_functorial(diagram):
    """Completing a block's own matrix gives back a functorial diagram that
    keeps every arrow outside COMPLETED_ARROWS and has the baseline limits.
    The first compatible variants of every block complete to functorial
    diagrams too, also along the three chains that the block takes as
    closed by construction."""
    p = diagram.prime
    closed = set(diagram.poset.chains3) - set(SOLVED_CHAINS)
    assert closed == {(0, 3, 6), (1, 3, 6), (2, 4, 6)}
    for arrow, k, m, variants in _blocks(diagram):
        block = Block(diagram, arrow, k)
        complete = block.complete
        for maps in islice(filter(None, map(complete, variants)), 3):
            for a, b, c in diagram.poset.chains3:
                assert commutes(maps[a, b], maps[b, c], maps[a, c], p), (
                    arrow, k, (a, b, c))
        maps = complete(m)
        assert maps is not None, (arrow, k)
        for a, b, c in diagram.poset.chains3:
            assert commutes(maps[a, b], maps[b, c], maps[a, c], p)
        for ab in diagram.poset.chains2:
            if ab not in COMPLETED_ARROWS:
                want = diagram.matrix(*ab, k)
                assert all((x - y) % p == 0 for x, y in
                           zip(maps[ab].entries, want.entries)), (ab, k)
        assert block(m) + (0,) == higher_limits(diagram, k)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_check_block_refuses_a_non_identity_m46(p):
    """All maps 0, so m(4,6) = 0 is not the identity: every block is
    refused, though its only variant is its own map.  Such a block's lim^2
    would be dim(0,1,2) != 0, which no sweep variant may have."""
    dims = {0: [1, 2], 1: [1, 1], 2: [2, 0], 3: [2, 3], 4: [2, 2],
            5: [3, 1], 6: [2, 2]}
    d = PosetDiagram(p, dims, {}, 1)
    for k in range(2):
        assert higher_limits(d, k)[2] == d.dim(6, k) > 0
        for arrow in LOWER_ARROWS:
            m = d.matrix(*arrow, k)
            if not (m.rows and m.cols):
                assert check_block(d, arrow, k) is None
                continue
            assert kernel_image_variants(m, p, random.Random(0))[0] == [m]
            with pytest.raises(ValueError, match=r"\(0,2\)->\(0,1,2\) is not "
                               "the identity in degree"):
                check_block(d, arrow, k)


def _factored_diagram(p, r, rng, spanning=False):
    """A functorial diagram through F_p^r: m(a, b) = R_b L_a with L_i R_i = 1,
    so m(b, c) m(a, b) = R_c L_b R_b L_a = m(a, c).  R_i = G_i [1; 0] and
    L_i = [1 | 0] G_i^-1 for a random invertible G_i.  ``spanning`` makes
    (0,1,2) r-dimensional, so that m(4,6) spans it."""
    dims = {i: [rng.randint(r, r + 2)] for i in range(7)}
    if spanning:
        dims[6] = [r]
    R, L = {}, {}
    for i, (n,) in dims.items():
        while True:
            g = IntMatrix(n, n, [rng.randrange(p) for _ in range(n * n)])
            g_inv = _inverse_modp(g, p)
            if g_inv is not None:
                break
        R[i] = IntMatrix.from_columns([g.column(j) for j in range(r)], rows=n)
        L[i] = IntMatrix.from_rows([g_inv.row(j) for j in range(r)])
    maps = {(a, b): {0: IntMatrix(dims[b][0], dims[a][0], [
        e % p for e in (R[b] * L[a]).entries])} for a, b in PosetSn(2).chains2}
    return PosetDiagram(p, dims, maps, 0)


def _inverse_modp(g, p):
    n = g.rows
    rref, pivots = modp_rref([g.row(i) + [int(i == j) for j in range(n)]
                              for i in range(n)], 2 * n, p)
    if pivots != list(range(n)):
        return None
    return IntMatrix.from_rows([row[n:] for row in rref]) if n else g


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factored_diagrams_match_dense_oracle(p):
    """Diagrams through F_p^r: m(4,6) has rank r, so it spans (0,1,2) and
    lim^2 = 0 when r = dim(0,1,2), and otherwise lim^2 != 0.  Both kinds
    run.  A block refuses every such diagram whose m(4,6) is not the
    identity."""
    rng = random.Random(p)
    branches, refused = set(), 0
    for trial in range(8):
        d = _factored_diagram(p, 1 + trial % 2, rng, spanning=trial >= 6)
        dim = lambda i: d.dim(i, 0)
        maps = {ab: d.matrix(*ab, 0) for ab in d.poset.chains2}
        assert all(commutes(maps[a, b], maps[b, c], maps[a, c], p)
                   for a, b, c in d.poset.chains3)
        want = dense_limits(d.poset, dim, lambda a, b: maps[a, b], p)
        assert higher_limits(d, 0) == want
        branches.add(want[2] == 0)
        if equal_modp(maps[4, 6], IntMatrix.identity(dim(6)), p):
            continue
        refused += 1
        for arrow in LOWER_ARROWS:
            with pytest.raises(ValueError, match="is not the identity"):
                Block(d, arrow, 0)
    assert branches == {True, False} and refused


def test_sweep_leaves_out_the_smith_form():
    # compiling linalg's Smith-form code (no bytecode cache) costs the sweep
    # process about 0.75 MB of resident memory, and it uses none of it
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, ecomu3.robustness; "
            "print(sorted(m for m in sys.modules if m.startswith('ecomu3')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert "ecomu3.linalg" not in proc.stdout and "ecomu3.matrix" in proc.stdout


def _invertible(g, p):
    _, pivots = modp_rref([g.row(i) for i in range(g.rows)], g.cols, p)
    return len(pivots) == g.rows


def _exhaustive_sizes():
    return [(r, p) for p in (2, 3, 5) for r in range(1, 5)
            if p ** (r * r) <= 4 * EXHAUSTIVE_LIMIT]


def test_factor_is_image_basis_times_reduced_echelon_form(diagram):
    """For every lower block nonzero mod p: m = B S mod p, with S in reduced
    row echelon form and B and S of the rank of m."""
    p = diagram.prime
    for arrow in LOWER_ARROWS:
        for k in range(diagram.max_degree + 1):
            m = diagram.matrix(*arrow, k)
            if all(e % p == 0 for e in m.entries):
                assert _factor(m, p) is None
                continue
            B, S, r = _factor(m, p)
            assert r == modp_rank(m, p)
            assert (B.rows, B.cols, S.rows, S.cols) == (m.rows, r, r, m.cols)
            assert all((x - y) % p == 0
                       for x, y in zip((B * S).entries, m.entries))
            leads = [min(j for j, e in enumerate(row) if e)
                     for row in S.to_lists()]
            assert leads == sorted(set(leads))
            assert all(0 <= e < p for e in S.entries)
            for i, j in enumerate(leads):
                assert S.column(j) == [int(i == t) for t in range(r)]


@pytest.mark.parametrize("r, p", _exhaustive_sizes())
def test_gl_elements_enumerate_the_invertible_matrices(r, p):
    """Row by row outside the span of the rows above gives exactly the
    invertible matrices among all of F_p^(r x r), in the same order."""
    got, exhaustive = _gl_elements(r, p, random.Random(0))
    want = [g for g in (IntMatrix(r, r, e)
                        for e in iproduct(range(p), repeat=r * r))
            if _invertible(g, p)]
    assert exhaustive and got == want
    assert len({g.entries for g in got}) == len(got)
    assert len(got) == prod(p ** r - p ** i for i in range(r))


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("seed", [0, 1, 7919])
def test_gl_sample_is_the_rejection_sample(r, seed):
    """The sampled branch draws what the row-reducing rejection sampler drew,
    and leaves the generator in the same state."""
    p = 3
    rng, old_rng = random.Random(seed), random.Random(seed)
    got, exhaustive = _gl_elements(r, p, rng)
    want, seen = [], set()
    while len(want) < SAMPLE_SIZE:
        g = IntMatrix(r, r, [old_rng.randrange(p) for _ in range(r * r)])
        if g.entries not in seen:
            seen.add(g.entries)
            if _invertible(g, p):
                want.append(g)
    assert not exhaustive and got == want
    assert rng.random() == old_rng.random()
