"""The incremental robustness check against the dense complex.

``check_block`` ranks only the rows a variant changes and checks
delta1 . delta0 = 0 chain by chain.  Here the same variants are rebuilt as
dense matrices from the formulas in the limits docstring (tests/dense_oracle)
and ranked by full row reduction.
"""

import random

import pytest

from ecomu3.diagram import PosetDiagram, load_bundled
from ecomu3.limits import cosimplicial_complex, higher_limits
from ecomu3.robustness import (LOWER_ARROWS, VariantLimits, _complete,
                               kernel_image_variants)

from dense_oracle import dense, dense_complex, dense_limits

SAMPLE = 10


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
    """The first compatible variants of every block, both primes."""
    p = diagram.prime
    for arrow, k, m, variants in _blocks(diagram):
        limits = VariantLimits(diagram, arrow, k)
        done = 0
        for v in variants:
            completion = _complete(diagram, k, {arrow: v})
            if completion is None:
                continue
            want = dense_limits(diagram.poset, lambda i: diagram.dim(i, k),
                                lambda a, b: completion[a, b], p)
            assert limits(completion) == want, (arrow, k)
            done += 1
            if done == SAMPLE:
                break
        assert done >= 1


def test_uncompleted_variant_is_not_a_complex(diagram):
    """A variant substituted without _complete raises the non-functorial
    error exactly when the dense d1 d0 is nonzero mod p."""
    p, raised = diagram.prime, 0
    for arrow, k, m, variants in _blocks(diagram):
        others = [v for v in variants if v != m]
        if not others:
            continue
        maps = {ab: diagram.matrix(*ab, k) for ab in diagram.poset.chains2}
        maps[arrow] = others[0]
        _, d0, d1 = dense_complex(diagram.poset, lambda i: diagram.dim(i, k),
                                  lambda a, b: maps[a, b])
        if all(e % p == 0 for e in (d1 * d0).entries):
            assert VariantLimits(diagram, arrow, k)(maps) == dense_limits(
                diagram.poset, lambda i: diagram.dim(i, k),
                lambda a, b: maps[a, b], p)
            continue
        raised += 1
        with pytest.raises(AssertionError, match="delta1 . delta0 != 0"):
            VariantLimits(diagram, arrow, k)(maps)
        with pytest.raises(AssertionError, match="delta1 . delta0 != 0"):
            higher_limits(_with_maps(diagram, k, {arrow: others[0]}), k)
    assert raised >= 1


def test_variant_limits_refuse_a_changed_kept_arrow():
    d = load_bundled(2)
    k = 3
    maps = {ab: d.matrix(*ab, k) for ab in d.poset.chains2}
    m = maps[0, 3]
    maps[0, 3] = type(m).zero(m.rows, m.cols)
    with pytest.raises(ValueError, match="variant changes"):
        VariantLimits(d, (1, 3), k)(maps)
