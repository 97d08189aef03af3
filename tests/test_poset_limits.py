"""The subset poset, cosimplicial complexes, and higher limits."""

import math
from itertools import product

import pytest

from ecomu3.diagram import PosetDiagram, constant_diagram
from ecomu3.limits import (NonVanishingLim2, bk_assemble, cosimplicial_complex,
                           higher_limits, lim2_vanishing_check)
from ecomu3.linalg import IntMatrix
from ecomu3.poset import PosetSn

from dense_oracle import dense


def test_poset_counts():
    p2 = PosetSn(2)
    assert len(p2.objects) == 7
    assert len(p2.chains2) == 12
    assert len(p2.chains3) == 6
    p1 = PosetSn(1)
    assert len(p1.objects) == 3
    assert len(p1.chains2) == 2
    assert len(p1.chains3) == 0
    assert len(PosetSn(3).objects) == 15


def test_poset_indexing_matches_worked_order():
    p2 = PosetSn(2)
    assert [p2.objects[i] for i in range(7)] == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    assert p2.chains2[:6] == [(0, 3), (1, 3), (0, 4), (2, 4), (1, 5), (2, 5)]
    assert all(c == 6 for (_, _, c) in p2.chains3)


def test_constant_diagram_limits():
    for p in (2, 3):
        D = constant_diagram(p)
        dims, d0, d1 = cosimplicial_complex(D, 0)
        assert dims == (7, 12, 6)
        assert higher_limits(D, 0) == (1, 0, 0)


def test_constant_diagram_brute_force_oracle():
    # enumerate all F_2 vectors: the kernel of the first differential must be
    # exactly the constants, and the complex must be exact afterwards
    D = constant_diagram(2)
    (n0, n1, _), d0, d1 = cosimplicial_complex(D, 0)
    d0, d1 = dense(d0, n0), dense(d1, n1)
    ker0 = sum(1 for v in product(range(2), repeat=7)
               if all(x % 2 == 0 for x in d0.apply(list(v))))
    assert ker0 == 2  # one dimension: the constants
    img0 = {tuple(x % 2 for x in d0.apply(list(v)))
            for v in product(range(2), repeat=7)}
    ker1 = {v for v in product(range(2), repeat=12)
            if all(x % 2 == 0 for x in d1.apply(list(v)))}
    assert img0 <= ker1
    assert math.log2(len(ker1)) == math.log2(len(img0)) + 0  # lim^1 = 0
    img1 = {tuple(x % 2 for x in d1.apply(list(v)))
            for v in product(range(2), repeat=12)}
    assert math.log2(len(img1)) == 6  # surjective: lim^2 = 0


def test_zero_maps_fail_lim2():
    dims = {i: [1] for i in range(7)}
    Z = PosetDiagram(2, dims, {}, 0)
    assert not lim2_vanishing_check(Z, 0)
    assert higher_limits(Z, 0)[2] == 1
    with pytest.raises(NonVanishingLim2):
        bk_assemble(Z)


def test_delta_squared_zero_checked():
    D = constant_diagram(3)
    (n0, n1, _), d0, d1 = cosimplicial_complex(D, 0)
    prod = dense(d1, n1) * dense(d0, n0)
    assert all(e % 3 == 0 for e in prod.entries)
