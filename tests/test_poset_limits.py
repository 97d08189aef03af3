"""The subset poset, cosimplicial complexes, and higher limits."""

import math
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from ecomu3.diagram import PosetDiagram, load_bundled
from ecomu3.limits import (NonVanishingLim2, bk_assemble, cosimplicial_complex,
                           hexagon_kernel_dim, higher_limits, top_image_dim)
from ecomu3.linalg import IntMatrix
from ecomu3.poset import PosetSn

from dense_oracle import dense, dense_complex, dense_limits, rref_rank
from snf_oracle import apply


def constant_diagram(prime, dim=1, max_degree=0):
    """The constant diagram F_p^dim with identity maps."""
    poset = PosetSn(2)
    dims = {i: [dim] for i in range(len(poset))}
    maps = {(a, b): {0: IntMatrix.identity(dim)} for (a, b) in poset.chains2}
    return PosetDiagram(prime, dims, maps, max_degree)


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
               if all(x % 2 == 0 for x in apply(d0, v)))
    assert ker0 == 2  # one dimension: the constants
    img0 = {tuple(x % 2 for x in apply(d0, v))
            for v in product(range(2), repeat=7)}
    ker1 = {v for v in product(range(2), repeat=12)
            if all(x % 2 == 0 for x in apply(d1, v))}
    assert img0 <= ker1
    assert math.log2(len(ker1)) == math.log2(len(img0)) + 0  # lim^1 = 0
    img1 = {tuple(x % 2 for x in apply(d1, v))
            for v in product(range(2), repeat=12)}
    assert math.log2(len(img1)) == 6  # surjective: lim^2 = 0


def test_zero_maps_fail_lim2():
    dims = {i: [1] for i in range(7)}
    Z = PosetDiagram(2, dims, {}, 0)
    assert higher_limits(Z, 0)[2] == 1
    with pytest.raises(NonVanishingLim2):
        bk_assemble(Z)


def test_delta_squared_zero_checked():
    D = constant_diagram(3)
    (n0, n1, _), d0, d1 = cosimplicial_complex(D, 0)
    prod = dense(d1, n1) * dense(d0, n0)
    assert all(e % 3 == 0 for e in prod.entries)


# --- the hexagon kernel and the image in (0,1,2) against the dense complex ---

POSET = PosetSn(2)


def one_degree_diagram(p, dims, maps):
    """The diagram with object dimensions ``dims`` and the given maps (the
    others 0) in degree 0."""
    return PosetDiagram(p, {i: [d] for i, d in enumerate(dims)},
                        {ab: {0: m} for ab, m in maps.items()}, 0)


def oracle(d):
    return dense_limits(d.poset, lambda i: d.dim(i, 0),
                        lambda a, b: d.matrix(a, b, 0), d.prime)


def matrices(p):
    """A strategy for functions (rows, cols) -> drawn F_p matrix."""
    @st.composite
    def draw_matrices(draw):
        def matrix(rows, cols):
            return IntMatrix(rows, cols, draw(st.lists(
                st.integers(0, p - 1), min_size=rows * cols,
                max_size=rows * cols)))
        return matrix
    return draw_matrices()


PRIMES = st.sampled_from([2, 3, 5])


@st.composite
def factored(draw):
    """m(a, b) = R_b L_a through F_p^r with L_i R_i = 1, so functorial:
    R_i = [1; X_i] and L_i = [1 - Y_i X_i | Y_i]."""
    p = draw(PRIMES)
    matrix = draw(matrices(p))
    r = draw(st.integers(0, 2))
    dims = [draw(st.integers(r, r + 2)) for _ in range(7)]
    R, L = [], []
    for n in dims:
        x, y = matrix(n - r, r), matrix(r, n - r)
        yx = y * x
        R.append(IntMatrix(n, r, [int(i == j) for i in range(r)
                                  for j in range(r)] + list(x.entries)))
        L.append(IntMatrix(r, n, [e for i in range(r) for e in
                                  [int(i == j) - yx[i, j] for j in range(r)]
                                  + y.row(i)]))
    return p, dims, {(a, b): R[b] * L[a] for a, b in POSET.chains2}


@st.composite
def zero_below(draw):
    """The lower maps 0 and random maps (0,1)/(0,2)/(1,2) -> (0,1,2), so
    m(i, (0,1,2)) = 0: functorial, and lim^2 is often nonzero."""
    p = draw(PRIMES)
    matrix = draw(matrices(p))
    dims = [draw(st.integers(0, 3)) for _ in range(7)]
    return p, dims, {(b, 6): matrix(dims[6], dims[b]) for b in (3, 4, 5)}


@st.composite
def arbitrary(draw):
    """Random maps on every arrow: functorial only by chance."""
    p = draw(PRIMES)
    matrix = draw(matrices(p))
    dims = [draw(st.integers(0, 2)) for _ in range(7)]
    return p, dims, {(a, b): matrix(dims[b], dims[a])
                     for a, b in POSET.chains2}


def identity_maps(dims):
    return {(a, b): IntMatrix.identity(dims[a]) for a, b in POSET.chains2}


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(factored(), zero_below()))
@example(case=(2, [0] * 7, {}))
@example(case=(3, [0, 0, 0, 0, 0, 0, 2], {}))
@example(case=(5, [1, 0, 2, 0, 1, 3, 0], {}))
@example(case=(2, [2] * 6 + [0], {}))
@example(case=(3, [1] * 7, identity_maps([1] * 7)))
@example(case=(5, [0, 0, 0, 1, 1, 1, 1],
               {(b, 6): IntMatrix.identity(1) for b in (3, 4, 5)}))
def test_higher_limits_match_dense_oracle(case):
    """Factored diagrams, and diagrams with zero lower maps and random maps
    into (0,1,2), at p = 2, 3, 5; all but one example have zero dimensions."""
    d = one_degree_diagram(*case)
    assert higher_limits(d, 0) == oracle(d)


@settings(max_examples=200, deadline=None)
@given(case=arbitrary())
def test_lim2_formula_holds_for_any_diagram(case):
    """d6 - dim(im m(3,6) + im m(4,6) + im m(5,6)) = n2 - rank delta1 with
    no functoriality; a diagram that is not a complex raises, one that is
    matches the oracle."""
    p, dims, maps = case
    d = one_degree_diagram(p, dims, maps)
    matrix = lambda a, b: d.matrix(a, b, 0)
    (n0, n1, n2), d0, d1 = dense_complex(d.poset, lambda i: dims[i], matrix)
    lim2 = n2 - rref_rank(d1, p)
    assert dims[6] - top_image_dim(dims, matrix, p) == lim2
    if all(e % p == 0 for e in (d1 * d0).entries):
        assert higher_limits(d, 0) == oracle(d)
    else:
        with pytest.raises(AssertionError, match="delta1 . delta0 != 0"):
            higher_limits(d, 0)


def test_non_functorial_diagram_raises():
    """One off-route map makes d1 d0 != 0; higher_limits refuses it, while
    the image in (0,1,2), which needs no functoriality, still spans it."""
    dims = [1] * 7
    maps = identity_maps(dims)
    maps[0, 6] = IntMatrix(1, 1, [2])
    d = one_degree_diagram(3, dims, maps)
    with pytest.raises(AssertionError,
                       match="delta1 . delta0 != 0 in degree 0"):
        higher_limits(d, 0)
    assert top_image_dim(dims, lambda a, b: maps[a, b], 3) == 1


def test_hexagon_kernel_is_the_compatible_families():
    # F_2 on every object with identity maps: the constants, one dimension.
    # With m(0,3) and m(0,4) zero, x1 = x2 = 0 and x0 is anything: still
    # one.  With every lower map zero, nothing ties the singletons: three.
    dims = [1] * 7
    maps = identity_maps(dims)
    matrix = lambda a, b: maps[a, b]
    assert hexagon_kernel_dim(dims, matrix, 2) == 1
    maps[0, 3] = maps[0, 4] = IntMatrix(1, 1, [0])
    assert hexagon_kernel_dim(dims, matrix, 2) == 1
    for ab in POSET.chains2[:6]:
        maps[ab] = IntMatrix(1, 1, [2])          # 0 mod 2
    assert hexagon_kernel_dim(dims, matrix, 2) == 3


@pytest.mark.parametrize("p", [2, 3])
def test_bundled_diagrams_match_dense_oracle(p):
    d = load_bundled(p)
    for k in range(d.max_degree + 1):
        want = dense_limits(d.poset, lambda i: d.dim(i, k),
                            lambda a, b: d.matrix(a, b, k), p)
        assert higher_limits(d, k) == want, k
