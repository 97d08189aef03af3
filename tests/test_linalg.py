"""Exact linear algebra: Smith form reconstruction, kernels, mod-p ops."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ecomu3.linalg import (CompositionNonzero, IntMatrix, ShapeMismatch,
                           invariant_factors, kernel_basis, kernel_basis_reduced,
                           modp_kernel_basis, modp_rank, modp_rref, modp_solve,
                           smith_normal_form, solve)


def det(M):
    n = M.rows
    a = M.to_lists()
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def check_snf(A):
    s = smith_normal_form(A)
    assert s.U * s.D * s.V == A
    if A.rows:
        assert abs(det(s.U)) == 1
        assert s.U * s.Uinv == IntMatrix.identity(A.rows)
    if A.cols:
        assert abs(det(s.V)) == 1
        assert s.V * s.Vinv == IntMatrix.identity(A.cols)
    f = s.invariant_factors
    assert all(x > 0 for x in f)
    assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
    for i in range(A.rows):
        for j in range(A.cols):
            want = f[i] if i == j and i < len(f) else 0
            assert s.D[i, j] == want
    for v in s.kernel_basis():
        assert all(x == 0 for x in A.apply(v))


def thousand_random_matrices():
    rng = random.Random(20260808)
    for _ in range(1000):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        yield IntMatrix(m, n, [rng.randint(-9, 9) for _ in range(m * n)])


def test_snf_thousand_random_matrices():
    for A in thousand_random_matrices():
        check_snf(A)


def test_transform_free_paths_match_full_snf():
    # the same pivot sequence with fewer transforms tracked: identical factors
    # and an identical kernel basis, not merely equivalent ones
    for A in thousand_random_matrices():
        s = smith_normal_form(A)
        assert invariant_factors(A) == s.invariant_factors
        assert kernel_basis(A) == s.kernel_basis()


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_snf_property(m, n, data):
    entries = data.draw(st.lists(st.integers(-50, 50), min_size=m * n,
                                 max_size=m * n))
    check_snf(IntMatrix(m, n, entries))


def test_spec_examples():
    assert smith_normal_form(
        IntMatrix.from_rows([[2, 0], [0, 3]])).invariant_factors == [1, 6]
    assert smith_normal_form(IntMatrix.identity(3)).invariant_factors == [1, 1, 1]
    assert smith_normal_form(
        IntMatrix.from_rows([[1, 1, 1]])).invariant_factors == [1]


def test_determinism():
    A = IntMatrix.from_rows([[4, -2, 7], [0, 3, 3], [6, 6, -1]])
    s1 = smith_normal_form(A)
    s2 = smith_normal_form(A)
    assert s1.U == s2.U and s1.V == s2.V and s1.D == s2.D


def test_empty_matrix_conventions():
    # kernel of a 0 x n map is everything; image of an n x 0 map is 0
    assert len(kernel_basis(IntMatrix.zero(0, 4))) == 4
    assert kernel_basis(IntMatrix.zero(4, 0)) == []
    s = smith_normal_form(IntMatrix.zero(0, 0))
    assert s.invariant_factors == []


def test_solve():
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = IntMatrix(m, n, [rng.randint(-6, 6) for _ in range(m * n)])
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        b = A.apply(x0)
        x = solve(A, b)
        assert x is not None and A.apply(x) == b
    assert solve(IntMatrix.from_rows([[2]]), [1]) is None


def test_kernel_basis_reduced_spans_kernel():
    rng = random.Random(11)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = IntMatrix(m, n, [rng.randint(-4, 4) for _ in range(m * n)])
        raw = kernel_basis(A)
        red = kernel_basis_reduced(A)
        assert len(red) == len(raw)
        for v in red:
            assert all(x == 0 for x in A.apply(v))
        # the reduced basis generates the raw one over Z
        if red:
            K = IntMatrix.from_columns(red, rows=n)
            for v in raw:
                assert solve(K, v) is not None


def test_modp_ops():
    A = IntMatrix.from_rows([[1, 2, 0], [0, 3, 3]])
    assert modp_rank(A, 3) == 1
    assert modp_rank(A, 2) == 2
    for p in (2, 3, 5):
        for v in modp_kernel_basis(A, p):
            assert all(x % p == 0 for x in A.apply(v))
    x = modp_solve(A, [1, 0], 5)
    assert x is not None and all((a - b) % 5 == 0
                                 for a, b in zip(A.apply(x), [1, 0]))
    assert modp_solve(IntMatrix.from_rows([[2, 4]]), [1], 2) is None


def test_json_entries_must_be_ints():
    assert IntMatrix.from_int_rows([[2, -1], [0, 3]]) == \
        IntMatrix.from_rows([[2, -1], [0, 3]])
    assert IntMatrix.from_int_rows([]) == IntMatrix.zero(0, 0)
    for bad in ([[2.5, 1], [1, 3]], [[2, 1], [True, 3]], [[2.0]], [["2"]],
                {"data": [[1]]}, [1, 2]):
        with pytest.raises(ValueError):
            IntMatrix.from_int_rows(bad)
    with pytest.raises(ValueError):
        IntMatrix.from_json({"rows": 1, "cols": 2, "data": [[1, False]]})
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert IntMatrix.from_json(m.to_json()) == m


def test_shape_errors():
    with pytest.raises(ShapeMismatch):
        IntMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ShapeMismatch):
        IntMatrix.from_rows([[1, 2], [3]])


@st.composite
def _modp_matrices(draw):
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.just(0) if draw(st.integers(0, 3)) == 0 else st.integers(-9, 9)
    return IntMatrix(rows, cols, draw(st.lists(entry, min_size=rows * cols,
                                               max_size=rows * cols)))


@settings(max_examples=300, deadline=None)
@given(_modp_matrices(), st.sampled_from([2, 3, 5, 7]))
@example(IntMatrix.zero(0, 4), 2)
@example(IntMatrix.zero(4, 0), 3)
@example(IntMatrix.zero(3, 5), 5)
def test_modp_rank_matches_rref(A, p):
    assert modp_rank(A, p) == len(modp_rref(A.to_lists(), A.cols, p)[1])
