"""Exact linear algebra: Smith form reconstruction, kernels, mod-p ops."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ecomu3.linalg import (ColumnLattice, _eliminate, invariant_factors,
                           kernel_basis_reduced, smith_normal_form)
from ecomu3.matrix import (CompositionNonzero, EchelonBasis, IntMatrix,
                           ShapeMismatch, modp_kernel_basis, modp_rank,
                           modp_rref, modp_solve)

from snf_oracle import (apply, det, invariant_factors_by_minors,
                        kernel_columns, solve)


def check_snf(A):
    s = smith_normal_form(A)
    assert s.U * s.D * s.V == A
    if A.rows:
        assert abs(det(s.U.to_lists())) == 1
        assert s.U * s.Uinv == IntMatrix.identity(A.rows)
    if A.cols:
        assert abs(det(s.V.to_lists())) == 1
        assert s.V * s.Vinv == IntMatrix.identity(A.cols)
    f = s.invariant_factors
    assert all(x > 0 for x in f)
    assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
    for i in range(A.rows):
        for j in range(A.cols):
            want = f[i] if i == j and i < len(f) else 0
            assert s.D[i, j] == want
    for v in kernel_columns(s):
        assert all(x == 0 for x in apply(A, v))


def thousand_random_matrices():
    rng = random.Random(20260808)
    for _ in range(1000):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        yield IntMatrix(m, n, [rng.randint(-9, 9) for _ in range(m * n)])


def test_snf_thousand_random_matrices():
    for A in thousand_random_matrices():
        check_snf(A)


def test_snf_matches_determinantal_divisors():
    # an oracle with no row or column operations: d_k = gcd of the k x k
    # minors, so the k-th invariant factor is d_k / d_(k-1)
    for A in thousand_random_matrices():
        assert smith_normal_form(A).invariant_factors == \
            invariant_factors_by_minors(A), A


def test_transform_free_paths_match_full_snf():
    # the same pivot sequence with fewer transforms tracked: identical factors
    # and, tracking V^-1 alone, an identical D and V^-1, not merely
    # equivalent ones
    for A in thousand_random_matrices():
        s = smith_normal_form(A)
        assert invariant_factors(A) == s.invariant_factors
        w, rank = _eliminate(A, full=False, vinv=True)
        assert rank == len(s.invariant_factors)
        assert w.D == s.D.to_lists() and w.Vinv == s.Vinv.to_lists()


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
    assert len(kernel_columns(smith_normal_form(IntMatrix.zero(0, 4)))) == 4
    assert kernel_columns(smith_normal_form(IntMatrix.zero(4, 0))) == []
    s = smith_normal_form(IntMatrix.zero(0, 0))
    assert s.invariant_factors == []


def test_solve():
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = IntMatrix(m, n, [rng.randint(-6, 6) for _ in range(m * n)])
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        b = apply(A, x0)
        x = solve(A, b)
        assert x is not None and apply(A, x) == b
    assert solve(IntMatrix.from_rows([[2]]), [1]) is None


def test_kernel_basis_reduced_spans_kernel():
    rng = random.Random(11)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = IntMatrix(m, n, [rng.randint(-4, 4) for _ in range(m * n)])
        raw = kernel_columns(smith_normal_form(A))
        red = kernel_basis_reduced(A)
        assert len(red) == len(raw)
        for v in red:
            assert all(x == 0 for x in apply(A, v))
        # the reduced basis generates the raw one over Z
        if red:
            K = IntMatrix.from_columns(red, rows=n)
            for v in raw:
                assert solve(K, v) is not None


def random_unimodular(rng, m):
    """A product of random row additions, swaps and sign changes."""
    rows = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3 * m):
        i, j = rng.randrange(m), rng.randrange(m)
        if i != j:
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        rows[i], rows[j] = rows[j], [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


def test_kernel_basis_reduced_is_canonical_hermite_form():
    rng = random.Random(13)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = IntMatrix(m, n, [rng.randint(-4, 4) for _ in range(m * n)])
        red = kernel_basis_reduced(A)
        pivots = [next(i for i, x in enumerate(v) if x) for v in red]
        assert pivots == sorted(set(pivots)), red          # triangular
        for k, (v, r) in enumerate(zip(red, pivots)):
            assert v[r] > 0, red
            assert all(0 <= u[r] < v[r] for u in red[:k]), red
        # the form depends on the kernel lattice alone, not on the raw
        # Smith-form kernel vectors it was built from
        assert kernel_basis_reduced(random_unimodular(rng, m) * A) == red, A


def test_column_lattice_membership_matches_solve():
    rng = random.Random(17)
    for _ in range(200):
        dim, k = rng.randint(1, 5), rng.randint(0, 4)
        gens = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
        lattice = ColumnLattice(dim)
        for g in gens:
            lattice.add(g)
            assert lattice.contains(g)
        B = IntMatrix.from_columns(gens, rows=dim) if gens else None
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in gens]
            v = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)]
            if rng.random() < 0.5:
                v[rng.randrange(dim)] += rng.randint(-2, 2)
            want = solve(B, v) is not None if gens else not any(v)
            assert lattice.contains(v) == want, (gens, v)


def test_modp_ops():
    A = IntMatrix.from_rows([[1, 2, 0], [0, 3, 3]])
    assert modp_rank(A, 3) == 1
    assert modp_rank(A, 2) == 2
    for p in (2, 3, 5):
        for v in modp_kernel_basis(A, p):
            assert all(x % p == 0 for x in apply(A, v))
    x = modp_solve(A, [1, 0], 5)
    assert x is not None and all((a - b) % 5 == 0
                                 for a, b in zip(apply(A, x), [1, 0]))
    assert modp_solve(IntMatrix.from_rows([[2, 4]]), [1], 2) is None


def test_json_entries_must_be_ints():
    assert IntMatrix.from_int_rows([[2, -1], [0, 3]]) == \
        IntMatrix.from_rows([[2, -1], [0, 3]])
    assert IntMatrix.from_int_rows([]) == IntMatrix.zero(0, 0)
    for bad in ([[2.5, 1], [1, 3]], [[2, 1], [True, 3]], [[2.0]], [["2"]],
                {"data": [[1]]}, [1, 2]):
        with pytest.raises(ValueError):
            IntMatrix.from_int_rows(bad)


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


def _sparse(rows, p):
    return [{j: v % p for j, v in enumerate(r) if v % p} for r in rows]


@st.composite
def _fixed_and_changed(draw):
    """(fixed rows, changed rows, n, p); changed rows mix combinations of the
    fixed rows with sparse noise, so they are often dependent on them."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    fixed = draw(_modp_matrices()).to_lists()
    n = len(fixed[0]) if fixed else draw(st.integers(0, 7))
    changed = []
    for _ in range(draw(st.integers(0, 6))):
        row = [0] * n
        for f in fixed:
            c = draw(st.integers(0, p - 1))
            row = [a + c * b for a, b in zip(row, f)]
        if n and draw(st.booleans()):
            row[draw(st.integers(0, n - 1))] += draw(st.integers(1, p - 1))
        changed.append(row)
    return fixed, changed, n, p


@settings(max_examples=300, deadline=None)
@given(_fixed_and_changed())
@example(([], [[1, 2, 0], [2, 4, 0]], 3, 3))                # no fixed rows
@example(([[1, 0, 2], [0, 1, 1]], [], 3, 5))                # no changed rows
@example(([[1, 1, 0, 0], [0, 1, 1, 0]], [[1, 0, 6, 0], [0, 0, 0, 3]], 4, 7))
@example(([[1, 0], [0, 1]], [[1, 1]], 2, 2))                # fixed rows span
def test_copied_basis_rank_matches_modp_rank(case):
    """The robustness sweep's per-variant rank: a copy of a basis of the fixed
    rows, grown by the changed rows, has the rank of all of them, and the
    basis it was copied from is left as it was."""
    fixed, changed, n, p = case
    basis = EchelonBasis(p)
    want_fixed = len(modp_rref(fixed, n, p)[1])
    assert basis.insert_all(_sparse(fixed, p)) == want_fixed
    before = {col: dict(tail) for col, tail in basis.pivots.items()}
    grown = basis.copy()
    grown.insert_all(_sparse(changed, p))
    assert len(grown) == len(modp_rref(fixed + changed, n, p)[1])
    assert basis.pivots == before and len(basis) == want_fixed
