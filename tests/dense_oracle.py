"""Dense reference forms of the cochain differentials (test helpers).

``ecomu3.limits.higher_limits`` ranks only the hexagon of lower maps and the
image in (0,1,2), ``ecomu3.limits.cosimplicial_complex`` assembles the
differentials as sparse row blocks, and ``ecomu3.robustness`` ranks them
incrementally.  These helpers rebuild the whole complex as dense
``IntMatrix`` from the formulas in the limits module docstring and rank it
with a full ``modp_rref``, as an independent oracle.
"""

from ecomu3.linalg import IntMatrix, modp_rref


def dense(blocks, ncols):
    """Stack the sparse row blocks ``{chain: [{column: value}]}`` of one differential."""
    rows = [[row.get(j, 0) for j in range(ncols)]
            for block in blocks.values() for row in block]
    return IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, ncols)


def rref_rank(m, p):
    return len(modp_rref(m.to_lists(), m.cols, p)[1])


def dense_complex(poset, dim, matrix):
    """((n0, n1, n2), d0, d1) with dim(i) the object dimensions, matrix(a, b) the map a -> b.

    (d0 x)(a, b) = x(b) - m(a, b) x(a) and
    (d1 y)(a, b, c) = y(b, c) - y(a, c) + m(b, c) y(a, b).
    """
    off0, n0 = {}, 0
    for i in range(len(poset)):
        off0[i], n0 = n0, n0 + dim(i)
    off1, n1 = {}, 0
    for (a, b) in poset.chains2:
        off1[a, b], n1 = n1, n1 + dim(b)
    rows0 = []
    for (a, b) in poset.chains2:
        m = matrix(a, b)
        for i in range(dim(b)):
            row = [0] * n0
            row[off0[b] + i] += 1
            for j in range(dim(a)):
                row[off0[a] + j] -= m[i, j]
            rows0.append(row)
    rows1 = []
    for (a, b, c) in poset.chains3:
        m = matrix(b, c)
        for i in range(dim(c)):
            row = [0] * n1
            row[off1[b, c] + i] += 1
            row[off1[a, c] + i] -= 1
            for j in range(dim(b)):
                row[off1[a, b] + j] += m[i, j]
            rows1.append(row)
    n2 = len(rows1)
    d0 = IntMatrix.from_rows(rows0) if rows0 else IntMatrix.zero(0, n0)
    d1 = IntMatrix.from_rows(rows1) if rows1 else IntMatrix.zero(0, n1)
    return (n0, n1, n2), d0, d1


def dense_limits(poset, dim, matrix, p):
    """(lim^0, lim^1, lim^2) from the dense complex, after asserting d1 d0 = 0 mod p."""
    (n0, n1, n2), d0, d1 = dense_complex(poset, dim, matrix)
    assert all(e % p == 0 for e in (d1 * d0).entries)
    r0, r1 = rref_rank(d0, p), rref_rank(d1, p)
    return n0 - r0, n1 - r1 - r0, n2 - r1
