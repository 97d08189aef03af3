"""Cosimplicial replacement and higher limits over the subset poset.

The normalized cochain complex of a diagram D has

    C^0 = product of D over objects,
    C^1 = product of D(target) over strict containments,
    C^2 = product of D(target) over 2-step chains,

with differentials the alternating sums of the coface maps: on C^0 the
difference "value at the target minus the map applied to the source", on C^1
the three-term sum dropping the first object, composing, or pushing the last
map.  The cohomology at positions 0, 1, 2 gives the derived limits; assembly
of the homotopy-colimit answer only needs positions 0 and 1 once position 2
is checked to vanish.

In formulas, with m(a, b) the map a -> b,

    (delta0 x)(a, b)    = x(b) - m(a, b) x(a),
    (delta1 y)(a, b, c) = y(b, c) - y(a, c) + m(b, c) y(a, b),

so the rows of delta0 at the 2-chain (a, b) depend on m(a, b) alone and the
rows of delta1 at the 3-chain (a, b, c) on m(b, c) alone.  The block of
delta1 . delta0 at (a, b, c) and the source a is m(a, c) - m(b, c) m(a, b),
and every other block is 0: the complex condition is functoriality along
each 3-chain.

:func:`higher_limits` needs neither differential in full.  Number the objects
0:(0) 1:(1) 2:(2) 3:(0,1) 4:(0,2) 5:(1,2) 6:(0,1,2) and let d_i be the
dimension at object i.  Then

    lim^0 = dim ker H,  H(x0, x1, x2) = (m(0,3) x0 - m(1,3) x1,
                                         m(0,4) x0 - m(2,4) x2,
                                         m(1,5) x1 - m(2,5) x2),
    lim^2 = d6 - dim(im m(3,6) + im m(4,6) + im m(5,6)),
    lim^1 = lim^0 + lim^2 - (n0 - n1 + n2),

with n0 = sum d_i, n1 = 2 (d3 + d4 + d5) + 6 d6 and n2 = 6 d6 the sizes of
C^0, C^1 and C^2.

lim^0: a family x in ker delta0 has x(ij) = m(i, ij) x(i), so it is fixed by
its values at the singletons, and those values make the pair conditions
consistent iff H x = 0.  The value at (0,1,2) is then m(i,6) x(i) for every
i, and these agree with each other and with m(ij,6) x(ij) because
m(i,6) = m(ij,6) m(i,ij) along each 3-chain.  So this formula needs
functoriality, which :func:`check_complex` checks first.

lim^2: every 3-chain is (i, ij, 6), and C^2 is six copies of V6.  In delta1,
the coordinate y(i,6) enters the chains (i, ij, 6) with -1 and y(ij,6) the
chains (i, ij, 6) with +1: the incidence matrix of a 6-cycle (the arrows into
(0,1,2) as vertices, the 3-chains as edges) tensored with the identity of
V6.  A connected cycle's incidence matrix has rank 5 over any field, and its
image is the kernel of the signed sum over the cycle.  The remaining
coordinates y(i, ij) enter only the chain (i, ij, 6), through m(ij,6), so
their image under the signed sum is im m(3,6) + im m(4,6) + im m(5,6).  Hence
rank delta1 = 5 d6 + dim(im m(3,6) + im m(4,6) + im m(5,6)), for any diagram,
functorial or not.

lim^1 = (n1 - rank delta1) - rank delta0, with rank delta0 = n0 - lim^0 and
rank delta1 = n2 - lim^2, which is the Euler-characteristic formula above.
At p=3 the two matrices ranked are at most 18 x 9 and 9 x 18, where delta0
and delta1 are up to 88 x 33 and 54 x 88.  The robustness sweep ranks H from
the same rows (:func:`hexagon_rows`, :func:`hexagon_half`): each row of H
reads one pair's two maps, so the rows a varied lower map cannot reach are
eliminated once per block.
"""

from __future__ import annotations

from .diagram import commutes
from .matrix import EchelonBasis


class NonVanishingLim2(RuntimeError):
    """lim^2 != 0 in fiber degree ``degree``."""

    def __init__(self, degree, dim):
        super().__init__(f"lim^2 = {dim} in fiber degree {degree}")
        self.degree = degree


class CochainLayout:
    """The offsets of C^0 and C^1 in fiber degree k, and the row blocks.

    Rows are sparse ``{index: value}`` dicts with values reduced mod p.  A row
    block depends on one map only (see the module docstring).
    """

    def __init__(self, diagram, k):
        poset = diagram.poset
        self.p = diagram.prime
        self.object_dims = [diagram.dim(i, k) for i in range(len(poset))]
        self.off0 = _offsets(self.object_dims)
        targets = [self.object_dims[b] for _, b in poset.chains2]
        self.off1 = dict(zip(poset.chains2, _offsets(targets)))
        self.dims = complex_sizes(poset, self.object_dims)

    def delta0_block(self, a, b, m):
        """Rows of delta0 at the 2-chain (a, b), where m is the map a -> b."""
        p, n = self.p, m.cols
        src, tgt = self.off0[a], self.off0[b]
        rows = []
        for i in range(self.object_dims[b]):
            row = {src + j: -e % p
                   for j, e in enumerate(m.entries[i * n:(i + 1) * n]) if e % p}
            row[tgt + i] = 1
            rows.append(row)
        return rows

    def delta1_block(self, a, b, c, m):
        """Rows of delta1 at the 3-chain (a, b, c), where m is the map b -> c."""
        p, n = self.p, m.cols
        ab, ac, bc = self.off1[a, b], self.off1[a, c], self.off1[b, c]
        rows = []
        for i in range(self.object_dims[c]):
            row = {ab + j: e % p
                   for j, e in enumerate(m.entries[i * n:(i + 1) * n]) if e % p}
            row[bc + i] = 1
            row[ac + i] = p - 1
            rows.append(row)
        return rows


def complex_sizes(poset, dims):
    """(n0, n1, n2), the sizes of C^0, C^1 and C^2 for object dimensions dims."""
    return (sum(dims), sum(dims[b] for _, b in poset.chains2),
            sum(dims[c] for _, _, c in poset.chains3))


def cosimplicial_complex(diagram, k):
    """((n0, n1, n2), delta0, delta1) of the normalized complex in fiber degree k.

    delta0 maps each 2-chain, and delta1 each 3-chain, to its block of rows
    (see :class:`CochainLayout`), in chain order.
    """
    poset = diagram.poset
    layout = CochainLayout(diagram, k)
    delta0 = {(a, b): layout.delta0_block(a, b, diagram.matrix(a, b, k))
              for (a, b) in poset.chains2}
    delta1 = {(a, b, c): layout.delta1_block(a, b, c, diagram.matrix(b, c, k))
              for (a, b, c) in poset.chains3}
    return layout.dims, delta0, delta1


def check_complex(matrix, chains3, k, p):
    """Raise unless delta1 . delta0 = 0 at the given 3-chains in fiber degree k.

    ``matrix(a, b)`` gives the map a -> b; the product's block at a 3-chain
    vanishes iff the chain commutes over F_p (see the module docstring), so
    passing every 3-chain checks the whole product.
    """
    for a, b, c in chains3:
        if not commutes(matrix(a, b), matrix(b, c), matrix(a, c), p):
            raise AssertionError(f"delta1 . delta0 != 0 in degree {k}")


# each pair object with its two singletons: the hexagon of lower maps
PAIRS = ((3, 0, 1), (4, 0, 2), (5, 1, 2))


def hexagon_half(dims, a, b, m, p):
    """The rows of H at the pair b, on the columns of the singleton a: one
    sparse row per coordinate of b, m = m(a, b) for the pair's first singleton
    and -m for its second.  ``dims`` lists the object dimensions."""
    off, n = sum(dims[:a]), m.cols
    sign = 1 if PAIRS[b - 3][1] == a else -1
    return [{off + c: sign * e % p
             for c, e in enumerate(m.entries[r * n:(r + 1) * n]) if e % p}
            for r in range(m.rows)]


def hexagon_rows(dims, matrix, p, pairs=PAIRS):
    """The rows of H at the given pairs; ``matrix(a, b)`` gives the map a -> b."""
    for b, i, j in pairs:
        for row, tail in zip(hexagon_half(dims, i, b, matrix(i, b), p),
                             hexagon_half(dims, j, b, matrix(j, b), p)):
            row.update(tail)
            yield row


def hexagon_kernel_dim(dims, matrix, p):
    """dim ker H: the families on the singletons that agree on every pair.

    ``dims`` lists the object dimensions and ``matrix(a, b)`` gives the map
    a -> b; only the six maps from singletons to pairs are read.  This is
    lim^0 of a functorial diagram (see the module docstring).
    """
    return sum(dims[:3]) - EchelonBasis(p).insert_all(
        hexagon_rows(dims, matrix, p))


def top_image_dim(dims, matrix, p):
    """dim(im m(3,6) + im m(4,6) + im m(5,6)) inside the space at (0,1,2).

    The columns of m(4,6) go in first: in the bundled diagrams it is the
    identity, so the span is everything before any column needs reducing.
    """
    d6 = dims[6]
    basis = EchelonBasis(p)
    for b in (4, 3, 5):
        m = matrix(b, 6)
        for j in range(m.cols):
            if len(basis) == d6:
                return d6
            basis.insert({i: e % p for i, e in
                          enumerate(m.entries[j::m.cols]) if e % p})
    return len(basis)


def higher_limits(diagram, k):
    """(dim lim^0, dim lim^1, dim lim^2) in fiber degree k, from the hexagon
    kernel and the image in (0,1,2) (see the module docstring)."""
    p, poset = diagram.prime, diagram.poset
    maps = {ab: diagram.matrix(*ab, k) for ab in poset.chains2}
    matrix = lambda a, b: maps[a, b]
    # d1 d0 = 0 is part of the complex structure, and the lim^0 formula
    # needs it; check it
    check_complex(matrix, poset.chains3, k, p)
    dims = [diagram.dim(i, k) for i in range(len(poset))]
    n0, n1, n2 = complex_sizes(poset, dims)
    lim0 = hexagon_kernel_dim(dims, matrix, p)
    lim2 = dims[6] - top_image_dim(dims, matrix, p)
    return lim0, lim0 + lim2 - (n0 - n1 + n2), lim2


def lim2_vanishing_check(diagram, k):
    """True iff the second differential is surjective in fiber degree k,
    i.e. the maps into (0,1,2) jointly span it.  Runs no functoriality check.

    The bundled diagrams satisfy the hypothesis that the spaces at (0,2) and
    (0,1,2) agree with identity comparison map, which forces surjectivity;
    synthetic diagrams may fail.
    """
    dims = [diagram.dim(i, k) for i in range(len(diagram.poset))]
    matrix = lambda a, b: diagram.matrix(a, b, k)
    return top_image_dim(dims, matrix, diagram.prime) == dims[6]


def bk_assemble(diagram, top_degree=None):
    """Graded F_p dimensions of the homotopy colimit's cohomology.

    Checks lim^2 = 0 in every fiber degree first; the spectral sequence then
    has only two nonzero columns, collapses, and H^n is lim^0 in degree n
    plus lim^1 in degree n - 1.
    """
    kmax = diagram.max_degree if top_degree is None else top_degree
    lims = {}
    for k in range(kmax + 1):
        l0, l1, l2 = higher_limits(diagram, k)
        if l2 != 0:
            raise NonVanishingLim2(k, l2)
        lims[k] = (l0, l1)
    dims = []
    for n in range(kmax + 2):
        l0 = lims.get(n, (0, 0))[0]
        l1 = lims.get(n - 1, (0, 0))[1]
        dims.append(l0 + l1)
    while dims and dims[-1] == 0:
        dims.pop()
    return dims, lims


def _offsets(blocks):
    out = []
    total = 0
    for b in blocks:
        out.append(total)
        total += b
    return out
