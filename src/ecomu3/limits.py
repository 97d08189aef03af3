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
"""

from __future__ import annotations

from .diagram import commutes
from .linalg import EchelonBasis


class NonVanishingLim2(RuntimeError):
    pass


class CochainLayout:
    """The column offsets of C^0 and C^1 in fiber degree k, and the row blocks.

    Rows are sparse ``{column: value}`` dicts with values reduced mod p.  A
    block depends on one map only (see the module docstring), so a caller
    can rebuild the blocks of changed maps alone.
    """

    def __init__(self, diagram, k):
        poset = diagram.poset
        self.p = diagram.prime
        self.object_dims = [diagram.dim(i, k) for i in range(len(poset))]
        self.off0 = _offsets(self.object_dims)
        targets = [self.object_dims[b] for _, b in poset.chains2]
        self.off1 = dict(zip(poset.chains2, _offsets(targets)))
        self.dims = (sum(self.object_dims), sum(targets),
                     sum(self.object_dims[c] for _, _, c in poset.chains3))

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
    """Raise unless delta1 . delta0 = 0 in fiber degree k.

    ``matrix(a, b)`` gives the map a -> b; the product vanishes iff every
    3-chain commutes over F_p (see the module docstring).
    """
    for a, b, c in chains3:
        if not commutes(matrix(a, b), matrix(b, c), matrix(a, c), p):
            raise AssertionError(f"delta1 . delta0 != 0 in degree {k}")


def block_rank(blocks, p):
    """F_p rank of the rows of all the given row blocks."""
    return EchelonBasis(p).insert_all(row for rows in blocks for row in rows)


def lims_from_ranks(dims, r0, r1):
    """(lim^0, lim^1, lim^2) from the sizes and the two differential ranks."""
    n0, n1, n2 = dims
    return n0 - r0, (n1 - r1) - r0, n2 - r1


def higher_limits(diagram, k):
    """(dim lim^0, dim lim^1, dim lim^2) in fiber degree k."""
    p = diagram.prime
    # d1 d0 = 0 is part of the complex structure; check it
    check_complex(lambda a, b: diagram.matrix(a, b, k), diagram.poset.chains3,
                  k, p)
    dims, delta0, delta1 = cosimplicial_complex(diagram, k)
    return lims_from_ranks(dims, block_rank(delta0.values(), p),
                           block_rank(delta1.values(), p))


def lim2_vanishing_check(diagram, k):
    """True iff the second differential is surjective in fiber degree k.

    The bundled diagrams satisfy the hypothesis that the spaces at (0,2) and
    (0,1,2) agree with identity comparison map, which forces surjectivity;
    synthetic diagrams may fail.
    """
    (n0, n1, n2), _, delta1 = cosimplicial_complex(diagram, k)
    return block_rank(delta1.values(), diagram.prime) == n2


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
            raise NonVanishingLim2(f"lim^2 = {l2} in fiber degree {k}")
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
