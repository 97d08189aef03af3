"""Robustness of the higher limits against the reconstructed diagram maps.

The bundled matrices are data, not derivations, so the limit computation must
not secretly depend on arbitrary choices.  For each lower arrow of the
diagram (the six maps out of the one-element subsets) and each degree, this
module enumerates every matrix with the same mod-p kernel and image as the
bundled one (exactly when the twist group is small, a deterministic sample
otherwise), keeps those variants that still extend to a functorial diagram
(the two upper maps are re-solved, the identity at (0,2)->(0,1,2) is kept),
and recomputes (lim^0, lim^1).  The claim under test: the values never move.
The variants of a map m of rank r are B G S with G in GL_r(F_p), from one
elimination of m: B is its pivot columns and S its reduced echelon form.

The recomputation is exact but incremental, one :class:`Block` per (arrow,
degree).  It uses the formulas of :mod:`ecomu3.limits`: lim^0 is the kernel
of the hexagon of the six lower maps, and lim^2 the cokernel of the maps into
(0,1,2).  A variant changes only the varied arrow among the lower maps, so
the hexagon rows it cannot reach are eliminated once per block and each
variant inserts only the rows of the one pair its arrow enters.  The block
refuses a diagram whose m(4,6) is not the identity mod p, as validation
does; that m(4,6) alone spans (0,1,2), so lim^2 = 0 for every variant.  The
completion sets m(0,6) = m(3,6) m(0,3), m(1,6) = m(3,6) m(1,3) and
m(2,6) = m(2,4), so the chains (0,3,6), (1,3,6) and (2,4,6) commute by
construction; a variant checks only the other three, the ones its F_p solve
closes: (0,4,6) by comparing m(0,6) with m(0,4), and (1,5,6) and (2,5,6) by
their products.
"""

from __future__ import annotations

import random
from itertools import product as iproduct

from .diagram import equal_modp
from .limits import (PAIRS, check_complex, complex_sizes, hexagon_half,
                     hexagon_rows, higher_limits)
from .matrix import EchelonBasis, IntMatrix, modp_rank, modp_rref

# the maps out of (0) are pinned canonical inclusions (their twist freedom is
# a basis gauge); the other four lower arrows are genuinely under-determined
LOWER_ARROWS = [(1, 3), (2, 4), (1, 5), (2, 5)]
EXHAUSTIVE_LIMIT = 2000
SAMPLE_SIZE = 200


def _factor(m, p):
    """m = B * S mod p: B is the pivot columns of m, a basis of its image, and
    S the nonzero rows of its reduced echelon form; None when m is 0 mod p."""
    rref, pivots = modp_rref(m.to_lists(), m.cols, p)
    if not pivots:
        return None
    B = IntMatrix.from_columns([m.column(j) for j in pivots], rows=m.rows)
    return B, IntMatrix.from_rows(rref), len(pivots)


def _gl_elements(r, p, rng):
    """All of GL_r(F_p) if small, else a deterministic sample."""
    total_candidates = p ** (r * r)
    if total_candidates <= EXHAUSTIVE_LIMIT * 4:
        return [IntMatrix(r, r, [e for row in rows for e in row])
                for rows in _independent_rows(r, p)], True
    out = []
    seen = set()
    while len(out) < SAMPLE_SIZE:
        g = IntMatrix(r, r, [rng.randrange(p) for _ in range(r * r)])
        if g.entries in seen:
            continue
        seen.add(g.entries)
        if modp_rank(g, p) == r:
            out.append(g)
    return out, False


def _independent_rows(r, p):
    """Every r-tuple of linearly independent vectors of F_p^r, in
    lexicographic order: each is drawn from outside the span of those before
    it.  As rows, these are the invertible matrices in the row-major order of
    their entries."""
    vectors = list(iproduct(range(p), repeat=r))
    partial = [((), {(0,) * r})]          # rows so far, and their span
    for _ in range(r - 1):
        partial = [(rows + (v,), {tuple((x + c * y) % p for x, y in zip(s, v))
                                  for s in span for c in range(p)})
                   for rows, span in partial for v in vectors if v not in span]
    return [rows + (v,) for rows, span in partial
            for v in vectors if v not in span]


def kernel_image_variants(m, p, rng):
    """Matrices with the same kernel and image as m (B G S twists)."""
    fact = _factor(m, p)
    if fact is None:
        return [m], True
    B, S, r = fact
    gl, exhaustive = _gl_elements(r, p, rng)
    out = []
    for g in gl:
        v = B * g * S
        out.append(IntMatrix(m.rows, m.cols, [e % p for e in v.entries]))
    return out, exhaustive


def _mod(m, p):
    return IntMatrix(m.rows, m.cols, [e % p for e in m.entries])


class Block:
    """The compatible variants of one (arrow, degree) block, and their limits.

    Whatever the varied arrow cannot change is built once here: the dims,
    the completion's system rows and right-hand sides, the hexagon rows of
    the two pairs the arrow does not enter, and the half of its own pair's
    rows that the kept arrow into that pair gives.  The completion keeps
    m(4,6), which must be the identity mod p, as :meth:`PosetDiagram.validate`
    requires; then the maps into (0,1,2) span it and lim^2 = 0 for every
    variant, so lim^1 = lim^0 - (n0 - n1 + n2).
    """

    def __init__(self, diagram, arrow, k):
        self.p = p = diagram.prime
        self.k = k
        self.arrow = a, b = arrow
        poset = diagram.poset
        self.maps = maps = {ab: diagram.matrix(*ab, k) for ab in poset.chains2}
        self.dv = dv = [diagram.dim(i, k) for i in range(len(poset))]
        if not equal_modp(maps[4, 6], IntMatrix.identity(dv[6]), p):
            raise ValueError(f"{diagram.arrow_name(4, 6)} is not the identity "
                             f"in degree {k}")
        self.nb = nb = dv[3] - dv[0]
        self.n_unknown = dv[5] + nb
        # b1 = [a3 | free columns]: its fixed part, row-major
        self.b1_base = [e for i in range(dv[6])
                        for e in maps[0, 4].row(i) + [0] * nb]
        self.top = None if arrow in ((2, 4), (2, 5)) else self._top(maps)
        self.rhs = None if arrow == (1, 3) else self._rhs(maps)
        self.bottom = (None if arrow in ((1, 3), (1, 5))
                       else self._bottom(maps, self.rhs))
        n0, n1, n2 = complex_sizes(poset, dv)
        self.chi = n0 - n1 + n2
        self.fixed = EchelonBasis(p)
        self.fixed.insert_all(hexagon_rows(
            dv, lambda x, y: maps[x, y], p,
            [pair for pair in PAIRS if pair[0] != b]))
        other = next(i for i in PAIRS[b - 3][1:] if i != a)
        self.kept_half = hexagon_half(dv, other, b, maps[other, b], p)
        self.lim0_bound = dv[0] + dv[1] + dv[2] - len(self.fixed)

    def _top(self, maps):
        """(b3 row) . a6 column j = a4[i, j]: one system row per j, with the
        right-hand sides of all output rows i appended."""
        a4, a6 = maps[2, 4], maps[2, 5]
        pad = [0] * self.nb
        return [a6.column(j) + pad + a4.column(j) for j in range(self.dv[2])]

    def _rhs(self, maps):
        """-a3 . a2_top, the bottom rows' right-hand sides, as columns."""
        p, dv0 = self.p, self.dv[0]
        a2 = maps[1, 3]
        a2_top = IntMatrix(dv0, a2.cols, a2.entries[:dv0 * a2.cols])
        rhs = maps[0, 4] * a2_top
        return [[-e % p for e in rhs.column(j)] for j in range(self.dv[1])]

    def _bottom(self, maps, rhs):
        """b1free . a2_bot - b3 . a5 = -a3 . a2_top, one row per column j of (1)."""
        p, dv0 = self.p, self.dv[0]
        a2, a5 = maps[1, 3], maps[1, 5]
        return [[-e % p for e in a5.column(j)] + a2.column(j)[dv0:] + rhs[j]
                for j in range(self.dv[1])]

    def complete(self, v):
        """The degree's twelve maps with ``arrow`` replaced by v and the upper
        maps re-solved, or None when v cannot be made functorial.

        The unknowns are the map (1,2) -> (0,1,2) and the free columns of
        (0,1) -> (0,1,2); per output row they satisfy one joint linear system
        (the (2,4)-composite condition and the two-route condition through
        the one-element subsets), which is solved exactly over F_p.  The maps
        (0) -> (0,1,2) and (1) -> (0,1,2) are the composites through (0,1),
        and (2) -> (0,1,2) the one through (0,2), so the chains (0,3,6),
        (1,3,6) and (2,4,6) commute by construction.
        """
        p, dv, n_unknown = self.p, self.dv, self.n_unknown
        maps = dict(self.maps)
        maps[self.arrow] = v
        top = self._top(maps) if self.top is None else self.top
        bottom = self.bottom
        if bottom is None:
            rhs = self._rhs(maps) if self.rhs is None else self.rhs
            bottom = self._bottom(maps, rhs)
        # one reduction of [M | B] solves every output row at once: the pivots
        # in M's columns do not depend on B, a pivot in B's columns means some
        # row has no solution, and reduced row echelon form is unique, so each
        # solution is the one a separate reduction of [M | b] gives
        rref, pivots = modp_rref(top + bottom, n_unknown + dv[6], p)
        if pivots and pivots[-1] >= n_unknown:
            return None
        n5, n3 = dv[5], dv[3]
        b3 = [0] * (dv[6] * n5)
        b1 = list(self.b1_base)
        for row, piv in zip(rref, pivots):
            if piv < n5:
                b3[piv::n5] = row[n_unknown:]
            else:
                b1[dv[0] + piv - n5::n3] = row[n_unknown:]
        b1 = IntMatrix(dv[6], n3, b1)
        maps[3, 6], maps[5, 6] = b1, IntMatrix(dv[6], n5, b3)
        maps[0, 6] = _mod(b1 * maps[0, 3], p)
        maps[1, 6] = _mod(b1 * maps[1, 3], p)
        maps[2, 6] = maps[2, 4]          # b2 . a4 with b2 the identity
        return maps

    def __call__(self, v):
        """(lim^0, lim^1) of v's completion, or None when it has none.

        Raises like :func:`higher_limits` when delta1 . delta0 != 0 at one of
        the chains the completion's solve closes: (0,4,6), which with m(4,6)
        the identity commutes iff m(0,6) = m(0,4), and (1,5,6) and (2,5,6),
        which are multiplied out.
        """
        maps = self.complete(v)
        if maps is None:
            return None
        p, k, dv = self.p, self.k, self.dv
        if not equal_modp(maps[0, 6], maps[0, 4], p):
            raise AssertionError(f"delta1 . delta0 != 0 in degree {k}")
        check_complex(lambda a, b: maps[a, b], ((1, 5, 6), (2, 5, 6)), k, p)
        # lim^0 is at most the fixed rows' corank, and no row lowers it below 0
        lim0 = self.lim0_bound
        if lim0:
            a, b = self.arrow
            basis = self.fixed.copy()
            for row, kept in zip(hexagon_half(dv, a, b, v, p), self.kept_half):
                row.update(kept)
                lim0 -= basis.insert(row)
                if not lim0:
                    break
        return lim0, lim0 - self.chi


def check_block(diagram, arrow, degree, rng_seed=0):
    """The sweep of one block, or None if the block is empty.

    A dict with ``baseline`` ((lim0, lim1) of the diagram as given),
    ``variants`` (how many maps with the block's kernel and image were
    tried, its own map included), ``compatible`` (how many of them the
    upper maps complete to a functor), ``exhaustive`` (whether they are all
    such maps rather than a sample) and ``stable`` (whether every compatible
    variant gives the baseline; the loop, and so the count, stops at the
    first that does not).
    """
    p = diagram.prime
    m = diagram.matrix(*arrow, degree)
    if m.rows == 0 or m.cols == 0:
        return None
    rng = random.Random(rng_seed + 1000 * degree)
    variants, exhaustive = kernel_image_variants(m, p, rng)
    block = Block(diagram, arrow, degree)
    baseline = higher_limits(diagram, degree)[:2]
    compatible = 0
    stable = True
    for v in variants:
        limits = baseline if v == m else block(v)
        if limits is None:
            continue
        compatible += 1
        if limits != baseline:
            stable = False
            break
    return {"baseline": baseline, "variants": len(variants),
            "compatible": compatible, "exhaustive": exhaustive,
            "stable": stable}


def sweep(diagram):
    """Run check_block over every under-determined lower block."""
    out = {}
    for arrow in LOWER_ARROWS:
        for k in range(diagram.max_degree + 1):
            result = check_block(diagram, arrow, k)
            if result is not None and result["variants"] > 1:
                out[(arrow, k)] = result
    return out
