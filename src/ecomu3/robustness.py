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

The recomputation is exact but incremental.  It uses the formulas of
:mod:`ecomu3.limits`: lim^0 is the kernel of the hexagon of the six lower
maps, and lim^2 the cokernel of the maps into (0,1,2).  A variant changes only
the varied arrow among the lower maps, so the hexagon rows it cannot reach
are eliminated once per (arrow, degree) and each variant inserts only the
rows of the one pair its arrow enters (see :class:`VariantLimits`).  The
completion, too, builds once per block what the varied arrow cannot change
(:class:`Completion`).  The completion sets m(0,6) = m(3,6) m(0,3),
m(1,6) = m(3,6) m(1,3) and m(2,6) = m(2,4) with m(4,6) the identity, so the
chains (0,3,6), (1,3,6) and (2,4,6) commute by construction; a variant
checks only the other three, the ones its F_p solve closes.  Of those,
(0,4,6) has both route arrows kept, so its route is multiplied out once per
block and each variant's m(0,6) is compared with it.
"""

from __future__ import annotations

import random
from itertools import product as iproduct

from .diagram import equal_modp
from .limits import (PAIRS, check_complex, complex_sizes, hexagon_half,
                     hexagon_rows, higher_limits, top_image_dim)
from .matrix import EchelonBasis, IntMatrix, modp_rank, modp_rref

# the maps out of (0) are pinned canonical inclusions (their twist freedom is
# a basis gauge); the other four lower arrows are genuinely under-determined
LOWER_ARROWS = [(1, 3), (2, 4), (1, 5), (2, 5)]
# the arrows a Completion re-solves: with the varied arrow, the only ones a
# variant can change
COMPLETED_ARROWS = [(3, 6), (5, 6), (0, 6), (1, 6), (2, 6)]
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


class Completion:
    """The functorial completions of one (arrow, degree) block.

    Calling it with a variant of ``arrow`` re-solves the upper maps, or
    returns None when the variant cannot be made functorial.  The unknowns
    are the map (1,2) -> (0,1,2) and the free columns of (0,1) -> (0,1,2); per
    output row they satisfy one joint linear system (the (2,4)-composite
    condition and the two-route condition through the one-element subsets),
    which is solved exactly over F_p.  Whatever the varied arrow cannot
    change (dims, system rows, right-hand sides, the identity (0,2) ->
    (0,1,2)) is built once here.

    The maps (0) -> (0,1,2) and (1) -> (0,1,2) are defined as the composites
    through (0,1), and (2) -> (0,1,2) as the one through (0,2), so the
    chains (0,3,6), (1,3,6) and (2,4,6) commute by construction.  The
    ``solved_chains`` are the other three: the solve closes them, and
    :meth:`VariantLimits.of_completion` checks them ((0,4,6) against a
    route computed once per block).
    """

    solved_chains = ((0, 4, 6), (1, 5, 6), (2, 5, 6))

    def __init__(self, diagram, arrow, k):
        self.p = p = diagram.prime
        self.arrow = arrow
        self.maps = {ab: diagram.matrix(*ab, k)
                     for ab in diagram.poset.chains2}
        dv = [diagram.dim(i, k) for i in range(7)]
        self.dv = dv
        self.nb = nb = dv[3] - dv[0]
        self.n_unknown = dv[5] + nb
        a3 = self.maps[0, 4]
        # b1 = [a3 | free columns]: its fixed part, row-major
        self.b1_base = [e for i in range(dv[6])
                        for e in a3.row(i) + [0] * nb]
        # b2 is the identity; the diagram's own matrix is kept when it is one,
        # so that a caller can compare the kept arrows by identity
        identity = IntMatrix.identity(dv[6])
        if not equal_modp(self.maps[4, 6], identity, p):
            self.maps[4, 6] = identity
        self.top = None if arrow in ((2, 4), (2, 5)) else self._top(self.maps)
        self.rhs = None if arrow == (1, 3) else self._rhs(self.maps)
        self.bottom = (None if arrow in ((1, 3), (1, 5))
                       else self._bottom(self.maps, self.rhs))

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

    def __call__(self, v):
        """The degree's twelve maps with ``arrow`` replaced by v, or None."""
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


def _mod(m, p):
    return IntMatrix(m.rows, m.cols, [e % p for e in m.entries])


class VariantLimits:
    """Higher limits of the compatible variants of one (arrow, degree) block.

    A variant changes only ``arrow`` and COMPLETED_ARROWS, and lim^0 is the
    kernel of the hexagon H, which reads the six lower maps (see
    :mod:`ecomu3.limits`).  So the rows of H at the two pairs ``arrow`` does
    not enter are eliminated once, and so is the half of its own pair's rows
    that the kept arrow into that pair gives; a variant inserts only that
    pair's rows, into a copy of the fixed basis.  When the kept m(4,6) alone
    spans (0,1,2), as in every diagram ``validate`` accepts, lim^2 = 0 for
    every variant; otherwise each variant ranks the image in (0,1,2).
    lim^1 = lim^0 + lim^2 - (n0 - n1 + n2).
    """

    solved_through_pairs = tuple(c for c in Completion.solved_chains
                                 if c != (0, 4, 6))

    def __init__(self, diagram, arrow, degree):
        self.diagram, self.degree = diagram, degree
        self.p = p = diagram.prime
        self.arrow = a, b = arrow
        poset = diagram.poset
        self.chains3 = poset.chains3
        changed = {arrow, *COMPLETED_ARROWS}
        self.kept = kept = {ab: diagram.matrix(*ab, degree)
                            for ab in poset.chains2 if ab not in changed}
        # both arrows of the route (0) -> (0,2) -> (0,1,2) are kept, so the
        # route is the same for every variant: multiply it out once
        self.route06 = _mod(kept[4, 6] * kept[0, 4], p)
        self.dims = dims = [diagram.dim(i, degree) for i in range(len(poset))]
        n0, n1, n2 = complex_sizes(poset, dims)
        self.chi = n0 - n1 + n2
        self.fixed = EchelonBasis(p)
        self.fixed.insert_all(hexagon_rows(
            dims, lambda x, y: kept[x, y], p,
            [pair for pair in PAIRS if pair[0] != b]))
        other = next(i for i in PAIRS[b - 3][1:] if i != a)
        self.kept_half = hexagon_half(dims, other, b, kept[other, b], p)
        self.lim0_bound = dims[0] + dims[1] + dims[2] - len(self.fixed)
        self.lim2 = 0 if modp_rank(kept[4, 6], p) == dims[6] else None

    def __call__(self, maps, chains3=None, route06=None):
        """(lim^0, lim^1, lim^2) once the degree's twelve maps are ``maps``.

        Raises like :func:`higher_limits` when delta1 . delta0 != 0 at one
        of ``chains3`` (all 3-chains by default), or when m(0,6) is not
        ``route06``, if given.
        """
        diagram, p, dims = self.diagram, self.p, self.dims
        if chains3 is None:
            chains3 = self.chains3
        for ab, m in self.kept.items():
            if maps[ab] is not m and not equal_modp(maps[ab], m, p):
                raise ValueError(f"variant changes {diagram.arrow_name(*ab)}")
        if route06 is not None and not equal_modp(maps[0, 6], route06, p):
            raise AssertionError(
                f"delta1 . delta0 != 0 in degree {self.degree}")
        check_complex(lambda a, b: maps[a, b], chains3, self.degree, p)
        # lim^0 is at most the fixed rows' corank, and no row lowers it below 0
        lim0 = self.lim0_bound
        if lim0:
            a, b = self.arrow
            basis = self.fixed.copy()
            for row, kept in zip(hexagon_half(dims, a, b, maps[a, b], p),
                                 self.kept_half):
                row.update(kept)
                lim0 -= basis.insert(row)
                if not lim0:
                    break
        lim2 = self.lim2
        if lim2 is None:
            lim2 = dims[6] - top_image_dim(dims, lambda x, y: maps[x, y], p)
        return lim0, lim0 + lim2 - self.chi, lim2

    def of_completion(self, maps):
        """``self(maps)`` for maps returned by a :class:`Completion`, which
        checks only the chains the completion's solve closes: (0,4,6) by
        comparing m(0,6) with the block's route, the other two by their
        products."""
        return self(maps, self.solved_through_pairs, self.route06)


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
    baseline = higher_limits(diagram, degree)[:2]
    complete = Completion(diagram, arrow, degree)
    variant_limits = VariantLimits(diagram, arrow, degree)
    compatible = 0
    stable = True
    for v in variants:
        if v == m:
            compatible += 1
            continue
        completion = complete(v)
        if completion is None:
            continue
        compatible += 1
        if variant_limits.of_completion(completion)[:2] != baseline:
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
