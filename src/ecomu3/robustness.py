"""Robustness of the higher limits against the reconstructed diagram maps.

The bundled matrices are data, not derivations, so the limit computation must
not secretly depend on arbitrary choices.  For each lower arrow of the
diagram (the six maps out of the one-element subsets) and each degree, this
module enumerates every matrix with the same mod-p kernel and image as the
bundled one (exactly when the twist group is small, a deterministic sample
otherwise), keeps those variants that still extend to a functorial diagram
(the two upper maps are re-solved, the identity at (0,2)->(0,1,2) is kept),
and recomputes (lim^0, lim^1).  The claim under test: the values never move.

The recomputation is exact but incremental: a variant changes only seven of
the twelve arrows, so the rows of the chain blocks it cannot change are
reduced once per (arrow, degree), and each variant inserts only its own rows
into a copy of that echelon basis (see :class:`VariantLimits`).
"""

from __future__ import annotations

import random
from itertools import product as iproduct

from .diagram import equal_modp
from .limits import (CochainLayout, check_complex, higher_limits,
                     lims_from_ranks)
from .linalg import EchelonBasis, IntMatrix, modp_rref, modp_solve

# the maps out of (0) are pinned canonical inclusions (their twist freedom is
# a basis gauge); the other four lower arrows are genuinely under-determined
LOWER_ARROWS = [(1, 3), (2, 4), (1, 5), (2, 5)]
# the arrows _complete re-solves: with the varied arrow, the only ones a
# variant can change
COMPLETED_ARROWS = [(3, 6), (5, 6), (0, 6), (1, 6), (2, 6)]
EXHAUSTIVE_LIMIT = 2000
SAMPLE_SIZE = 200


def _column_space_basis(m, p):
    rref, pivots = modp_rref([m.row(i) for i in range(m.rows)], m.cols, p)
    cols = []
    for j in pivots:
        cols.append(m.column(j))
    return cols


def _factor(m, p):
    """m = B * S with B a basis of the image and S full-row-rank."""
    cols = _column_space_basis(m, p)
    r = len(cols)
    if r == 0:
        return None
    B = IntMatrix.from_columns(cols, rows=m.rows)
    rows_S = []
    for j in range(m.cols):
        sol = modp_solve(B, m.column(j), p)
        rows_S.append(sol)
    S = IntMatrix.from_columns(rows_S, rows=r)
    return B, S, r


def _gl_elements(r, p, rng):
    """All of GL_r(F_p) if small, else a deterministic sample."""
    total_candidates = p ** (r * r)
    if total_candidates <= EXHAUSTIVE_LIMIT * 4:
        out = []
        for entries in iproduct(range(p), repeat=r * r):
            g = IntMatrix(r, r, entries)
            if _invertible(g, p):
                out.append(g)
        return out, True
    out = []
    seen = set()
    while len(out) < SAMPLE_SIZE:
        g = IntMatrix(r, r, [rng.randrange(p) for _ in range(r * r)])
        if g.entries in seen:
            continue
        seen.add(g.entries)
        if _invertible(g, p):
            out.append(g)
    return out, False


def _invertible(g, p):
    _, pivots = modp_rref([g.row(i) for i in range(g.rows)], g.cols, p)
    return len(pivots) == g.rows


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


def _complete(diagram, k, replaced):
    """Re-solve the upper maps after replacing lower matrices, or None.

    The unknowns are the map (1,2) -> (0,1,2) and the free columns of
    (0,1) -> (0,1,2); per output row they satisfy one joint linear system
    (the (2,4)-composite condition and the two-route condition through the
    one-element subsets), which is solved exactly over F_p.  Returns the full
    degree-k matrix assignment for all twelve arrows, or None when the
    replacement cannot be made functorial.
    """
    p = diagram.prime
    get = lambda a, b: replaced.get((a, b), diagram.matrix(a, b, k))
    a1, a2, a3 = get(0, 3), get(1, 3), get(0, 4)
    a4, a5, a6 = get(2, 4), get(1, 5), get(2, 5)
    dv = {i: diagram.dim(i, k) for i in range(7)}
    dv0, dv1, dv2 = dv[0], dv[1], dv[2]
    nb = dv[3] - dv0
    n_unknown = dv[5] + nb
    a2_top = [a2.row(i) for i in range(dv0)]
    a2_bot = [a2.row(i) for i in range(dv0, dv[3])]
    sys_rows = []
    for j in range(dv2):          # (b3 row) . a6 column j = a4[i, j]
        sys_rows.append([a6[t, j] for t in range(dv[5])] + [0] * nb)
    for j in range(dv1):          # b1free . a2_bot - b3 . a5 matches the unit part
        sys_rows.append([-a5[t, j] for t in range(dv[5])]
                        + [a2_bot[t][j] for t in range(nb)])
    b3_rows, b1f_rows = [], []
    if not sys_rows or n_unknown == 0:
        for i in range(dv[6]):
            for j in range(dv2):
                if a4[i, j] % p:
                    return None
            for j in range(dv1):
                if sum(a3[i, t] * a2_top[t][j] for t in range(dv0)) % p:
                    return None
        b3_rows = [[0] * dv[5] for _ in range(dv[6])]
        b1f_rows = [[0] * nb for _ in range(dv[6])]
    else:
        # one reduction of [M | B] solves every output row at once: the pivots
        # in M's columns do not depend on B, a pivot in B's columns means some
        # row has no solution, and reduced row echelon form is unique, so each
        # solution is the one a separate reduction of [M | b] gives
        rhs = []
        for i in range(dv[6]):
            b = [a4[i, j] for j in range(dv2)]
            b += [-sum(a3[i, t] * a2_top[t][j] for t in range(dv0))
                  for j in range(dv1)]
            rhs.append(b)
        aug = [row + [b[r] for b in rhs] for r, row in enumerate(sys_rows)]
        rref, pivots = modp_rref(aug, n_unknown + dv[6], p)
        if pivots and pivots[-1] >= n_unknown:
            return None
        for i in range(dv[6]):
            sol = [0] * n_unknown
            for row, piv in zip(rref, pivots):
                sol[piv] = row[n_unknown + i]
            b3_rows.append(sol[:dv[5]])
            b1f_rows.append(sol[dv[5]:])
    b3 = IntMatrix.from_rows(b3_rows) if b3_rows else IntMatrix.zero(0, dv[5])
    b1 = IntMatrix.from_rows(
        [a3.row(i) + b1f_rows[i] for i in range(dv[6])]) \
        if dv[6] else IntMatrix.zero(0, dv[3])
    b2 = IntMatrix.identity(dv[6])

    def mod(m):
        return IntMatrix(m.rows, m.cols, [e % p for e in m.entries])

    out = {(0, 3): a1, (1, 3): a2, (0, 4): a3, (2, 4): a4,
           (1, 5): a5, (2, 5): a6, (3, 6): b1, (4, 6): b2, (5, 6): b3,
           (0, 6): mod(b1 * a1), (1, 6): mod(b1 * a2), (2, 6): mod(b2 * a4)}
    return out


class VariantLimits:
    """Higher limits of the compatible variants of one (arrow, degree) block.

    A variant changes only ``arrow`` and COMPLETED_ARROWS, so the rows of
    every other chain block are reduced here once, and each variant inserts
    only its changed rows into copies of those two bases.
    """

    def __init__(self, diagram, arrow, degree):
        self.diagram, self.degree, self.p = diagram, degree, diagram.prime
        self.chains3 = diagram.poset.chains3
        changed = {arrow, *COMPLETED_ARROWS}
        self.kept = [ab for ab in diagram.poset.chains2 if ab not in changed]
        self.changed0 = [ab for ab in diagram.poset.chains2 if ab in changed]
        self.changed1 = [abc for abc in self.chains3 if abc[1:] in changed]
        self.layout = layout = CochainLayout(diagram, degree)
        self.fixed0, self.fixed1 = EchelonBasis(self.p), EchelonBasis(self.p)
        for a, b in self.kept:
            self.fixed0.insert_all(
                layout.delta0_block(a, b, diagram.matrix(a, b, degree)))
        for a, b, c in self.chains3:
            if (b, c) not in changed:
                self.fixed1.insert_all(
                    layout.delta1_block(a, b, c, diagram.matrix(b, c, degree)))

    def __call__(self, maps):
        """(lim^0, lim^1, lim^2) once the degree's twelve maps are ``maps``.

        Raises like :func:`higher_limits` when delta1 . delta0 != 0.
        """
        diagram, k, p = self.diagram, self.degree, self.p
        for a, b in self.kept:
            if not equal_modp(maps[a, b], diagram.matrix(a, b, k), p):
                raise ValueError(f"variant changes {diagram.arrow_name(a, b)}")
        check_complex(lambda a, b: maps[a, b], self.chains3, k, p)
        basis0, basis1 = self.fixed0.copy(), self.fixed1.copy()
        for a, b in self.changed0:
            basis0.insert_all(self.layout.delta0_block(a, b, maps[a, b]))
        for a, b, c in self.changed1:
            basis1.insert_all(self.layout.delta1_block(a, b, c, maps[b, c]))
        return lims_from_ranks(self.layout.dims, len(basis0), len(basis1))


def check_block(diagram, arrow, degree, rng_seed=0):
    """(baseline lims, #variants tried, #compatible, exhaustive?, stable?)."""
    p = diagram.prime
    m = diagram.matrix(*arrow, degree)
    if m.rows == 0 or m.cols == 0:
        return None
    rng = random.Random(rng_seed + 1000 * degree)
    variants, exhaustive = kernel_image_variants(m, p, rng)
    baseline = higher_limits(diagram, degree)[:2]
    variant_limits = VariantLimits(diagram, arrow, degree)
    compatible = 0
    stable = True
    for v in variants:
        if v == m:
            compatible += 1
            continue
        completion = _complete(diagram, degree, {arrow: v})
        if completion is None:
            continue
        compatible += 1
        if variant_limits(completion)[:2] != baseline:
            stable = False
            break
    return {"baseline": baseline, "variants": len(variants),
            "compatible": compatible, "exhaustive": exhaustive,
            "stable": stable}


def sweep(diagram, degrees=None, rng_seed=0):
    """Run check_block over every under-determined lower block."""
    out = {}
    degrees = range(diagram.max_degree + 1) if degrees is None else degrees
    for arrow in LOWER_ARROWS:
        for k in degrees:
            result = check_block(diagram, arrow, k, rng_seed=rng_seed)
            if result is not None and result["variants"] > 1:
                out[(arrow, k)] = result
    return out
