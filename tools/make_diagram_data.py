"""Reconstruct the bundled poset-diagram data files.

The graded dimensions of the seven spaces are fixed inputs (the printed
mod-2 series in ``ecomu3.published`` and DIMS_P3 below); the per-degree
matrices of the diagram are reconstructed here subject to the documented
constraints:

- (0,2) -> (0,1,2) is the identity in every degree,
- degree-0 maps are all the unit map,
- the published pins in ``PINS``,
- functoriality (long maps are composites, both routes agree),
- the per-degree kernel of the compatibility system equals the target lim^0
  (see lim0_targets).

The search is seeded and deterministic; rerunning this script reproduces the
bundled files bit for bit.

Usage:  python tools/make_diagram_data.py [outdir]
"""

import json
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ecomu3 import published
from ecomu3.matrix import (EchelonBasis, IntMatrix, modp_kernel_basis,
                           modp_rank, modp_solve)
from ecomu3.diagram import PosetDiagram
from ecomu3.limits import bk_assemble, hexagon_kernel_dim
from ecomu3.poset import PosetSn

MAXDEG = 14

# the published pins, per prime: (from, to, degree) -> pin kind; the search,
# the constraint records and the mod-2 note all read this table
PINS = {
    2: {**{(a, b, 3): "injective" for a, b in [(0, 3), (0, 4), (2, 4), (2, 5)]},
        (1, 3, 4): "first_coordinate_projection"},
    3: {},
}
PIN_PHRASES = {"injective": "injectivity of {}",
               "first_coordinate_projection": "first-coordinate projection {}"}

# mod-3 series: derived (products of derived factor series; the twisted
# product space from the Euler-characteristic constraints of the column lists)
DIMS_P3 = {
    0: [1, 1, 1, 2, 2, 2, 1, 1, 1],
    1: [1, 0, 2, 1, 3, 2, 2, 3, 1, 2, 0, 1],
    2: [1, 0, 0, 1, 4, 3, 4, 3, 4, 1, 0, 0, 1],
    3: [1, 1, 2, 3, 4, 5, 4, 5, 4, 3, 2, 1, 1],
    4: [1, 1, 1, 3, 5, 6, 6, 8, 9, 7, 5, 4, 3, 1],
    5: [1, 0, 1, 2, 4, 3, 3, 5, 4, 3, 1, 2, 1],
    6: [1, 1, 1, 3, 5, 6, 6, 8, 9, 7, 5, 4, 3, 1],
}


def lim0_targets(p):
    """Target lim^0 per fiber degree: the published column list, with the
    lim^0 of each recorded forced deviation in its place (at p=2 the Euler
    characteristic of the complex forces those degrees away from the
    published values)."""
    targets = dict(published.E2_COLUMNS[p]["lim0"])
    targets.update((k, l0) for k, (l0, _) in
                   published.E2_COLUMNS_FORCED_DEVIATIONS[p].items())
    return targets


def discrepancy_note(p):
    """The recorded-discrepancy note, from the registries in ``published``."""
    columns = published.E2_COLUMNS[p]
    forced = published.E2_COLUMNS_FORCED_DEVIATIONS[p]
    return (
        "recorded discrepancy: with these dims the Euler characteristic of the "
        "cosimplicial complex forces (lim0,lim1) = "
        + ", ".join(f"({l0},{l1}) at k={k}" for k, (l0, l1) in forced.items())
        + ", differing from the published column lists "
        + ", ".join(f"({columns['lim0'].get(k, 0)},{columns['lim1'].get(k, 0)})"
                    for k in forced)
        + "; the assembled table consequently differs from the published "
        f"mod-{p} answer in degrees "
        + " and ".join(map(str, published.ECOM_U3_FORCED_DEVIATIONS[p])))


def pins_note(p):
    """The published pins of ``PINS[p]``, one phrase per kind and degree."""
    label = PosetSn(2).label
    arrows = {}
    for (a, b, k), kind in PINS[p].items():
        arrows.setdefault((kind, k), []).append(f"{label(a)}->{label(b)}")
    return ", ".join(PIN_PHRASES[kind].format(",".join(names)) + f" in degree {k}"
                     for (kind, k), names in arrows.items())


NOTES_P2 = [
    "dims: printed mod-2 series of the seven spaces, verbatim [PAPER]",
    "maps: reconstructed [DERIVED]; pins: identity (0,2)->(0,1,2), unit maps "
    "in degree 0, " + pins_note(2),
    discrepancy_note(2),
]
NOTES_P3 = [
    "dims: [DERIVED] mod-3 series; factors from the transgression engine "
    "(projective unitary group, blockwise-torus quotient) and the Serre "
    "engine (both twisted flag products), Kunneth products elsewhere; the "
    "(1,2) space's series is pinned by the Euler characteristics of the "
    "published mod-3 column lists",
    "maps: reconstructed [DERIVED]; pins as in the mod-2 file",
]


def rand_matrix(rng, rows, cols, p, rank=None):
    if rows == 0 or cols == 0:
        return IntMatrix.zero(rows, cols)
    if rank is None:
        return IntMatrix(rows, cols, [rng.randrange(p) for _ in range(rows * cols)])
    rank = min(rank, rows, cols)
    for _ in range(200):
        left = IntMatrix(rows, rank, [rng.randrange(p) for _ in range(rows * rank)])
        right = IntMatrix(rank, cols, [rng.randrange(p) for _ in range(rank * cols)])
        m = left * right
        m = IntMatrix(rows, cols, [e % p for e in m.entries])
        if modp_rank(m, p) == rank:
            return m
    raise RuntimeError("rank-targeted sampling failed")


def unit_inclusion(rows, cols):
    return IntMatrix(rows, cols,
                     [1 if i == j else 0 for i in range(rows) for j in range(cols)])


def _modp(m, p):
    return IntMatrix(m.rows, m.cols, [e % p for e in m.entries])


def _mul(a, b, p):
    return _modp(a * b, p)


def build_degree(p, k, dims, target_l0, rng, tries=40000):
    """Matrices for one degree: dict arrow-name -> IntMatrix.

    Functoriality is built in: the lower maps are drawn from a family where
    the long composites agree by construction, so the search only has to hit
    the lim^0 target and the published pins.

    Parametrization: A2 = [T*A2b; A2b] (so the top rows kill ker A2b),
    A5 takes ker A2b into ker B3, A4 := B3*A6, and the free columns of the
    upper map from (0,1) are B3*S' - A3*T-shaped solutions of the remaining
    coherence equation.
    """
    dv = [dims[i][k] if k < len(dims[i]) else 0 for i in range(7)]
    dv0, dv1, dv2, dv3, dv4, dv5, dv6 = dv
    assert dv4 == dv6
    if k == 0:
        one = IntMatrix.from_rows([[1]])
        return {name: one for name in
                ("03", "13", "04", "24", "15", "25", "36", "46", "56")}

    a1 = unit_inclusion(dv3, dv0)
    a3 = unit_inclusion(dv4, dv0)
    pinned = {(a, b): kind for (a, b, d), kind in PINS[p].items() if d == k}
    pin_first_coord = pinned.get((1, 3)) == "first_coordinate_projection"
    # (2,5) is drawn injective; (0,3) and (0,4) are unit inclusions
    pin_injective = pinned.get((2, 5)) == "injective"
    nb = dv3 - dv0     # rows of the lower block of A2
    assert nb >= 0

    for attempt in range(tries):
        a2b = rand_matrix(rng, nb, dv1, p)
        if pin_first_coord:
            assert (nb, dv1) == (1, 2) and dv0 == 0
            a2b = IntMatrix.from_rows([[1, 0]])
        t = rand_matrix(rng, dv0, nb, p)
        a2 = IntMatrix.from_rows(
            [_mul(t, a2b, p).row(i) for i in range(dv0)]
            + [a2b.row(i) for i in range(nb)]) if dv3 and dv1 else \
            IntMatrix.zero(dv3, dv1)
        b3 = rand_matrix(rng, dv6, dv5, p)
        a6 = rand_matrix(rng, dv5, dv2, p,
                         rank=dv2 if pin_injective else rng.randint(0, min(dv5, dv2))
                         if min(dv5, dv2) else 0)
        a4 = _mul(b3, a6, p)
        if any(pinned.get(ab) == "injective" and modp_rank(m, p) != m.cols
               for ab, m in (((2, 4), a4), ((2, 5), a6))):
            continue
        # A5: random, then corrected so that ker A2b lands inside ker B3
        a5 = rand_matrix(rng, dv5, dv1, p)
        kerb = modp_kernel_basis(a2b, p) if dv1 else []
        if kerb:
            kerb3 = modp_kernel_basis(b3, p)
            base = [list(r) for r in a5.to_lists()]
            # complete the kernel basis to a basis of the source
            cols = [list(v) for v in kerb]
            span = EchelonBasis(p)
            span.insert_all({i: x for i, x in enumerate(v) if x} for v in kerb)
            for j in range(dv1):
                if span.insert({j: 1}):
                    cols.append([1 if i == j else 0 for i in range(dv1)])
            basis = IntMatrix.from_columns(cols, rows=dv1)
            targets = []
            for v in kerb:
                w = [0] * dv5
                for vec in kerb3:
                    c = rng.randrange(p)
                    w = [(x + c * y) % p for x, y in zip(w, vec)]
                targets.append(w)
            for j in range(len(kerb), dv1):
                targets.append([rng.randrange(p) for _ in range(dv5)])
            images = IntMatrix.from_columns(targets, rows=dv5) if dv1 else a5
            # a5_new = images * basis^{-1}
            binv_cols = []
            for j in range(dv1):
                e = [1 if i == j else 0 for i in range(dv1)]
                sol = modp_solve(basis, e, p)
                binv_cols.append(sol)
            binv = IntMatrix.from_columns(binv_cols, rows=dv1)
            a5 = _mul(images, binv, p)
        mats = {"03": a1, "13": a2, "04": a3, "24": a4, "15": a5, "25": a6}
        lim0 = hexagon_kernel_dim(dv, lambda a, b: mats[f"{a}{b}"], p)
        if lim0 != target_l0:
            continue
        # remaining coherence: B1free * A2b = B3*A5 - A3*(T*A2b), row by row
        r = _mul(b3, a5, p) if dv1 else IntMatrix.zero(dv6, dv1)
        if dv0 and dv1:
            corr = _mul(a3, _mul(t, a2b, p), p)
            r = IntMatrix(dv6, dv1, [(x - y) % p for x, y in
                                     zip(r.entries, corr.entries)])
        if nb and dv1:
            a2bt = a2b.transpose()
            rows = []
            ok = True
            for i in range(dv6):
                z = modp_solve(a2bt, r.row(i), p)
                if z is None:
                    ok = False
                    break
                rows.append(z)
            if not ok:
                continue
            b1_free = IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, nb)
        else:
            if any(e % p for e in r.entries):
                continue
            b1_free = rand_matrix(rng, dv6, nb, p)
        b1 = IntMatrix.from_rows([a3.row(i) + b1_free.row(i) for i in range(dv6)]) \
            if dv6 else IntMatrix.zero(0, dv3)
        # verify coherence exactly before accepting
        if dv1:
            lhs = _mul(b1, a2, p)
            rhs = _mul(b3, a5, p)
            if lhs.entries != rhs.entries:
                continue
        mats["36"] = b1
        mats["46"] = IntMatrix.identity(dv6)
        mats["56"] = b3
        return mats
    raise RuntimeError(f"no matrices found for p={p} k={k} target={target_l0}")


ARROWS = {"03": (0, 3), "13": (1, 3), "04": (0, 4), "24": (2, 4),
          "15": (1, 5), "25": (2, 5), "36": (3, 6), "46": (4, 6), "56": (5, 6)}
LONG = {"06": ((0, 3), (3, 6)), "16": ((1, 3), (3, 6)), "26": ((2, 4), (4, 6))}


def build_diagram(p, dims, notes):
    maps = {key: {} for key in list(ARROWS.values()) + [(0, 6), (1, 6), (2, 6)]}
    constraints = {}
    targets = lim0_targets(p)
    for k in range(MAXDEG + 1):
        rng = random.Random(90_000 + 1000 * p + k)
        mats = build_degree(p, k, dims, targets.get(k, 0), rng)
        for name, (a, b) in ARROWS.items():
            maps[(a, b)][k] = mats[name]
        for name, ((a, b), (b2, c)) in LONG.items():
            m = maps[(b2, c)][k] * maps[(a, b)][k]
            maps[(a, c)][k] = IntMatrix(m.rows, m.cols, [e % p for e in m.entries])
        for name, (a, b) in ARROWS.items():
            m = mats[name]
            pins = [{"kind": "rank", "value": modp_rank(m, p)}]
            if k == 0:
                pins.append({"kind": "unit"})
            constraints[(a, b, k)] = pins
    for key, kind in PINS[p].items():
        constraints[key].append({"kind": kind})
    for k in range(MAXDEG + 1):
        constraints.setdefault((4, 6, k), []).append({"kind": "identity"})
    dims_padded = {i: dims[i] + [0] * (MAXDEG + 1 - len(dims[i])) for i in dims}
    diagram = PosetDiagram(p, dims_padded, maps, MAXDEG,
                           provenance={"dims": "[PAPER]" if p == 2 else "[DERIVED]",
                                       "maps": "[DERIVED]"},
                           constraints=constraints, notes=notes)
    diagram.validate()
    return diagram


def main(outdir):
    for p, dims, notes in [(2, published.DIAGRAM_SERIES[2], NOTES_P2),
                           (3, DIMS_P3, NOTES_P3)]:
        diagram = build_diagram(p, dims, notes)
        dims_out, lims = bk_assemble(diagram)
        print(f"p={p}: H* dims = {dims_out}")
        for k in sorted(lims):
            if lims[k] != (0, 0):
                print(f"   k={k}: lim0={lims[k][0]} lim1={lims[k][1]}")
        path = os.path.join(outdir, f"diagram_p{p}.json")
        with open(path, "w") as fh:
            json.dump(diagram.to_json(), fh, indent=1, sort_keys=True)
        print("wrote", path)


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(__file__), "..", "src", "ecomu3", "data")
    os.makedirs(out, exist_ok=True)
    main(out)
