"""Additive Serre spectral sequences over the classifying space of a finite
group, with a forced-differential solver.

A page holds, for every bidegree (c, q) with total degree at most a window
bound, the p-local entry as a free rank plus a count of order-p summands
(the transfer argument rules out higher p-power torsion whenever p^2 does not
divide the group order).  Rows are horizontally periodic away from column 0
-- group cohomology of a finite group is periodic here -- so the stored
window determines the whole page.

The solver searches differential assignments that make everything above the
target dimension die.  Assignments are built from:

- periodic families: one rank for a whole residue class of source columns of
  a row (columns >= 1), matching the periodicity of the page;
- single moves out of the exceptional column 0; a free summand there may
  surject onto torsion (its own rank survives), but only slots that are
  forced to die may be targeted this way, which keeps the search conservative
  while still covering the cases where no torsion-only assignment exists.

Differentials run d_r : (c, q) -> (c + r, q - r + 1) for 2 <= r <= 7; longer
differentials out of total degree <= 14 would leave the window anyway.
"""

from __future__ import annotations

from .abelian import AbelianGroup, FrozenRecord, mod_p_series
from .resolution import group_cohomology_dims_modp, group_cohomology_table

DEFAULT_WINDOW = 16
DEFAULT_MAX_PAGE = 7


class NoSolution(RuntimeError):
    pass


class Ambiguous(RuntimeError):
    def __init__(self, specs):
        super().__init__(f"{len(specs)} differential assignments achieve vanishing")
        self.specs = specs


class RankTooLarge(ValueError):
    pass


class SearchBudget(RuntimeError):
    pass


class Move(FrozenRecord):
    """One differential move of a fixed rank on a fixed page.

    Periodic moves act on every source column >= ``col`` congruent to it
    modulo the page period; single moves act on that column only.  ``kind``
    is "torsion" or "free" depending on which part of the source maps.
    ``source`` is (c, q) and ``target`` is (c + page, q - page + 1).
    """

    __slots__ = ("page", "source", "target", "rank", "periodic", "kind")

    def __init__(self, page, source, target, rank, periodic, kind="torsion"):
        for name, value in zip(self.__slots__,
                               (page, source, target, rank, periodic, kind)):
            object.__setattr__(self, name, value)

    def describe(self, period=None):
        c, q = self.source
        tc, tq = self.target
        if self.periodic and period:
            i = f"{period}i+" if period else ""
            src = f"({i}{c},{q})"
            tgt = f"({i}{tc},{tq})"
        else:
            src = f"({c},{q})"
            tgt = f"({tc},{tq})"
        tag = " from free part" if self.kind == "free" else ""
        return f"d{self.page}: {src} -> {tgt} rank {self.rank}{tag}"


class DifferentialSpec:
    def __init__(self, moves):
        self.moves = sorted(moves, key=lambda m: (m.page, m.source[1], m.source[0],
                                                  m.kind))

    def describe(self, period=None):
        return [m.describe(period) for m in self.moves]

    def __eq__(self, other):
        return isinstance(other, DifferentialSpec) and self.moves == other.moves

    def __repr__(self):
        return f"DifferentialSpec({self.describe()})"


class BigradedPage:
    """One page of the spectral sequence, windowed at a total degree bound."""

    def __init__(self, prime, page_index, period, window, row_templates,
                 provenance=None):
        # row_templates: {q: callable or list giving (free, tors) per column}
        self.prime = prime
        self.page_index = page_index
        self.period = period
        self.window = window
        self.rows = {}
        self._templates = dict(row_templates)
        for q, template in row_templates.items():
            cols = {}
            for c in range(0, window - q + 1):
                free, tors = template(c)
                if free or tors:
                    cols[c] = [free, tors]
            if cols:
                self.rows[q] = cols
        self.provenance = provenance or {}

    def entry(self, c, q):
        return tuple(self.rows.get(q, {}).get(c, (0, 0)))

    def tors_beyond_window(self, c, q):
        """Torsion count at any column, via the periodic template."""
        if q not in self._templates:
            return 0
        if c <= 0:
            return self.entry(c, q)[1]
        template = self._templates[q]
        return template(c)[1]

    def slots(self):
        for q, cols in sorted(self.rows.items()):
            for c, (free, tors) in sorted(cols.items()):
                yield c, q, free, tors

    def copy(self):
        clone = BigradedPage.__new__(BigradedPage)
        clone.prime = self.prime
        clone.page_index = self.page_index
        clone.period = self.period
        clone.window = self.window
        clone._templates = self._templates
        clone.rows = {q: {c: list(e) for c, e in cols.items()}
                      for q, cols in self.rows.items()}
        clone.provenance = dict(self.provenance)
        return clone

    def to_json(self):
        return {
            "prime": self.prime,
            "page": self.page_index,
            "period": self.period,
            "window": self.window,
            "entries": [[c, q, free, tors] for c, q, free, tors in self.slots()],
        }


def cohomology_row(resolution, module, prime, mod_p, window, period):
    """(free, tors) per column for one fiber summand, with a verified period.

    Columns beyond the directly computed range are extended by the verified
    periodicity, mirroring how finite computations stand in for the whole
    periodic cohomology.
    """
    reach = resolution.length - 1
    if mod_p:
        values = [(0, dim) for dim in
                  group_cohomology_dims_modp(resolution, module, reach, prime)]
    else:
        values = []
        for c, g in enumerate(group_cohomology_table(resolution, module, reach,
                                                     prime=prime)):
            for t in g.torsion:
                if t != prime:
                    raise RankTooLarge(
                        f"non-elementary torsion {t} in H^{c}; transfer bound violated")
            if c > 0 and g.free_rank:
                raise RankTooLarge(f"free part in positive degree {c}")
            values.append((g.free_rank, len(g.torsion)))
    for c in range(1, reach - period + 1):
        if values[c] != values[c + period]:
            raise RankTooLarge(
                f"period {period} fails at column {c}: {values[c]} != {values[c + period]}")

    def template(c):
        if c <= reach:
            return values[c]
        back = c
        while back > reach:
            back -= period
        return values[back]

    return template


def serre_e2_over_bg(resolution, fiber_reps, prime, window=DEFAULT_WINDOW):
    """E2 of the Serre spectral sequence of a fibration over BG.

    ``fiber_reps`` maps fiber degree q to a list of summands; each summand is
    a (module, mod_p) pair where mod_p selects reduced (F_p) coefficients.
    """
    period = 4 if prime == 3 else 2
    cache = {}
    templates = {}
    for q, summands in fiber_reps.items():
        rows = []
        for module, mod_p in summands:
            key = (module.name, mod_p)
            if key not in cache:
                cache[key] = cohomology_row(resolution, module, prime, mod_p,
                                            window, period)
            rows.append(cache[key])

        def template(c, rows=tuple(rows)):
            free = tors = 0
            for r in rows:
                f, t = r(c)
                free += f
                tors += t
            return free, tors

        templates[q] = template
    return BigradedPage(prime, 2, period, window, templates,
                        provenance={"columns": "periodic extension beyond the "
                                               "resolution range is flagged"})


# --- the forced-differential search ----------------------------------------


def _candidate_moves(page, must_die, r_max):
    """All structurally possible moves, grouped by page index."""
    period = page.period
    by_page = {}
    for r in range(2, r_max + 1):
        moves = []
        seen_families = set()
        for c, q, free, tors in page.slots():
            tq = q - r + 1
            tc = c + r
            if tq < 0:
                continue
            if tors and c >= 1:
                fam_key = (q, c % period)
                if fam_key in seen_families:
                    continue
                # family: does the target pattern have torsion anywhere?
                if page.tors_beyond_window(tc, tq) > 0:
                    # anchor the family at its first source column
                    first = min(cc for cc, qq, _, tt in page.slots()
                                if qq == q and tt and cc >= 1 and cc % period == c % period)
                    moves.append(Move(r, (first, q), (first + r, tq), 0, True))
                    seen_families.add(fam_key)
            if c == 0:
                if tors and page.entry(tc, tq)[1] > 0:
                    moves.append(Move(r, (c, q), (tc, tq), 0, False, "torsion"))
                if free and (tc, tq) in must_die and page.entry(tc, tq)[1] > 0:
                    moves.append(Move(r, (c, q), (tc, tq), 0, False, "free"))
        if moves:
            by_page[r] = moves
    return by_page


def _family_slots(page, move):
    """In-window source columns a periodic move acts on."""
    c0, q = move.source
    out = []
    for c, qq, _, tors in page.slots():
        if qq == q and c >= c0 and (c - c0) % page.period == 0 and tors:
            out.append(c)
    return out


def forced_differentials(page, top_dimension, r_max=DEFAULT_MAX_PAGE,
                         max_solutions=6, node_budget=500_000):
    """All differential assignments whose E-infinity vanishes above D.

    Returns a list of :class:`DifferentialSpec`; the pipeline requires the
    list to have exactly one element.  The search is exhaustive over the move
    model described in the module docstring.
    """
    must_die = {(c, q) for c, q, _, tors in page.slots()
                if tors and c + q > top_dimension}
    candidates = _candidate_moves(page, must_die, r_max)

    # state: remaining torsion per in-window slot, shared-capacity pool for
    # out-of-window targets per (row, residue)
    init_tors = {(c, q): tors for c, q, _, tors in page.slots() if tors}
    init_free = {(c, q): free for c, q, free, _ in page.slots() if free}
    solutions = []
    nodes = 0

    def potential_killers(slot, from_page):
        c, q = slot
        for r in range(from_page, r_max + 1):
            for mv in candidates.get(r, []):
                if mv.periodic:
                    sc, sq = mv.source
                    if sq == q and c >= sc and (c - sc) % page.period == 0:
                        yield mv
                    tc0, tq = mv.target
                    if tq == q and c >= tc0 and (c - tc0) % page.period == 0:
                        yield mv
                else:
                    if mv.source == slot or mv.target == slot:
                        yield mv

    def doomed(tors, from_page):
        for slot in must_die:
            if tors.get(slot, 0) <= 0:
                continue
            if next(potential_killers(slot, from_page), None) is None:
                return True
        return False

    def apply_move(tors, mv, rank):
        """Return updated torsion dict, or None if capacities fail."""
        new = dict(tors)
        if mv.periodic:
            sources = _family_slots(page, mv)
            if not sources:
                return None
            for c in sources:
                sq = mv.source[1]
                if new.get((c, sq), 0) < rank:
                    return None
                new[(c, sq)] -= rank
                tc, tq = c + mv.page, mv.target[1]
                avail = new.get((tc, tq), page.tors_beyond_window(tc, tq))
                if tc + tq <= page.window:
                    if new.get((tc, tq), 0) < rank:
                        return None
                    new[(tc, tq)] -= rank
                else:
                    # out-of-window target: the periodic pattern must carry it
                    if avail < rank:
                        return None
        else:
            sc, sq = mv.source
            if mv.kind == "torsion":
                if new.get((sc, sq), 0) < rank:
                    return None
                new[(sc, sq)] -= rank
            else:
                if init_free.get((sc, sq), 0) < rank:
                    return None
            tc, tq = mv.target
            if new.get((tc, tq), 0) < rank:
                return None
            new[(tc, tq)] -= rank
        return new

    def search(r, tors, chosen):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudget(f"differential search exceeded {node_budget} nodes")
        if len(solutions) > max_solutions:
            return
        if r > r_max:
            if all(tors.get(slot, 0) == 0 for slot in must_die):
                solutions.append(DifferentialSpec(chosen))
            return
        if doomed(tors, r):
            return
        moves = candidates.get(r, [])

        def assign(i, tors_now, chosen_now):
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise SearchBudget(f"differential search exceeded {node_budget} nodes")
            if i == len(moves):
                search(r + 1, tors_now, chosen_now)
                return
            mv = moves[i]
            # rank 0: skip the move
            assign(i + 1, tors_now, chosen_now)
            rank = 1
            while True:
                updated = apply_move(tors_now, mv, rank)
                if updated is None:
                    break
                assign(i + 1, updated,
                       chosen_now + [Move(mv.page, mv.source, mv.target, rank,
                                          mv.periodic, mv.kind)])
                rank += 1

        assign(0, tors, chosen)

    search(2, init_tors, [])
    unique = []
    for s in solutions:
        if s not in unique:
            unique.append(s)
    return unique


def solve_unique(page, top_dimension, **kwargs):
    specs = forced_differentials(page, top_dimension, **kwargs)
    if not specs:
        raise NoSolution(f"no assignment kills everything above degree {top_dimension}")
    if len(specs) > 1:
        raise Ambiguous(specs)
    return specs[0]


def run_to_e_infinity(page, spec):
    """Apply a differential spec and return the stable page."""
    out = page.copy()
    for mv in spec.moves:
        if mv.rank <= 0:
            raise RankTooLarge("moves must have positive rank")
        if mv.periodic:
            sources = _family_slots(page, mv)
        else:
            sources = [mv.source[0]]
        sq = mv.source[1]
        tq = mv.target[1]
        for c in sources:
            if mv.kind == "torsion":
                cell = out.rows.get(sq, {}).get(c)
                if cell is None or cell[1] < mv.rank:
                    raise RankTooLarge(f"{mv.describe()} exceeds source torsion")
                cell[1] -= mv.rank
            else:
                cell = out.rows.get(sq, {}).get(c)
                if cell is None or cell[0] < mv.rank:
                    raise RankTooLarge(f"{mv.describe()} exceeds source free rank")
                # a surjection from a free summand keeps its rank intact
            tc = c + mv.page
            if tc + tq <= out.window:
                tcell = out.rows.get(tq, {}).get(tc)
                if tcell is None or tcell[1] < mv.rank:
                    raise RankTooLarge(f"{mv.describe()} exceeds target torsion")
                tcell[1] -= mv.rank
    out.page_index = max([m.page for m in spec.moves], default=page.page_index) + 1
    return out


def assemble_total(page, group_order, top_dimension):
    """Graded groups H^0..H^D from a stable page (split extensions).

    Requires p^2 not dividing the group order, so every extension along an
    anti-diagonal splits (all torsion is elementary abelian).
    """
    p = page.prime
    if group_order % (p * p) == 0:
        raise RankTooLarge(f"{p}^2 divides the group order; extensions may not split")
    graded = []
    for n in range(top_dimension + 1):
        free = tors = 0
        for c, q, f, t in page.slots():
            if c + q == n:
                free += f
                tors += t
        graded.append(AbelianGroup(free_rank=free, torsion=[p] * tors))
    return graded


def series_from_graded(graded, prime):
    return mod_p_series(graded, prime)
