"""Additive Serre spectral sequences over the classifying space of a finite
group, with a forced-differential solver.

A page holds, for every bidegree (c, q) with total degree at most a window
bound, the p-local entry as a free rank plus a count of order-p summands
(the transfer argument rules out higher p-power torsion whenever p^2 does not
divide the group order).  Column 0 is H^0(G; M) = M^G, which is free; |G|
kills every other column, which is torsion; a page refuses anything else.
Rows are periodic past column 0 -- group cohomology of a finite group is
periodic here -- so the stored window determines the whole page.

The solver searches differential assignments that make everything above the
target dimension die.  A move is a page, a source and a rank, and the source
column decides what maps: out of column 0, the free part of that one slot,
which keeps its rank; out of any other column, the torsion of a periodic
family, one rank for every column of the row congruent to the source modulo
the period.  The move set assumes that a column-0 free class hits only a
slot that must die (of total degree above the target dimension); without
that, the bundled ``fl3xfl3`` searches admit assignments that break Poincare
duality.  d_r : (c, q) -> (c + r, q - r + 1) for 2 <= r <= 7; longer
differentials out of total degree <= 14 would leave the window anyway.

One function, ``_apply``, checks a move's capacities, for the search and for
:func:`run_to_e_infinity` alike.  A move consumes its targets and, unless it
maps a free part, its sources, so no class is used twice; a target past the
window is read from the periodic template on its first use and counted from
then on.  A slot that must die is pruned against a table of the last page on
which any candidate move touches it.

Four module constants fix the engine: ``WINDOW`` (16, the total degrees a
page stores), ``MAX_PAGE`` (7, the longest differential), ``MAX_SOLUTIONS``
(6; the search stops once it holds one more assignment, enough to report
ambiguity, so :class:`Ambiguous` then says "at least 7") and ``NODE_BUDGET``
(500,000 search nodes, each entry into a page or into a move's rank choice
counting one).  The bundled searches take 16 (``flbar3`` mod 2), 22
(``flbar3`` mod 3), 34 (``fl3xfl3`` mod 2) and 848 (``fl3xfl3`` mod 3) nodes.
"""

from __future__ import annotations

from .abelian import AbelianGroup, FrozenRecord
from .resolution import group_cohomology_table

WINDOW = 16            # total degrees stored on a page
MAX_PAGE = 7           # the longest differential searched
MAX_SOLUTIONS = 6      # the search stops once it holds one more than this
NODE_BUDGET = 500_000  # search nodes before SearchBudget


class NoSolution(RuntimeError):
    pass


class Ambiguous(RuntimeError):
    def __init__(self, specs):
        # the search stops once it holds MAX_SOLUTIONS + 1 specs
        least = "at least " if len(specs) > MAX_SOLUTIONS else ""
        super().__init__(f"{least}{len(specs)} differential assignments "
                         "achieve vanishing")


class RankTooLarge(ValueError):
    pass


class SearchBudget(RuntimeError):
    pass


class Move(FrozenRecord):
    """One differential move of a fixed rank on a fixed page.

    A move out of column 0 maps the free part of its source slot only; any
    other move maps the torsion of every source column >= ``source[0]``
    congruent to it modulo the page period.  ``source`` is (c, q) and
    ``target`` is (c + page, q - page + 1).
    """

    __slots__ = ("page", "source", "rank")

    def __init__(self, page, source, rank):
        for name, value in zip(self.__slots__, (page, source, rank)):
            object.__setattr__(self, name, value)

    @property
    def target(self):
        c, q = self.source
        return c + self.page, q - self.page + 1

    @property
    def periodic(self):
        return self.source[0] > 0

    def describe(self, period=None):
        (c, q), (tc, tq) = self.source, self.target
        i = f"{period}i+" if self.periodic and period else ""
        tag = "" if self.periodic else " from free part"
        return f"d{self.page}: ({i}{c},{q}) -> ({i}{tc},{tq}) rank {self.rank}{tag}"


class DifferentialSpec:
    def __init__(self, moves):
        self.moves = sorted(moves, key=lambda m: (m.page, m.source[1], m.source[0]))

    def describe(self, period=None):
        return [m.describe(period) for m in self.moves]

    def __eq__(self, other):
        return isinstance(other, DifferentialSpec) and self.moves == other.moves

    def __repr__(self):
        return f"DifferentialSpec({self.describe()})"


class BigradedPage:
    """One page of the spectral sequence, stored up to total degree WINDOW."""

    def __init__(self, prime, period, row_templates, torsion=None):
        # row_templates: {q: callable giving (free, tors) per column};
        # ``torsion``, keyed by (c, q), replaces their torsion in the window
        self.prime = prime
        self.period = period
        self._templates = dict(row_templates)
        self._slots = {}
        for q, template in sorted(self._templates.items()):
            for c in range(0, WINDOW - q + 1):
                free, tors = template(c)
                if torsion is not None:
                    tors = torsion.get((c, q), 0)
                if free if c else tors:
                    raise RankTooLarge(f"{'free part' if c else 'torsion'} "
                                       f"in column {c} of row {q}")
                if free or tors:
                    self._slots[c, q] = (free, tors)

    def entry(self, c, q):
        return self._slots.get((c, q), (0, 0))

    def tors_beyond_window(self, c, q):
        """Torsion count at any column, via the periodic template."""
        template = self._templates.get(q)
        return template(c)[1] if template else 0

    def slots(self):
        """(c, q, free, tors) of each nonzero slot, in (q, c) order."""
        for (c, q), (free, tors) in self._slots.items():
            yield c, q, free, tors

    def to_json(self):
        """The report's ``e2_page`` entry; only the E2 page is reported."""
        return {
            "prime": self.prime,
            "page": 2,
            "period": self.period,
            "window": WINDOW,
            "entries": [[c, q, free, tors] for c, q, free, tors in self.slots()],
        }


def cohomology_row(resolution, module, prime, period):
    """(free, tors) per column for one fiber summand, with a verified period.

    Columns beyond the directly computed range are extended by the verified
    periodicity, mirroring how finite computations stand in for the whole
    periodic cohomology.
    """
    reach = resolution.length - 1
    values = []
    for c, g in enumerate(group_cohomology_table(resolution, module, reach,
                                                 prime=prime)):
        for t in g.torsion:
            if t != prime:
                raise RankTooLarge(
                    f"non-elementary torsion {t} in H^{c}; transfer bound violated")
        values.append((g.free_rank, len(g.torsion)))
    for c in range(1, reach - period + 1):
        if values[c] != values[c + period]:
            raise RankTooLarge(
                f"period {period} fails at column {c}: {values[c]} != {values[c + period]}")

    def template(c):
        # past the reach, step back by whole periods into the last period
        return values[c if c <= reach else reach - (reach - c) % period]

    return template


def serre_e2_over_bg(resolution, fiber_reps, prime):
    """E2 of the Serre spectral sequence of a fibration over BG.

    ``fiber_reps`` maps fiber degree q to the list of its summands, each a
    module with integral coefficients, read p-locally.
    """
    period = 4 if prime == 3 else 2
    cache = {}
    templates = {}
    for q, modules in fiber_reps.items():
        rows = []
        for module in modules:
            if module.name not in cache:
                cache[module.name] = cohomology_row(resolution, module, prime,
                                                    period)
            rows.append(cache[module.name])

        def template(c, rows=tuple(rows)):
            free = tors = 0
            for r in rows:
                f, t = r(c)
                free += f
                tors += t
            return free, tors

        templates[q] = template
    return BigradedPage(prime, period, templates)


# --- the forced-differential search ----------------------------------------


def _columns(page, move):
    """In-window source columns ``move`` acts on: column 0 alone, or the
    torsion columns of its periodic family."""
    c0, q = move.source
    if not c0:
        return [0]
    return [c for c, qq, _, tors in page.slots()
            if qq == q and c >= c0 and (c - c0) % page.period == 0 and tors]


def _candidate_moves(page, must_die):
    """All structurally possible moves, each paired with the source columns
    it acts on, grouped by page index."""
    by_page = {}
    for r in range(2, MAX_PAGE + 1):
        moves = []
        families = set()
        for c, q, _, _ in page.slots():
            tc, tq = c + r, q - r + 1
            if tq < 0:
                continue
            if c == 0:
                # a free class may hit only a slot that must die
                ok = (tc, tq) in must_die
            else:
                # rows are periodic past column 0, so the first column of a
                # residue class anchors its family, and the target pattern
                # has torsion at every column of the family or at none
                ok = ((q, c % page.period) not in families
                      and page.tors_beyond_window(tc, tq) > 0)
                families.add((q, c % page.period))
            if ok:
                mv = Move(r, (c, q), 0)
                moves.append((mv, _columns(page, mv)))
        if moves:
            by_page[r] = moves
    return by_page


def _touches(move, slot, period):
    """Whether ``move`` has ``slot`` as a source or a target (a periodic move
    at any column of its family)."""
    if not move.periodic:
        return slot in (move.source, move.target)
    c, q = slot
    return any(q == eq and c >= ec and (c - ec) % period == 0
               for ec, eq in (move.source, move.target))


def _torsion(page):
    """The torsion counts of the page's stored slots, keyed by (c, q)."""
    return {(c, q): tors for c, q, _, tors in page.slots()}


def _apply(page, tors, move, rank, columns):
    """The torsion after ``move`` acts with ``rank`` on each source column in
    ``columns``, or None when a source or a target runs short.

    A move out of column 0 needs the page's free rank there and keeps it;
    any other move consumes its torsion source.  Every move consumes its
    targets, in the window or past it: a target is read from ``tors``, or
    from the periodic template on its first use, so no two moves can map
    onto one class.
    """
    new = dict(tors)
    q, tq = move.source[1], move.target[1]
    for c in columns:
        if (new.get((c, q), 0) if c else page.entry(0, q)[0]) < rank:
            return None
        if c:
            new[(c, q)] -= rank
        target = (c + move.page, tq)
        if target not in new:
            new[target] = page.tors_beyond_window(*target)
        if new[target] < rank:
            return None
        new[target] -= rank
    return new


def forced_differentials(page, top_dimension):
    """All differential assignments whose E-infinity vanishes above D.

    Returns a list of :class:`DifferentialSpec`, at most ``MAX_SOLUTIONS + 1``
    of them; the pipeline requires the list to have exactly one element.  The
    search is exhaustive over the move model described in the module
    docstring, and raises :class:`SearchBudget` past ``NODE_BUDGET`` nodes.
    """
    must_die = {(c, q) for c, q, _, tors in page.slots()
                if tors and c + q > top_dimension}
    candidates = _candidate_moves(page, must_die)
    # the last page on which a move could still kill each slot that must die
    last = {slot: max((r for r, moves in candidates.items()
                       for mv, _ in moves if _touches(mv, slot, page.period)),
                      default=0)
            for slot in must_die}
    solutions = []
    nodes = 0

    def count():
        nonlocal nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise SearchBudget(f"differential search exceeded {NODE_BUDGET} nodes")

    def search(r, tors, chosen):
        count()
        if len(solutions) > MAX_SOLUTIONS:
            return
        if r > MAX_PAGE:
            if not any(tors.get(slot) for slot in must_die):
                solutions.append(DifferentialSpec(chosen))
            return
        if any(tors.get(slot) and last[slot] < r for slot in must_die):
            return
        moves = candidates.get(r, [])

        def assign(i, tors_now, chosen_now):
            count()
            if i == len(moves):
                search(r + 1, tors_now, chosen_now)
                return
            mv, columns = moves[i]
            # rank 0: skip the move
            assign(i + 1, tors_now, chosen_now)
            rank = 1
            while (updated := _apply(page, tors_now, mv, rank,
                                     columns)) is not None:
                assign(i + 1, updated,
                       chosen_now + [Move(mv.page, mv.source, rank)])
                rank += 1

        assign(0, tors, chosen)

    search(2, _torsion(page), [])
    return solutions


def solve_unique(page, top_dimension):
    specs = forced_differentials(page, top_dimension)
    if not specs:
        raise NoSolution(f"no assignment kills everything above degree {top_dimension}")
    if len(specs) > 1:
        raise Ambiguous(specs)
    return specs[0]


def run_to_e_infinity(page, spec):
    """Apply a differential spec and return the stable page."""
    tors = _torsion(page)
    for mv in spec.moves:
        if mv.rank <= 0:
            raise RankTooLarge("moves must have positive rank")
        tors = _apply(page, tors, mv, mv.rank, _columns(page, mv))
        if tors is None:
            raise RankTooLarge(f"{mv.describe()} exceeds the rank of its "
                               "source or target")
    return BigradedPage(page.prime, page.period, page._templates, tors)


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
