"""The additive spectral sequence engine on the two bundled fibrations."""

import json
import random
from collections import Counter
from importlib import resources

import pytest

from ecomu3 import published, serre
from ecomu3.abelian import AbelianGroup, PoincareSeries, mod_p_series
from ecomu3.coinvariants import (coinvariant_algebra, identify_in_catalog,
                                 kunneth_decompose)
from ecomu3.serre import (Ambiguous, BigradedPage, Move, NoSolution,
                          RankTooLarge, DifferentialSpec, SearchBudget,
                          assemble_total,
                          forced_differentials, run_to_e_infinity,
                          serre_e2_over_bg, solve_unique)

from cohomology_oracle import is_palindromic


def euler_characteristic(page):
    """Alternating sum of (free + tors) over the page's stored window."""
    return sum((-1) ** (c + q) * (free + tors)
               for c, q, free, tors in page.slots())


@pytest.fixture(scope="module")
def flbar3(catalog):
    return {0: [catalog["trivial"]],
            2: [catalog["standard"]],
            4: [catalog["standard"]],
            6: [catalog["sign"]]}


@pytest.fixture(scope="module")
def fl3xfl3(catalog):
    T, S, M = catalog["trivial"], catalog["sign"], catalog["standard"]
    MM, MS = catalog["standard(x)standard"], catalog["standard(x)sign"]
    return {0: [T],
            2: [M] * 2,
            4: [M] * 2 + [MM],
            6: [S] * 2 + [MM] * 2,
            8: [MS] * 2 + [MM],
            10: [MS] * 2,
            12: [T]}


def test_bundled_fiber_rows_are_the_engines(catalog):
    """Each row of ``fl3xfl3`` is the Kunneth decomposition of its degree,
    and row 2a of ``flbar3`` the coinvariant algebra's degree-a module."""
    def fiber(name):
        text = resources.files("ecomu3.data").joinpath(f"{name}.json").read_text()
        return {int(d): names for d, names in json.loads(text)["fiber"].items()}

    assert fiber("fl3xfl3") == {d: kunneth_decompose(d) for d in range(0, 13, 2)}
    algebra = coinvariant_algebra(3)
    assert fiber("flbar3") == {
        2 * a: [identify_in_catalog(algebra.degree_representation(a), catalog)]
        for a in range(4)}


@pytest.mark.parametrize("column, entry, fault", [(0, (1, 1), "torsion"),
                                                  (1, (1, 0), "free part")])
def test_page_is_free_in_column_0_and_torsion_elsewhere(column, entry, fault):
    """H^0(G; M) = M^G is free, and |G| kills every higher H^c(G; M)."""
    with pytest.raises(RankTooLarge, match=f"^{fault} in column {column} of row 2$"):
        BigradedPage(3, 4, {2: lambda c: entry if c == column else (0, 0)})


def test_flbar3_e2_entries(resolution, flbar3):
    page3 = serre_e2_over_bg(resolution, flbar3, 3)
    # rows of order-3 classes at the columns the figure shows
    for i in range(3):
        assert page3.entry(4 * i + 4, 0) == (0, 1)
        assert page3.entry(4 * i + 3, 2) == (0, 1)
        assert page3.entry(4 * i + 3, 4) == (0, 1)
        assert page3.entry(4 * i + 2, 6) == (0, 1)
    assert page3.entry(0, 0) == (1, 0)
    assert page3.entry(1, 0) == (0, 0)
    assert page3.entry(0, 2) == (0, 0)
    page2 = serre_e2_over_bg(resolution, flbar3, 2)
    for i in range(4):
        assert page2.entry(2 * i + 2, 0) == (0, 1)
        assert page2.entry(2 * i + 1, 6) == (0, 1)
    assert page2.entry(0, 0) == (1, 0)
    assert page2.entry(3, 2) == (0, 0)


def test_flbar3_forced_patterns(resolution, flbar3):
    page3 = serre_e2_over_bg(resolution, flbar3, 3)
    specs = forced_differentials(page3, 6)
    assert len(specs) == 1
    moves = specs[0].moves
    assert {(m.page, m.source, m.target, m.rank, m.periodic) for m in moves} == {
        (5, (2, 6), (7, 2), 1, True),
        (5, (3, 4), (8, 0), 1, True),
    }
    page2 = serre_e2_over_bg(resolution, flbar3, 2)
    specs = forced_differentials(page2, 6)
    assert len(specs) == 1
    assert {(m.page, m.source, m.target, m.rank, m.periodic)
            for m in specs[0].moves} == {(7, (1, 6), (8, 0), 1, True)}


def test_flbar3_answers(resolution, flbar3):
    for p in (3, 2):
        table, series, _ = published.SERRE["flbar3", p]
        page = serre_e2_over_bg(resolution, flbar3, p)
        stable = run_to_e_infinity(page, solve_unique(page, 6))
        graded = assemble_total(stable, 6, 6)
        assert graded == table
        assert mod_p_series(graded, p).coefficients == series.coefficients
    # survivors at p=3 are exactly (3,2) and (4,0)
    page = serre_e2_over_bg(resolution, flbar3, 3)
    stable = run_to_e_infinity(page, solve_unique(page, 6))
    tors = {(c, q) for c, q, free, t in stable.slots() if t and c + q <= 6}
    assert tors == {(3, 2), (4, 0)}


def test_fl3xfl3_e2_entries(resolution, fl3xfl3):
    page3 = serre_e2_over_bg(resolution, fl3xfl3, 3)
    assert page3.entry(1, 10) == (0, 2)
    assert page3.entry(0, 6) == (2, 0)
    assert page3.entry(2, 6) == (0, 4)
    assert page3.entry(0, 8) == (1, 0)
    assert page3.entry(1, 8) == (0, 2)
    assert page3.entry(2, 8) == (0, 1)
    assert page3.entry(0, 12) == (1, 0)
    page2 = serre_e2_over_bg(resolution, fl3xfl3, 2)
    assert page2.entry(0, 6) == (2, 0)
    assert page2.entry(1, 6) == (0, 2)
    assert page2.entry(0, 4) == (1, 0)
    assert page2.entry(2, 4) == (0, 0)
    assert page2.entry(2, 12) == (0, 1)


def test_fl3xfl3_unique_solutions_and_answers(resolution, fl3xfl3):
    for p in (3, 2):
        table, series, _ = published.SERRE["fl3xfl3", p]
        page = serre_e2_over_bg(resolution, fl3xfl3, p)
        specs = forced_differentials(page, 12)
        assert len(specs) == 1, f"p={p}"
        stable = run_to_e_infinity(page, specs[0])
        graded = assemble_total(stable, 6, 12)
        assert graded == table, f"p={p}"
        assert mod_p_series(graded, p).coefficients == series.coefficients
        # the top free class supports one differential from its free part
        free_moves = [m for m in specs[0].moves if not m.periodic]
        assert len(free_moves) == 1
        assert free_moves[0].source == (0, 12)


@pytest.mark.parametrize("p", [5, 7])
def test_prime_to_six_answers_are_rational(resolution, flbar3, fl3xfl3, p):
    """At a prime not dividing |S3| = 6 the mod-p series (the CLI's
    universal-coefficient route) is the rational one: RATIONAL_SERIES, the
    diagonal S3-invariants of the squared coinvariant algebra, for fl3xfl3,
    and the S3-invariants of the coinvariant algebra, the constants, for
    flbar3."""
    for reps, top, want in [(fl3xfl3, 12, published.RATIONAL_SERIES),
                            (flbar3, 6, PoincareSeries([1]))]:
        page = serre_e2_over_bg(resolution, reps, p)
        stable = run_to_e_infinity(page, solve_unique(page, top))
        graded = assemble_total(stable, 6, top)
        assert mod_p_series(graded, p).coefficients == want.coefficients


def test_fl3xfl3_mod3_series_is_palindromic_not_printed(resolution):
    # the printed series duplicates its degree-4 coefficient; the derived
    # series is palindromic over the twelve-dimensional manifold
    s = published.FL3XFL3_SERIES[3]
    assert is_palindromic(s, 12)
    printed_with_typo = [1, 0, 0, 1, 8, 3, 4, 3, 0, 1, 0, 0, 1]
    assert list(s.coefficients) != printed_with_typo


def test_loosened_bound_is_ambiguous(resolution, flbar3):
    page = serre_e2_over_bg(resolution, flbar3, 3)
    specs = forced_differentials(page, 20)
    assert len(specs) > 1
    with pytest.raises(Ambiguous, match="^4 differential assignments"):
        solve_unique(page, 20)


def test_pruning_does_not_change_the_answer(resolution, catalog, flbar3,
                                            fl3xfl3, monkeypatch):
    """The reach table only cuts branches that cannot kill every slot that
    must die, so with every move taken to touch every slot (no pruning
    before the last page with moves) the search returns the same specs in
    the same order, at every top dimension.  On the bundled fibers each slot
    that must die is touched on one page only; the third fiber's odd rows
    also give d_r of even r."""
    odd = {1: [catalog["standard"]],
           3: [catalog["standard(x)sign"]]}
    pages = [serre_e2_over_bg(resolution, reps, p)
             for reps in (flbar3, fl3xfl3, odd) for p in (2, 3)]
    pruned = [[forced_differentials(page, top) for top in range(17)]
              for page in pages]
    assert {len(specs) for row in pruned[:4] for specs in row} == \
        {0, 1, 2, 4, 7}
    monkeypatch.setattr(serre, "_touches", lambda move, slot, period: True)
    assert [[forced_differentials(page, top) for top in range(17)]
            for page in pages] == pruned


def test_search_stops_one_past_the_solution_cap(resolution, fl3xfl3):
    page = serre_e2_over_bg(resolution, fl3xfl3, 3)
    specs = forced_differentials(page, 16)
    assert len(specs) == serre.MAX_SOLUTIONS + 1
    # the search stopped there, so more may exist
    with pytest.raises(Ambiguous, match=f"^at least {serre.MAX_SOLUTIONS + 1} "
                                        "differential assignments"):
        solve_unique(page, 16)


@pytest.mark.parametrize("budget, code", [(847, 1), (848, 0)])
def test_node_budget_is_one_line_error(capsys, monkeypatch, budget, code):
    """The bundled fl3xfl3 search at p=3 takes exactly 848 nodes."""
    from ecomu3.cli import main
    monkeypatch.setattr(serre, "NODE_BUDGET", budget)
    assert main(["serre", "fl3xfl3", "--prime", "3"]) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("error: SearchBudget: differential search exceeded "
                       f"{budget} nodes\n")
    else:
        assert err == ""


def test_targets_past_the_window_are_read_from_the_template(resolution,
                                                            fl3xfl3):
    """d5 from (10,6) lands at (15,2), past the window, where the periodic
    row carries two order-3 classes: rank 2 applies, rank 3 is refused."""
    page = serre_e2_over_bg(resolution, fl3xfl3, 3)
    assert page.entry(10, 6)[1] >= 3 and page.tors_beyond_window(15, 2) == 2
    stable = run_to_e_infinity(
        page, DifferentialSpec([Move(5, (10, 6), 2)]))
    assert stable.entry(10, 6)[1] == page.entry(10, 6)[1] - 2
    with pytest.raises(RankTooLarge):
        run_to_e_infinity(
            page, DifferentialSpec([Move(5, (10, 6), 3)]))


def test_targets_past_the_window_are_consumed():
    """d5 (4i+1,11) -> (4i+6,7) and d6 (4i+4,12) -> (4i+10,7) both reach
    (10,7), past the window, which holds one order-3 class: once d5 has used
    it, d6 cannot, and no assignment kills everything above degree 14."""
    residues = {7: 2, 11: 1, 12: 0}
    page = BigradedPage(3, 4, {
        q: (lambda c, r=r: (0, int(c >= 1 and c % 4 == r)))
        for q, r in residues.items()})
    d5, d6 = Move(5, (1, 11), 0), Move(6, (4, 12), 0)
    after = serre._apply(page, serre._torsion(page), d5, 1,
                         serre._columns(page, d5))
    assert after is not None and after[10, 7] == 0
    assert serre._apply(page, after, d6, 1, serre._columns(page, d6)) is None
    assert forced_differentials(page, 14) == []


def _random_page(rng):
    """3-7 rows with a 0/1 torsion pattern per residue past column 0 and a
    free rank 0 or 1 at column 0, at p = 2 or 3."""
    p = rng.choice((2, 3))
    period = 4 if p == 3 else 2
    templates = {}
    for q in rng.sample(range(14), rng.randint(3, 7)):
        pattern = [rng.randint(0, 1) for _ in range(period)]
        col0 = (rng.randint(0, 1), 0)
        templates[q] = (lambda c, pattern=pattern, col0=col0:
                        col0 if c == 0 else (0, pattern[c % period]))
    return BigradedPage(p, period, templates)


def test_no_spec_uses_a_class_twice(monkeypatch):
    """Each class, in the window or past it, is the source or the target of
    at most as many moves as its torsion count, counted here from the moves
    and the row templates alone.  Searches past 20,000 nodes are skipped."""
    monkeypatch.setattr(serre, "NODE_BUDGET", 20_000)
    rng = random.Random(7)
    checked = 0
    for _ in range(1300):
        page = _random_page(rng)
        try:
            specs = forced_differentials(page, rng.randint(4, 15))
        except SearchBudget:
            continue
        for spec in specs:
            used = Counter()
            for mv in spec.moves:
                (c0, q), tq = mv.source, mv.target[1]
                columns = (range(c0, serre.WINDOW - q + 1, page.period)
                           if mv.periodic else [c0])
                for c in columns:
                    if mv.periodic:
                        used[c, q] += mv.rank
                    used[c + mv.page, tq] += mv.rank
            for (c, q), n in used.items():
                assert n <= page.tors_beyond_window(c, q), spec
            checked += 1
    assert checked > 400


def test_page_already_vanishing(resolution, catalog):
    reps = {0: [catalog["trivial"]]}
    page = serre_e2_over_bg(resolution, reps, 3)
    specs = forced_differentials(page, 16)
    assert len(specs) == 1 and specs[0].moves == []
    stable = run_to_e_infinity(page, specs[0])
    assert list(stable.slots()) == list(page.slots())


def test_rank_too_large(resolution, flbar3):
    page = serre_e2_over_bg(resolution, flbar3, 3)
    bad = DifferentialSpec([Move(5, (2, 6), 2)])
    with pytest.raises(RankTooLarge):
        run_to_e_infinity(page, bad)


def test_no_solution_on_impossible_page(resolution, catalog):
    # a lone order-3 row high up with nothing to pair against cannot die
    reps = {9: [catalog["sign"]]}
    page = serre_e2_over_bg(resolution, reps, 3)
    with pytest.raises(NoSolution):
        solve_unique(page, 6)


def test_euler_characteristic_preserved(resolution, flbar3, fl3xfl3):
    """A differential kills equal counts in adjacent total degrees, so the
    alternating sum over the window only moves when a kill pairs with a slot
    beyond the window edge; that drift is reproduced from the applied moves."""
    for reps, D in [(flbar3, 6), (fl3xfl3, 12)]:
        for p in (2, 3):
            page = serre_e2_over_bg(resolution, reps, p)
            spec = solve_unique(page, D)
            stable = run_to_e_infinity(page, spec)
            drift = 0
            for mv in spec.moves:
                for c in serre._columns(page, mv):
                    n = c + mv.source[1]
                    out = c + mv.page + mv.target[1] > serre.WINDOW
                    if mv.periodic and out:
                        drift -= (-1) ** n * mv.rank
                    elif not mv.periodic and not out:
                        # the free source keeps its rank; only the target dies
                        drift += (-1) ** n * mv.rank
            assert euler_characteristic(stable) == \
                euler_characteristic(page) + drift


def test_palindromic_series_for_closed_manifolds(resolution, flbar3, fl3xfl3):
    """Poincare duality of the four closed-manifold answers.

    Mod 2 always; mod 3 where the manifold is orientable over F_3 (the
    unordered flag threefold is not: its top mod-3 cohomology vanishes).
    """
    page = serre_e2_over_bg(resolution, flbar3, 2)
    g = assemble_total(run_to_e_infinity(page, solve_unique(page, 6)), 6, 6)
    assert is_palindromic(mod_p_series(g, 2), 6)
    for p in (2, 3):
        page = serre_e2_over_bg(resolution, fl3xfl3, p)
        g = assemble_total(run_to_e_infinity(page, solve_unique(page, 12)), 6, 12)
        assert is_palindromic(mod_p_series(g, p), 12)
    from ecomu3.koszul import pu3_cohomology, u3t2_cohomology
    for p in (2, 3):
        assert is_palindromic(u3t2_cohomology(p)["series"], 7)
        assert is_palindromic(pu3_cohomology(p)["series"], 8)
    # the mod-3 series of the unordered flag threefold is NOT palindromic
    assert not is_palindromic(published.FLBAR3_SERIES[3], 6)


def test_transfer_bound_enforced():
    with pytest.raises(RankTooLarge):
        assemble_total(BigradedPage(3, 4, {}), 9, 6)
