"""The summary that tools/bench_pairs.py writes, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = {"end_to_end": [{"name": "throughput_per_s", "better": "higher"},
                       {"name": "op_s_mid", "better": "lower"}]}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEP, REPRODUCE = "sweep, seed 7, call 0", "reproduce, seed 7, call 0"


def _run(side, pair, throughput, op_s, failed=0, workload="sweep", seed=7,
         call=0, attempted=100):
    metrics = {"throughput_per_s": {"value": throughput, "unit": "1/s"},
               "op_s_mid": {"value": op_s, "unit": "s"}}
    return {"side": side, "workload": workload, "seed": seed, "call": call,
            "pair": pair, "last_line": {"correct": not failed,
                                        "attempted": attempted,
                                        "failed": failed, "metrics": metrics}}


def test_summary_medians_quartiles_and_wins(bench_pairs):
    runs = [_run("parent", 0, 100, 0.010), _run("change", 0, 120, 0.008),
            _run("change", 1, 90, 0.012), _run("parent", 1, 110, 0.009),
            _run("parent", 2, 105, 0.011), _run("change", 2, 130, 0.011),
            _run("parent", 3, 95, 0.010, failed=2), _run("change", 3, 125, 0.007),
            _run("parent", 0, 1.0, 3.0, workload="reproduce")]
    summary = bench_pairs.summarize(runs, SPEC)
    assert set(summary) == {REPRODUCE, SWEEP}
    sweep = summary[SWEEP]
    assert sweep["failed_ops"] == {"parent": 2, "change": 0}
    tp = sweep["throughput_per_s"]
    # parent 95, 100, 105, 110 and change 90, 120, 125, 130, inclusive
    # quartiles: positions 0.75, 1.5 and 2.25 of the sorted values
    assert tp["parent"] == {"median": 102.5, "q1": 98.75, "q3": 106.25, "n": 4}
    assert tp["change"] == {"median": 122.5, "q1": 112.5, "q3": 126.25, "n": 4}
    assert tp["change_better_pairs"] == "3/4"
    assert tp["ratio_of_medians"] == pytest.approx(122.5 / 102.5)
    # lower is better; the tie in pair 2 is no win
    assert sweep["op_s_mid"]["change_better_pairs"] == "2/4"
    # a side without runs has no entry, and an unpaired run no pair
    reproduce = summary[REPRODUCE]["throughput_per_s"]
    assert "change" not in reproduce and "ratio_of_medians" not in reproduce
    assert reproduce["change_better_pairs"] == "0/0"
    assert reproduce["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 1}


def test_summary_flags_metrics_past_their_bound(bench_pairs):
    spec = {"end_to_end": [
        {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
        {"name": "op_s_mid", "better": "lower", "bound": 0.05},
        {"name": "peak_rss_mb", "better": "lower"}]}

    def run(side, pair, throughput, op_s, workload):
        r = _run(side, pair, throughput, op_s, workload=workload)
        r["last_line"]["metrics"]["peak_rss_mb"] = {"value": 30.0 if side == "parent"
                                                    else 60.0}
        return r

    runs = [run("parent", 0, 100, 0.0100, "sweep"),
            run("change", 0, 74, 0.0106, "sweep"),      # 0.74 < 0.75; 1.06 > 1.05
            run("parent", 0, 100, 0.0100, "reproduce"),
            run("change", 0, 76, 0.0104, "reproduce")]  # both within the bound
    summary = bench_pairs.summarize(runs, spec)
    assert summary[SWEEP]["throughput_per_s"]["past_bound"] is True
    assert summary[SWEEP]["op_s_mid"]["past_bound"] is True
    assert summary[REPRODUCE]["throughput_per_s"]["past_bound"] is False
    assert summary[REPRODUCE]["op_s_mid"]["past_bound"] is False
    # a metric without a bound is not judged, however far it moves
    assert "past_bound" not in summary[SWEEP]["peak_rss_mb"]
    lines = bench_pairs.past_bound_lines(summary)
    assert lines == [f"{SWEEP} throughput_per_s: ratio of medians 0.7400 is "
                     "past its bound",
                     f"{SWEEP} op_s_mid: ratio of medians 1.0600 is past its "
                     "bound"]


def test_claim_rule_needs_nine_pairs_in_ten_and_a_gap_past_the_spread(
        bench_pairs):
    """The parent runs 100..109 in both metrics (q3 - q1 = 4.5; exact in
    binary, so the edge case is exact).  Each seed is one change, better by
    ``gap`` in every pair but the ``ties`` last ones, which tie: higher
    throughput and lower op_s_mid."""
    cases = {1: (10, 0, True),      # 10/10, gap 10 > 4.5
             2: (10, 1, True),      # 9/10: a tie counts for neither side
             3: (10, 2, False),     # 8/10
             4: (4.5, 0, False),    # 10/10, but the gap is the spread itself
             5: (5, 0, True)}       # 10/10, just past the spread
    runs = []
    for seed, (gap, ties, _) in cases.items():
        for pair in range(10):
            step = 0 if pair >= 10 - ties else gap
            runs += [_run("parent", pair, 100 + pair, 100 + pair, seed=seed),
                     _run("change", pair, 100 + pair + step,
                          100 + pair - step, seed=seed)]
    runs.append(_run("parent", 0, 100, 0.1, seed=6))     # no change side
    summary = bench_pairs.summarize(runs, SPEC)
    for seed, (gap, ties, met) in cases.items():
        group = summary[f"sweep, seed {seed}, call 0"]
        for name in ("throughput_per_s", "op_s_mid"):
            assert group[name]["change_better_pairs"] == f"{10 - ties}/10"
            assert group[name]["claim_rule_met"] is met, (seed, name)
    assert "claim_rule_met" not in summary["sweep, seed 6, call 0"][
        "throughput_per_s"]
    # a change worse in every pair meets neither condition
    assert not bench_pairs.claim_rule_met(
        0, 10, {"median": 100, "q1": 98, "q3": 102}, {"median": 50}, True)
    assert not bench_pairs.claim_rule_met(
        0, 0, {"median": 100, "q1": 100, "q3": 100}, {"median": 200}, True)


def test_peak_rss_is_fitted_against_the_ops_attempted(bench_pairs):
    """Each side's runs lie on a line: the parent keeps 1 KB per op over
    22.5 MB, the change 1.5 KB per op over 22.75 MB.  A side whose runs all
    attempted the same number of ops, or that has no peak_rss_mb, gets no
    fit."""
    def run(side, pair, attempted, base, kb_per_op, workload="reproduce"):
        r = _run(side, pair, 300, 0.003, workload=workload,
                 attempted=attempted)
        r["last_line"]["metrics"]["peak_rss_mb"] = {
            "value": base + attempted * kb_per_op / 1024, "unit": "MB"}
        return r

    runs = [run("parent", pair, ops, 22.5, 1.0)
            for pair, ops in enumerate((9000, 10240, 11000))]
    runs += [run("change", pair, ops, 22.75, 1.5)
             for pair, ops in enumerate((12000, 12288, 14000, 15000))]
    runs += [run(side, 0, 2048, 20.0, 1.0, workload="sweep")
             for side in ("parent", "change")]
    runs.append(_run("parent", 1, 100, 0.01, attempted=4096))
    summary = bench_pairs.summarize(runs, SPEC)
    fit = summary[REPRODUCE]["peak_rss_fit"]
    assert fit["parent"]["intercept_mb"] == pytest.approx(22.5)
    assert fit["parent"]["slope_kb_per_op"] == pytest.approx(1.0)
    assert fit["parent"]["n"] == 3
    assert fit["change"]["intercept_mb"] == pytest.approx(22.75)
    assert fit["change"]["slope_kb_per_op"] == pytest.approx(1.5)
    assert fit["change"]["n"] == 4
    # one run a side, and a second parent run without peak_rss_mb
    assert summary[SWEEP]["peak_rss_fit"] == {}
    assert bench_pairs.past_bound_lines(summary) == []


def test_two_seeds_keep_separate_quartiles(bench_pairs):
    """Runs of one workload under two seeds, taken while the machine ran at
    two speeds, are two groups: pooled, their quartiles would span both."""
    runs = []
    for seed, speed in ((1, 100), (2, 200)):
        for pair in range(4):
            runs += [_run("parent", pair, speed + pair, 0.01, seed=seed),
                     _run("change", pair, speed + pair + 1, 0.01, seed=seed)]
    summary = bench_pairs.summarize(runs, SPEC)
    assert set(summary) == {"sweep, seed 1, call 0", "sweep, seed 2, call 0"}
    slow = summary["sweep, seed 1, call 0"]["throughput_per_s"]
    fast = summary["sweep, seed 2, call 0"]["throughput_per_s"]
    assert slow["parent"] == {"median": 101.5, "q1": 100.75, "q3": 102.25, "n": 4}
    assert fast["parent"] == {"median": 201.5, "q1": 200.75, "q3": 202.25, "n": 4}
    assert slow["change_better_pairs"] == fast["change_better_pairs"] == "4/4"


def test_a_second_call_with_the_same_seed_adds_pairs(bench_pairs, tmp_path,
                                                     monkeypatch):
    """The second call's pairs are added to the file and summarised on their
    own, apart from the first call's."""
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))
    throughput = {"parent": 100, "change": 120}
    monkeypatch.setattr(bench_pairs, "run_once", lambda root, args: _run(
        root.name, 0, throughput[root.name], 0.01)["last_line"])
    monkeypatch.chdir(tmp_path)
    argv = ["parent", "change", "--workload", "sweep", "--seed", "7",
            "--pairs", "2", "--label", "twice"]
    for _ in range(2):
        assert bench_pairs.main(argv) == 0
        throughput = {"parent": 200, "change": 240}   # the machine sped up
    data = json.loads((tmp_path / "BENCH_twice.json").read_text())
    assert [r["call"] for r in data["runs"]] == [0, 0, 0, 0, 1, 1, 1, 1]
    assert [r["pair"] for r in data["runs"]] == [0, 0, 1, 1, 0, 0, 1, 1]
    assert [r["side"] for r in data["runs"][4:6]] == ["parent", "change"]
    for call, parent in ((0, 100), (1, 200)):
        row = data["summary"][f"sweep, seed 7, call {call}"]["throughput_per_s"]
        assert row["change_better_pairs"] == "2/2"
        assert row["parent"]["median"] == row["parent"]["q3"] == parent


def test_only_the_src_trees_decide_whether_a_call_adds_to_a_file(
        bench_pairs, tmp_path, monkeypatch):
    """A docs edit marks the commit dirty but leaves ``src/`` alone, so the
    second call adds to the file; a file added under ``src/`` does not."""
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(bench_pairs, "run_once", lambda root, args: _run(
        root.name, 0, 100, 0.01)["last_line"])
    monkeypatch.chdir(tmp_path)
    argv = ["parent", "change", "--workload", "sweep", "--seed", "7",
            "--pairs", "1", "--label", "docs"]
    for head in ("abc", "abc+dirty"):
        monkeypatch.setattr(bench_pairs, "commit", lambda root, head=head: head)
        assert bench_pairs.main(argv) == 0
    data = json.loads((tmp_path / "BENCH_docs.json").read_text())
    assert [r["call"] for r in data["runs"]] == [0, 0, 1, 1]
    assert data["commits"]["change"]["commit"] == "abc"
    (tmp_path / "change" / "src" / "new.py").write_text("")
    with pytest.raises(SystemExit, match="other trees"):
        bench_pairs.main(argv)


def test_a_failed_run_keeps_the_finished_pairs(bench_pairs, tmp_path,
                                               monkeypatch):
    """A run that fails ends the call, and the file keeps the pairs before it."""
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))
    calls = []

    def run_once(root, args):
        calls.append(root.name)
        if len(calls) == 3:
            raise SystemExit("perfbench/run.py failed")
        return _run(root.name, 0, 100, 0.01)["last_line"]

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="failed"):
        bench_pairs.main(["parent", "change", "--workload", "sweep", "--seed",
                          "7", "--pairs", "10", "--label", "cut"])
    data = json.loads((tmp_path / "BENCH_cut.json").read_text())
    assert [(r["pair"], r["side"]) for r in data["runs"]] == [
        (0, "parent"), (0, "change")]
    assert data["summary"][SWEEP]["throughput_per_s"]["change_better_pairs"] \
        == "0/1"


def test_a_call_needs_a_pair(bench_pairs):
    # with no pair there is no summary to print
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["parent", "change", "--workload", "sweep",
                                "--seed", "7", "--pairs", "0", "--label", "x"])
