"""The summary that tools/bench_pairs.py writes, on synthetic runs."""

import importlib.util
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


def _run(side, pair, throughput, op_s, failed=0, workload="sweep"):
    metrics = {"throughput_per_s": {"value": throughput, "unit": "1/s"},
               "op_s_mid": {"value": op_s, "unit": "s"}}
    return {"side": side, "workload": workload, "seed": 7, "pair": pair,
            "last_line": {"correct": not failed, "attempted": 100,
                          "failed": failed, "metrics": metrics}}


def test_summary_medians_quartiles_and_wins(bench_pairs):
    runs = [_run("parent", 0, 100, 0.010), _run("change", 0, 120, 0.008),
            _run("change", 1, 90, 0.012), _run("parent", 1, 110, 0.009),
            _run("parent", 2, 105, 0.011), _run("change", 2, 130, 0.011),
            _run("parent", 3, 95, 0.010, failed=2), _run("change", 3, 125, 0.007),
            _run("parent", 0, 1.0, 3.0, workload="reproduce")]
    summary = bench_pairs.summarize(runs, SPEC)
    assert set(summary) == {"reproduce", "sweep"}
    sweep = summary["sweep"]
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
    reproduce = summary["reproduce"]["throughput_per_s"]
    assert "change" not in reproduce and "ratio_of_medians" not in reproduce
    assert reproduce["change_better_pairs"] == "0/0"
    assert reproduce["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 1}
