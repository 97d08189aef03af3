"""Quick self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Runs every workload in quick mode (``--quick``: a 7-op paper list and the p=2
sweep only, ``--seconds 1``) and checks that:

- every end-to-end metric (``--trace 0``) and every per-layer metric
  (``--trace 1``) of BENCHMARK.json prints by name with its unit, both as a
  ``name = value unit`` line and in the result line;
- a deliberately corrupted output (``--corrupt``: a changed scrubbed report
  on reproduce, a flipped ``stable`` flag on the sweep) is counted as a
  failed op in ``ops_failed_frac`` and in the result line;
- the benchmark's own arithmetic rejects a changed invariant factor and a
  changed normal-form coefficient of a seeded op;
- in the traced run no op's summed span self time exceeds its traced
  duration, and in the written spans file no op's summed self time exceeds
  the time of its outermost spans;
- in a directory holding only BENCHMARK.json and the benchmark, the run exits
  non-zero without printing a result.

Exits 1 listing the failed checks, 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import check_seeded
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("reproduce", "sweep")


def bench(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--quick", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def check_metrics(lines, wanted, positive=False):
    problems = []
    result = result_of(lines) or {"metrics": {}}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit:
            problems.append(f"{name} missing from the result line or not in {unit}")
        elif positive and not got["value"] > 0:
            problems.append(f"{name} is not positive")
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines):
            problems.append(f"no '{name} = ... {unit}' line")
    return problems


def check_spans_file(path):
    """Per op: summed self time <= summed duration of its outermost spans."""
    tracer = Tracer.load(path)
    if not tracer.spans:
        return ["the spans file is empty"]
    self_s, outer_s = tracer.self_time_by_op(), {}
    for name, start, end, parent, op in tracer.spans:
        if parent is None:
            outer_s[op] = outer_s.get(op, 0.0) + end - start
    bad = [op for op in self_s if self_s[op] > outer_s.get(op, 0.0) + 1e-9]
    return [f"op {op}: self time exceeds its outermost spans" for op in bad[:5]]


def check_arithmetic():
    """The seeded-op checks accept a right answer and reject a changed one."""
    snf = {"invariant_factors": [2, 4], "D": [[2, 0], [0, 4]],
           "U": [[1, 0], [3, -1]], "V": [[1, 2], [0, 1]]}
    product = {"product": {"x1^1+x2^1": "-3", "x1^2+x2^1": "-6"}}
    factors = [((2, 0, 0), 1), ((0, 1, 0), 3)], [((0, 0, 2), 2), ((1, 0, 0), -1)]
    given = [("snf", [[2, 4], [6, 8]]), ("mul", *map(dict, factors))]
    problems = [f"a right {g[0]} answer is rejected: {error}"
                for g, r in zip(given, (snf, product))
                if (error := check_seeded(g, r))]
    snf["invariant_factors"] = [1, 8]
    product["product"]["x1^2+x2^1"] = "-5"
    problems += [f"a changed {g[0]} answer is accepted"
                 for g, r in zip(given, (snf, product)) if not check_seeded(g, r)]
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_arithmetic()
    for workload in WORKLOADS:
        print(f"{workload}: untraced, traced, corrupted", flush=True)
        code, lines = bench(workload, "--trace", "0")
        result = result_of(lines)
        if code != 0 or not result or not result["correct"]:
            problems.append(f"{workload}: untraced run failed: {lines[-5:]}")
        problems += [f"{workload}: {p}" for p in check_metrics(lines, spec["end_to_end"], positive=True)]

        code, lines = bench(workload, "--trace", "1")
        result = result_of(lines)
        if code != 0 or not result or not result["correct"]:
            problems.append(f"{workload}: traced run failed: {lines[-5:]}")
        problems += [f"{workload}: {p}" for p in check_metrics(lines, spec["per_layer"])]
        if not any(line.startswith("self_time_check:") and " 0 whose" in line
                   and not line.startswith("self_time_check: 0 ")
                   for line in lines):
            problems.append(f"{workload}: self-time check failed or checked no op")
        problems += [f"{workload}: {p}" for p in
                     check_spans_file(WORK / f"spans-{workload}.jsonl")]

        code, lines = bench(workload, "--trace", "0", "--corrupt")
        result = result_of(lines)
        frac = [line for line in lines if line.startswith("ops_failed_frac = ")]
        if not result or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: corrupted output not counted as failed")
        if not frac or frac[0].startswith("ops_failed_frac = 0/"):
            problems.append(f"{workload}: ops_failed_frac does not count the corruption")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("reproduce", cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result_of(lines) is not None:
        problems.append("without the program the run did not fail")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
