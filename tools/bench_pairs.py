"""Alternating benchmark runs of two checkouts, summarised in one JSON file.

Run from anywhere::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload sweep \\
        --seed 101 --pairs 10 --label sweep_hexagon

Each pair runs ``perfbench/run.py --workload W --seed N --seconds S --trace 0``
once in each checkout, with that checkout's own (unchanged) harness and
sources.  Even pairs run the parent first and odd pairs the change first, so
a machine that slows down over the session does not favour either side.
Both sides run with ``PYTHONDONTWRITEBYTECODE=1``: otherwise a run's fresh
set-up processes would read whatever bytecode cache an earlier run left, and
``setup_s`` would depend on the caller's environment.

The result goes to ``BENCH_<label>.json`` in the current directory,
rewritten after every pair, so a failed run (which ends the call) keeps the
pairs finished before it.  It holds the environment, each side's commit and
a digest of its ``src/`` tree, every run's last JSON line with the call (run
of this script) that made it, and per workload, seed and call and per
end-to-end metric each side's median and quartiles, the pairs the change
wins (by the metric's ``better`` direction in the change's
``BENCHMARK.json``) and the ratio of the medians, with ``past_bound`` true
where that ratio is worse than the metric's ``bound`` (each such metric is
also printed).  ``peak_rss_fit`` gives per side a least-squares line of
``peak_rss_mb`` against the ops ``attempted``: the harness keeps every op's
outcome, so the slope (KB per op) is the harness's growth with throughput
and the intercept (MB) the rest, the program's own footprint included.  The
intercept lies far from the runs' op counts, so two sides' intercepts are
comparable only where their slopes agree.  ``claim_rule_met`` is true where
a gain could be claimed: the change is better in at least 9/10 of the
pairs, and its median is better than the parent's by more than the
parent's q3 - q1.  If the file exists for the same two ``src/`` trees (by
digest: an edit outside ``src/``, which marks the commit ``+dirty``, does
not count), the new runs are added to it as a new call, so one file can
hold several workloads and several calls per workload; each call is
summarised on its own, as two calls may find the machine in two states.
The file keeps the first call's commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values):
    """(q1, median, q3), inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def group_name(workload, seed, call):
    return f"{workload}, seed {seed}, call {call}"


def summarize(runs, spec):
    """Per workload, seed and call, and per end-to-end metric: each side's
    median and quartiles, and the pairs in which the change is better.
    ``runs`` are dicts with ``side``, ``workload``, ``seed``, ``call``,
    ``pair`` and ``last_line``; the result is keyed by :func:`group_name`."""
    groups = {}
    for r in runs:
        groups.setdefault((r["workload"], r["seed"], r["call"]), []).append(r)
    out = {}
    for key, mine in sorted(groups.items()):
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        summary = out[group_name(*key)] = {
            "failed_ops": {side: sum(r["last_line"]["failed"] for r in mine
                                     if r["side"] == side) for side in SIDES}}
        fits = {side: rss_fit([r for r in mine if r["side"] == side])
                for side in SIDES}
        summary["peak_rss_fit"] = {side: fit for side, fit in fits.items() if fit}
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            value = lambda r: r["last_line"]["metrics"][name]["value"]
            row = summary[name] = {}
            for side in SIDES:
                values = [value(r) for r in mine if r["side"] == side]
                if values:
                    q1, median, q3 = quartiles(values)
                    row[side] = {"median": median, "q1": q1, "q3": q3,
                                 "n": len(values)}
            pairs = [p for p in by_pair.values() if len(p) == 2]
            wins = sum((value(p["change"]) > value(p["parent"])) == higher
                       and value(p["change"]) != value(p["parent"])
                       for p in pairs)
            row["change_better_pairs"] = f"{wins}/{len(pairs)}"
            both = "parent" in row and "change" in row
            if both:
                row["claim_rule_met"] = claim_rule_met(
                    wins, len(pairs), row["parent"], row["change"], higher)
            if both and row["parent"]["median"]:
                ratio = row["ratio_of_medians"] = (row["change"]["median"]
                                                   / row["parent"]["median"])
                if "bound" in metric:
                    bound = metric["bound"]
                    row["past_bound"] = (ratio < 1 - bound if higher
                                         else ratio > 1 + bound)
    return out


def rss_fit(runs):
    """The least-squares line of ``peak_rss_mb`` against the ops
    ``attempted`` over ``runs``: ``intercept_mb`` and ``slope_kb_per_op``.
    None unless the runs attempted at least two distinct op counts."""
    points = [(r["last_line"]["attempted"],
               r["last_line"]["metrics"]["peak_rss_mb"]["value"])
              for r in runs if "peak_rss_mb" in r["last_line"]["metrics"]]
    if len({ops for ops, _ in points}) < 2:
        return None
    slope, intercept = statistics.linear_regression(*zip(*points))
    return {"intercept_mb": intercept, "slope_kb_per_op": slope * 1024,
            "n": len(points)}


def claim_rule_met(wins, pairs, parent, change, higher):
    """True when the change is better in at least 9/10 of the ``pairs``
    (``wins`` of them; a tie counts for neither side) and its median is
    better than the parent's by more than the parent's q3 - q1."""
    gain = change["median"] - parent["median"]
    if not higher:
        gain = -gain
    return (pairs > 0 and 10 * wins >= 9 * pairs
            and gain > parent["q3"] - parent["q1"])


def past_bound_lines(summary):
    """One line per group and end-to-end metric whose ratio of medians is
    worse than its bound."""
    return [f"{group} {name}: ratio of medians {row['ratio_of_medians']:.4f} "
            "is past its bound"
            for group, metrics in sorted(summary.items())
            for name, row in metrics.items()
            if row.get("past_bound")]


def tree_digest(root):
    """SHA-256 over the paths and bytes of the files under ``root/src``,
    leaving out bytecode caches."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def commit(root):
    """HEAD of the checkout (with ``+dirty`` for uncommitted changes to
    tracked files), or None outside a git checkout."""
    def git(*argv):
        proc = subprocess.run(["git", "-C", str(root), *argv],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    if head and git("status", "--porcelain", "--untracked-files=no"):
        head += "+dirty"
    return head


def run_once(root, args):
    """The last JSON line of one benchmark run in checkout ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {root} "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {side: {"commit": commit(root), "src_sha256": tree_digest(root)}
               for side, root in roots.items()}
    out_path = Path(f"BENCH_{args.label}.json")
    if out_path.exists():
        data = json.loads(out_path.read_text())
        if any(data["commits"][side]["src_sha256"] != c["src_sha256"]
               for side, c in commits.items()):
            raise SystemExit(f"{out_path} is for other trees; "
                             "choose another label")
    else:
        data = {"label": args.label, "commits": commits, "runs": []}
    data["command"] = ("python3 perfbench/run.py --workload W --seed N "
                       f"--seconds {args.seconds:g} --trace 0")
    data["env"] = {"python": platform.python_version(),
                   "machine": platform.machine(),
                   "cpu_count": os.cpu_count(),
                   "PYTHONDONTWRITEBYTECODE": "1"}
    data["order"] = "even pairs run the parent first, odd pairs the change"
    call = 1 + max((r["call"] for r in data["runs"]), default=-1)
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            line = run_once(roots[side], args)
            data["runs"].append({"side": side, "workload": args.workload,
                                 "seed": args.seed, "call": call, "pair": pair,
                                 "last_line": line})
            metric = line["metrics"].get("throughput_per_s", {}).get("value")
            print(f"pair {pair} {side}: throughput_per_s {metric}, "
                  f"failed {line['failed']}", file=sys.stderr)
        # after every pair: a run that fails later keeps the finished pairs
        data["summary"] = summarize(data["runs"], spec)
        out_path.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps(data["summary"][group_name(args.workload, args.seed,
                                                 call)], indent=1))
    for line in past_bound_lines(data["summary"]):
        print(f"PAST BOUND: {line}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
