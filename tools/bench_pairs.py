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

The result goes to ``BENCH_<label>.json`` in the current directory: the
environment, each side's commit and a digest of its ``src/`` tree, every
run's last JSON line, and per workload and end-to-end metric each side's
median and quartiles and the pairs the change wins (by the metric's
``better`` direction in the change's ``BENCHMARK.json``).  If the file exists
for the same two trees, the new runs are added to it, so one file can hold
several workloads.
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


def summarize(runs, spec):
    """Per workload and end-to-end metric: each side's median and quartiles,
    and the pairs in which the change is better.  ``runs`` are dicts with
    ``side``, ``workload``, ``seed``, ``pair`` and ``last_line``."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault((r["seed"], r["pair"]), {})[r["side"]] = r
        summary = out[workload] = {
            "failed_ops": {side: sum(r["last_line"]["failed"] for r in mine
                                     if r["side"] == side) for side in SIDES}}
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
            if len(row) == 3 and row["parent"]["median"]:
                row["ratio_of_medians"] = (row["change"]["median"]
                                           / row["parent"]["median"])
    return out


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
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {side: {"commit": commit(root), "src_sha256": tree_digest(root)}
               for side, root in roots.items()}
    out_path = Path(f"BENCH_{args.label}.json")
    if out_path.exists():
        data = json.loads(out_path.read_text())
        if data["commits"] != commits:
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
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            line = run_once(roots[side], args)
            data["runs"].append({"side": side, "workload": args.workload,
                                 "seed": args.seed, "pair": pair,
                                 "last_line": line})
            metric = line["metrics"].get("throughput_per_s", {}).get("value")
            print(f"pair {pair} {side}: throughput_per_s {metric}, "
                  f"failed {line['failed']}", file=sys.stderr)
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    data["summary"] = summarize(data["runs"], spec)
    out_path.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps(data["summary"][args.workload], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
