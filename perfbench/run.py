"""Benchmark of the ecomu3 reproduction, driven from outside the program.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 55 --trace 0

Every workload is a closed loop: one client, one process, at most one child
process at a time.  The seed generates every input the program receives (the
``snf`` matrix, the ``flag nf``/``flag mul`` polynomials, the op order within
each pass and the sweep's ``rng_seed``).  Each op runs with
``ECOMU3_CACHE_DIR`` set to a fresh empty directory, so no result rests on a
cache file written earlier; the benchmark never passes a cache flag.

Workloads, and why each was chosen:

reproduce
    Repeated passes over the paper list of 45 CLI invocations, in-process
    through ``cli.main``.  This is the full reproduction of the paper as a
    library or REPL user runs it: compute only, no import cost per op;
    resolution and integer linalg/abelian dominate and robustness is absent.
sweep
    ``robustness.check_block`` over every lower-arrow x degree block of both
    bundled diagrams.  The one heavy computation: mod-p rank, cosimplicial
    assembly and completion, which reproduce barely touches; linalg is used
    over F_p as thousands of small ranks where reproduce uses it over Z via
    Smith normal form, so a change that helps one use and costs the other
    shows.

The paper list run as one fresh ``python -m ecomu3.cli`` process per op is
not a workload: the run budget allows 55-s runs for two workloads only.  The
start-up cost it would show is measured by the traced ``startup.*`` probes
(a fresh interpreter without and with ``import ecomu3.cli``) and by
reproduce's ``setup_s``, which is mostly the package import.

An op is one unit of work: a CLI invocation, or on ``sweep`` one variant
check (its block's time divided by the block's variants).  Each call of the
op list is taken at one time over its untraced calls in the run: the fastest
on reproduce, the median on sweep.  On the shared machine the benchmark was
built on, contention came in bursts of seconds that slowed a process by up
to half; over a 4-minute log of reproduce ops, the sum of per-call minima of
55-s windows ranged over 9% of its median, the sum of medians over 16%.  A
sweep block runs only 3-5 times in a run, and there its median was the
steadier of the two.  The same machine also slowed by up to 30% over an
hour, which no estimate within a run removes: compare commits with
alternating runs.  End-to-end metrics (``--trace 0``):

throughput_per_s  ops in one pass / pass_s, where pass_s is the sum of the
                  pass's calls at those times
op_s_mid          interquartile mean op latency: the mean over the middle
                  half of one pass's ops
op_s_tail         mean latency of the slowest quarter of the same ops (11 of
                  the 45 ops of a CLI pass)
setup_s           median of the run's own set-up and SETUP_REPEATS set-ups in
                  fresh processes, spread evenly over the timed loop (between
                  ops) so that they sample the machine over the whole run:
                  imports, input generation, diagram loads, baselines and
                  warm-up before the first timed op
peak_rss_mb       peak RSS of the benchmark process

The latency metrics are means over bands of the op distribution, not values
at single percentiles: the median of the paper list falls in the gap between
its ops of at most 19 ms and its ops of 34 ms or more, and a percentile of
the sweep rests on one block's two or three calls, so on a shared machine
both moved by up to a third between runs.

Throughput and per-op latency, not pass time, are the metrics, so that a
change of the sweep's coverage (more variants per block) shows as a size
change (printed as ``size ...`` lines), not as a regression.  ``pass_s`` is
printed for reference.

``--trace 1`` runs passes alternately untraced and traced, wraps the engine
functions of ``spans.TARGETS`` during traced passes and set-up, and prints
the per-layer metrics: calls and times per execution (set-up plus one pass),
the robustness counters, the fresh-interpreter start-up cost, and the tracing
overhead (traced minus untraced pass time).  Spans are written to
``.perfbench_work/spans-<workload>.jsonl`` when the run ends.

Every call's output is checked (see ``CliWorkload`` and ``SweepWorkload``)
against the first pass of the run and against values that do not come from
the code under test: ``perfbench/reference.json`` (digests of the program's
reports and its higher-limits tables at the seed commit, written by
``--write-reference``) and the benchmark's own Smith-form and coinvariant
arithmetic for the seeded ops.  A failed check or an exception counts as a
failed op.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from itertools import combinations
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 10       # fresh-process set-ups per untraced run
STARTUP_REPEATS = 5      # fresh interpreters per traced run, with and without import
CROSS_CHECK_OPS = 5      # reproduce ops re-run as fresh processes after timing
CHILD_TIMEOUT = 60       # seconds before a child process is killed
MODULES = ["trivial", "sign", "standard", "standard(x)sign", "standard(x)standard"]
PRIMES = (2, 3)


# --- inputs ------------------------------------------------------------------


def random_poly(rng):
    """A polynomial in x1, x2, x3: (CLI text, {exponents: coefficient}).

    2-5 terms, each exponent at most 2; a monomial may repeat.
    """
    terms, poly = [], {}
    for _ in range(rng.randint(2, 5)):
        coefficient = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
        exps = tuple(rng.randint(0, 2) for _ in range(3))
        poly[exps] = poly.get(exps, 0) + coefficient
        factors = [f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]
        body = "*".join([str(abs(coefficient))] + factors)
        terms.append(("-" if coefficient < 0 else "+", body))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in terms[1:]), poly


def paper_ops(rng, quick=False):
    """The paper list (a short cheap list when quick): (ops, seeded inputs).

    The seeded inputs map the snf / flag nf / flag mul ops to the matrix or
    polynomials they were given, for the benchmark's own checks.
    """
    matrix = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]
    nf_text, nf_poly = random_poly(rng)
    a_text, a_poly = random_poly(rng)
    b_text, b_poly = random_poly(rng)
    seeded = [(("snf", json.dumps(matrix)), ("snf", matrix)),
              (("flag", "nf", nf_text), ("nf", nf_poly)),
              (("flag", "mul", a_text, b_text), ("mul", a_poly, b_poly))]
    ops = [["flag", "dims"]]
    if quick:
        ops += [["flag", "rep", "1"], ["u3t2", "--prime", "2"],
                ["holim", "validate", "--prime", "2"]]
    else:
        for module in MODULES:
            for prime in ([], ["--prime", "2"], ["--prime", "3"]):
                ops.append(["grpcoh", "S3", module, "14"] + prime)
        ops += [["flag", "rep", str(d)] for d in range(4)]
        ops += [["flag", "kunneth", str(d)] for d in range(0, 13, 2)]
        for config in ("flbar3", "fl3xfl3"):
            for prime in PRIMES:
                ops.append(["serre", config, "--prime", str(prime)])
        for prime in PRIMES:
            ops.append(["u3t2", "--prime", str(prime)])
            ops += [["holim", op, "--prime", str(prime)]
                    for op in ("validate", "limits", "e2")]
            ops.append(["ecom-u3", "--prime", str(prime)])
        ops.append(["rational-ring"])
    head = ("--format", "json")
    inputs = {head + op: given for op, given in seeded}
    return list(inputs) + [head + tuple(op) for op in ops], inputs


# --- the benchmark's own arithmetic --------------------------------------------


def det(rows):
    """Determinant of a square integer matrix (fraction-free elimination)."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def invariant_factors(m):
    """Non-zero invariant factors of m, from its determinantal divisors."""
    rows, cols = len(m), len(m[0]) if m else 0
    divisors = [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for r in combinations(range(rows), k):
            for c in combinations(range(cols), k):
                g = math.gcd(g, det([[m[i][j] for j in c] for i in r]))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        divisors.append(g)
    return [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def check_snf(matrix, results):
    """Error text, or None if U, D, V is a Smith form of matrix."""
    u, d, v = results["U"], results["D"], results["V"]
    factors = invariant_factors(matrix)
    if results["invariant_factors"] != factors:
        return f"invariant factors {results['invariant_factors']} != {factors}"
    diagonal = [[factors[i] if i == j and i < len(factors) else 0
                 for j in range(len(matrix[0]))] for i in range(len(matrix))]
    if d != diagonal:
        return "D is not the diagonal of the invariant factors"
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        return "U or V is not unimodular"
    if matmul(matmul(u, d), v) != matrix:
        return "U D V differs from the matrix"
    return None


def coinvariant_nf(poly):
    """Normal form in Z[x1,x2,x3]/(e1,e2,e3) on the basis x1^a x2^b (a<=2, b<=1).

    Division by the Groebner basis x3 + x2 + x1, x2^2 + x1 x2 + x1^2, x1^3
    (lex, x3 > x2 > x1), whose standard monomials are that basis.
    """
    out = {}
    for (a, b, c), coefficient in poly.items():         # x3 -> -(x1 + x2)
        for i in range(c + 1):
            key = (a + i, b + c - i)
            out[key] = out.get(key, 0) + coefficient * (-1) ** c * math.comb(c, i)
    while True:                                          # x2^2 -> -x1^2 - x1 x2
        top = max((b for (a, b), v in out.items() if v), default=0)
        if top < 2:
            break
        for (a, b), v in list(out.items()):
            if b == top and v:
                del out[a, b]
                for key in ((a + 2, b - 2), (a + 1, b - 1)):
                    out[key] = out.get(key, 0) - v
    return {(a, b, 0): v for (a, b), v in out.items() if v and a < 3}


def poly_mul(p, q):
    out = {}
    for e, c in p.items():
        for f, d in q.items():
            key = tuple(x + y for x, y in zip(e, f))
            out[key] = out.get(key, 0) + c * d
    return out


def parse_poly_out(out):
    """The CLI's {"x1^2+x2^1": "-3"} back to {exponents: int}."""
    poly = {}
    for name, value in out.items():
        exps = [0, 0, 0]
        if name != "1":
            for factor in name.split("+"):
                var, exp = factor[1:].split("^")
                exps[int(var) - 1] = int(exp)
        poly[tuple(exps)] = int(value)
    return poly


def check_seeded(given, results):
    """Error text, or None, for a seeded op's results (see paper_ops)."""
    if given[0] == "snf":
        return check_snf(given[1], results)
    if given[0] == "nf":
        got, want = parse_poly_out(results["normal_form"]), coinvariant_nf(given[1])
    else:
        got = parse_poly_out(results["product"])
        want = coinvariant_nf(poly_mul(given[1], given[2]))
    return None if got == want else f"normal form {got} != {want}"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference():
    data = json.loads(REFERENCE.read_text())
    tables = {int(p): [tuple(row) for row in rows]
              for p, rows in data["higher_limits"].items()}
    return data["reports"], tables


# --- one op --------------------------------------------------------------------


class Outcome:
    """What one timed call returned: latency, output, work done, error."""

    def __init__(self, seconds, output=None, work=1, error=None, layers=None):
        self.seconds = seconds
        self.output = output
        self.work = work
        self.error = error
        self.layers = layers or {}


@contextlib.contextmanager
def op_dir():
    """A fresh directory for one op; its ``cache`` subdirectory starts empty."""
    path = Path(tempfile.mkdtemp(dir=WORK))
    (path / "cache").mkdir()
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def child_env(cache):
    env = dict(os.environ, PYTHONPATH=str(SRC), ECOMU3_CACHE_DIR=str(cache))
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(argv):
    """Run one child process in a fresh op directory: (seconds, exit code,
    stdout, stderr).  It is killed after CHILD_TIMEOUT seconds."""
    with op_dir() as path, open(path / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, env=child_env(path / "cache"))
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            out, _ = proc.communicate()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        err.close()
        return (seconds, proc.returncode, out.decode(),
                (path / "stderr").read_text(errors="replace"))


def cli_inprocess(cli, argv):
    """cli.main(argv) with stdout captured; (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with op_dir() as path:
        os.environ["ECOMU3_CACHE_DIR"] = str(path / "cache")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:        # argparse errors
                    code = exc.code
                seconds = time.perf_counter() - start
        finally:
            del os.environ["ECOMU3_CACHE_DIR"]
    return seconds, code, out.getvalue(), err.getvalue()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --- workloads -----------------------------------------------------------------


class CliWorkload:
    """The paper list through the CLI, in-process.

    Each op is called 25-35 times in a 55-s run; its time is the fastest
    of its calls (see the module docstring).

    An op passes only if it exits 0 (the CLI's own published-value and
    validation checks) and its ``report.scrub_timings`` JSON equals the same
    op's output in the first pass of the run.  The first pass is checked
    further: a seed-independent op's report must have the digest recorded
    in reference.json, and a seeded op's results must agree with the
    benchmark's own arithmetic (invariant factors from determinantal
    divisors, unimodular U and V with U D V = m; normal forms by division by
    a Groebner basis).  After timing, CROSS_CHECK_OPS ops -- the three
    seeded ones and a seeded sample of the rest -- are run again through the
    other CLI route, a fresh ``python -m ecomu3.cli`` process, and must give
    the same report.
    """

    estimate = min

    def __init__(self, args):
        self.args = args
        self.first = {}

    def setup(self, tracer):
        self.ops, self.inputs = paper_ops(random.Random(self.args.seed),
                                          self.args.quick)
        self.reports, _ = load_reference()
        from ecomu3 import cli, report
        self.cli, self.scrub = cli, report.scrub_timings
        if tracer:
            tracer.install()
        cli_inprocess(cli, ["--format", "json", "flag", "dims"])  # warm-up
        if tracer:
            tracer.uninstall()

    def run(self, key, tracer, op_id):
        if tracer:
            tracer.op_id = op_id
        seconds, code, out, err = cli_inprocess(self.cli, key)
        layers = tracer.take_layers() if tracer else None
        if code != 0:
            return Outcome(seconds, error=f"exit {code}: {err.strip()[-300:]}")
        return Outcome(seconds, output=self.scrub(out), layers=layers)

    def check(self, key, outcome):
        if key in self.first:
            if outcome.output != self.first[key]:
                return "scrubbed report differs from the first pass"
            return None
        self.first[key] = outcome.output
        if key in self.inputs:
            results = json.loads(outcome.output)["results"]
            return check_seeded(self.inputs[key], results)
        want = self.reports.get(" ".join(key))
        if want is None:
            return "no reference digest for this op"
        if digest(outcome.output) != want:
            return "scrubbed report differs from the reference digest"
        return None

    def corrupt(self, outcome):
        outcome.output += " "

    def cross_check(self):
        """[(key, error or None)] from fresh CLI processes."""
        rng = random.Random(f"{self.args.seed}-cross")
        rest = [key for key in self.ops if key not in self.inputs]
        keys = list(self.inputs) + rng.sample(
            rest, min(CROSS_CHECK_OPS - len(self.inputs), len(rest)))
        out = []
        for key in keys:
            try:
                _, code, text, err = run_child(
                    [sys.executable, "-m", "ecomu3.cli", *key])
            except Exception as exc:             # an op failure, not ours
                out.append((key, f"{type(exc).__name__}: {exc}"))
                continue
            if code != 0:
                out.append((key, f"exit {code}: {err.strip()[-300:]}"))
            elif self.scrub(text) != self.first.get(key):
                out.append((key, "differs from the fresh-process CLI route"))
            else:
                out.append((key, None))
        return out

    def sizes(self):
        return {"ops_per_pass": len(self.ops)}


class SweepWorkload:
    """robustness.check_block over every non-empty lower block of both diagrams.

    ``limits.higher_limits(diagram, k)[:2]`` is computed for every degree at
    set-up.  A block check passes only if it is ``stable``, its baseline and
    the set-up value for its degree both equal the table in reference.json,
    and its variants / compatible / exhaustive values equal those of the
    block's first check in the run.  A block is checked 3-5 times in a 55-s run, too few for a
    minimum to be steady; its time is the median of its calls.
    """

    estimate = staticmethod(statistics.median)

    def __init__(self, args):
        self.args = args
        self.first = {}

    def setup(self, tracer):
        from ecomu3 import diagram, limits, robustness
        self.robustness = robustness
        _, self.reference = load_reference()
        primes = PRIMES[:1] if self.args.quick else PRIMES
        if tracer:
            tracer.install()
        self.diagrams, self.baseline, self.ops = {}, {}, []
        for p in primes:
            dg = self.diagrams[p] = diagram.load_bundled(p)
            dg.validate()
            for k in range(dg.max_degree + 1):
                self.baseline[p, k] = tuple(limits.higher_limits(dg, k)[:2])
            for arrow in robustness.LOWER_ARROWS:
                for k in range(dg.max_degree + 1):
                    m = dg.matrix(*arrow, k)
                    if m.rows and m.cols:
                        self.ops.append((p, arrow, k))
        if tracer:
            tracer.uninstall()

    def run(self, key, tracer, op_id):
        p, arrow, k = key
        if tracer:
            tracer.op_id = op_id
        start = time.perf_counter()
        result = self.robustness.check_block(self.diagrams[p], arrow, k,
                                             rng_seed=self.args.seed)
        seconds = time.perf_counter() - start
        layers = tracer.take_layers() if tracer else None
        if result is None:
            return Outcome(seconds, error="check_block returned None")
        return Outcome(seconds, output=result, work=result["variants"],
                       layers=layers)

    def check(self, key, outcome):
        result = outcome.output
        counts = {name: result[name]
                  for name in ("variants", "compatible", "exhaustive")}
        first = self.first.setdefault(key, counts)
        if not result["stable"]:
            return "block is not stable"
        p, _, k = key
        want = self.reference[p][k]
        if tuple(result["baseline"]) != want or self.baseline[p, k] != want:
            return "baseline differs from the reference higher limits"
        if counts != first:
            return f"counts {counts} differ from the first check {first}"
        return None

    def corrupt(self, outcome):
        outcome.output["stable"] = not outcome.output["stable"]

    def cross_check(self):
        return []

    def sizes(self):
        ref = [self.first[key] for key in self.ops if key in self.first]
        return {"blocks": len(ref),
                "blocks_with_several_variants": sum(r["variants"] > 1 for r in ref),
                "variants": sum(r["variants"] for r in ref),
                "blocks_exhaustive": sum(r["exhaustive"] for r in ref),
                "blocks_sampled": sum(not r["exhaustive"] for r in ref)}


def make_workload(args):
    if args.workload == "sweep":
        return SweepWorkload(args)
    return CliWorkload(args)


# --- measurement ---------------------------------------------------------------


def timed_setup(args, tracer=None):
    start = time.perf_counter()
    workload = make_workload(args)
    workload.setup(tracer)
    return workload, time.perf_counter() - start


def fresh_setup(args):
    """Set-up seconds of one fresh benchmark process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.quick:
        cmd.append("--quick")
    _, code, text, _ = run_child(cmd)
    if code != 0:
        raise SystemExit(f"set-up failed in a fresh process (exit {code})")
    return json.loads(text.strip().splitlines()[-1])["setup_s"]


def startup_costs():
    """Median seconds of a fresh interpreter without and with the CLI import."""
    def median_run(code):
        times = []
        for _ in range(STARTUP_REPEATS):
            seconds, rc, _, _ = run_child([sys.executable, "-c", code])
            if rc != 0:
                raise SystemExit(f"python -c {code!r} failed")
            times.append(seconds)
        return statistics.median(times)
    interp = median_run("pass")
    return interp, median_run("import ecomu3.cli") - interp


def band_mean(samples, lo, hi):
    """Weighted mean of [(value, weight)] between the lo and hi quantiles."""
    total = sum(w for _, w in samples)
    start, end = lo * total, hi * total
    acc = value_sum = weight_sum = 0.0
    for value, weight in sorted(samples):
        take = min(acc + weight, end) - max(acc, start)
        if take > 0:
            value_sum += value * take
            weight_sum += take
        acc += weight
    return value_sum / weight_sum


def add_layers(into, layers):
    for name, value in layers.items():
        into[name] = into.get(name, 0) + value


class Run:
    """The timed loop: whole passes in seeded order until the time is up.

    With ``setups`` > 0, that many fresh-process set-ups are run between
    ops at evenly spaced times of the loop (any left when it ends, after it).
    """

    def __init__(self, workload, args, tracer, setups=0):
        self.workload, self.args, self.tracer = workload, args, tracer
        self.latency = {}            # key -> [seconds] of untraced calls
        self.work = {}               # key -> ops done by one call
        self.complete = []           # (traced?, [Outcome]) per complete pass
        self.attempted = self.failed = 0
        self.errors = []
        self.traced_ops = []         # (op id, traced seconds)
        self.setups = setups
        self.setup_times = []

    def enough(self):
        untraced = sum(1 for traced, _ in self.complete if not traced)
        traced = sum(1 for traced, _ in self.complete if traced)
        return untraced >= 1 and (traced >= 1 or not self.tracer)

    def record(self, key, outcome, check_error=None):
        self.attempted += 1
        error = outcome.error or check_error
        if error:
            self.failed += 1
            self.errors.append(f"{' '.join(map(str, key))[:120]}: {error}")

    def maybe_setup(self, start, force=False):
        """Run the next fresh set-up if it is due (every one left if force)."""
        while len(self.setup_times) < self.setups:
            due = start + self.args.seconds * (len(self.setup_times) + 0.5) / self.setups
            if not force and time.perf_counter() < due:
                return
            self.setup_times.append(fresh_setup(self.args))
            if not force:
                return

    def loop(self):
        workload, args = self.workload, self.args
        order_rng = random.Random(f"{args.seed}-order")
        start = time.perf_counter()
        deadline = start + args.seconds
        op_id = 0
        pass_no = 0
        while True:
            traced = bool(self.tracer) and pass_no % 2 == 1
            if traced:
                self.tracer.install()
            order = list(workload.ops)
            order_rng.shuffle(order)
            outcomes = []
            for key in order:
                if time.perf_counter() >= deadline and self.enough():
                    break
                if not traced:
                    self.maybe_setup(start)
                op_id += 1
                try:
                    outcome = workload.run(key, self.tracer if traced else None,
                                           op_id)
                except Exception as exc:         # an op failure, not ours
                    outcome = Outcome(0.0, error=f"{type(exc).__name__}: {exc}")
                check = None
                if outcome.error is None:
                    if args.corrupt and op_id == 1:
                        workload.corrupt(outcome)
                    try:
                        check = workload.check(key, outcome)
                    except Exception as exc:     # e.g. a report without a result
                        check = f"check failed: {type(exc).__name__}: {exc}"
                self.record(key, outcome, check)
                if traced:
                    self.traced_ops.append((op_id, outcome.seconds))
                elif outcome.error is None:
                    self.latency.setdefault(key, []).append(outcome.seconds)
                    self.work.setdefault(key, max(outcome.work, 1))
                outcomes.append((key, outcome))
            if traced:
                self.tracer.uninstall()
            if len(outcomes) == len(order):
                self.complete.append((traced, outcomes))
            pass_no += 1
            if time.perf_counter() >= deadline and self.enough():
                self.maybe_setup(start, force=True)
                return

    def op_latencies(self):
        """[(seconds per op, ops)] over the op list, each call at the
        workload's estimate (minimum or median) of its untraced times.

        Calls that never ran without an error are left out (the run then
        reports failures and is not correct).
        """
        return [(self.workload.estimate(self.latency[key]) / self.work[key],
                 self.work[key]) for key in self.workload.ops if key in self.latency]


def end_to_end(run, workload, setup_times):
    ops = run.op_latencies() or [(0.0, 1)]
    total = sum(w for _, w in ops)
    pass_s = sum(v * w for v, w in ops)

    calls = min((len(v) for v in run.latency.values()), default=0)
    print(f"pass_s = {pass_s:.4f} s ({total} ops per pass, each call at its "
          f"{workload.estimate.__name__} over at least {calls} calls)")
    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
    return {
        "throughput_per_s": total / pass_s if pass_s else 0.0,
        "op_s_mid": band_mean(ops, 0.25, 0.75),
        "op_s_tail": band_mean(ops, 0.75, 1.0),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run, workload, setup_layers):
    """Per-layer numbers for set-up plus one pass (mean of the traced passes)."""
    traced = [outcomes for t, outcomes in run.complete if t]
    untraced = [outcomes for t, outcomes in run.complete if not t]
    pass_layers = {}
    for outcomes in traced:
        for _, outcome in outcomes:
            add_layers(pass_layers, outcome.layers)
    pass_layers = {k: v / len(traced) for k, v in pass_layers.items()}
    out = dict(setup_layers)
    add_layers(out, pass_layers)

    results = ([o.output for _, o in traced[0] if o.output is not None]
               if isinstance(workload, SweepWorkload) else [])
    variants = sum(r["variants"] for r in results)
    compatible = sum(r["compatible"] for r in results)
    out["robustness.variants"] = variants
    out["robustness.compatible"] = compatible
    out["robustness.compatible_ratio"] = compatible / variants if variants else 0.0
    out["robustness.blocks_exhaustive"] = sum(r["exhaustive"] for r in results)
    out["robustness.blocks_sampled"] = sum(not r["exhaustive"] for r in results)
    out["robustness.higher_limits_per_variant"] = (
        pass_layers.get("limits.higher_limits.calls", 0) / variants
        if variants else 0.0)

    def wall(passes):
        return statistics.median(sum(o.seconds for _, o in p) for p in passes)
    untraced_s, traced_s = wall(untraced), wall(traced)
    out["tracing.overhead_s"] = traced_s - untraced_s
    out["tracing.overhead_frac"] = traced_s / untraced_s - 1
    print(f"tracing: untraced pass {untraced_s:.4f} s, traced pass {traced_s:.4f} s")
    print(f"size cosimplicial_cells_per_pass = "
          f"{pass_layers.get('limits.cosimplicial_complex.cells', 0):g}")
    out["startup.interp_s"], out["startup.import_s"] = startup_costs()
    return {k: int(v) if isinstance(v, float) and k.endswith((".calls", ".entries", ".cells"))
            and v.is_integer() else v for k, v in out.items()}


def write_reference():
    """Record the program's seed-independent reports and higher-limits tables."""
    from ecomu3 import cli, diagram, limits, report
    ops, inputs = paper_ops(random.Random(0))
    quick_ops, _ = paper_ops(random.Random(0), quick=True)
    reports = {}
    for key in dict.fromkeys(ops + quick_ops):
        if key in inputs:
            continue
        _, code, out, err = cli_inprocess(cli, key)
        if code != 0:
            raise SystemExit(f"{' '.join(key)} failed: {err}")
        reports[" ".join(key)] = digest(report.scrub_timings(out))
    tables = {}
    for p in PRIMES:
        dg = diagram.load_bundled(p)
        tables[str(p)] = [list(limits.higher_limits(dg, k)[:2])
                          for k in range(dg.max_degree + 1)]
    REFERENCE.write_text(json.dumps({"reports": reports, "higher_limits": tables},
                                    indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} report digests and {len(tables)} tables to {REFERENCE}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="ecomu3 benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=("reproduce", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a short op list and the p=2 sweep only")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt the first op's output, to show that the "
                             "checks count it as failed")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up seconds of this process and exit")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the program's reports and higher-limits "
                             "tables in perfbench/reference.json and exit")
    args = parser.parse_args(argv)
    if not args.workload and not args.write_reference:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ecomu3" / "cli.py").is_file():
        print(f"error: no ecomu3 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.write_reference:
        write_reference()
        return 0
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(args)[1]}))
        return 0
    spec = json.loads(SPEC.read_text())

    tracer = Tracer() if args.trace else None
    workload, own_setup = timed_setup(args, tracer)
    setup_layers = tracer.take_layers() if tracer else None
    run = Run(workload, args, tracer, setups=0 if tracer else SETUP_REPEATS)
    run.loop()
    for key, error in workload.cross_check():
        run.record(key, Outcome(0.0, error=error))

    if tracer:
        metrics = per_layer(run, workload, setup_layers)
        by_op = tracer.self_time_by_op()
        over = [op for op, seconds in run.traced_ops if by_op.get(op, 0.0) > seconds]
        print(f"self_time_check: {len(run.traced_ops)} traced ops, {len(over)} "
              "whose summed span self time exceeds the traced duration")
        tracer.dump(WORK / f"spans-{args.workload}.jsonl")
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(run, workload, [own_setup] + run.setup_times)
        wanted = spec["end_to_end"]

    for name, value in workload.sizes().items():
        print(f"size {name} = {value}")
    print(f"ops_failed_frac = {run.failed}/{run.attempted} = "
          f"{run.failed / max(run.attempted, 1):.4f} ratio")
    for error in run.errors[:20]:
        print(f"failed: {error}")
    result = {}
    for metric in wanted:
        value = metrics[metric["name"]]
        print(f"{metric['name']} = {value} {metric['unit']}")
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
