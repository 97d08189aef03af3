"""The command-line surface: reports, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ecomu3.cli import main
from ecomu3.diagram import load_bundled
from ecomu3.report import scrub_timings


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_snf(capsys):
    code, out, _ = run(capsys, "--format", "json", "snf", "[[2,0],[0,3]]")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["invariant_factors"] == [1, 6]


@pytest.mark.parametrize("matrix", ["[[2.5, 1], [true, 3]]", "[[2, 1], [true, 3]]",
                                    "[[2, 0], [0, 3.0]]", "[[1, 2], [3]]",
                                    "[[1, 2]", '{"a": 1}'])
def test_snf_rejects_bad_input(capsys, matrix):
    code, out, err = run(capsys, "snf", matrix)
    assert code != 0 and out == ""
    assert err.startswith("error: bad matrix") and err.count("\n") == 1


HUGE_FACTORS = json.dumps([[10**2199 + 1, 0], [0, 10**2199 + 3]])

# argv lists that must each end in one error line; an upper-case name is a
# file that bad_input_files writes
BAD_INPUTS = [
    ["grpcoh", "S3", "trivial", "-1"],
    ["flag", "nf", "x1+"],
    ["flag", "kunneth", "7"],
    ["grpcoh", "S3", "trivial", "4", "--prime", "4"],
    ["holim", "limits", "--prime", "5"],
    ["flag", "mul", "x1", "x1+"],
    ["flag", "rep", "-1"],
    ["serre", "flbar3", "--prime", "4"],
    ["holim", "e2", "--diagram", "no/such/diagram.json"],
    ["serre", "MALFORMED_JSON", "--prime", "2"],
    ["holim", "e2", "--diagram", "MALFORMED_JSON"],
    ["serre", "EMPTY_OBJECT", "--prime", "2"],
    ["serre", "FIBER_NOT_AN_OBJECT", "--prime", "2"],
    ["holim", "limits", "--prime", "3", "--diagram", "EMPTY_OBJECT"],
    ["ecom-u3", "--prime", "2", "--diagram", "EMPTY_LIST"],
    ["serre", "UNKNOWN_MODULE", "--prime", "2"],
    ["serre", "SQUARE_IN_GROUP_ORDER", "--prime", "2"],
    ["holim", "limits", "--diagram", "DIAGRAM_PRIME_4"],
    ["holim", "validate", "--diagram", "DIAGRAM_WRONG_DIMS"],
    ["holim", "validate", "--diagram", "DIAGRAM_ZERO_PIN"],
    ["ecom-u3", "--prime", "2", "--diagram", "BUNDLED_P3"],
    ["holim", "limits", "--prime", "2", "--diagram", "BUNDLED_P3"],
    ["holim", "limits", "--degree", "-1"],
    ["holim", "e2", "--diagram", "nul\x00.json"],
    ["serre", "nul\x00", "--prime", "2"],
    ["flag", "nf", "1/0"],
    # numerals and coefficients past the interpreter's 4,300-digit limit
    ["flag", "nf", "1" + "0" * 4400],
    ["flag", "nf", "1/" + "7" * 4400],
    ["flag", "nf", "x1^" + "9" * 4400],
    ["flag", "nf", "x1" + "9" * 4400],
    ["flag", "nf", "2^20000"],
    ["flag", "mul", "10^3000", "10^3000"],
    ["flag", "nf", "(" * 5000 + "x1" + ")" * 5000],
    # the error line quotes only a prefix of a long input
    ["flag", "nf", "(" * 3000],
    ["flag", "nf", "x1 " + "9" * 4000],
    ["flag", "nf", "x1 $" + "9" * 4000],
    ["flag", "nf", "x" + "9" * 4000],
    ["flag", "nf", "9" * 4000 + "/0"],
    # a file that fails validation and disagrees with --prime
    ["holim", "limits", "--prime", "3", "--diagram", "DIAGRAM_WRONG_DIMS"],
    # the variables are x1..x3 only
    ["flag", "nf", "y1"],
    # a fiber entry is a module name, not an object
    ["serre", "CONFIG_OBJECT_ENTRY", "--prime", "2"],
    # diagram records validate cannot check: an unknown object, a degree
    # outside 0..max_degree, a repeated constraint key, a repeated arrow
    ["holim", "validate", "--diagram", "DIAGRAM_CONSTRAINT_FROM_99"],
    ["holim", "validate", "--diagram", "DIAGRAM_CONSTRAINT_DEGREE_MINUS_1"],
    ["holim", "validate", "--diagram", "DIAGRAM_REPEATED_CONSTRAINT"],
    ["holim", "validate", "--diagram", "DIAGRAM_REPEATED_MAP"],
    # a "dims" list shorter than max_degree + 1, which was padded with zeros
    ["holim", "validate", "--diagram", "DIAGRAM_HUGE_MAX_DEGREE"],
    # H^18(BS3) = Z/2 at p=2, past the page's window
    ["serre", "CONFIG_TOP_PAST_WINDOW", "--prime", "2"],
    # serre resolves over S3, so "group_order" must be 6 (as in
    # SQUARE_IN_GROUP_ORDER above, 12)
    ["serre", "GROUP_ORDER_9", "--prime", "3"],
    ["serre", "GROUP_ORDER_1", "--prime", "2"],
    # a config's group other than S3, a key given twice (json keeps the
    # last), a degree written "00" or "07" (read as 0 or 7) or past the last
    # degree read (never read)
    ["serre", "CONFIG_GROUP_A4", "--prime", "3"],
    ["serre", "CONFIG_DEGREE_0_TWICE", "--prime", "2"],
    ["serre", "CONFIG_DEGREES_0_AND_00", "--prime", "2"],
    ["holim", "limits", "--diagram", "DIAGRAM_DEGREES_7_AND_07"],
    ["holim", "limits", "--diagram", "DIAGRAM_DEGREE_15"],
    ["serre", "CONFIG_DEGREE_17", "--prime", "2"],
    # primes past 2^31 - 1, where trial division would stall: the largest
    # prime below 2^64, and the least prime past the bound
    ["grpcoh", "S3", "trivial", "4", "--prime", "18446744073709551557"],
    ["serre", "flbar3", "--prime", "2147483659"],
    ["holim", "limits", "--diagram", "DIAGRAM_PRIME_2_64"],
    # an invariant factor of 4,400 digits, past the interpreter's limit on
    # printing an integer, in text and in JSON; a config number past it
    ["snf", HUGE_FACTORS],
    ["--format", "json", "snf", HUGE_FACTORS],
    ["serre", "CONFIG_HUGE_NUMBER", "--prime", "2"],
]


def bad_input_files(directory):
    """Write each file that BAD_INPUTS names into ``directory``; {name: path}."""
    flbar3 = {"name": "flbar3", "group": "S3", "group_order": 6,
              "top_dimension": 6, "fiber": {"0": ["trivial"], "2": ["standard"],
                                            "4": ["standard"], "6": ["sign"]}}
    (prime4, wrong_dims, zero_pin, from_99, degree_minus_1, repeated_pin,
     repeated_map, huge_max_degree) = (load_bundled(2).to_json()
                                       for _ in range(8))
    prime4["prime"] = 4
    prime_2_64 = {**prime4, "prime": 18446744073709551557}
    huge_max_degree["max_degree"] = 2_000_000
    wrong_dims["dims"]["6"] = [0] * len(wrong_dims["dims"]["6"])
    zero_pin["constraints"][0]["pins"].append({"kind": "zero"})
    from_99["constraints"][0]["from"] = 99
    # checked against the zero matrix of degree 14, whose rank is 0
    degree_minus_1["constraints"].append(
        {"from": 0, "to": 3, "degree": -1, "pins": [{"kind": "rank", "value": 0}]})
    # a record ahead of the (0)->(0,1) degree-0 record, which alone was read
    assert repeated_pin["constraints"][0]["degree"] == 0
    repeated_pin["constraints"].insert(0, {**repeated_pin["constraints"][0],
                                           "pins": [{"kind": "rank", "value": 99}]})
    repeated_map["maps"].insert(0, {**repeated_map["maps"][0], "degrees": {}})
    # a zero matrix ahead of the bundled one, which alone was read
    degrees_7_and_07, degree_15 = (load_bundled(2).to_json() for _ in range(2))
    rec = next(rec for rec in degrees_7_and_07["maps"] if "7" in rec["degrees"])
    rec["degrees"] = {"07": [[0] * len(row) for row in rec["degrees"]["7"]],
                      **rec["degrees"]}
    degree_15["maps"][0]["degrees"]["15"] = []
    files = {
        "MALFORMED_JSON": '{"name": ',
        "EMPTY_OBJECT": "{}",
        "EMPTY_LIST": "[]",
        "FIBER_NOT_AN_OBJECT": '{"fiber": 3}',
        "UNKNOWN_MODULE": json.dumps({**flbar3, "fiber": {"0": ["nope"]}}),
        "SQUARE_IN_GROUP_ORDER": json.dumps({**flbar3, "group_order": 12}),
        "GROUP_ORDER_9": json.dumps({**flbar3, "group_order": 9}),
        "GROUP_ORDER_1": json.dumps({**flbar3, "group_order": 1}),
        "CONFIG_OBJECT_ENTRY": json.dumps(
            {**flbar3, "fiber": {"0": [{"name": "trivial"}]}}),
        "DIAGRAM_PRIME_4": json.dumps(prime4),
        "DIAGRAM_PRIME_2_64": json.dumps(prime_2_64),
        "DIAGRAM_WRONG_DIMS": json.dumps(wrong_dims),
        "DIAGRAM_ZERO_PIN": json.dumps(zero_pin),
        "DIAGRAM_CONSTRAINT_FROM_99": json.dumps(from_99),
        "DIAGRAM_CONSTRAINT_DEGREE_MINUS_1": json.dumps(degree_minus_1),
        "DIAGRAM_REPEATED_CONSTRAINT": json.dumps(repeated_pin),
        "DIAGRAM_REPEATED_MAP": json.dumps(repeated_map),
        "DIAGRAM_HUGE_MAX_DEGREE": json.dumps(huge_max_degree),
        "CONFIG_TOP_PAST_WINDOW": json.dumps(
            {"name": "bs3", "group_order": 6, "top_dimension": 20,
             "fiber": {"0": ["trivial"]}}),
        "BUNDLED_P3": json.dumps(load_bundled(3).to_json()),
        "CONFIG_GROUP_A4": json.dumps({**flbar3, "group": "A4"}),
        "CONFIG_DEGREE_0_TWICE": json.dumps(flbar3).replace(
            '"fiber": {"0": ["trivial"]', '"fiber": {"0": ["sign"], "0": ["trivial"]'),
        "CONFIG_DEGREES_0_AND_00": json.dumps(
            {**flbar3, "fiber": {"00": ["sign"], **flbar3["fiber"]}}),
        "DIAGRAM_DEGREES_7_AND_07": json.dumps(degrees_7_and_07),
        "DIAGRAM_DEGREE_15": json.dumps(degree_15),
        "CONFIG_DEGREE_17": json.dumps(
            {**flbar3, "fiber": {**flbar3["fiber"], "17": ["trivial"]}}),
        "CONFIG_HUGE_NUMBER": json.dumps(flbar3).replace(
            '"top_dimension": 6', '"top_dimension": 6' + "0" * 5000),
    }
    paths = {}
    for name, text in files.items():
        path = directory / f"{name.lower()}.json"
        path.write_text(text)
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_bad_input_is_one_error_line(tmp_path, capsys, argv):
    files = bad_input_files(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    elapsed = time.perf_counter() - start
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 300, err[:300]
    if "DIAGRAM_ZERO_PIN" in argv:      # no pin kind "zero" is defined
        assert err.endswith(": unknown pin 'zero'\n"), err
    if argv[-1].startswith(("DIAGRAM_CONSTRAINT", "DIAGRAM_REPEATED",
                            "DIAGRAM_HUGE")):
        assert err.startswith("error: bad diagram: "), err
    if "DIAGRAM_HUGE_MAX_DEGREE" in argv:
        assert "must have max_degree + 1 entries" in err, err
    if "CONFIG_TOP_PAST_WINDOW" in argv:
        assert err.startswith('error: bad fibration config: "top_dimension" '
                              'must be at most 15'), err
    if "GROUP_ORDER" in argv[1]:
        order = json.loads(Path(files[argv[1]]).read_text())["group_order"]
        assert err == (f'error: bad fibration config: "group_order" is {order}, '
                       "but the base group S3 has order 6\n"), err
    if "CONFIG_OBJECT_ENTRY" in argv:
        assert err == ("error: bad fibration config: fiber degree 0: each "
                       "module must be a name\n"), err
    if "CONFIG_GROUP_A4" in argv:
        assert err == ("error: bad fibration config: \"group\" is 'A4', but "
                       "the base group is S3\n"), err
    if "CONFIG_DEGREE_0_TWICE" in argv:
        assert err == "error: bad fibration config: key '0' given twice\n", err
    for name, degree in (("CONFIG_DEGREES_0_AND_00", "00"),
                         ("CONFIG_DEGREE_17", "17")):
        if name in argv:
            assert err == (f"error: bad fibration config: fiber degree "
                           f"'{degree}' is not one of \"0\", \"1\", ..., "
                           f"\"16\"\n"), err
    if {"18446744073709551557", "2147483659", "DIAGRAM_PRIME_2_64"} & set(argv):
        # refused unread: trial division to the root of 2^64 took minutes
        assert elapsed < 1.0, elapsed
        assert err.endswith(" is above the largest prime taken, 2^31 - 1\n"), err
    if HUGE_FACTORS in argv:
        assert err.startswith("error: cannot print the report: Exceeds the "
                              "limit (4300 digits)"), err
    if "CONFIG_HUGE_NUMBER" in argv:
        assert err.startswith("error: bad fibration config: Exceeds the "
                              "limit (4300 digits)"), err
    for name, degree in (("DIAGRAM_DEGREES_7_AND_07", "07"),
                         ("DIAGRAM_DEGREE_15", "15")):
        if name in argv:
            assert err.startswith("error: bad diagram: map ("), err
            assert err.endswith(f"): degree '{degree}' is not one of \"0\", "
                                f"\"1\", ..., \"14\"\n"), err


@pytest.mark.parametrize("poly, normal_form", [
    ("x1^99999999", {}),
    ("(x1+x2+x3)^300", {}),
    ("(1 + x1)^100000", {"1": "1", "x1^1": "100000", "x1^2": "4999950000"}),
    ("(x1 - x1)^" + "9" * 4000, {}),
])
def test_large_powers_answer_within_a_second(capsys, poly, normal_form):
    # terms above the top degree 3 are 0 in the coinvariant algebra, so a
    # power is a short sum however large its exponent
    start = time.perf_counter()
    code, out, err = run(capsys, "--format", "json", "flag", "nf", poly)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert json.loads(out)["results"]["normal_form"] == normal_form


def test_undecodable_file_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe[[1]]")
    for argv in (["snf", str(path)], ["holim", "e2", "--diagram", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read") and err.count("\n") == 1


SRC = Path(__file__).resolve().parents[1] / "src"


def cli_process(argv, cwd=None, env=None):
    """(exit code, stdout, stderr) of a fresh ``python -m ecomu3.cli`` process."""
    proc = subprocess.run([sys.executable, "-m", "ecomu3.cli", *argv],
                          env=env or dict(os.environ, PYTHONPATH=str(SRC)),
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_flag_rep_above_the_top_degree_is_empty():
    # no staircase monomial has degree above 3, so a large degree costs
    # nothing; enumerating the monomials of degree 10^6 would never finish
    def rep(degree):
        proc = subprocess.run(
            [sys.executable, "-m", "ecomu3.cli", "--format", "json", "flag",
             "rep", str(degree)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)["results"]

    big, four = rep(1000000), rep(4)
    assert big["representation"] == four["representation"]
    assert big["character"] == four["character"] == [0, 0, 0]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int/str digit limit")
def test_power_is_bounded_with_the_digit_limit_off():
    # with -X int_max_str_digits=0 the interpreter's default limit still
    # bounds the constant term of a power; unbounded, 3^9999999 runs on
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=0", "-m", "ecomu3.cli",
         "flag", "nf", "3^9999999"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=10)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def scrub(out):
    """A report without its timings, in either output format."""
    if out.startswith("{"):
        return scrub_timings(out)
    return [line for line in out.splitlines() if not line.startswith("wall time:")]


def test_in_process_calls_match_fresh_processes(capsys):
    # the parser, the module catalog and the coinvariant algebra are shared
    # by every call in a process
    shared = [
        ["flag", "kunneth", "6", "--format", "json"],
        ["flag", "nf", "x1^3 + 2*x1*x2*x3 - x2^2"],
        ["--format", "json", "flag", "mul", "x1 + x2", "x1*x2"],
        ["rational-ring"],
    ]
    sequence = [
        ["--format", "json", "grpcoh", "S3", "standard", "6", "--prime", "3"],
        ["snf", "[[2,4],[6,8]]", "--format", "json"],
        ["flag", "rep", "1"],
        *shared,
        ["--format", "text", "grpcoh", "S3", "sign", "3"],
        ["flag", "rep", "2", "--format", "json"],
        ["snf", "[[0,3],[5,0]]"],
        *shared,
    ]
    for argv in sequence:
        code, out, err = run(capsys, *argv)
        fresh_code, fresh_out, fresh_err = cli_process(argv)
        assert code == fresh_code == 0 and err == fresh_err == "", argv
        assert scrub(out) == scrub(fresh_out), argv


@pytest.mark.parametrize("argv", [["snf", "[[2,0],[0,3]]"],
                                  ["grpcoh", "S3", "trivial", "6"]])
def test_reports_same_under_python_O(argv):
    # -O strips assert statements, so no validation may rest on one
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reports = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "ecomu3.cli", "--format", "json", *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        reports.append(scrub_timings(proc.stdout))
    assert reports[0] == reports[1]


def test_closed_stdout_is_not_a_traceback():
    # the reader has gone before the report is written, as with `| head`
    proc = subprocess.Popen(
        [sys.executable, "-m", "ecomu3.cli", "--format", "json",
         "grpcoh", "S3", "trivial", "2"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_cli_import_leaves_out_dataclasses():
    # dataclasses pulls in inspect and ast, about 1 MB of resident memory
    code = "import sys, ecomu3.cli; print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [[], ["grpcoh", "S3", "trivial", "2"]])
def test_cli_leaves_out_hashlib(argv):
    # hashlib loads OpenSSL's _hashlib, about 5 ms of a fresh call; only a
    # call that hashes an input file needs it
    code = ("import contextlib, io, sys\n"
            "from ecomu3.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(code, sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(maxsplit=1) == ["0", "[]\n"]


def loaded_modules(argv):
    """(exit code, ecomu3 modules loaded) of a fresh process that imports the
    CLI and, if ``argv`` is not empty, runs it on ``argv``."""
    code = ("import contextlib, io, sys\n"
            "from ecomu3.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(code, *sorted(m for m in sys.modules if m.startswith('ecomu3')))")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    exit_code, *modules = proc.stdout.split()
    return int(exit_code), {m.removeprefix("ecomu3.") for m in modules}


def test_cli_import_loads_no_engine():
    # without a bytecode cache every module loaded is compiled on each call
    assert loaded_modules([]) == (0, {"ecomu3", "cli", "report"})


@pytest.mark.parametrize("argv, runs, leaves_out", [
    # runs: every ecomu3 module the call loads besides the package, cli and
    # report; leaves_out: the engines the row is about keeping out
    (["flag", "dims"], {"coinvariants", "polynomial"},
     {"groups", "matrix", "linalg"}),
    (["snf", "[[2,4],[6,8]]"], {"linalg", "matrix"},
     {"groups", "coinvariants", "resolution", "serre"}),
    (["holim", "validate"], {"data", "diagram", "matrix", "poset"},
     {"limits", "linalg", "abelian"}),
    (["u3t2", "--prime", "2"],
     {"abelian", "diagonal", "koszul", "matrix", "polynomial", "published"},
     {"linalg", "groups", "resolution"}),
    (["flag", "nf", "x1^2 + x2"], {"coinvariants", "polynomial", "polyparse"},
     {"groups", "matrix", "linalg"}),
    (["ecom-u3", "--prime", "3"],
     {"abelian", "data", "diagram", "limits", "matrix", "poset", "published"},
     {"linalg", "groups", "resolution"}),
    (["rational-ring"],
     {"abelian", "coinvariants", "diagonal", "matrix", "polynomial",
      "published"},
     {"linalg", "groups", "resolution"}),
])
def test_subcommand_loads_only_its_engines(argv, runs, leaves_out):
    code, modules = loaded_modules(argv)
    assert code == 0
    assert not leaves_out & modules, sorted(modules)
    assert modules == {"ecomu3", "cli", "report"} | runs, sorted(modules)


def test_traced_benchmark_finds_every_target():
    # perfbench/spans.py wraps the engine functions it names by module and
    # attribute; a name moved between modules must still be found there
    code = textwrap.dedent("""\
        import importlib, json, sys
        sys.path.insert(0, sys.argv[1])
        import spans

        def lookup(module, attr):
            owner = importlib.import_module(f"ecomu3.{module}")
            if "." in attr:
                cls, attr = attr.split(".")
                return getattr(owner, cls).__dict__[attr]
            return getattr(owner, attr)

        originals = [lookup(m, a) for m, a, _ in spans.TARGETS]
        tracer = spans.Tracer()
        tracer.install()
        patched = [sum(orig is f for _, _, orig in tracer._patches)
                   for f in originals]
        tracer.uninstall()
        restored = all(lookup(m, a) is f
                       for (m, a, _), f in zip(spans.TARGETS, originals))
        print(json.dumps([patched, restored]))
        """)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC.parent / "perfbench")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    patched, restored = json.loads(proc.stdout)
    assert patched and all(n >= 1 for n in patched), patched
    assert restored


def test_no_files_written(tmp_path):
    # -B: the interpreter's own bytecode cache is not the program's output,
    # and a cache left in src/ would make every later fresh call start faster
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC),
           "HOME": str(tmp_path), "XDG_CACHE_HOME": str(tmp_path)}
    before = sorted(SRC.rglob("*"))
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "ecomu3.cli", "grpcoh", "S3", "trivial",
         "4"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
    assert sorted(SRC.rglob("*")) == before


def test_grpcoh_trivial(capsys):
    code, out, _ = run(capsys, "--format", "json", "grpcoh", "S3", "trivial", "12")
    assert code == 0
    rows = json.loads(out)["results"]["cohomology"]
    by_degree = {r["degree"]: r["group"] for r in rows}
    assert by_degree[0] == "Z"
    assert by_degree[4] == by_degree[8] == by_degree[12] == "Z/6"
    assert by_degree[2] == by_degree[6] == by_degree[10] == "Z/2"


def test_grpcoh_twisted_three_primary(capsys):
    code, out, _ = run(capsys, "--format", "json", "grpcoh", "S3",
                       "standard(x)sign", "11", "--prime", "3")
    assert code == 0
    rows = json.loads(out)["results"]["cohomology"]
    nonzero = [r["degree"] for r in rows if r["group"] != "0"]
    assert nonzero == [1, 5, 9]


def test_grpcoh_degree_zero(capsys):
    code, out, _ = run(capsys, "--format", "json", "grpcoh", "S3", "trivial", "0")
    assert code == 0
    rows = json.loads(out)["results"]["cohomology"]
    assert rows == [{"degree": 0, "group": "Z"}]


def test_grpcoh_unknown_name(capsys):
    code, _, err = run(capsys, "grpcoh", "S3", "mystery", "4")
    assert code == 1 and "unknown module" in err
    code, _, err = run(capsys, "grpcoh", "S5", "trivial", "4")
    assert code == 1 and "unknown group" in err


def test_serre_bundled_configs(capsys):
    code, out, _ = run(capsys, "--format", "json", "serre", "flbar3",
                       "--prime", "3")
    assert code == 0
    data = json.loads(out)["results"]
    assert data["cohomology"] == ["Z", "0", "0", "0", "Z/3", "Z/3", "0"]
    assert data["published_match"] is True
    code, out, _ = run(capsys, "--format", "json", "serre", "fl3xfl3",
                       "--prime", "2")
    assert code == 0
    data = json.loads(out)["results"]
    assert len(data["cohomology"]) == 13
    assert data["mod_p_series"] == [1, 1, 1, 1, 2, 1, 4, 1, 2, 1, 1, 1, 1]


def test_serre_loosened_bound_ambiguous(tmp_path, capsys):
    """flbar3 with its top dimension loosened: up to 15 the search still has
    one answer.  From 16 on no slot would have to die, so the search was
    unconstrained and ambiguous; such a top dimension is refused, as the
    page holds total degrees 0..16 and H^n needs degree n + 1."""
    config = {"name": "loose", "group": "S3", "group_order": 6,
              "fiber": {"0": ["trivial"], "2": ["standard"],
                        "4": ["standard"], "6": ["sign"]}}
    path = tmp_path / "loose.json"
    for top, code_want in ((15, 0), (16, 1), (20, 1)):
        path.write_text(json.dumps({**config, "top_dimension": top}))
        code, _, err = run(capsys, "serre", str(path), "--prime", "3")
        assert code == code_want, (top, err)
        if code:
            assert err == ('error: bad fibration config: "top_dimension" must '
                           'be at most 15: a page stores total degrees 0..16, '
                           'and H^n needs degree n + 1\n'), err


def test_u3t2(capsys):
    code, out, _ = run(capsys, "--format", "json", "u3t2", "--prime", "3")
    assert code == 0
    data = json.loads(out)["results"]
    assert data["presentation"] == "F3[z3, b]/(z3^2, b^3)"
    assert data["series"] == [1, 0, 1, 1, 1, 1, 0, 1]


def test_u3t2_checks_its_relations_against_the_published_ones(
        monkeypatch, capsys):
    from ecomu3 import published
    monkeypatch.setitem(published.U3T2_RELATIONS, 2, {"z5^2", "b^3"})
    code, out, err = run(capsys, "u3t2", "--prime", "2")
    assert (code, out) == (1, "")
    assert err == ("error: relations ['b^2', 'z5^2'] do not match the "
                   "published ['b^3', 'z5^2']\n")


def test_cli_accepts_no_diagram_with_nonzero_lim2(tmp_path, capsys):
    """validate pins (0,2)->(0,1,2) to the identity, so the maps into (0,1,2)
    span it and lim^2 = 0 in every diagram the CLI computes with.  The way to
    get lim^2 != 0, every map into (0,1,2) zeroed, is refused before any
    limit is taken."""
    from ecomu3.diagram import PosetDiagram
    from ecomu3.limits import NonVanishingLim2, bk_assemble, higher_limits
    data = load_bundled(2).to_json()
    for entry in data["maps"]:
        if entry["to"] == 6:
            entry["degrees"] = {k: [[0] * len(row) for row in m]
                                for k, m in entry["degrees"].items()}
    zeroed = PosetDiagram.from_json(data)
    assert higher_limits(zeroed, 0)[2] > 0
    with pytest.raises(NonVanishingLim2):
        bk_assemble(zeroed)
    path = tmp_path / "zeroed.json"
    path.write_text(json.dumps(data))
    for argv in (["holim", "limits"], ["holim", "e2"], ["ecom-u3", "--prime", "2"]):
        code, out, err = run(capsys, *argv, "--diagram", str(path))
        assert (code, out) == (1, ""), argv
        assert err == ("error: ConstraintViolation: (0,2)->(0,1,2) is not the "
                       "identity in degree 0\n"), argv


def test_holim_and_ecom(capsys):
    code, out, _ = run(capsys, "--format", "json", "holim", "validate",
                       "--prime", "3")
    assert code == 0
    code, out, _ = run(capsys, "--format", "json", "holim", "limits",
                       "--prime", "2", "--degree", "4")
    assert code == 0
    rows = json.loads(out)["results"]["higher_limits"]
    assert rows == [{"fiber_degree": 4, "lim0": 1, "lim1": 0, "lim2": 0,
                     "lim2_vanishes": True}]
    code, out, _ = run(capsys, "--format", "json", "ecom-u3", "--prime", "3")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["graded_dimensions"] == \
        [1, 0, 0, 0, 2, 1, 3, 1, 3, 2, 3, 3, 2, 1, 0]
    assert data["results"]["published_match"] is True


def test_ecom_u3_compares_every_printed_degree(tmp_path, capsys):
    """The mod-3 diagram with max_degree 16 and a constant F_3 in degrees 15
    and 16 puts H^15 = H^16 = 1 past the published table, which counts as 0
    there: a mismatch, though degrees 0..14 all match."""
    obj = load_bundled(3).to_json()
    obj["max_degree"] = 16
    for v in obj["dims"].values():
        v += [1, 1]
    for rec in obj["maps"]:
        rec["degrees"]["15"] = rec["degrees"]["16"] = [[1]]
    path = tmp_path / "p3_to_16.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "--format", "json", "holim", "limits",
                       "--diagram", str(path), "--degree", "15")
    assert code == 0
    assert [(r["lim0"], r["lim1"]) for r in
            json.loads(out)["results"]["higher_limits"]] == [(1, 0)]
    code, out, err = run(capsys, "ecom-u3", "--prime", "3", "--diagram",
                         str(path))
    assert (code, out) == (1, "")
    assert err == ("error: unexpected mismatch with the published table: "
                   "{15: 1, 16: 1}\n")


def test_diagram_file_sets_the_prime(tmp_path, capsys):
    # without --prime, a diagram file is computed over its own prime; an
    # explicit --prime must agree with it
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(load_bundled(3).to_json()))
    code, from_file, _ = run(capsys, "--format", "json", "holim", "limits",
                             "--diagram", str(path))
    assert code == 0
    code, bundled, _ = run(capsys, "--format", "json", "holim", "limits",
                           "--prime", "3")
    assert code == 0
    assert json.loads(from_file)["results"] == json.loads(bundled)["results"]
    code, out, _ = run(capsys, "--format", "json", "holim", "limits",
                       "--prime", "3", "--diagram", str(path))
    assert code == 0
    assert json.loads(out)["results"] == json.loads(bundled)["results"]
    for command in (["holim", "limits"], ["ecom-u3"]):
        code, out, err = run(capsys, *command, "--prime", "2",
                             "--diagram", str(path))
        assert (code, out) == (1, "")
        assert err == "error: --prime 2 differs from the diagram's prime 3\n"


@pytest.fixture
def validations(monkeypatch):
    """The diagrams validated from here on, with the CLI's diagram cache
    emptied first."""
    from ecomu3.cli import _diagram_of_text
    from ecomu3.diagram import PosetDiagram
    _diagram_of_text.cache_clear()
    validated = []
    original = PosetDiagram.validate

    def counting(self):
        validated.append(self.prime)
        return original(self)

    monkeypatch.setattr(PosetDiagram, "validate", counting)
    return validated


def test_repeated_calls_validate_the_diagram_once(validations, capsys):
    argv = ["--format", "json", "holim", "limits", "--prime", "3"]
    code, first, _ = run(capsys, *argv)
    code2, second, _ = run(capsys, *argv)
    assert code == code2 == 0
    assert validations == [3]
    assert scrub_timings(first) == scrub_timings(second)


def test_rewritten_diagram_file_is_validated_again(validations, tmp_path,
                                                   capsys):
    path = tmp_path / "diagram.json"
    data = load_bundled(2).to_json()
    path.write_text(json.dumps(data))
    argv = ["holim", "limits", "--diagram", str(path)]
    assert run(capsys, *argv)[0] == 0
    entry = next(e for e in data["maps"] if (e["from"], e["to"]) == (0, 3))
    entry["degrees"] = {k: [[0] * len(row) for row in m]
                        for k, m in entry["degrees"].items()}
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == cli_process(argv)
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert validations == [2, 2]


def test_bad_diagram_fails_on_every_call(validations, tmp_path, capsys):
    data = load_bundled(2).to_json()
    data["dims"]["6"] = [0] * len(data["dims"]["6"])
    path = tmp_path / "wrong_dims.json"
    path.write_text(json.dumps(data))
    argv = ["holim", "validate", "--diagram", str(path)]
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second
    code, out, err = first
    assert (code, out) == (1, "") and err.startswith("error: ")
    assert validations == [2, 2]


def test_prime_disagreement_is_refused_with_the_diagram_cached(
        validations, tmp_path, capsys):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(load_bundled(3).to_json()))
    assert run(capsys, "holim", "limits", "--diagram", str(path))[0] == 0
    for command in (["holim", "limits"], ["ecom-u3"]):
        code, out, err = run(capsys, *command, "--prime", "2",
                             "--diagram", str(path))
        assert (code, out) == (1, "")
        assert err == "error: --prime 2 differs from the diagram's prime 3\n"
    assert validations == [3]


def test_ecom_mod2_reports_recorded_discrepancies(capsys):
    code, out, _ = run(capsys, "--format", "json", "ecom-u3", "--prime", "2")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["published_match"] is False
    assert data["results"]["graded_dimensions"] == \
        [1, 0, 0, 0, 2, 1, 5, 0, 2, 1, 0, 3, 1, 1, 1]
    notes = " ".join(data["notes"])
    assert "degree 6" in notes and "degree 11" in notes


def test_ecom_reads_its_discrepancies_from_the_registry(monkeypatch, capsys):
    """With no recorded discrepancy at p=2, the same answer is an unexpected
    mismatch: the CLI allows only what ``published`` records."""
    from ecomu3 import published
    monkeypatch.setitem(published.ECOM_U3_FORCED_DEVIATIONS, 2, {})
    code, out, err = run(capsys, "ecom-u3", "--prime", "2")
    assert (code, out) == (1, "")
    assert err == ("error: unexpected mismatch with the published table: "
                   "{6: 5, 11: 3}\n")


def test_rational_ring(capsys):
    code, out, _ = run(capsys, "--format", "json", "rational-ring")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["poincare_polynomial"] == \
        [1, 0, 0, 0, 1, 0, 2, 0, 1, 0, 0, 0, 1]
    assert data["results"]["basis_degrees"] == [0, 4, 6, 6, 8, 12]
    assert any("g4^3" in n for n in data["notes"])


def test_rational_ring_refuses_an_unexpected_witness(monkeypatch, capsys):
    """The note says -6 g4*c8 = c12; when that fails, the command fails with
    one error line instead of printing the note."""
    from ecomu3.diagonal import TensorSquare
    from ecomu3.polynomial import poly_scale
    monkeypatch.setattr(TensorSquare, "scale", staticmethod(
        lambda c, a: poly_scale(2 * c if c == -6 else c, a)))
    code, out, err = run(capsys, "rational-ring")
    assert (code, out) == (1, "")
    assert err.startswith("error: relation failure: -6*g4*c8 == c12: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_flag_ops(capsys):
    code, out, _ = run(capsys, "--format", "json", "flag", "nf", "x1 + x2 + x3")
    assert code == 0
    assert json.loads(out)["results"]["normal_form"] == {}
    code, out, _ = run(capsys, "--format", "json", "flag", "kunneth", "8")
    names = json.loads(out)["results"]["decomposition"]
    assert names == ["standard(x)sign", "standard(x)sign", "standard(x)standard"]
    code, out, _ = run(capsys, "--format", "json", "flag", "mul", "x1", "x1")
    prod = json.loads(out)["results"]["product"]
    code, out, _ = run(capsys, "--format", "json", "flag", "nf", "x2*x3")
    assert prod == json.loads(out)["results"]["normal_form"] == {"x1^2": "1"}


def test_reports_deterministic(capsys):
    first = run(capsys, "--format", "json", "serre", "flbar3", "--prime", "2")[1]
    second = run(capsys, "--format", "json", "serre", "flbar3", "--prime", "2")[1]
    assert scrub_timings(first) == scrub_timings(second)


def test_json_and_text_agree(capsys):
    code, js, _ = run(capsys, "--format", "json", "u3t2", "--prime", "2")
    code2, txt, _ = run(capsys, "--format", "text", "u3t2", "--prime", "2")
    assert code == code2 == 0
    data = json.loads(js)["results"]
    assert data["presentation"] in txt
    assert ", ".join(str(c) for c in data["series"]) in txt


SUBCOMMANDS = ["snf", "grpcoh", "flag", "serre", "u3t2", "holim", "ecom-u3",
               "rational-ring"]
# words the parser and the handlers know, so that a drawn argv often gets
# past the parser; degrees stay <= 14, so no example builds a large flag rep
WORDS = st.sampled_from([
    *SUBCOMMANDS, "nf", "mul", "rep", "kunneth", "dims", "validate", "limits",
    "e2", "S3", "trivial", "sign", "standard", "standard(x)sign", "flbar3",
    "fl3xfl3", "x1", "x1*x2+1", "(x1+x2)^2", "[[2,0],[0,3]]", "json", "text"])
NUMBERS = st.one_of(st.integers(-3, 14).map(str),
                    st.sampled_from(["2", "3", "5", "7", "0", "1", "4", "6",
                                     "9", "25"]))
JUNK = st.one_of(st.text(max_size=6),
                 st.sampled_from(["", ".", "\x00", "-", "--", "1/0", "x1^",
                                  "[[1,2]", "[[1],[2,3]]", "{}", "[]"]))
TOKENS = st.one_of(WORDS, NUMBERS, JUNK)
OPTIONS = st.one_of(st.tuples(st.sampled_from(["--prime", "--degree"]), NUMBERS),
                    st.tuples(st.sampled_from(["--diagram", "--format"]), TOKENS))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(TOKENS, max_size=6),
    st.builds(lambda command, operands, options: [
                  command, *operands, *(t for option in options for t in option)],
              st.sampled_from(SUBCOMMANDS), st.lists(TOKENS, max_size=3),
              st.lists(OPTIONS, max_size=3))))
# always run: a NUL byte in a config name or a path, a zero denominator
@example(["serre", "\x00", "--prime", "2"])
@example(["holim", "e2", "--diagram", "\x00"])
@example(["flag", "nf", "1/0"])
def test_fuzzed_argv_exits_cleanly(argv):
    """Any argv ends in exit 0, 1 or 2 without a traceback; exit 1 is one
    ``error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


# the bundled inputs, whose readers the mutated copies below must each fail
BUNDLED_INPUTS = {name: resources.files("ecomu3.data").joinpath(name).read_text()
                  for name in ("flbar3.json", "fl3xfl3.json", "diagram_p2.json",
                               "diagram_p3.json")}
# keys a file is refused without, wherever they occur in it
NEEDED = {"prime", "max_degree", "dims", "maps", "fiber", "top_dimension",
          "group_order", "from", "to", "degrees", "degree", "pins", "kind",
          "value"}
# top-level fields of free content: a value of another type may be read
UNCHECKED = ("description", "provenance", "notes", "version")
OTHER_TYPES = [None, True, 1.5, "x", [], {}]


def json_paths(value, path=()):
    """(path, value) of everything under ``value``, a path a tuple of keys."""
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,), item
        yield from json_paths(item, path + (key,))


@st.composite
def mutated_inputs(draw):
    """(file name, parsed JSON, text) of a bundled input with one fault:
    a key the reader needs dropped, a value of another type, a degree given
    twice (as "7" and "07", or as "7" twice in the text), or a matrix,
    ``dims`` or fiber entry that is not an integer (a module name)."""
    name = draw(st.sampled_from(sorted(BUNDLED_INPUTS)))
    obj = json.loads(BUNDLED_INPUTS[name])
    paths = dict(json_paths(obj))
    kind = draw(st.sampled_from(["drop", "retype", "repeat", "entry"]))
    if kind == "repeat":
        candidates = [p for p in paths if p[-1] in ("degrees", "fiber") and paths[p]]
    elif kind == "drop":
        candidates = [p for p in paths
                      if p[-1] in NEEDED or p[:1] == ("dims",) and len(p) == 2]
    elif kind == "retype":
        candidates = [p for p in paths if p[0] not in UNCHECKED]
    else:
        candidates = [p for p in paths if not isinstance(paths[p], (dict, list))
                      and (p[0] in ("dims", "fiber") or p[2:3] == ("degrees",))]
    *parents, last = draw(st.sampled_from(candidates))
    container = obj
    for step in parents:
        container = container[step]
    if kind == "drop":
        del container[last]
    elif kind in ("retype", "entry"):
        container[last] = draw(st.sampled_from(
            [v for v in OTHER_TYPES if type(v) is not type(container[last])]))
    else:
        degrees = container[last]
        key = draw(st.sampled_from(sorted(degrees)))
        if draw(st.booleans()):
            degrees["0" + key] = degrees[key]
        else:           # json keeps one of two equal keys, so splice the text
            pairs = [(key, degrees[key]), *degrees.items()]
            container[last] = "REPEATED"
            return name, json.loads(BUNDLED_INPUTS[name]), json.dumps(obj).replace(
                '"REPEATED"', "{%s}" % ", ".join(
                    f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs))
    return name, obj, json.dumps(obj)


@settings(max_examples=80, deadline=None)
@given(mutated_inputs())
def test_mutated_input_file_is_one_error_line(case):
    """A reader returns a diagram or raises ValueError, and the CLI refuses
    the file with one error line."""
    from ecomu3.diagram import PosetDiagram
    name, obj, text = case
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            fh.write(text)
        if name.startswith("diagram"):
            try:
                assert isinstance(PosetDiagram.from_json(obj), PosetDiagram)
            except ValueError:
                pass
            argv = ["holim", "validate", "--diagram", path]
        else:
            argv = ["serre", path, "--prime", "3"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert (code, out.getvalue()) == (1, ""), (argv, err.getvalue())
    assert err.getvalue().startswith("error: "), err.getvalue()
    assert err.getvalue().count("\n") == 1, err.getvalue()
