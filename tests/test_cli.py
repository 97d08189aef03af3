"""The command-line surface: reports, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ecomu3.cli import main
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


@pytest.mark.parametrize("argv", [
    ["grpcoh", "S3", "trivial", "-1"],
    ["flag", "nf", "x1+"],
    ["flag", "kunneth", "7"],
    ["grpcoh", "S3", "trivial", "4", "--prime", "4"],
    ["holim", "limits", "--prime", "5"],
    ["flag", "mul", "x1", "x1+"],
    ["flag", "rep", "-1"],
    ["serre", "flbar3", "--prime", "4"],
    ["holim", "e2", "--diagram", "no/such/diagram.json"],
])
def test_bad_input_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


SRC = Path(__file__).resolve().parents[1] / "src"


def cli_process(argv, cwd=None, env=None):
    """(exit code, stdout, stderr) of a fresh ``python -m ecomu3.cli`` process."""
    proc = subprocess.run([sys.executable, "-m", "ecomu3.cli", *argv],
                          env=env or dict(os.environ, PYTHONPATH=str(SRC)),
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def scrub(out):
    """A report without its timings, in either output format."""
    if out.startswith("{"):
        return scrub_timings(out)
    return [line for line in out.splitlines() if not line.startswith("wall time:")]


def test_in_process_calls_match_fresh_processes(capsys):
    # the parser and the module catalog are shared by every call in a process
    sequence = [
        ["--format", "json", "grpcoh", "S3", "standard", "6", "--prime", "3"],
        ["snf", "[[2,4],[6,8]]", "--format", "json"],
        ["flag", "rep", "1"],
        ["--format", "text", "grpcoh", "S3", "sign", "3"],
        ["flag", "rep", "2", "--format", "json"],
        ["snf", "[[0,3],[5,0]]"],
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


def test_no_files_written(tmp_path):
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC),
           "HOME": str(tmp_path), "XDG_CACHE_HOME": str(tmp_path)}
    code, _, err = cli_process(["grpcoh", "S3", "trivial", "4"],
                               cwd=tmp_path, env=env)
    assert code == 0, err
    assert list(tmp_path.iterdir()) == []


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
    config = {"name": "loose", "group": "S3", "group_order": 6,
              "top_dimension": 20,
              "fiber": {"0": ["trivial"], "2": ["standard"],
                        "4": ["standard"], "6": ["sign"]}}
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(config))
    code, _, err = run(capsys, "serre", str(path), "--prime", "3")
    assert code == 1
    assert "Ambiguous" in err or "assignments" in err


def test_u3t2(capsys):
    code, out, _ = run(capsys, "--format", "json", "u3t2", "--prime", "3")
    assert code == 0
    data = json.loads(out)["results"]
    assert data["presentation"] == "F3[z3, b]/(z3^2, b^3)"
    assert data["series"] == [1, 0, 1, 1, 1, 1, 0, 1]


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


def test_ecom_mod2_reports_recorded_discrepancies(capsys):
    code, out, _ = run(capsys, "--format", "json", "ecom-u3", "--prime", "2")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["published_match"] is False
    assert data["results"]["graded_dimensions"] == \
        [1, 0, 0, 0, 2, 1, 5, 0, 2, 1, 0, 3, 1, 1, 1]
    notes = " ".join(data["notes"])
    assert "degree 6" in notes and "degree 11" in notes


def test_rational_ring(capsys):
    code, out, _ = run(capsys, "--format", "json", "rational-ring")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["poincare_polynomial"] == \
        [1, 0, 0, 0, 1, 0, 2, 0, 1, 0, 0, 0, 1]
    assert data["results"]["basis_degrees"] == [0, 4, 6, 6, 8, 12]
    assert any("g4^3" in n for n in data["notes"])


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
