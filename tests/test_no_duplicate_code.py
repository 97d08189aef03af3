"""``src/ecomu3`` holds each function body once, and only what a call runs.

Each function's arguments and local names are renamed by position, its
docstring dropped, and the rest compared as an ``ast`` dump; bodies smaller
than MIN_NODES nodes (accessors, one-line delegations) are not compared.

Reachability: a fresh process runs the program's callers under
``sys.settrace`` -- the paper's CLI ops, the inputs that must end in one
error line, the diagram data tool and the robustness sweep -- and every
function defined in ``src/ecomu3`` must be entered, or be in UNREACHED with
its reason.  A fresh process, because in this one earlier tests have filled
the ``lru_cache``s, behind which a body is not entered again.
"""

import ast
import copy
import doctest
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from test_cli import BAD_INPUTS, bad_input_files

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ecomu3"
MIN_NODES = 25


def normalized(func):
    """``ast.dump`` of a function's body with positional local names."""
    args = func.args
    bound = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                             *args.kwonlyargs, args.kwarg) if a is not None]
    body = func.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    module = ast.Module(body=copy.deepcopy(body), type_ignores=[])
    bound += [n.id for n in ast.walk(module)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    names = {}
    for name in bound:
        names.setdefault(name, f"v{len(names)}")

    class Rename(ast.NodeTransformer):
        def visit_Name(self, node):
            return ast.Name(id=names.get(node.id, node.id), ctx=node.ctx)

    renamed = Rename().visit(module)
    return ast.dump(renamed), sum(1 for _ in ast.walk(renamed))


def duplicated_bodies():
    seen, pairs = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dump, size = normalized(node)
                if size < MIN_NODES:
                    continue
                where = f"{path.stem}.{node.name}"
                if dump in seen:
                    pairs.append((seen[dump], where))
                else:
                    seen[dump] = where
    return pairs


def test_no_function_body_is_duplicated():
    assert duplicated_bodies() == []


def test_positional_renaming_sees_through_names():
    first, second = (ast.parse(text).body[0] for text in (
        "def f(a, b):\n    '''doc'''\n    out = {}\n    for k in a:\n"
        "        out[k] = b.get(k, 0) + a[k]\n    return out\n",
        "def g(x, y):\n    s = {}\n    for e in x:\n"
        "        s[e] = y.get(e, 0) + x[e]\n    return s\n"))
    assert normalized(first) == normalized(second)
    third = ast.parse("def h(x, y):\n    s = {}\n    for e in y:\n"
                      "        s[e] = x.get(e, 0) + y[e]\n    return s\n").body[0]
    assert normalized(third) != normalized(first)


# functions the traced callers never enter, each with its reason
SPAN = "a perfbench span target until the benchmark retargets its spans"
DUNDER = "a dunder kept for equality, hashing or repr in tests and debugging"
UNREACHED = {
    "abelian.cohomology_at": SPAN,
    "abelian.cohomology_dim_modp": SPAN,
    "resolution.group_cohomology": SPAN,
    "limits.cosimplicial_complex": SPAN,
    "report.scrub_timings": "perfbench compares reports with it",
    "koszul.pu3_cohomology": "H*(PU(3); F_p), which the tests check and no "
                             "subcommand prints yet",
    "linalg._xgcd": "ColumnLattice.add reaches it only on a non-divisible "
                    "pivot, which the S3 kernels never produce",
    "serre.Ambiguous.__init__": "error path: a search with several answers",
    "abelian.PoincareSeries.__str__": "error path: koszul's oracle mismatch",
    "abelian.FrozenRecord.__hash__": DUNDER,
    "abelian.FrozenRecord.__repr__": DUNDER,
    "abelian.FrozenRecord.__setattr__": DUNDER,
    "abelian.FrozenRecord.__delattr__": DUNDER,
    "matrix.IntMatrix.__hash__": DUNDER,
    "matrix.IntMatrix.__repr__": DUNDER,
    "groups.FiniteGroup.__repr__": DUNDER,
    "groups.GroupModule.__repr__": DUNDER,
    "serre.DifferentialSpec.__eq__": DUNDER,
    "serre.DifferentialSpec.__repr__": DUNDER,
}

# argv: the checkout's root; stdin: the BAD_INPUTS argv lists, files named
# by path.  Prints {"defined": [...], "entered": [...]}, as module.qualname.
TRACED_CALLERS = textwrap.dedent("""\
    import contextlib, io, json, os, random, sys, tempfile
    root = sys.argv[1]
    bad_inputs = json.load(sys.stdin)
    sys.path[:0] = [os.path.join(root, "perfbench"), os.path.join(root, "tools")]
    entered = set()
    add = entered.add
    trace = lambda frame, event, arg: add(frame.f_code)
    sys.settrace(trace)
    import run, make_diagram_data
    from ecomu3 import cli, diagram, robustness
    ops, _ = run.paper_ops(random.Random(12345))
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        for argv in [*ops, ["--format", "text", "flag", "dims"], *bad_inputs]:
            cli.main(list(argv))
            # a RecursionError raised in the trace function (the deeply
            # nested polynomial) unsets it
            sys.settrace(trace)
        with tempfile.TemporaryDirectory() as out:
            make_diagram_data.main(out)
        robustness.sweep(diagram.load_bundled(3))
    sys.settrace(None)

    def functions(code):
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                if not const.co_name.startswith("<"):
                    yield const
                yield from functions(const)

    key = lambda c: (os.path.realpath(c.co_filename), c.co_firstlineno,
                     c.co_qualname)
    entered = {key(c) for c in entered}
    src = os.path.join(root, "src", "ecomu3")
    defined, reached = [], []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(src, name))
            with open(path) as fh:
                module = compile(fh.read(), path, "exec")
            for c in functions(module):
                defined.append(f"{name[:-3]}.{c.co_qualname}")
                if key(c) in entered:
                    reached.append(defined[-1])
    print(json.dumps({"defined": defined, "entered": reached}))
    """)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="names functions by co_qualname, new in Python 3.11")
def test_every_function_in_src_is_entered_or_allowlisted(tmp_path):
    files = bad_input_files(tmp_path)
    bad_inputs = [[files.get(a, a) for a in argv] for argv in BAD_INPUTS]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CALLERS, str(ROOT)],
        input=json.dumps(bad_inputs), capture_output=True, text=True,
        timeout=300, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr[-2000:]
    run = json.loads(proc.stdout)
    defined, entered = set(run["defined"]), set(run["entered"])
    assert sorted(defined - entered - set(UNREACHED)) == []
    assert sorted(entered & set(UNREACHED)) == []
    assert sorted(set(UNREACHED) - defined) == []


def test_module_examples_run():
    """The ``>>>`` examples in the module docstrings are doctests."""
    results = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"ecomu3.{path.stem}")
        result = doctest.testmod(module, report=False)
        if result.attempted:
            results[path.stem] = result.failed
    assert results == dict.fromkeys(["abelian", "coinvariants", "groups",
                                     "koszul", "linalg", "polynomial",
                                     "polyparse"], 0)
