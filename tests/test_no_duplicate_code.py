"""No function body in ``src/ecomu3`` is written twice.

Each function's arguments and local names are renamed by position, its
docstring dropped, and the rest compared as an ``ast`` dump; bodies smaller
than MIN_NODES nodes (accessors, one-line delegations) are not compared.
"""

import ast
import copy
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ecomu3"
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
