"""Timing spans around the public functions of the ecomu3 engine modules.

The program itself is not modified: ``Tracer.install`` rebinds each target
function in every ``ecomu3.*`` module namespace that holds it (and on its
class, for methods), and ``Tracer.uninstall`` puts the originals back.  A span
records (name, start, end, parent span, op id) and is kept in memory; spans
nest strictly because the program is single-threaded, so a span's self time
is its duration minus the durations of its direct children.

Per-layer numbers are accumulated until ``take_layers`` collects them:
``calls``, ``total_s`` (sum of span durations; for recursive targets nested
spans are counted again), ``self_s`` and the size counters named in
``TARGETS``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path, size counter) -- the counter maps (args, result)
# to a number summed per pass.  IntMatrix.__init__ is deliberately absent: it
# runs millions of times in the sweep and a wrapper would swamp the timings.
TARGETS = [
    ("cli", "main", None),
    ("linalg", "smith_normal_form", None),
    ("linalg", "kernel_basis_reduced", None),
    ("linalg", "modp_rank", ("entries", lambda a, r: a[0].rows * a[0].cols)),
    ("linalg", "modp_solve", None),
    ("linalg", "IntMatrix.__mul__", None),
    ("abelian", "cohomology_at", None),
    ("abelian", "cohomology_dim_modp", None),
    ("groups", "standard_modules", None),
    ("resolution", "free_resolution", None),
    ("resolution", "FreeResolution.verify", None),
    ("resolution", "FreeResolution.hom_differential", None),
    ("resolution", "group_cohomology", None),
    ("serre", "serre_e2_over_bg", None),
    ("serre", "solve_unique", None),
    ("serre", "run_to_e_infinity", None),
    ("koszul", "transgressive_quotient", None),
    ("koszul", "koszul_homology_series", None),
    ("coinvariants", "kunneth_decompose", None),
    ("coinvariants", "CoinvariantAlgebra.degree_representation", None),
    ("diagonal", "invariant_ring_presentation", None),
    ("diagram", "PosetDiagram.from_json", None),
    ("diagram", "PosetDiagram.validate", None),
    ("limits", "cosimplicial_complex", ("cells", lambda a, r: sum(r[0]))),
    ("limits", "higher_limits", None),
    ("robustness", "check_block", None),
    ("robustness", "kernel_image_variants", None),
]


def span_name(module, attr):
    """Metric prefix of a target: ``IntMatrix.__mul__`` reads ``IntMatrix.mul``."""
    return f"{module}.{attr.replace('__mul__', 'mul')}"


class Tracer:
    """Span recorder; install() before the traced calls, uninstall() after."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op id)
        self.op_id = None
        self._stack = []         # [span index, start, child time] per open span
        self._totals = {}        # name -> [calls, total_s, self_s, counter]
        self._patches = []       # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, func, counter):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        size = counter[1] if counter else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans[index] = (name, frame[1], end, parent, self.op_id)
                acc = self._totals.get(name)
                if acc is None:
                    acc = self._totals[name] = [0, 0.0, 0.0, 0]
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[2]
            if size is not None:
                acc[3] += size(args, result)
            return result

        return traced

    def install(self):
        for module_name, _, _ in TARGETS:
            importlib.import_module(f"ecomu3.{module_name}")
        modules = [m for k, m in sys.modules.items()
                   if k == "ecomu3" or k.startswith("ecomu3.")]
        for module_name, attr, counter in TARGETS:
            module = sys.modules[f"ecomu3.{module_name}"]
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    wrapped = self._wrap(name, raw, counter)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- accounting ---------------------------------------------------------

    def take_layers(self):
        """Per-layer totals since the last call, as {metric name: value}."""
        out = {}
        for module_name, attr, counter in TARGETS:
            name = span_name(module_name, attr)
            calls, total, self_s, count = self._totals.get(name, (0, 0.0, 0.0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
            if counter:
                out[f"{name}.{counter[0]}"] = count
        self._totals = {}
        return out

    def self_time_by_op(self):
        """{op id: sum of the self times of its spans}, from the span list."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for index, (name, start, end, parent, op) in enumerate(spans):
            out[op] = out.get(op, 0.0) + (end - start - child[index])
        return out

    def dump(self, path):
        """Write every span, one JSON list per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    @classmethod
    def load(cls, path):
        """A tracer holding the spans of a file written by dump()."""
        tracer = cls()
        with open(path) as fh:
            tracer.spans = [tuple(json.loads(line)) for line in fh]
        return tracer
