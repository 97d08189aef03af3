"""Command-line surface for the whole pipeline.

One entry point with subcommands, mirroring the dependency order of the
engines::

    snf            Smith normal form of an integer matrix
    grpcoh         group cohomology tables over the bundled module catalog
    flag           coinvariant-algebra operations (normal form, products,
                   degree representations, Kunneth names)
    serre          run a fibration config through the spectral sequence
    u3t2           the blockwise-torus quotient of the unitary group
    holim          validate the bundled diagram / higher limits per degree
    ecom-u3        the end-to-end homotopy-colimit answer at a prime
    rational-ring  the rational cohomology ring presentation

Global flag: --format json|text, before or after the subcommand; --prime
and --max-degree where meaningful.  Nothing is written to disk: every
subcommand that needs the free resolution builds and verifies it.  The
argument parser and the module catalog are built once per process, and so
are the coinvariant algebra's normal-form tables and degree representations
that ``flag`` and ``rational-ring`` read; a diagram file is parsed and
validated once per distinct text.

This module imports only the standard library and :mod:`ecomu3.report`;
each handler imports the engines it runs, and an engine imports at module
level only what every caller of it runs.  Without a bytecode cache every
module a process loads is compiled; beyond ``cli`` and ``report`` a call
loads::

    snf               linalg matrix
    grpcoh            abelian groups linalg matrix published resolution
    serre             the same and serre
    flag dims|nf|mul  coinvariants polynomial (nf, mul: and polyparse)
    flag rep          coinvariants polynomial groups matrix
    flag kunneth      coinvariants polynomial groups matrix linalg
    u3t2              abelian diagonal koszul matrix polynomial published
    rational-ring     abelian coinvariants diagonal matrix polynomial published
    holim validate    diagram matrix poset
    holim limits|e2   diagram matrix poset limits
    ecom-u3           abelian diagram limits matrix poset published

A fresh call took about 0.12 s (median over the subcommands on a 2-vCPU VM
with Python 3.11.7, against 0.18 s when every engine was imported up front).
From the import of this module to the end of the call it takes 43-97 ms,
``flag dims`` 44 ms (56 ms while the coinvariant algebra loaded ``groups``).

Exit status is 0 only if every internal validation passed; comparisons
against published values fail hard unless the mismatch is recorded as a
known discrepancy in :mod:`ecomu3.published`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from importlib import resources

from .report import Report

RESOLUTION_LENGTH = 15
GROUP_NAMES = ("s3", "sym3", "σ3")     # of the base group, in lower case


class CommandError(RuntimeError):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def get_resolution():
    from .groups import symmetric_group
    from .resolution import free_resolution
    return free_resolution(symmetric_group(3), RESOLUTION_LENGTH)


def _check_prime(prime):
    from .matrix import prime_fault
    if prime is not None and (fault := prime_fault(prime)):
        raise CommandError(f"--prime {fault}")


def _parse_poly(text):
    from .polyparse import ParseError, parse_polynomial, quoted
    try:
        return parse_polynomial(text, n=3)
    except ParseError as exc:
        raise CommandError(f"bad polynomial {quoted(text)}: {exc}")


def _input_text(path, what, bundled=None, missing=None):
    """The file at ``path`` or, without one, the bundled data file
    ``bundled``, whose absence is the error ``missing``."""
    try:
        if not path:
            return resources.files("ecomu3.data").joinpath(bundled).read_text()
        with open(path) as fh:
            return fh.read()
    except (OSError, ValueError) as exc:    # ValueError: a NUL in the name
        raise CommandError(f"cannot read {what}: {exc}" if path else missing)


def _parse_json(text, what):
    """Parsed JSON text; ``json`` would keep the last of a repeated key."""
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise CommandError(f"bad {what}: key {key!r} given twice")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique)
    except ValueError as exc:   # also a number past the digit limit
        raise CommandError(f"bad {what}: {exc}")


def read_config(name_or_path, report):
    """``(config, {fiber degree: [module]})`` of a config path or bundled
    name, its text hashed into ``report`` and every field ``serre`` reads
    checked: each fiber degree is one of "0".."WINDOW" and each module a
    catalog name, and a group named is the base group S3."""
    from .groups import resolve_module_name, standard_modules, symmetric_group
    from .serre import WINDOW
    path = name_or_path if os.path.exists(name_or_path) else None
    text = _input_text(path, "fibration config", f"{name_or_path}.json",
                       f"no such fibration config: {name_or_path}")
    config = _parse_json(text, "fibration config")

    def need(ok, what):
        if not ok:
            raise CommandError(f"bad fibration config: {what}")

    need(isinstance(config, dict), "not a JSON object")
    need(isinstance(config.get("name", ""), str), '"name" must be a string')
    report.add_input_hash(config.get("name", name_or_path), text)
    fiber = config.get("fiber")
    need(isinstance(fiber, dict), '"fiber" must map fiber degrees to modules')
    degrees = {str(q): q for q in range(WINDOW + 1)}
    catalog = standard_modules(3)
    reps = {}
    for row, names in fiber.items():
        need(row in degrees,
             f'fiber degree {row!r} is not one of "0", "1", ..., "{WINDOW}"')
        need(isinstance(names, list) and all(isinstance(e, str) for e in names),
             f"fiber degree {row}: each module must be a name")
        modules = reps[degrees[row]] = []
        for name in names:
            try:
                modules.append(catalog[resolve_module_name(name)])
            except KeyError:
                raise CommandError(f"unknown module {name!r} in the fiber")
    for key, least in (("top_dimension", 0), ("group_order", 1)):
        need(type(config.get(key)) is int and config[key] >= least,
             f'"{key}" must be an integer >= {least}')
    # a move out of total degree n lands in degree n + 1, so H^n needs
    # degree n + 1 on the page, which stores degrees 0..WINDOW
    need(config["top_dimension"] <= WINDOW - 1,
         f'"top_dimension" must be at most {WINDOW - 1}: a page stores total '
         f'degrees 0..{WINDOW}, and H^n needs degree n + 1')
    group = symmetric_group(3)
    named = config.get("group", group.name)
    need(isinstance(named, str) and named.lower() in GROUP_NAMES,
         f'"group" is {named!r}, but the base group is {group.name}')
    need(config["group_order"] == group.order,
         f'"group_order" is {config["group_order"]}, but the base group '
         f"{group.name} has order {group.order}")
    return config, reps


# --- subcommands -------------------------------------------------------------


def cmd_snf(args, report):
    from .linalg import IntMatrix, smith_normal_form
    if os.path.exists(args.matrix):
        text = _input_text(args.matrix, "matrix")
        report.add_input_hash(args.matrix, text)
    else:
        text = args.matrix
    try:
        m = IntMatrix.from_int_rows(json.loads(text))
    except ValueError as exc:   # malformed JSON, a non-integer entry, ragged rows
        raise CommandError(f"bad matrix: {exc}")
    snf = smith_normal_form(m)
    if snf.U * snf.D * snf.V != m:
        raise CommandError("internal check failed: U * D * V != matrix")
    report.add_result("invariant_factors", snf.invariant_factors)
    report.add_result("U", snf.U.to_lists())
    report.add_result("D", snf.D.to_lists())
    report.add_result("V", snf.V.to_lists())


def cmd_grpcoh(args, report):
    from . import published
    from .abelian import p_primary
    from .groups import resolve_module_name, standard_modules
    from .resolution import group_cohomology_table
    if args.group.lower() not in GROUP_NAMES:
        raise CommandError(f"unknown group {args.group!r} (the catalog has S3)")
    try:
        name = resolve_module_name(args.module)
    except KeyError:
        raise CommandError(f"unknown module {args.module!r}")
    if not 0 <= args.max_degree <= RESOLUTION_LENGTH - 1:
        raise CommandError(f"max degree {args.max_degree} outside the bundled "
                           f"resolution reach 0..{RESOLUTION_LENGTH - 1}")
    _check_prime(args.prime)
    res = get_resolution()
    module = standard_modules(3)[name]
    rows = []
    expected = published.S3_COHOMOLOGY[name]
    table = group_cohomology_table(res, module, args.max_degree, prime=args.prime)
    for d, g in enumerate(table):
        want = expected(d)
        if args.prime:
            want = p_primary(want, args.prime)
        if g != want:
            raise CommandError(
                f"H^{d}(S3; {name}) = {g} does not match the published {want}")
        rows.append({"degree": d, "group": str(g)})
    report.add_result("cohomology", rows, provenance="computed, matches published")
    report.add_result("resolution_ranks", res.ranks)


def cmd_flag(args, report):
    from .coinvariants import coinvariant_algebra, kunneth_decompose
    algebra = coinvariant_algebra(3)
    if args.flag_op == "nf":
        nf = algebra.normal_form(_parse_poly(args.poly))
        report.add_result("normal_form", _poly_out(nf))
    elif args.flag_op == "mul":
        a = algebra.normal_form(_parse_poly(args.poly))
        b = algebra.normal_form(_parse_poly(args.poly2))
        report.add_result("product", _poly_out(algebra.multiply(a, b)))
    elif args.flag_op == "rep":
        if args.degree < 0:
            raise CommandError("flag rep needs a degree >= 0")
        rep = algebra.degree_representation(args.degree)
        out = {}
        for g in rep.group.generators:
            out[str(g)] = rep.action_matrix(g).to_lists()
        report.add_result("polynomial_degree", args.degree)
        report.add_result("cohomological_degree", 2 * args.degree)
        report.add_result("representation", out)
        report.add_result("character", rep.character())
    elif args.flag_op == "kunneth":
        try:
            names = kunneth_decompose(args.degree)
        except ValueError as exc:       # the degree is out of range
            raise CommandError(f"flag kunneth: {exc}")
        report.add_result("decomposition", names,
                          provenance="identified integrally in the catalog")
    elif args.flag_op == "dims":
        report.add_result("staircase_dimensions", algebra.dimensions())


def _poly_out(poly):
    try:
        return {"+".join(f"x{i+1}^{e}" for i, e in enumerate(k) if e) or "1": str(c)
                for k, c in sorted(poly.items())}
    except ValueError:      # more digits than the interpreter converts
        raise CommandError("a coefficient has too many digits to print")


def cmd_serre(args, report):
    from .abelian import mod_p_series
    from .serre import (Ambiguous, NoSolution, RankTooLarge, SearchBudget,
                        assemble_total, run_to_e_infinity, serre_e2_over_bg,
                        solve_unique)
    config, reps = read_config(args.config, report)
    _check_prime(args.prime)
    res = get_resolution()
    try:
        page = serre_e2_over_bg(res, reps, args.prime)
        spec = solve_unique(page, config["top_dimension"])
        stable = run_to_e_infinity(page, spec)
        graded = assemble_total(stable, res.group.order, config["top_dimension"])
    except (NoSolution, Ambiguous) as exc:      # only solve_unique raises these
        raise CommandError(f"forced-differential solver: {exc}")
    except (RankTooLarge, SearchBudget) as exc:
        raise CommandError(f"{type(exc).__name__}: {exc}")
    series = mod_p_series(graded, args.prime)
    report.add_result("e2_page", page.to_json())
    report.add_result("differentials", spec.describe(page.period))
    report.add_result("cohomology", [str(g) for g in graded])
    report.add_result("mod_p_series", list(series.coefficients))
    _check_published_serre(config.get("name"), args.prime, graded, series, report)


def _check_published_serre(name, prime, graded, series, report):
    from . import published
    expected = published.SERRE.get((name, prime))
    if expected is None:
        return
    want_table, want_series, note = expected
    if graded != want_table:
        raise CommandError(f"{name} mod {prime}: table does not match published")
    if series.coefficients != want_series.coefficients:
        raise CommandError(f"{name} mod {prime}: series does not match")
    report.add_result("published_match", True, provenance="[PAPER]")
    if note:
        report.add_note(note)


def cmd_u3t2(args, report):
    from . import published
    from .koszul import u3t2_cohomology
    if args.prime not in (2, 3):
        raise CommandError("u3t2 needs --prime 2 or 3")
    out = u3t2_cohomology(args.prime)
    report.add_result("presentation", str(out["presentation"]))
    report.add_result("series", list(out["series"].coefficients))
    report.add_result("transgressions", out["steps"])
    report.add_result("oracle_series", list(out["oracle"].coefficients),
                      provenance="independent Koszul homology")
    want = published.U3T2_SERIES[args.prime]
    if out["series"].coefficients != want.coefficients:
        raise CommandError("series does not match the published value")
    relations = set(out["presentation"].formatted_relations())
    if relations != published.U3T2_RELATIONS[args.prime]:
        raise CommandError(
            f"relations {sorted(relations)} do not match the published "
            f"{sorted(published.U3T2_RELATIONS[args.prime])}")
    report.add_result("published_match", True, provenance="[PAPER]")


def cmd_holim(args, report):
    diagram = _validated_diagram(args, report)
    report.add_result("validated", True)
    if args.holim_op == "validate":
        for note in diagram.notes:
            report.add_note(note)
        return
    if args.holim_op == "limits":
        from .limits import higher_limits
        if args.degree is not None and args.degree < 0:
            raise CommandError(f"--degree {args.degree} is negative")
        ks = [args.degree] if args.degree is not None else \
            range(diagram.max_degree + 1)
        rows = []
        for k in ks:
            l0, l1, l2 = higher_limits(diagram, k)
            rows.append({"fiber_degree": k, "lim0": l0, "lim1": l1, "lim2": l2,
                         "lim2_vanishes": l2 == 0})
        report.add_result("higher_limits", rows)
        return
    if args.holim_op == "e2":
        report.add_result("assembled_dims", _assembled_dims(diagram, report))


def _assembled_dims(diagram, report):
    """The graded dimensions :func:`ecomu3.limits.bk_assemble` gives, after
    reporting its nonzero (lim^0, lim^1) columns.  No validated diagram
    has lim^2 != 0, so the error is for a diagram that escaped validation."""
    from .limits import NonVanishingLim2, bk_assemble
    try:
        dims, lims = bk_assemble(diagram)
    except NonVanishingLim2 as exc:
        raise CommandError(f"NonVanishingLim2: {exc}")
    report.add_result("columns", {str(k): list(v) for k, v in lims.items()
                                  if v != (0, 0)})
    return dims


def _validated_diagram(args, report):
    """The ``--diagram`` file, or the bundled diagram of ``--prime`` (2 if
    not given), read on every call and validated by :func:`_diagram_of_text`."""
    prime = 2 if args.prime is None else args.prime
    name = args.diagram or f"diagram_p{prime}.json"
    text = _input_text(args.diagram, "diagram", name,
                       f"no bundled diagram for --prime {prime} (bundled: 2, 3)")
    report.add_input_hash(name, text)
    diagram = _diagram_of_text(text)
    if args.diagram and args.prime not in (None, diagram.prime):
        raise CommandError(f"--prime {args.prime} differs from the "
                           f"diagram's prime {diagram.prime}")
    return diagram


@lru_cache(maxsize=3)       # both bundled files and one user file
def _diagram_of_text(text):
    """The diagram a file's text describes, after :meth:`PosetDiagram.validate`.

    Keyed on the text, so a changed file is validated again; an error is not
    cached but raised again.  Callers only read the diagram it returns."""
    from .diagram import ConstraintViolation, FunctorialityViolation, PosetDiagram
    try:
        diagram = PosetDiagram.from_json(_parse_json(text, "diagram"))
    except ValueError as exc:   # a wrong shape or a non-integer entry
        raise CommandError(f"bad diagram: {exc}")
    try:
        diagram.validate()
    except (FunctorialityViolation, ConstraintViolation) as exc:
        raise CommandError(f"{type(exc).__name__}: {exc}")
    return diagram


def cmd_ecom_u3(args, report):
    from . import published
    from .abelian import PoincareSeries
    if args.prime not in (2, 3):
        raise CommandError("ecom-u3 needs --prime 2 or 3")
    diagram = _validated_diagram(args, report)
    dims = _assembled_dims(diagram, report)
    dims += [0] * (15 - len(dims))
    report.add_result("graded_dimensions", dims,
                      provenance=diagram.provenance.get("dims", "computed"))
    series = PoincareSeries(dims)
    report.add_result("poincare_series", list(series.coefficients))
    # every printed degree is compared; the published table and the rational
    # series are 0 past their ends
    published_table = PoincareSeries(published.ECOM_U3[args.prime])
    deviations = {d: v for d, v in enumerate(dims) if v != published_table[d]}
    allowed = published.ECOM_U3_FORCED_DEVIATIONS[args.prime]
    unexpected = {d: v for d, v in deviations.items() if allowed.get(d) != v}
    for d, v in deviations.items():
        if d in allowed:
            report.add_note(
                f"degree {d}: computed dimension {v} differs from the published "
                f"{published_table[d]}; forced by the Euler characteristic of "
                "the bundled graded dimensions (recorded discrepancy)")
    if unexpected:
        raise CommandError(f"unexpected mismatch with the published table: "
                           f"{unexpected}")
    report.add_result("published_match", not deviations, provenance="[PAPER]")
    # rational consistency: mod-p dimensions bound the rational ones below
    rational = published.RATIONAL_SERIES
    ok = dims[0] == 1 and all(v >= rational[d] for d, v in enumerate(dims))
    if not ok:
        raise CommandError("mod-p dimensions dip below the rational series")
    report.add_result("rational_consistency", True, provenance="[DERIVED]")


def cmd_rational_ring(args, report):
    from . import published
    from .diagonal import (RelationFailure, TensorSquare,
                           invariant_ring_presentation)
    try:
        pres, checks, basis, discrepancies = invariant_ring_presentation()
    except RelationFailure as exc:
        raise CommandError(f"relation failure: {exc}")
    report.add_result("presentation", str(pres))
    report.add_result("verified_relations", checks)
    poly = pres.poincare_polynomial(12)
    report.add_result("poincare_polynomial", list(poly.coefficients))
    report.add_result("basis_degrees", [TensorSquare.cohomological_degree(c)
                                        for c in basis.values()])
    for note in discrepancies:
        report.add_note(note)
    if poly.coefficients != published.RATIONAL_SERIES.coefficients:
        raise CommandError("rational Poincare polynomial mismatch")
    report.add_result("published_match", True, provenance="[PAPER]")


# --- argument plumbing -------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="ecomu3",
        description="exact cohomology of the total space of the classifying "
                    "space for commutativity in U(3)")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    # the global flag is also accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix",
                       parents=[common])
    p.add_argument("matrix", help="JSON list of rows, or a path to one")

    p = sub.add_parser("grpcoh", help="group cohomology table", parents=[common])
    p.add_argument("group")
    p.add_argument("module")
    p.add_argument("max_degree", type=int)
    p.add_argument("--prime", type=int, default=None)

    p = sub.add_parser("flag", help="coinvariant algebra operations", parents=[common])
    flag_sub = p.add_subparsers(dest="flag_op", required=True)
    q = flag_sub.add_parser("nf", parents=[common])
    q.add_argument("poly")
    q = flag_sub.add_parser("mul", parents=[common])
    q.add_argument("poly")
    q.add_argument("poly2")
    q = flag_sub.add_parser("rep", parents=[common])
    q.add_argument("degree", type=int)
    q = flag_sub.add_parser("kunneth", parents=[common])
    q.add_argument("degree", type=int)
    flag_sub.add_parser("dims", parents=[common])

    p = sub.add_parser("serre", help="Serre spectral sequence of a fibration config", parents=[common])
    p.add_argument("config", help="bundled name (flbar3, fl3xfl3) or a path")
    p.add_argument("--prime", type=int, required=True)

    p = sub.add_parser("u3t2", help="cohomology of the blockwise-torus quotient", parents=[common])
    p.add_argument("--prime", type=int, required=True)

    p = sub.add_parser("holim", help="higher limits over the subset poset", parents=[common])
    p.add_argument("holim_op", choices=("validate", "limits", "e2"))
    p.add_argument("--prime", type=int, default=None,
                   help="the bundled diagram's prime (default 2); with "
                        "--diagram, it must be the file's")
    p.add_argument("--diagram", default=None, help="path to a diagram file")
    p.add_argument("--degree", type=int, default=None)

    p = sub.add_parser("ecom-u3", help="the end-to-end graded answer", parents=[common])
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--diagram", default=None)

    sub.add_parser("rational-ring", help="rational cohomology ring presentation", parents=[common])
    return parser


HANDLERS = {
    "snf": cmd_snf,
    "grpcoh": cmd_grpcoh,
    "flag": cmd_flag,
    "serre": cmd_serre,
    "u3t2": cmd_u3t2,
    "holim": cmd_holim,
    "ecom-u3": cmd_ecom_u3,
    "rational-ring": cmd_rational_ring,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    report = Report(args.command)
    try:
        HANDLERS[args.command](args, report)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    try:
        print(report.to_json() if args.format == "json" else report.to_text())
        sys.stdout.flush()
    except ValueError as exc:   # an integer past the interpreter's digit limit
        print(f"error: cannot print the report: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left early (``| head``): send what is still buffered to
        # devnull, so the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
