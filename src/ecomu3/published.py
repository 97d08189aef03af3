"""Reference values the pipeline is checked against: the one registry of
published values and recorded discrepancies.

Each constant is a verbatim transcription of a published table or series (or,
where flagged, the corrected form of one with its recorded discrepancy),
keyed by prime, and the Serre references also by config name.  The CLI, the
diagram data tool and the tests look values up here instead of restating
them; the CLI treats any mismatch that is not covered by a recorded
discrepancy as a hard failure.
"""

from .abelian import AbelianGroup, PoincareSeries


def _g(spec):
    """'Z', 'Z/2', 'Z+Z/3+Z/3', '0' -> AbelianGroup; the torsion parts are
    its invariant factors, so they must form a divisibility chain."""
    if spec == "0":
        return AbelianGroup()
    free = 0
    torsion = []
    for part in spec.split("+"):
        part = part.strip()
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            free += int(part[2:])
        else:
            torsion.append(int(part.split("/")[1]))
    return AbelianGroup(free, torsion)


def table(*specs):
    return [_g(s) for s in specs]


# group cohomology of the symmetric group on three letters ------------------

def s3_trivial(d):
    if d == 0:
        return _g("Z")
    if d % 4 == 0:
        return _g("Z/6")
    if d % 4 == 2:
        return _g("Z/2")
    return _g("0")


def s3_standard(d):
    return _g("Z/3") if d % 4 == 3 else _g("0")


def s3_sign(d):
    if d == 0:
        return _g("0")
    if d % 2 == 1:
        return _g("Z/2")
    if d % 4 == 2:
        return _g("Z/3")
    return _g("0")


def s3_standard_standard(d):
    if d == 0:
        return _g("Z")
    return _g("Z/3") if d % 4 == 2 else _g("0")


def s3_standard_sign(d):
    return _g("Z/3") if d % 4 == 1 else _g("0")


S3_COHOMOLOGY = {
    "trivial": s3_trivial,
    "standard": s3_standard,
    "sign": s3_sign,
    "standard(x)standard": s3_standard_standard,
    "standard(x)sign": s3_standard_sign,
}


# unordered flag threefold ---------------------------------------------------

FLBAR3 = {2: table("Z", "0", "Z/2", "0", "Z/2", "0", "Z/2"),
          3: table("Z", "0", "0", "0", "Z/3", "Z/3", "0")}
FLBAR3_SERIES = {2: PoincareSeries([1, 1, 1, 1, 1, 1, 1]),
                 3: PoincareSeries([1, 0, 0, 1, 2, 1])}

# twisted square of the flag threefold ---------------------------------------

FL3XFL3 = {2: table("Z", "0", "Z/2", "0", "Z + Z/2", "0", "Z^2 + Z/2", "Z/2",
                    "Z", "Z/2", "0", "Z/2", "Z"),
           3: table("Z", "0", "0", "0", "Z + Z/3", "Z/3 + Z/3", "Z^2 + Z/3",
                    "Z/3", "Z + Z/3 + Z/3", "Z/3", "0", "0", "Z")}
# at p=3 derived by universal coefficients from the table above; the printed
# corollary repeats its degree-4 term where the degree-8 term belongs
FL3XFL3_SERIES = {2: PoincareSeries([1, 1, 1, 1, 2, 1, 4, 1, 2, 1, 1, 1, 1]),
                  3: PoincareSeries([1, 0, 0, 1, 4, 3, 4, 3, 4, 1, 0, 0, 1])}
FL3XFL3_SERIES_PRINTED_NOTE = {3: (
    "printed series has '4t^4' where the palindromic universal-coefficient "
    "conversion gives 4t^8; the derived series is emitted")}

# the Serre references, per (config name, prime): (table, series, the note
# on the printed series or None)
SERRE = {(name, p): (tables[p], series[p], notes.get(p))
         for name, tables, series, notes in [
             ("flbar3", FLBAR3, FLBAR3_SERIES, {}),
             ("fl3xfl3", FL3XFL3, FL3XFL3_SERIES, FL3XFL3_SERIES_PRINTED_NOTE)]
         for p in (2, 3)}

# blockwise-torus quotient of the unitary group ------------------------------

U3T2_SERIES = {2: PoincareSeries([1, 0, 1, 0, 0, 1, 0, 1]),
               3: PoincareSeries([1, 0, 1, 1, 1, 1, 0, 1])}
U3T2_RELATIONS = {2: {"z5^2", "b^2"}, 3: {"z3^2", "b^3"}}

PU3_SERIES = {2: PoincareSeries([1, 0, 0, 1, 0, 1, 0, 0, 1]),
              3: PoincareSeries([1, 1, 1, 2, 2, 2, 1, 1, 1])}

# seven diagram spaces, series (printed at p=2 only) -------------------------

DIAGRAM_SERIES = {2: {
    0: [1, 0, 0, 1, 0, 1, 0, 0, 1],
    1: [1, 0, 2, 0, 2, 1, 1, 2, 0, 2, 0, 1],
    2: [1, 1, 1, 1, 2, 1, 4, 1, 2, 1, 1, 1, 1],
    3: [1, 0, 1, 1, 1, 2, 0, 2, 1, 1, 1, 0, 1],
    4: [1, 1, 1, 2, 2, 3, 3, 2, 3, 3, 2, 2, 1, 1, 1],
    5: [1, 1, 2, 2, 2, 3, 3, 3, 3, 2, 2, 2, 1, 1],
    6: [1, 1, 1, 2, 2, 3, 3, 2, 3, 3, 2, 2, 1, 1, 1],
}}

# published higher-limit column lists ----------------------------------------

E2_COLUMNS = {
    2: {"lim0": {0: 1, 4: 1, 5: 1, 6: 2},
        "lim1": {3: 1, 5: 1, 7: 2, 8: 1, 11: 1, 12: 1, 13: 1}},
    3: {"lim0": {0: 1, 4: 1, 5: 1, 6: 1},
        "lim1": {3: 1, 5: 2, 6: 1, 7: 3, 8: 2, 9: 3, 10: 3, 11: 2, 12: 1}},
}

# the k = 0, 3, 4 cosimplicial shapes and outcomes worked in the source (p=2)
WORKED_SHAPES = {2: {0: (7, 12, 6), 3: (9, 22, 12), 4: (11, 22, 12)}}
WORKED_LIMS = {2: {0: (1, 0), 3: (0, 1), 4: (1, 0)}}

# final answers ---------------------------------------------------------------

ECOM_U3 = {2: [1, 0, 0, 0, 2, 1, 3, 0, 2, 1, 0, 0, 1, 1, 1],
           3: [1, 0, 0, 0, 2, 1, 3, 1, 3, 2, 3, 3, 2, 1, 0]}
RATIONAL_SERIES = PoincareSeries([1, 0, 0, 0, 1, 0, 2, 0, 1, 0, 0, 0, 1])

# recorded discrepancies, per prime: the mod-2 column entries that are
# incompatible with the printed series of the seven spaces (Euler
# characteristic of the cosimplicial complex), as (lim0, lim1) per fiber
# degree, and the answer degrees they move; the bundled data realizes the
# forced values instead.  Nothing is recorded at p=3.
E2_COLUMNS_FORCED_DEVIATIONS = {2: {5: (1, 3), 10: (0, 2), 11: (1, 1)}, 3: {}}
ECOM_U3_FORCED_DEVIATIONS = {2: {6: 5, 11: 3}, 3: {}}
