"""Chern classes by the Whitney formula, and the multiplicative spectral
sequence of a principal unitary-group bundle over a product of infinite
complex projective spaces.

The only multiplicative engine this project needs is the Koszul shape
Lambda[z_1, z_3, z_5] (x) F_p[b_1..b_k] with transgressive exterior
generators: d_{2i}(z_{2i-1}) is the i-th Chern class of the bundle reduced in
the current base quotient, extended multiplicatively.  Generators whose
transgression reduces to zero survive; the others die and impose their
transgression as a relation.  The resulting presentation is cross-checked
against an independent oracle: the homology of the full Koszul complex,
computed degree by degree by F_p linear algebra, which is the Tor computation
that the collapsed spectral sequence abuts to.

>>> [sorted(c.items()) for c in whitney_chern([[1, 0], [1, 0], [0, 1]])]
[[((0, 1), 1), ((1, 0), 2)], [((1, 1), 2), ((2, 0), 1)], [((2, 1), 1)]]
"""

from __future__ import annotations

from itertools import combinations

from .abelian import PoincareSeries
from .diagonal import RingPresentation
from .matrix import EchelonBasis, modp_rref
from .polynomial import monomials_of_degree, poly_mul

TOP = 16    # the last degree of every series reported


def whitney_chern(weights):
    """Chern classes c_1..c_m of a sum of line bundles with given weights.

    ``weights`` has one row per line bundle; row entries are the multidegrees
    over the base classes b_1..b_k (each of cohomological degree 2).  The
    total class is the product of (1 + sum_j a_ij b_j).
    """
    if not weights:
        return []
    k = len(weights[0])
    zero = (0,) * k
    total = {zero: 1}
    for row in weights:
        if len(row) != k:
            raise ValueError("ragged weight rows")
        factor = {zero: 1}
        for j, a in enumerate(row):
            if a:
                e = tuple(1 if t == j else 0 for t in range(k))
                factor[e] = a
        total = poly_mul(total, factor)
    cherns = []
    for i in range(1, len(weights) + 1):
        ci = {e: c for e, c in total.items() if sum(e) == i}
        cherns.append(ci)
    return cherns


class BaseQuotient:
    """F_p[b_1..b_k] modulo an ideal, reduced degree by degree.

    Linear relations are handled by substitution (eliminating a variable);
    everything else goes through per-degree row reduction of the ideal slice.
    """

    def __init__(self, k, p):
        self.k = k
        self.p = p
        self.subs = {}        # var -> linear form over surviving vars
        self.relations = []   # reduced polynomial dicts over surviving vars
        self._slices = {}

    @property
    def variables(self):
        return [j for j in range(self.k) if j not in self.subs]

    def substitute(self, poly):
        out = dict(poly)
        for var, form in self.subs.items():
            nxt = {}
            for e, c in out.items():
                if e[var] == 0:
                    nxt[e] = (nxt.get(e, 0) + c) % self.p
                    continue
                rest = list(e)
                power = rest[var]
                rest[var] = 0
                term = {tuple(rest): c}
                for _ in range(power):
                    term = poly_mul(term, form)
                for e2, c2 in term.items():
                    nxt[e2] = (nxt.get(e2, 0) + c2) % self.p
            out = {e: c % self.p for e, c in nxt.items() if c % self.p}
        return out

    def _ideal_slice(self, d):
        """RREF of the degree-d slice of the relation ideal, plus pivots."""
        if d in self._slices:
            return self._slices[d]
        monos = [m for m in monomials_of_degree(self.k, d)
                 if all(m[v] == 0 for v in self.subs)]
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for rel in self.relations:
            rd = next(sum(e) for e in rel)
            if rd > d:
                continue
            for m in monomials_of_degree(self.k, d - rd):
                if any(m[v] for v in self.subs):
                    continue
                prod = poly_mul({m: 1}, rel)
                row = [0] * len(monos)
                for e, c in prod.items():
                    row[index[e]] = c % self.p
                rows.append(row)
        rref, pivots = modp_rref(rows, len(monos), self.p) if rows else ([], [])
        self._slices[d] = (monos, index, rref, pivots)
        return self._slices[d]

    def reduce(self, poly):
        """Canonical representative: substitute, then kill pivot monomials."""
        poly = self.substitute({e: c % self.p for e, c in poly.items() if c % self.p})
        by_degree = {}
        for e, c in poly.items():
            by_degree.setdefault(sum(e), {})[e] = c
        out = {}
        for d, part in by_degree.items():
            monos, index, rref, pivots = self._ideal_slice(d)
            vec = [0] * len(monos)
            for e, c in part.items():
                vec[index[e]] = c % self.p
            for row, piv in zip(rref, pivots):
                if vec[piv]:
                    f = vec[piv]
                    vec = [(a - f * b) % self.p for a, b in zip(vec, row)]
            for i, c in enumerate(vec):
                if c:
                    out[monos[i]] = c
        return out

    def add_relation(self, poly):
        """Add a nonzero relation, reduced modulo those before it.  A linear
        one eliminates a variable; it must come before any other relation,
        which holds as only c_1 is linear and it is transgressed first."""
        if {sum(e) for e in poly} == {1}:
            # eliminate the lexicographically last variable present
            var = max(j for e in poly for j in range(self.k) if e[j])
            lead = poly[tuple(1 if j == var else 0 for j in range(self.k))]
            inv = pow(lead, -1, self.p)
            self.subs[var] = {e: (-c * inv) % self.p
                              for e, c in poly.items() if not e[var]}
        else:
            self.relations.append(poly)
        self._slices = {}

    def hilbert_series(self, top):
        coeffs = []
        for d in range(0, top + 1, 1):
            if d % 2:
                coeffs.append(0)
                continue
            monos, index, rref, pivots = self._ideal_slice(d // 2)
            coeffs.append(len(monos) - len(pivots))
        return PoincareSeries(coeffs)


def koszul_homology_series(cherns, k, p, top):
    """Oracle: F_p dimensions of the Koszul complex homology per total degree.

    Basis elements are z_S * m with S a subset of the exterior generators
    (z_i of degree 2i-1) and m a base monomial; d(z_S m) drops one z_i with
    the Koszul sign and multiplies by c_i.
    """
    m = len(cherns)
    cmods = [{e: c % p for e, c in ci.items() if c % p} for ci in cherns]
    # build one degree past the reporting window: the kernel at the top
    # degree needs its targets, or the homology there is inflated
    reach = top + 1
    basis = {}   # total degree -> list of (S, mono)
    for size in range(m + 1):
        for S in combinations(range(1, m + 1), size):
            zdeg = sum(2 * i - 1 for i in S)
            if zdeg > reach:
                continue
            for d in range(0, (reach - zdeg) // 2 + 1):
                for mono in monomials_of_degree(k, d):
                    basis.setdefault(zdeg + 2 * d, []).append((S, mono))
    index = {deg: {b: i for i, b in enumerate(items)}
             for deg, items in basis.items()}

    def rank(deg):
        """F_p rank of d: degree -> degree + 1, from its sparse target rows."""
        tgt = index.get(deg + 1, {})
        rows = {}
        for j, (S, mono) in enumerate(basis.get(deg, [])):
            for pos, i in enumerate(S):
                rest = tuple(x for x in S if x != i)
                sign = (-1) ** pos
                for e, c in cmods[i - 1].items():
                    key = (rest, tuple(a + b for a, b in zip(mono, e)))
                    if key in tgt:
                        row = rows.setdefault(tgt[key], {})
                        row[j] = (row.get(j, 0) + sign * c) % p
        return EchelonBasis(p).insert_all(
            {j: v for j, v in row.items() if v} for row in rows.values())

    ranks = [rank(deg) for deg in range(top + 1)]
    return PoincareSeries([len(basis.get(deg, [])) - ranks[deg]
                           - (ranks[deg - 1] if deg else 0)
                           for deg in range(top + 1)])


def format_poly(poly, names):
    """A polynomial as text, ``names[j]`` naming variable j."""
    if not poly:
        return "0"
    terms = []
    for e in sorted(poly, reverse=True):
        c = poly[e]
        mono = "*".join(names[j] if exp == 1 else f"{names[j]}^{exp}"
                        for j, exp in enumerate(e) if exp)
        terms.append(f"{c}*{mono}" if mono and c != 1 else mono or str(c))
    return " + ".join(terms)


def transgressive_quotient(weights, p):
    """Run the transgression bookkeeping and return the full analysis.

    Returns a dict with the presentation, its Poincare series, the oracle
    series from the Koszul homology (they must agree), and one record per
    exterior generator with its raw and reduced transgression image.
    """
    cherns = whitney_chern(weights)
    k = len(weights[0]) if weights else 0
    ring = BaseQuotient(k, p)
    names = [f"b{j + 1}" for j in range(k)]
    steps = []
    survivors = []
    for i, ci in enumerate(cherns, start=1):
        raw = {e: c % p for e, c in ci.items() if c % p}
        reduced = ring.reduce(raw)
        dies = bool(reduced)
        steps.append({
            "generator": f"z{2 * i - 1}",
            "page": 2 * i,
            "raw": format_poly(raw, names),
            "reduced": format_poly(reduced, names),
            "dies": dies,
        })
        if dies:
            ring.add_relation(reduced)
        else:
            survivors.append(2 * i - 1)

    live = ring.variables
    rename = {j: "b" if len(live) == 1 else f"b{j + 1}" for j in live}
    gens = [(f"z{d}", d) for d in survivors] + [(rename[j], 2) for j in live]
    relations = [f"z{d}^2" for d in survivors] + [
        format_poly(rel, rename) for rel in ring.relations]
    pres = RingPresentation(gens, relations, field=f"F{p}")

    series = PoincareSeries([1])
    for d in survivors:
        series = series * PoincareSeries([1] + [0] * (d - 1) + [1])
    series = series * ring.hilbert_series(TOP)
    series = PoincareSeries(series.coefficients[:TOP + 1])

    oracle = koszul_homology_series(cherns, k, p, TOP)
    if series.coefficients != oracle.coefficients:
        raise AssertionError(
            f"transgression bookkeeping ({series}) disagrees with the Koszul "
            f"homology oracle ({oracle})")
    return {"presentation": pres, "series": series, "oracle": oracle,
            "steps": steps, "prime": p}


U3T2_WEIGHTS = [[1, 0], [1, 0], [0, 1]]
PU3_WEIGHTS = [[1], [1], [1]]


def u3t2_cohomology(p):
    """Mod-p cohomology of the quotient of U(3) by the blockwise 2-torus."""
    if p not in (2, 3):
        raise ValueError("this bundle is bundled for p = 2 and 3")
    return transgressive_quotient(U3T2_WEIGHTS, p)


def pu3_cohomology(p):
    """Mod-p cohomology of the projective unitary group PU(3)."""
    return transgressive_quotient(PU3_WEIGHTS, p)
