"""Free resolutions of Z over the integral group ring, and group cohomology.

The resolution is built degree by degree: starting from the augmentation
ZG -> Z, each step computes the integer kernel of the previous boundary and
then selects a generating set of the kernel as a ZG-module greedily (take
the first kernel basis vector, in Hermite-reduced order, that is not already
in the integer span of the G-orbits of the chosen generators).  The bar
resolution is hopeless here -- its rank at degree 12 for a group of order 6
is 6^12 -- while greedy selection keeps the ranks in the low single digits.

Basis bookkeeping: the free module (ZG)^r has Z-basis (h, e_i) for h in G,
0 <= i < r, flattened as index i * |G| + index(h).  A boundary is stored by
its generator images w_1..w_r (integer vectors), and the full integer matrix
has columns g . w_j for every (g, j), so ZG-equivariance holds by
construction and is still re-checked.

Group cohomology is the cohomology of the Hom-complex: the term in degree k
is M^{r_k} and the differential substitutes the module action matrices for
group elements in the boundary.
"""

from __future__ import annotations

from .abelian import AbelianGroup, cohomology_from_factors, p_primary
from .linalg import (CompositionNonzero, IntMatrix, _xgcd, invariant_factors,
                     kernel_basis_reduced, modp_rank)


class ResolutionFailure(RuntimeError):
    """Exactness or equivariance verification failed; indicates a bug."""


class ColumnLattice:
    """Growing sublattice of Z^dim with a triangular basis for membership."""

    def __init__(self, dim):
        self.dim = dim
        self.pivots = {}

    def add(self, vec):
        v = list(vec)
        for row in range(self.dim):
            if v[row] == 0:
                continue
            if row in self.pivots:
                b = self.pivots[row]
                if v[row] % b[row] == 0:
                    q = v[row] // b[row]
                    v = [a - q * c for a, c in zip(v, b)]
                else:
                    g, x, y = _xgcd(b[row], v[row])
                    nb = [x * a + y * c for a, c in zip(b, v)]
                    nv = [(b[row] // g) * c - (v[row] // g) * a
                          for a, c in zip(b, v)]
                    self.pivots[row] = nb
                    v = nv
            else:
                if v[row] < 0:
                    v = [-a for a in v]
                self.pivots[row] = v
                return True
        return False

    def contains(self, vec):
        v = list(vec)
        for row in range(self.dim):
            if v[row] == 0:
                continue
            b = self.pivots.get(row)
            if b is None or v[row] % b[row] != 0:
                return False
            q = v[row] // b[row]
            v = [a - q * c for a, c in zip(v, b)]
        return True


class FreeResolution:
    """length + 1 free terms (ZG)^{r_0} <- ... <- (ZG)^{r_length} over Z."""

    def __init__(self, group, ranks, generator_vectors):
        self.group = group
        self.ranks = list(ranks)
        self.generator_vectors = [[list(v) for v in step] for step in generator_vectors]
        self._boundaries = {}

    @property
    def length(self):
        return len(self.ranks) - 1

    def act(self, g, vec, rank):
        """The regular-representation action of g on (ZG)^rank, by indices."""
        n = self.group.order
        out = [0] * (rank * n)
        gi_row = self.group.table[self.group.index[g]]
        for i in range(rank):
            base = i * n
            for h in range(n):
                out[base + gi_row[h]] = vec[base + h]
        return out

    def augmentation(self):
        return IntMatrix.from_rows([[1] * self.group.order])

    def boundary(self, k):
        """The k-th boundary as an integer matrix (1 <= k <= length)."""
        if k in self._boundaries:
            return self._boundaries[k]
        n = self.group.order
        rk, rk1 = self.ranks[k], self.ranks[k - 1]
        cols = []
        for j in range(rk):
            w = self.generator_vectors[k - 1][j]
            for g in self.group.elements:
                cols.append(self.act(g, w, rk1))
        # column order must match the (h, e_j) basis flattening j * |G| + h
        m = IntMatrix.from_columns(cols, rows=rk1 * n)
        self._boundaries[k] = m
        return m

    def verify(self):
        """Boundary-squared, equivariance and exactness at every inner degree.

        Each composite is multiplied once, and each boundary eliminated once
        for its invariant factors: d_k is the outgoing map at degree k and
        the incoming one at degree k - 1.
        """
        maps = [self.augmentation()] + [self.boundary(k)
                                        for k in range(1, self.length + 1)]
        for k in range(1, self.length + 1):
            if not (maps[k - 1] * maps[k]).is_zero():
                raise ResolutionFailure(f"d_{k-1} d_{k} != 0")
            self._verify_equivariance(k)
        factors = [invariant_factors(m) for m in maps]
        for k in range(self.length):
            h = cohomology_from_factors(maps[k].cols, len(factors[k]),
                                        factors[k + 1])
            if not h.is_trivial:
                raise ResolutionFailure(f"not exact at degree {k}: {h}")
        return True

    def _verify_equivariance(self, k):
        # columns of the boundary are whole G-orbits; check that acting by a
        # generator permutes the columns the way the regular rep says
        n = self.group.order
        bk = self.boundary(k)
        cols = [bk.column(c) for c in range(bk.cols)]
        for g in self.group.generators:
            row_of = self.group.table[self.group.index[g]]
            for j in range(self.ranks[k]):
                for h in range(n):
                    expect = self.act(g, cols[j * n + h], self.ranks[k - 1])
                    if expect != cols[j * n + row_of[h]]:
                        raise ResolutionFailure(f"boundary {k} not equivariant")

    def hom_differential(self, module, k):
        """delta^k : M^{r_{k-1}} -> M^{r_k} induced by the k-th boundary."""
        n = self.group.order
        mrank = module.rank
        rk, rk1 = self.ranks[k], self.ranks[k - 1]
        rows = [[0] * (rk1 * mrank) for _ in range(rk * mrank)]
        for j in range(rk):
            w = self.generator_vectors[k - 1][j]
            for i in range(rk1):
                base = i * n
                block = [[0] * mrank for _ in range(mrank)]
                for h_idx, h in enumerate(self.group.elements):
                    c = w[base + h_idx]
                    if c:
                        m = module.action_matrix(h)
                        for a in range(mrank):
                            ra = block[a]
                            for b in range(mrank):
                                ra[b] += c * m[a, b]
                for a in range(mrank):
                    for b in range(mrank):
                        rows[j * mrank + a][i * mrank + b] = block[a][b]
        return IntMatrix.from_rows(rows)


def free_resolution(group, length, generator_order="hermite"):
    """Compute and verify a free resolution of Z of the given length.

    ``generator_order`` controls the order in which kernel basis vectors are
    offered to the greedy selector; "hermite" is the deterministic default
    (Hermite-reduced kernel basis sorted by L1 norm) and "reversed" breaks
    norm ties the opposite way, so tests can confirm results do not depend on
    the resolution produced.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    n = group.order
    res = FreeResolution(group, [1], [])
    current = res.augmentation()
    for k in range(1, length + 1):
        kernel = kernel_basis_reduced(current)
        # shortest vectors first keeps the chosen generators (hence the next
        # boundary, hence all later Smith pivots) small
        reverse_ties = generator_order == "reversed"
        kernel.sort(key=lambda v: (sum(abs(x) for x in v),
                                   [-x for x in v] if reverse_ties else list(v)))
        lattice = ColumnLattice(n * res.ranks[k - 1])
        chosen = []
        for v in kernel:
            if chosen and lattice.contains(v):
                continue
            chosen.append(v)
            for g in group.elements:
                lattice.add(res.act(g, v, res.ranks[k - 1]))
        res.ranks.append(len(chosen))
        res.generator_vectors.append([list(v) for v in chosen])
        current = res.boundary(k)
    res.verify()
    return res


def group_cohomology(resolution, module, degree, prime=None):
    """H^degree(G; M), or its p-primary part when a prime is given.

    Needs resolution.length >= degree + 1.
    """
    if degree < 0:
        raise ValueError("negative degree")
    return group_cohomology_table(resolution, module, degree, prime=prime)[degree]


def _hom_differentials(resolution, module, max_degree):
    """[delta^1, ..., delta^(max_degree + 1)]: what H^0 .. H^max_degree need."""
    if resolution.length < max_degree + 1:
        raise ResolutionFailure(
            f"resolution of length {resolution.length} cannot see degree {max_degree}")
    return [resolution.hom_differential(module, k)
            for k in range(1, max_degree + 2)]


def group_cohomology_table(resolution, module, max_degree, prime=None):
    """[H^0, ..., H^max_degree](G; M), p-primary parts when a prime is given.

    Each differential is built, multiplied with the next and eliminated once.
    """
    deltas = _hom_differentials(resolution, module, max_degree)
    for k in range(1, len(deltas)):
        if not (deltas[k] * deltas[k - 1]).is_zero():
            raise CompositionNonzero(f"delta^{k + 1} delta^{k} != 0")
    factors = [invariant_factors(d) for d in deltas]
    table = []
    for d, delta in enumerate(deltas):
        g = cohomology_from_factors(delta.cols, len(factors[d]),
                                    factors[d - 1] if d else [])
        table.append(p_primary(g, prime) if prime is not None else g)
    return table


def group_cohomology_dims_modp(resolution, module, max_degree, p):
    """[dim_Fp H^d(G; M (x) F_p) for d <= max_degree], reduced coefficients."""
    deltas = _hom_differentials(resolution, module, max_degree)
    ranks = [modp_rank(d, p) for d in deltas]
    return [delta.cols - ranks[d] - (ranks[d - 1] if d else 0)
            for d, delta in enumerate(deltas)]


def invariants_degree_zero(module):
    """Independent brute-force H^0: the fixed submodule of the action."""
    return AbelianGroup(free_rank=module.invariants_rank())


def periodicity_verify(resolution, module, period, upto):
    """True iff H^d == H^{d+period} for all 1 <= d <= upto - period."""
    if upto < period + 1:
        raise ValueError("range must exceed the period")
    table = group_cohomology_table(resolution, module, upto)
    return all(table[d] == table[d + period]
               for d in range(1, upto - period + 1))
