"""Free resolutions of Z over the integral group ring, and group cohomology.

The resolution is built degree by degree: starting from the augmentation
ZG -> Z, each step computes the integer kernel of the previous boundary and
then selects a generating set of the kernel as a ZG-module greedily (take
the first kernel basis vector, in Hermite-reduced order, that is not already
in the integer span of the G-orbits of the chosen generators).  The bar
resolution is hopeless here -- its rank at degree 12 for a group of order 6
is 6^12 -- while greedy selection keeps the ranks in the low single digits.
Each step depends only on the previous boundary, so the build stops at the
first boundary equal to an earlier one and copies that period (for S3,
d_10 = d_6); verification and the cohomology tables then do each piece of
work once per distinct boundary (:meth:`FreeResolution.first_equal_degree`).

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

from .abelian import cohomology_from_factors, p_primary
from .linalg import ColumnLattice, invariant_factors, kernel_basis_reduced
from .matrix import CompositionNonzero, IntMatrix, modp_rank


class ResolutionFailure(RuntimeError):
    """Exactness or equivariance verification failed; indicates a bug."""


def _act(group, g, vec, rank):
    """The regular-representation action of g on (ZG)^rank, by indices."""
    n = group.order
    out = [0] * (rank * n)
    gi_row = group.table[group.index[g]]
    for i in range(rank):
        base = i * n
        for h in range(n):
            out[base + gi_row[h]] = vec[base + h]
    return out


def _boundary_matrix(group, gens, rank_in):
    """The map (ZG)^len(gens) -> (ZG)^rank_in sending e_j to gens[j]."""
    # column order must match the (h, e_j) basis flattening j * |G| + h
    cols = [_act(group, g, w, rank_in) for w in gens for g in group.elements]
    return IntMatrix.from_columns(cols, rows=rank_in * group.order)


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

    def augmentation(self):
        return IntMatrix.from_rows([[1] * self.group.order])

    def first_equal_degree(self, k):
        """The least degree j <= k whose boundary d_j equals d_k (0 for k = 0).

        d_k is fixed by r_{k-1}, r_k and its generator vectors, and so are its
        Hom differentials and every check on it: work keyed on this degree
        is done once per distinct boundary, however the resolution was made.
        """
        if k == 0:
            return 0
        ranks, gens = self.ranks, self.generator_vectors
        for j in range(1, k):
            if (ranks[j - 1] == ranks[k - 1] and ranks[j] == ranks[k]
                    and gens[j - 1] == gens[k - 1]):
                return j
        return k

    def boundary(self, k):
        """The k-th boundary as an integer matrix (1 <= k <= length)."""
        j = self.first_equal_degree(k)
        if j in self._boundaries:
            return self._boundaries[j]
        m = _boundary_matrix(self.group, self.generator_vectors[j - 1],
                             self.ranks[j - 1])
        self._boundaries[j] = m
        return m

    def verify(self):
        """Boundary-squared, equivariance and exactness at every inner degree.

        Each check is made once per distinct boundary or distinct pair of
        consecutive boundaries (see :meth:`first_equal_degree`): exactness at
        degree k depends only on d_k and d_{k+1}.  Each boundary is
        eliminated once for its invariant factors.
        """
        first = [self.first_equal_degree(k) for k in range(self.length + 1)]
        maps = {j: self.boundary(j) if j else self.augmentation()
                for j in dict.fromkeys(first)}
        for k, a, b in _distinct_pairs(first):
            if not (maps[a] * maps[b]).is_zero():
                raise ResolutionFailure(f"d_{k-1} d_{k} != 0")
        for j in maps:
            if j:
                self._verify_equivariance(j)
        factors = {j: invariant_factors(m) for j, m in maps.items()}
        for k, a, b in _distinct_pairs(first):
            h = cohomology_from_factors(maps[a].cols, len(factors[a]), factors[b])
            if not h.is_trivial:
                raise ResolutionFailure(f"not exact at degree {k - 1}: {h}")
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
                    expect = _act(self.group, g, cols[j * n + h], self.ranks[k - 1])
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


def greedy_generators(group, boundary, generator_order="hermite"):
    """ZG-module generators of the kernel of ``boundary``: d_{k+1} from d_k.

    ``boundary`` is the integer matrix of d_k : (ZG)^{r_k} -> (ZG)^{r_{k-1}}
    (the augmentation for k = 0).  The result depends on that matrix and the
    order alone, so two equal boundaries are followed by equal ones.
    """
    kernel = kernel_basis_reduced(boundary)
    # shortest vectors first keeps the chosen generators (hence the next
    # boundary, hence all later Smith pivots) small
    reverse_ties = generator_order == "reversed"
    kernel.sort(key=lambda v: (sum(abs(x) for x in v),
                               [-x for x in v] if reverse_ties else list(v)))
    rank = boundary.cols // group.order
    lattice = ColumnLattice(boundary.cols)
    chosen = []
    for v in kernel:
        if chosen and lattice.contains(v):
            continue
        chosen.append(v)
        for g in group.elements:
            lattice.add(_act(group, g, v, rank))
    return chosen


def free_resolution(group, length, generator_order="hermite"):
    """Compute and verify a free resolution of Z of the given length.

    ``generator_order`` controls the order in which kernel basis vectors are
    offered to the greedy selector; "hermite" is the deterministic default
    (Hermite-reduced kernel basis sorted by L1 norm) and "reversed" breaks
    norm ties the opposite way, so tests can confirm results do not depend on
    the resolution produced.

    The greedy step is a function of the previous boundary alone, so once
    d_k repeats an earlier d_j every later degree repeats with period k - j:
    the build stops at the first repeat and copies the period up to
    ``length``.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    res = FreeResolution(group, [1], [])
    current = res.augmentation()
    for k in range(1, length + 1):
        chosen = greedy_generators(group, current, generator_order)
        res.ranks.append(len(chosen))
        res.generator_vectors.append(chosen)
        period = k - res.first_equal_degree(k)
        if period:
            for m in range(k + 1, length + 1):
                res.ranks.append(res.ranks[m - period])
                res.generator_vectors.append(
                    [list(v) for v in res.generator_vectors[m - 1 - period]])
            break
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


def _distinct_pairs(first):
    """(k, first[k - 1], first[k]) at the first k where each pair occurs."""
    seen = set()
    for k in range(1, len(first)):
        pair = (first[k - 1], first[k])
        if pair not in seen:
            seen.add(pair)
            yield k, pair[0], pair[1]


def _hom_differentials(resolution, module, max_degree):
    """delta^1 .. delta^(max_degree + 1), what H^0 .. H^max_degree need.

    Returns (first, deltas): first[d] is the first degree whose boundary
    equals d_{d+1}, and deltas maps each such degree to its differential, so
    each distinct differential is built once.
    """
    if resolution.length < max_degree + 1:
        raise ResolutionFailure(
            f"resolution of length {resolution.length} cannot see degree {max_degree}")
    first = [resolution.first_equal_degree(k) for k in range(1, max_degree + 2)]
    return first, {j: resolution.hom_differential(module, j)
                   for j in dict.fromkeys(first)}


def group_cohomology_table(resolution, module, max_degree, prime=None):
    """[H^0, ..., H^max_degree](G; M), p-primary parts when a prime is given.

    Each distinct differential is built and eliminated once, and each
    distinct consecutive pair multiplied once.
    """
    first, deltas = _hom_differentials(resolution, module, max_degree)
    for k, a, b in _distinct_pairs(first):
        if not (deltas[b] * deltas[a]).is_zero():
            raise CompositionNonzero(f"delta^{k + 1} delta^{k} != 0")
    factors = {j: invariant_factors(delta) for j, delta in deltas.items()}
    table = []
    for d, j in enumerate(first):
        g = cohomology_from_factors(deltas[j].cols, len(factors[j]),
                                    factors[first[d - 1]] if d else [])
        table.append(p_primary(g, prime) if prime is not None else g)
    return table


def group_cohomology_dims_modp(resolution, module, max_degree, p):
    """[dim_Fp H^d(G; M (x) F_p) for d <= max_degree], reduced coefficients."""
    first, deltas = _hom_differentials(resolution, module, max_degree)
    ranks = {j: modp_rank(delta, p) for j, delta in deltas.items()}
    return [deltas[j].cols - ranks[j] - (ranks[first[d - 1]] if d else 0)
            for d, j in enumerate(first)]
