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
The elimination that gives a step its kernel also gives the previous
boundary's invariant factors, which exactness reads, so a build and its
verification eliminate each distinct boundary once (for S3 from length 9 on,
the 10 of them, augmentation included).

Basis bookkeeping: the free module (ZG)^r has Z-basis (h, e_i) for h in G,
0 <= i < r, flattened as index i * |G| + index(h).  G acts by permuting
these indices (:func:`_regular_action`).  A boundary is stored by its
generator images w_1..w_r (integer vectors), and the full integer matrix
has columns g . w_j for every (g, j), so ZG-equivariance holds by
construction and is still re-checked; d_{k-1} d_k = 0 is then checked on
the generator images alone (see :meth:`FreeResolution.verify`).

Group cohomology is the cohomology of the Hom-complex: the term in degree k
is M^{r_k} and the differential substitutes the module action matrices for
group elements in the boundary.
"""

from __future__ import annotations

from .abelian import cohomology_from_factors, p_primary
from .linalg import ColumnLattice, invariant_factors, kernel_and_factors
from .matrix import CompositionNonzero, IntMatrix


class ResolutionFailure(RuntimeError):
    """Exactness or equivariance verification failed; indicates a bug."""


def _regular_action(group, rank):
    """Per element g (in ``group.elements`` order), the index list ``perm``
    with (g . v)[x] = v[perm[x]] on (ZG)^rank."""
    n = group.order
    return [[i * n + y for i in range(rank) for y in row]
            for row in group.inverse_rows]


def _boundary_matrix(group, gens, rank_in):
    """The map (ZG)^len(gens) -> (ZG)^rank_in sending e_j to gens[j]."""
    # column order must match the (h, e_j) basis flattening j * |G| + h
    perms = _regular_action(group, rank_in)
    cols = [[w[i] for i in perm] for w in gens for perm in perms]
    return IntMatrix.from_columns(cols, rows=rank_in * group.order)


class FreeResolution:
    """length + 1 free terms (ZG)^{r_0} <- ... <- (ZG)^{r_length} over Z."""

    def __init__(self, group, ranks, generator_vectors):
        self.group = group
        self.ranks = list(ranks)
        self.generator_vectors = [[list(v) for v in step] for step in generator_vectors]
        self._boundaries = {}
        self._factors = {}

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

    def boundary_factors(self, k):
        """The nonzero invariant factors of d_k (the augmentation for k = 0).

        :func:`free_resolution` stores them from the elimination that gave
        the next step its kernel; a resolution made otherwise eliminates
        each distinct boundary here, once.
        """
        j = self.first_equal_degree(k)
        if j not in self._factors:
            self._factors[j] = invariant_factors(
                self.boundary(j) if j else self.augmentation())
        return self._factors[j]

    def verify(self):
        """Equivariance, boundary-squared and exactness at every inner degree.

        Each check is made once per distinct boundary or distinct pair of
        consecutive boundaries (see :meth:`first_equal_degree`): exactness at
        degree k depends only on d_k and d_{k+1}.

        d_{k-1} d_k = 0 is checked on the generator images w_j of d_k alone,
        after equivariance.  That is as strong as the full product: the
        columns of d_k are g . w_j by construction (and equivariance of d_k
        re-checks that they are orbits), and once d_{k-1} is known to be
        equivariant, d_{k-1}(g . w_j) = g . d_{k-1}(w_j), which is 0 exactly
        when d_{k-1}(w_j) is; the augmentation is G-invariant, so for k = 1
        it reads the same value on every column of an orbit.
        """
        n = self.group.order
        first = [self.first_equal_degree(k) for k in range(self.length + 1)]
        for j in dict.fromkeys(first):
            if j:
                self._verify_equivariance(j)
        for k, a, b in _distinct_pairs(first):
            prev = self.boundary(a) if a else self.augmentation()
            gens = IntMatrix.from_columns(self.generator_vectors[b - 1],
                                          rows=self.ranks[b - 1] * n)
            if not (prev * gens).is_zero():
                raise ResolutionFailure(f"d_{k-1} d_{k} != 0")
        for k, a, b in _distinct_pairs(first):
            h = cohomology_from_factors(self.ranks[a] * n,
                                        len(self.boundary_factors(a)),
                                        self.boundary_factors(b))
            if not h.is_trivial:
                raise ResolutionFailure(f"not exact at degree {k - 1}: {h}")
        return True

    def _verify_equivariance(self, k):
        # columns of the boundary are whole G-orbits; check that acting by a
        # generator permutes the columns the way the regular rep says
        n = self.group.order
        bk = self.boundary(k)
        cols = [bk.column(c) for c in range(bk.cols)]
        perms = _regular_action(self.group, self.ranks[k - 1])
        for g in self.group.generators:
            gi = self.group.index[g]
            perm, row_of = perms[gi], self.group.table[gi]
            for j in range(self.ranks[k]):
                for h in range(n):
                    if [cols[j * n + h][i] for i in perm] != cols[j * n + row_of[h]]:
                        raise ResolutionFailure(f"boundary {k} not equivariant")

    def hom_differential(self, module, k):
        """delta^k : M^{r_{k-1}} -> M^{r_k} induced by the k-th boundary."""
        n = self.group.order
        mrank = module.rank
        rk, rk1 = self.ranks[k], self.ranks[k - 1]
        actions = [module.action_matrix(h).entries for h in self.group.elements]
        width = rk1 * mrank
        entries = [0] * (rk * mrank * width)
        for j, w in enumerate(self.generator_vectors[k - 1]):
            for i in range(rk1):
                # the block at (j, i) is sum_h w[i, h] * action(h), row-major
                block = [0] * (mrank * mrank)
                for h in range(n):
                    c = w[i * n + h]
                    if c:
                        block = [x + c * y for x, y in zip(block, actions[h])]
                for a in range(mrank):
                    start = (j * mrank + a) * width + i * mrank
                    entries[start:start + mrank] = block[a * mrank:(a + 1) * mrank]
        return IntMatrix(rk * mrank, width, entries)


def greedy_generators(group, boundary, generator_order="hermite"):
    """(ZG-module generators of the kernel of ``boundary``, the invariant
    factors of ``boundary``), both from one elimination: d_{k+1} from d_k.

    ``boundary`` is the integer matrix of d_k : (ZG)^{r_k} -> (ZG)^{r_{k-1}}
    (the augmentation for k = 0).  The result depends on that matrix and the
    order alone, so two equal boundaries are followed by equal ones.
    """
    kernel, factors = kernel_and_factors(boundary)
    # shortest vectors first keeps the chosen generators (hence the next
    # boundary, hence all later Smith pivots) small
    reverse_ties = generator_order == "reversed"
    kernel.sort(key=lambda v: (sum(map(abs, v)),
                               [-x for x in v] if reverse_ties else list(v)))
    perms = _regular_action(group, boundary.cols // group.order)
    lattice = ColumnLattice(boundary.cols)
    chosen = []
    for v in kernel:
        if chosen and lattice.contains(v):
            continue
        chosen.append(v)
        for perm in perms:
            lattice.add([v[i] for i in perm])
    return chosen, factors


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
    ``length``.  Each step keeps the invariant factors of the boundary it
    eliminated for :meth:`FreeResolution.verify`.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    res = FreeResolution(group, [1], [])
    current = res.augmentation()
    for k in range(1, length + 1):
        chosen, factors = greedy_generators(group, current, generator_order)
        res._factors[k - 1] = factors        # d_{k-1} is not a repeat
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


def group_cohomology_table(resolution, module, max_degree, prime=None):
    """[H^0, ..., H^max_degree](G; M), p-primary parts when a prime is given.

    These need delta^1 .. delta^(max_degree + 1).  first[d] is the first
    degree whose boundary equals d_{d+1}, so each distinct differential is
    built and eliminated once, and each distinct consecutive pair multiplied
    once.
    """
    if resolution.length < max_degree + 1:
        raise ResolutionFailure(
            f"resolution of length {resolution.length} cannot see degree {max_degree}")
    first = [resolution.first_equal_degree(k) for k in range(1, max_degree + 2)]
    deltas = {j: resolution.hom_differential(module, j)
              for j in dict.fromkeys(first)}
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
