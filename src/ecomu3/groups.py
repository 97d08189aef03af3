"""Finite permutation groups and their integral representation modules.

A :class:`FiniteGroup` stores its elements as permutation tuples together
with a multiplication table; a :class:`GroupModule` attaches an integer
matrix to each generator and extends to all elements through the table.  The
homomorphism property is verified exhaustively over the whole table, not just
on generators, because the module matrices are copied from explicit data and
a transcription slip would silently corrupt every cohomology value downstream.

The bundled catalog for the symmetric group on three letters:

``trivial``            rank 1, both generators +1
``sign``               rank 1, transpositions act by -1
``standard``           rank 2, the quotient of the permutation module by its
                       invariants (basis x1, x2 with x3 = -x1-x2)
``standard(x)sign``    rank 2 twist of the standard module
``standard(x)standard`` rank 4 tensor square

>>> s3 = symmetric_group(3)
>>> s3.order
6
>>> m = standard_modules(3)["standard(x)sign"]
>>> m.action_matrix(s3.generators[0]).to_lists()
[[0, -1], [1, -1]]
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from types import MappingProxyType

from .matrix import IntMatrix, ShapeMismatch


def _compose(a, b):
    """Permutation a after b, one-line tuples on 0..n-1."""
    return tuple(a[b[i]] for i in range(len(a)))


def _inverse(a):
    inv = [0] * len(a)
    for i, ai in enumerate(a):
        inv[ai] = i
    return tuple(inv)


class FiniteGroup:
    """A group of permutations of {0..n-1}, closed under the operations."""

    def __init__(self, elements, generators, name=""):
        elements = [tuple(e) for e in elements]
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        if len(self.index) != len(elements):
            raise ValueError("duplicate elements")
        self.generators = [tuple(g) for g in generators]
        self.name = name
        n = len(elements[0])
        self.identity = tuple(range(n))
        if self.identity not in self.index:
            raise ValueError("identity missing")
        inverses = [self.index.get(_inverse(a)) for a in elements]
        if None in inverses:
            raise ValueError("not closed under inverse")
        # multiplication table as element indices
        self.table = [[self.index[_compose(a, b)] for b in elements] for a in elements]
        # the row of a^-1, x -> a^-1 x: left multiplication by a moves the
        # coordinate at x to a x, so it reads the new x from a^-1 x
        self.inverse_rows = [self.table[i] for i in inverses]

    @property
    def order(self):
        return len(self.elements)

    def mul(self, a, b):
        return _compose(a, b)

    def conjugacy_classes(self):
        seen = set()
        classes = []
        for a in self.elements:
            if a in seen:
                continue
            cls = {_compose(_compose(g, a), _inverse(g)) for g in self.elements}
            seen |= cls
            classes.append(sorted(cls))
        return classes

    def __repr__(self):
        return f"FiniteGroup({self.name or 'order %d' % self.order})"


def generate(gens):
    gens = [tuple(g) for g in gens]
    n = len(gens[0])
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = _compose(g, a)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(seen)


@lru_cache(maxsize=None)
def symmetric_group(n):
    """The symmetric group on n letters, generated by the n-cycle and (1 2)."""
    if not 1 <= n <= 6:
        raise ValueError("desk scale keeps n between 1 and 6")
    if n == 1:
        return FiniteGroup([(0,)], [], name="S1")
    cycle = tuple(list(range(1, n)) + [0])
    swap = tuple([1, 0] + list(range(2, n)))
    gens = [cycle, swap] if n > 2 else [swap]
    els = generate(gens)
    if len(els) != factorial(n):
        raise RuntimeError(f"generated {len(els)} elements, not {n}!")
    return FiniteGroup(els, gens, name=f"S{n}")


class GroupModule:
    """Z^rank with a group acting by invertible integer matrices."""

    def __init__(self, group, rank, generator_action, name="", check=True):
        self.group = group
        self.rank = rank
        self.name = name
        self._matrices = {}
        action = {tuple(g): m for g, m in generator_action.items()}
        for g, m in action.items():
            if (m.rows, m.cols) != (rank, rank):
                raise ShapeMismatch(f"action of {g} is {m.rows}x{m.cols}")
        # extend to every element by factoring through the generators
        self._matrices[group.identity] = IntMatrix.identity(rank)
        frontier = [group.identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g, mg in action.items():
                    b = group.mul(g, a)
                    if b not in self._matrices:
                        self._matrices[b] = mg * self._matrices[a]
                        nxt.append(b)
            frontier = nxt
        if set(self._matrices) != set(group.elements):
            raise ValueError("generators do not generate the group")
        if check:
            self.verify_homomorphism()

    def action_matrix(self, g):
        return self._matrices[tuple(g)]

    def verify_homomorphism(self):
        """Check action(ab) == action(a) action(b) over the full table."""
        for a in self.group.elements:
            ma = self._matrices[a]
            for b in self.group.elements:
                if self._matrices[self.group.mul(a, b)] != ma * self._matrices[b]:
                    raise ValueError(f"not a homomorphism at ({a}, {b})")

    def character(self):
        """Trace on one representative per conjugacy class (sorted classes)."""
        out = []
        for cls in self.group.conjugacy_classes():
            m = self._matrices[cls[0]]
            out.append(sum(m[i, i] for i in range(self.rank)))
        return out

    def tensor(self, other):
        if other.group is not self.group:
            raise ValueError("modules over different groups")
        gens = {}
        for g in self.group.generators:
            gens[g] = _kronecker(self.action_matrix(g), other.action_matrix(g))
        return GroupModule(self.group, self.rank * other.rank, gens,
                           name=f"{self.name}(x){other.name}", check=False)

    def __repr__(self):
        return f"GroupModule({self.name or 'rank %d' % self.rank})"


def _kronecker(a, b):
    rows = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                c = a[i, j]
                row.extend(c * b[k, t] for t in range(b.cols))
            rows.append(row)
    return IntMatrix.from_rows(rows)


def trivial_module(group):
    return GroupModule(group, 1, {g: IntMatrix.identity(1) for g in group.generators},
                       name="trivial", check=False)


def sign_module(group):
    gens = {}
    for g in group.generators:
        gens[g] = IntMatrix.from_rows([[_perm_sign(g)]])
    return GroupModule(group, 1, gens, name="sign")


def _perm_sign(g):
    sign = 1
    seen = [False] * len(g)
    for i in range(len(g)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = g[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def standard_modules(n):
    """The named module catalog over the symmetric group on n letters.

    ``trivial`` and ``sign`` exist for every n; the standard module and both
    tensor modules are bundled for n = 3, where the explicit matrices for the
    generators sigma = 3-cycle and tau = (1 2) are fixed data.  The catalog
    is built and verified once per process and shared read-only.
    """
    group = symmetric_group(n)
    catalog = {"trivial": trivial_module(group)}
    if n >= 2:
        catalog["sign"] = sign_module(group)
    if n == 3:
        sigma, tau = group.generators
        std = GroupModule(group, 2, {
            sigma: IntMatrix.from_rows([[0, -1], [1, -1]]),
            tau: IntMatrix.from_rows([[0, 1], [1, 0]]),
        }, name="standard")
        catalog["standard"] = std
        catalog["standard(x)sign"] = std.tensor(catalog["sign"])
        catalog["standard(x)standard"] = std.tensor(std)
    # sign and standard are verified by their constructors, the rest here
    for name in ("trivial", "standard(x)sign", "standard(x)standard"):
        if name in catalog:
            catalog[name].verify_homomorphism()
    return MappingProxyType(catalog)


MODULE_ALIASES = {
    "trivial": "trivial",
    "z": "trivial",
    "sign": "sign",
    "s": "sign",
    "standard": "standard",
    "m": "standard",
    "standard(x)sign": "standard(x)sign",
    "standard⊗sign": "standard(x)sign",
    "ms": "standard(x)sign",
    "standard(x)standard": "standard(x)standard",
    "standard⊗standard": "standard(x)standard",
    "mm": "standard(x)standard",
}


def resolve_module_name(name):
    key = name.strip().lower()
    if key not in MODULE_ALIASES:
        raise KeyError(name)
    return MODULE_ALIASES[key]
