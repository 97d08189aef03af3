"""Finitely generated abelian groups in invariant-factor form, and the
cohomology of three-term complexes of free Z-modules.

An :class:`AbelianGroup` is the universal result currency of this package:
every group cohomology value, every spectral sequence entry and every graded
piece of a final answer is one of these.  The canonical form is a free rank
plus an ascending divisibility chain of invariant factors, so equality is
plain structural equality.

>>> print(AbelianGroup(free_rank=1))
Z
>>> print(AbelianGroup(torsion=[2, 6]))
Z/2 + Z/6
>>> cohomology_at(zero_map_into(5), zero_map_from(5))
AbelianGroup(free_rank=5, torsion=[])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

from .linalg import (CompositionNonzero, IntMatrix, ShapeMismatch,
                     invariant_factors, modp_rank)


@dataclass(frozen=True)
class AbelianGroup:
    free_rank: int = 0
    torsion: tuple = ()

    def __init__(self, free_rank=0, torsion=()):
        torsion = tuple(int(t) for t in torsion if int(t) != 1)
        for t in torsion:
            if t < 2:
                raise ValueError(f"invariant factor {t} < 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"broken divisibility chain {torsion}")
        object.__setattr__(self, "free_rank", int(free_rank))
        object.__setattr__(self, "torsion", torsion)

    @classmethod
    def from_cyclic_orders(cls, orders):
        """Canonicalize Z/n1 + Z/n2 + ... (0 meaning Z) into invariant factors."""
        free = sum(1 for n in orders if n == 0)
        primary = {}
        for n in orders:
            if n in (0, 1):
                continue
            for p, e in _factor(n).items():
                primary.setdefault(p, []).append(e)
        for p in primary:
            primary[p].sort(reverse=True)
        k = max((len(v) for v in primary.values()), default=0)
        factors = []
        for i in range(k):
            d = 1
            for p, exps in primary.items():
                if i < len(exps):
                    d *= p ** exps[i]
            factors.append(d)
        factors.reverse()
        return cls(free, factors)

    def direct_sum(self, other):
        return AbelianGroup.from_cyclic_orders(
            [0] * (self.free_rank + other.free_rank)
            + list(self.torsion) + list(other.torsion))

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def p_torsion_count(self, p):
        return sum(1 for t in self.torsion if t % p == 0)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["free_rank"], obj["torsion"])


def _factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def zero_map_from(n):
    """The zero map Z^n -> 0 (a 0 x n matrix)."""
    return IntMatrix.zero(0, n)


def zero_map_into(n):
    """The zero map 0 -> Z^n (an n x 0 matrix)."""
    return IntMatrix.zero(n, 0)


def cohomology_at(d_in, d_out):
    """ker(d_out)/im(d_in) for a three-term complex of free Z-modules.

    ``d_in``: C' -> C and ``d_out``: C -> C'' as integer matrices acting on
    column vectors, with d_out * d_in = 0.  The kernel of a 0 x n map is all
    of Z^n and the image of an n x 0 map is 0, so complexes may be terminated
    with the maps from :func:`zero_map_from` / :func:`zero_map_into`.
    """
    if d_in.rows != d_out.cols:
        raise ShapeMismatch(
            f"middle term mismatch: d_in lands in Z^{d_in.rows}, "
            f"d_out starts from Z^{d_out.cols}")
    if d_in.cols and d_out.rows and not (d_out * d_in).is_zero():
        raise CompositionNonzero("d_out * d_in != 0")
    return cohomology_from_factors(d_in.rows, len(invariant_factors(d_out)),
                                   invariant_factors(d_in))


def cohomology_from_factors(n, rank_out, factors_in):
    """ker(d_out)/im(d_in) on Z^n from rk d_out and the invariant factors of d_in.

    Needs d_out * d_in = 0, which the caller checks.  ker(d_out) is saturated
    in Z^n (x in Z^n with kx in the kernel is in it), so the whole torsion of
    Z^n/im(d_in) lies in ker(d_out)/im(d_in): the group is
    Z^(n - rk d_out - rk d_in) + (+) Z/d_i over the factors d_i > 1 of d_in.
    """
    return AbelianGroup(n - rank_out - len(factors_in), factors_in)


def cohomology_dim_modp(d_in, d_out, p):
    """dim_Fp ker(d_out mod p)/im(d_in mod p) of the reduced complex."""
    if d_in.rows != d_out.cols:
        raise ShapeMismatch("middle term mismatch")
    n = d_in.rows
    dim_ker = n - (modp_rank(d_out, p) if d_out.rows else 0)
    rk_im = modp_rank(d_in, p) if d_in.cols else 0
    return dim_ker - rk_im


def is_prime(p):
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


def p_primary(g, p):
    """Free part plus p-primary torsion: the group localized at p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    orders = [0] * g.free_rank
    for t in g.torsion:
        pk = 1
        while t % p == 0:
            pk *= p
            t //= p
        if pk > 1:
            orders.append(pk)
    return AbelianGroup.from_cyclic_orders(orders)


@dataclass(frozen=True)
class PoincareSeries:
    """Polynomial with nonnegative integer coefficients, indexed by degree."""

    coefficients: tuple = ()

    def __init__(self, coefficients=()):
        coefficients = list(int(c) for c in coefficients)
        while coefficients and coefficients[-1] == 0:
            coefficients.pop()
        if any(c < 0 for c in coefficients):
            raise ValueError("negative coefficient")
        object.__setattr__(self, "coefficients", tuple(coefficients))

    def __getitem__(self, d):
        return self.coefficients[d] if 0 <= d < len(self.coefficients) else 0

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __mul__(self, other):
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return PoincareSeries()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return PoincareSeries(out)

    def __add__(self, other):
        n = max(len(self.coefficients), len(other.coefficients))
        return PoincareSeries([self[i] + other[i] for i in range(n)])

    def inflate(self, k):
        """Substitute t -> t^k."""
        out = [0] * (k * len(self.coefficients))
        for i, c in enumerate(self.coefficients):
            out[k * i] = c
        return PoincareSeries(out)

    def total(self):
        return sum(self.coefficients)

    def is_palindromic(self, top=None):
        """Coefficient symmetry c_d == c_{top-d} (Poincare duality check)."""
        if top is None:
            top = self.degree
        return all(self[d] == self[top - d] for d in range(top + 1))

    def __str__(self):
        if not self.coefficients:
            return "0"
        terms = []
        for d, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            else:
                t = "t" if d == 1 else f"t^{d}"
                terms.append(t if c == 1 else f"{c}{t}")
        return " + ".join(terms)

    def to_json(self):
        return list(self.coefficients)


def mod_p_series(graded, p):
    """Universal-coefficient conversion of p-local integral cohomology.

    ``graded`` lists H^0, H^1, ... as :class:`AbelianGroup`; the mod-p Betti
    number in degree d is free rank plus p-torsion counts of H^d and H^{d+1}.
    """
    coeffs = []
    for d, g in enumerate(graded):
        nxt = graded[d + 1] if d + 1 < len(graded) else AbelianGroup()
        coeffs.append(g.free_rank + g.p_torsion_count(p) + nxt.p_torsion_count(p))
    return PoincareSeries(coeffs)
