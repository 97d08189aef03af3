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
>>> from ecomu3.matrix import IntMatrix
>>> cohomology_at(IntMatrix.zero(5, 0), IntMatrix.zero(0, 5))
AbelianGroup(free_rank=5, torsion=())
"""

from __future__ import annotations

from .matrix import CompositionNonzero, ShapeMismatch, modp_rank, prime_fault


class FrozenRecord:
    """Immutable record: equality, hash and repr over its ``__slots__``.

    What ``@dataclass(frozen=True)`` would generate, without importing
    ``dataclasses``, which pulls in ``inspect`` and ``ast`` (about 1 MB of
    resident memory).  Subclasses list their fields in ``__slots__`` and set
    them with ``object.__setattr__`` in ``__init__``.
    """

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class AbelianGroup(FrozenRecord):
    __slots__ = ("free_rank", "torsion")

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


def cohomology_at(d_in, d_out):
    """ker(d_out)/im(d_in) for a three-term complex of free Z-modules.

    ``d_in``: C' -> C and ``d_out``: C -> C'' as integer matrices acting on
    column vectors, with d_out * d_in = 0.  The kernel of a 0 x n map is all
    of Z^n and the image of an n x 0 map is 0, so complexes may be terminated
    with the empty matrices ``IntMatrix.zero(0, n)`` and
    ``IntMatrix.zero(n, 0)``.
    """
    from .linalg import invariant_factors
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


def p_primary(g, p):
    """Free part plus p-primary torsion: the group localized at p.  Each
    invariant factor t becomes p^v_p(t); v_p grows along a chain."""
    if fault := prime_fault(p):
        raise ValueError(fault)
    parts = []
    for t in g.torsion:
        pk = 1
        while t % p == 0:
            pk *= p
            t //= p
        parts.append(pk)
    return AbelianGroup(g.free_rank, parts)


class PoincareSeries(FrozenRecord):
    """Polynomial with nonnegative integer coefficients, indexed by degree."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=()):
        coefficients = list(int(c) for c in coefficients)
        while coefficients and coefficients[-1] == 0:
            coefficients.pop()
        if any(c < 0 for c in coefficients):
            raise ValueError("negative coefficient")
        object.__setattr__(self, "coefficients", tuple(coefficients))

    def __getitem__(self, d):
        return self.coefficients[d] if 0 <= d < len(self.coefficients) else 0

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
