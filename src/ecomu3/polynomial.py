"""Sparse polynomial arithmetic, shared by every engine that multiplies.

A polynomial is a dict from exponent tuples to nonzero coefficients (ints,
Fractions or residues); a coefficient that cancels is dropped.  This module
imports no other engine, so the coinvariant algebra, the Koszul base
quotient and the polynomial parser share it without compiling each other.

>>> poly_mul({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1})
{(2, 0): 1, (0, 2): -1}
>>> monomials_of_degree(2, 2)
[(2, 0), (1, 1), (0, 2)]
"""

from __future__ import annotations

from itertools import combinations_with_replacement


def monomials_of_degree(n, d):
    """Exponent tuples of total degree d in n variables, lexicographically
    decreasing."""
    out = []
    for picks in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in picks:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def poly_scale(c, a):
    return {e: c * v for e, v in a.items() if c * v}


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out
