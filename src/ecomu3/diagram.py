"""Diagrams of graded F_p vector spaces over the subset poset, as data.

A diagram file records, for each poset object, the graded dimensions of a
space, and for each strict containment an F_p matrix per degree.  Everything
carries a provenance tag; the maps of the bundled diagrams are reconstructed
data constrained by documented pins (identities, injectivity, a coordinate
projection) and per-degree ranks, so the file also stores those constraint
records and :func:`validate` replays all of them before any limit
computation.

Matrix convention: the map along a -> b sends column vectors of the space at
a to the space at b, so its shape is dim_b(k) x dim_a(k) in degree k.
"""

from __future__ import annotations

import json
from importlib import resources

from .linalg import IntMatrix, modp_rank, modp_kernel_basis
from .poset import PosetSn


class FunctorialityViolation(RuntimeError):
    pass


class ConstraintViolation(RuntimeError):
    pass


class PosetDiagram:
    def __init__(self, prime, dims, maps, max_degree, provenance=None,
                 constraints=None, notes=None):
        self.poset = PosetSn(2)
        self.prime = prime
        self.max_degree = max_degree
        self.dims = {int(i): list(v) for i, v in dims.items()}
        for i in range(len(self.poset)):
            pad = max_degree + 1 - len(self.dims[i])
            if pad > 0:
                self.dims[i] = self.dims[i] + [0] * pad
        self.maps = maps      # {(a, b): {degree: IntMatrix}}
        self.provenance = provenance or {}
        self.constraints = constraints or {}
        self.notes = list(notes or [])

    def dim(self, obj, degree):
        if degree > self.max_degree:
            return 0
        return self.dims[obj][degree]

    def matrix(self, a, b, degree):
        m = self.maps.get((a, b), {}).get(degree)
        if m is None:
            return IntMatrix.zero(self.dim(b, degree), self.dim(a, degree))
        return m

    def arrow_name(self, a, b):
        return f"{self.poset.label(a)}->{self.poset.label(b)}"

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Shapes, functoriality in every degree, and all documented pins."""
        p = self.prime
        for (a, b), per_degree in self.maps.items():
            for k, m in per_degree.items():
                want = (self.dim(b, k), self.dim(a, k))
                if (m.rows, m.cols) != want:
                    raise FunctorialityViolation(
                        f"{self.arrow_name(a, b)} degree {k}: shape "
                        f"{(m.rows, m.cols)} != {want}")
        for (a, b, c) in self.poset.chains3:
            for k in range(self.max_degree + 1):
                if not commutes(self.matrix(a, b, k), self.matrix(b, c, k),
                                self.matrix(a, c, k), p):
                    raise FunctorialityViolation(
                        f"{self.arrow_name(a, b)} then {self.arrow_name(b, c)} "
                        f"!= {self.arrow_name(a, c)} in degree {k}")
        # the two middle objects (0,2) and (0,1,2) coincide, identity between
        if self.dims[4] != self.dims[6]:
            raise ConstraintViolation("objects (0,2) and (0,1,2) must agree")
        for k in range(self.max_degree + 1):
            if not equal_modp(self.matrix(4, 6, k),
                              IntMatrix.identity(self.dim(4, k)), p):
                raise ConstraintViolation(f"(0,2)->(0,1,2) is not the identity "
                                          f"in degree {k}")
        for key, pins in self.constraints.items():
            a, b, k = key
            m = self.matrix(a, b, k)
            for pin in pins:
                self._check_pin(a, b, k, m, pin)
        return True

    def _check_pin(self, a, b, k, m, pin):
        p = self.prime
        name = f"{self.arrow_name(a, b)} degree {k}"
        kind = pin["kind"]
        if kind == "rank":
            if modp_rank(m, p) != pin["value"]:
                raise ConstraintViolation(f"{name}: rank != {pin['value']}")
        elif kind == "injective":
            if modp_rank(m, p) != m.cols:
                raise ConstraintViolation(f"{name}: not injective")
        elif kind == "zero":
            if any(e % p for e in m.entries):
                raise ConstraintViolation(f"{name}: not zero")
        elif kind == "identity":
            if not equal_modp(m, IntMatrix.identity(m.rows), p):
                raise ConstraintViolation(f"{name}: not the identity")
        elif kind == "unit":
            if (m.rows, m.cols) != (1, 1) or m[0, 0] % p != 1:
                raise ConstraintViolation(f"{name}: not the unit map")
        elif kind == "first_coordinate_projection":
            want = IntMatrix.from_rows([[1] + [0] * (m.cols - 1)])
            if not equal_modp(m, want, p):
                raise ConstraintViolation(f"{name}: not the projection of the "
                                          "first coordinate")
        elif kind == "kernel_within":
            oa, ob = pin["of"]
            other = self.matrix(oa, ob, k)
            for v in modp_kernel_basis(m, p):
                if any(x % p for x in other.apply(v)):
                    raise ConstraintViolation(
                        f"{name}: kernel not within kernel of "
                        f"{self.arrow_name(oa, ob)}")
        else:
            raise ConstraintViolation(f"{name}: unknown pin {kind!r}")

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "version": 1,
            "prime": self.prime,
            "max_degree": self.max_degree,
            "dims": {str(i): self.dims[i] for i in sorted(self.dims)},
            "maps": [
                {"from": a, "to": b,
                 "degrees": {str(k): m.to_lists() for k, m in sorted(per.items())
                             if m.rows and m.cols}}
                for (a, b), per in sorted(self.maps.items())
            ],
            "constraints": [
                {"from": a, "to": b, "degree": k, "pins": pins}
                for (a, b, k), pins in sorted(self.constraints.items())
            ],
            "provenance": self.provenance,
            "notes": self.notes,
        }

    @classmethod
    def from_json(cls, obj):
        maps = {}
        for rec in obj["maps"]:
            per = {}
            for k, data in rec["degrees"].items():
                per[int(k)] = IntMatrix.from_int_rows(data)
            maps[(rec["from"], rec["to"])] = per
        constraints = {}
        for rec in obj.get("constraints", []):
            constraints[(rec["from"], rec["to"], rec["degree"])] = rec["pins"]
        return cls(obj["prime"], obj["dims"], maps, obj["max_degree"],
                   provenance=obj.get("provenance"), constraints=constraints,
                   notes=obj.get("notes"))


def load_bundled(prime):
    name = f"diagram_p{prime}.json"
    text = resources.files("ecomu3.data").joinpath(name).read_text()
    return PosetDiagram.from_json(json.loads(text))


def constant_diagram(prime, dim=1, max_degree=0):
    """The constant diagram F_p^dim with identity maps (a test fixture)."""
    poset = PosetSn(2)
    dims = {i: [dim] for i in range(len(poset))}
    maps = {}
    for (a, b) in poset.chains2:
        maps[(a, b)] = {0: IntMatrix.identity(dim)}
    return PosetDiagram(prime, dims, maps, max_degree)


def commutes(first, second, composite, p):
    """True iff second . first == composite over F_p.

    For a 3-chain a < b < c this compares the route a -> b -> c with the
    arrow a -> c; it is the functoriality check of :meth:`PosetDiagram.validate`
    and the complex check of :func:`ecomu3.limits.check_complex`.
    """
    return equal_modp(second * first, composite, p)


def equal_modp(a, b, p):
    if (a.rows, a.cols) != (b.rows, b.cols):
        return False
    return all((x - y) % p == 0 for x, y in zip(a.entries, b.entries))
