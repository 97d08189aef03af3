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
from functools import lru_cache
from importlib import resources

from .matrix import IntMatrix, modp_rank, prime_fault
from .poset import PosetSn


class FunctorialityViolation(RuntimeError):
    pass


class ConstraintViolation(RuntimeError):
    pass


class DiagramFormatError(ValueError):
    """Diagram JSON that does not have the shape :meth:`PosetDiagram.from_json` reads."""


class PosetDiagram:
    def __init__(self, prime, dims, maps, max_degree, provenance=None,
                 constraints=None, notes=None):
        self.poset = PosetSn(2)
        self.prime = prime
        self.max_degree = max_degree
        self.dims = {int(i): list(v) for i, v in dims.items()}
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
            return _zero(self.dim(b, degree), self.dim(a, degree))
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

        def fail(what):         # the arrow's name is formatted only here
            raise ConstraintViolation(
                f"{self.arrow_name(a, b)} degree {k}: {what}")

        kind = pin["kind"]
        if kind == "rank":
            if modp_rank(m, p) != pin["value"]:
                fail(f"rank != {pin['value']}")
        elif kind == "injective":
            if modp_rank(m, p) != m.cols:
                fail("not injective")
        elif kind == "identity":
            if not equal_modp(m, IntMatrix.identity(m.rows), p):
                fail("not the identity")
        elif kind == "unit":
            if (m.rows, m.cols) != (1, 1) or m[0, 0] % p != 1:
                fail("not the unit map")
        elif kind == "first_coordinate_projection":
            want = IntMatrix.from_rows([[1] + [0] * (m.cols - 1)])
            if not equal_modp(m, want, p):
                fail("not the projection of the first coordinate")
        else:
            fail(f"unknown pin {kind!r}")

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
        """The diagram of a parsed file; DiagramFormatError (or ValueError
        for a non-integer matrix entry) unless ``obj`` has every key and type
        this and :meth:`validate` read, and only records ``validate`` can
        check: a prime, maps and constraints on strict containments in
        degrees "0".."max_degree" (each written one way), a ``dims`` entry
        per degree, and no arrow, or arrow and degree, given twice."""
        def need(ok, what):
            if not ok:
                raise DiagramFormatError(what)

        def is_int(x):
            return type(x) is int          # JSON true/false are not indices

        poset = PosetSn(2)
        need(isinstance(obj, dict), "not a JSON object")
        need(is_int(obj.get("prime")), '"prime" must be an integer')
        fault = prime_fault(obj["prime"])
        need(fault is None, f"prime {fault}")
        top = obj.get("max_degree")
        need(is_int(top) and top >= 0, '"max_degree" must be an integer >= 0')
        dims = obj.get("dims")
        need(isinstance(dims, dict)
             and set(dims) == {str(i) for i in range(len(poset))},
             f'"dims" must have the keys "0".."{len(poset) - 1}"')
        for i, v in dims.items():
            need(isinstance(v, list) and all(is_int(e) and e >= 0 for e in v),
                 f'"dims" of object {i} must be a list of integers >= 0')
            need(len(v) == top + 1,
                 f'"dims" of object {i} must have max_degree + 1 entries')
        records = obj.get("maps")
        need(isinstance(records, list), '"maps" must be a list')
        degrees = {str(k): k for k in range(top + 1)}
        maps = {}
        for rec in records:
            need(isinstance(rec, dict) and is_int(rec.get("from"))
                 and is_int(rec.get("to"))
                 and (rec["from"], rec["to"]) in poset.chains2,
                 'each map needs "from" and "to", the indices of a strict '
                 'containment')
            need(isinstance(rec.get("degrees"), dict),
                 'each map needs "degrees", keyed by degrees "0", "1", ...')
            arrow = rec["from"], rec["to"]
            need(arrow not in maps, f"two maps along {arrow}")
            per = maps[arrow] = {}
            for k, data in rec["degrees"].items():
                need(k in degrees, f'map {arrow}: degree {k!r} is not one of '
                                   f'"0", "1", ..., "{top}"')
                per[degrees[k]] = IntMatrix.from_int_rows(data)
        records = obj.get("constraints", [])
        need(isinstance(records, list), '"constraints" must be a list')
        constraints = {}
        for rec in records:
            need(isinstance(rec, dict)
                 and all(is_int(rec.get(key)) for key in ("from", "to", "degree"))
                 and isinstance(rec.get("pins"), list)
                 and all(isinstance(pin, dict) and isinstance(pin.get("kind"), str)
                         for pin in rec["pins"]),
                 'each constraint needs integer "from", "to", "degree" and a '
                 'list of "pins" with a "kind"')
            key = rec["from"], rec["to"], rec["degree"]
            need(key[:2] in poset.chains2,
                 f"constraint {key}: from and to must be a strict containment")
            need(0 <= key[2] <= top,
                 f"constraint {key}: degree outside 0..max_degree")
            need(key not in constraints, f"two constraints at {key}")
            need(all(is_int(pin.get("value")) for pin in rec["pins"]
                     if pin["kind"] == "rank"), 'a "rank" pin needs a "value"')
            constraints[key] = rec["pins"]
        need(isinstance(obj.get("provenance") or {}, dict),
             '"provenance" must be an object')
        notes = obj.get("notes") or []
        need(isinstance(notes, list) and all(isinstance(n, str) for n in notes),
             '"notes" must be a list of strings')
        return cls(obj["prime"], dims, maps, top,
                   provenance=obj.get("provenance"), constraints=constraints,
                   notes=notes)


def load_bundled(prime):
    name = f"diagram_p{prime}.json"
    text = resources.files("ecomu3.data").joinpath(name).read_text()
    return PosetDiagram.from_json(json.loads(text))


def commutes(first, second, composite, p):
    """True iff second . first == composite over F_p.

    For a 3-chain a < b < c this compares the route a -> b -> c with the
    arrow a -> c; it is the functoriality check of :meth:`PosetDiagram.validate`
    and the complex check of :func:`ecomu3.limits.check_complex`.
    """
    return equal_modp(second * first, composite, p)


@lru_cache(maxsize=None)
def _zero(rows, cols):
    """The zero matrix of a missing map, one per shape (matrices are
    immutable, so the maps can share it)."""
    return IntMatrix.zero(rows, cols)


def equal_modp(a, b, p):
    if (a.rows, a.cols) != (b.rows, b.cols):
        return False
    return all((x - y) % p == 0 for x, y in zip(a.entries, b.entries))
