"""Exact cohomology computations for the total space of the classifying space
for commutativity in U(3).

The package is organized as five engines plus a CLI:

- :mod:`ecomu3.matrix`, :mod:`ecomu3.linalg`, :mod:`ecomu3.abelian` -- exact
  linear algebra over F_p and Z, Smith normal form, cohomology of three-term
  complexes.
- :mod:`ecomu3.groups`, :mod:`ecomu3.resolution` -- finite groups, integral
  representation modules, free resolutions over the group ring, group
  cohomology.
- :mod:`ecomu3.coinvariants`, :mod:`ecomu3.diagonal` -- the coinvariant
  algebra of the symmetric group (cohomology of the complete flag manifold),
  diagonal invariants and the rational cohomology ring.
- :mod:`ecomu3.serre`, :mod:`ecomu3.koszul` -- additive Serre spectral
  sequences over the classifying space of a finite group, and the
  multiplicative transgression engine for principal-bundle quotients.
- :mod:`ecomu3.poset`, :mod:`ecomu3.diagram`, :mod:`ecomu3.limits` -- higher
  limits of diagrams over the subset poset, and the homotopy-colimit
  assembly.

All values are immutable and all operations are pure functions of their
inputs, so independent degrees and primes may be evaluated concurrently
without coordination.
"""

__version__ = "0.1.0"
