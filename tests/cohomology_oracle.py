"""Kernel-coordinates cohomology of a three-term complex (test oracle).

``ecomu3.abelian.cohomology_at`` reads the group off the rank of d_out and
the invariant factors of d_in.  This is the longer route it replaced, kept
as an independent check: take a kernel basis K of d_out from a Smith form,
write im(d_in) in the coordinates of K (exact, since the kernel lattice is
saturated and contains the image) and take the Smith form of the result.
"""

from ecomu3.abelian import AbelianGroup
from ecomu3.linalg import CompositionNonzero, IntMatrix, smith_normal_form


def cohomology_by_kernel_coordinates(d_in, d_out):
    """ker(d_out)/im(d_in), with d_out * d_in = 0 checked as in the program."""
    if d_in.cols and d_out.rows and not (d_out * d_in).is_zero():
        raise CompositionNonzero("d_out * d_in != 0")
    n = d_in.rows
    if n == 0:
        return AbelianGroup()
    if d_out.rows == 0:
        kernel = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    else:
        kernel = smith_normal_form(d_out).kernel_basis()
    k = len(kernel)
    if k == 0:
        return AbelianGroup()
    if d_in.cols == 0:
        return AbelianGroup(free_rank=k)
    ksnf = smith_normal_form(IntMatrix.from_columns(kernel, rows=n))
    cols = []
    for j in range(d_in.cols):
        c = ksnf.Uinv.apply(d_in.column(j))
        y = [0] * k
        for i, d in enumerate(ksnf.invariant_factors):
            if c[i] % d != 0:
                raise CompositionNonzero("image does not lie in the kernel lattice")
            y[i] = c[i] // d
        if any(c[len(ksnf.invariant_factors):]):
            raise CompositionNonzero("image does not lie in the kernel lattice")
        cols.append(ksnf.Vinv.apply(y))
    ysnf = smith_normal_form(IntMatrix.from_columns(cols, rows=k))
    return AbelianGroup.from_cyclic_orders(
        [0] * (k - ysnf.rank) + ysnf.invariant_factors)
