"""Slot-by-slot references that the tests compare the package against."""

from su2n import AlgebraElement
from su2n.elements import ROOTS, column_roots
from su2n.scalars import as_exact_real


def ad_a(t1, t2, w: AlgebraElement) -> AlgebraElement:
    """[diag(t1, t2), w]: each root column of w scaled by the value of its
    root at (t1, t2); a is abelian, so the a-part of w drops out.  The
    package computes this action once, in the a-part term of the bracket."""
    t1, t2 = as_exact_real(t1), as_exact_real(t2)
    value = {root: c1 * t1 + c2 * t2 for root, (c1, c2) in ROOTS.items()}
    return AlgebraElement.from_coords(w.n, [value[root] * v if root else 0
                                            for v, root in zip(w.coords(), column_roots(w.n))])
