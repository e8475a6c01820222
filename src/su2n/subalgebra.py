"""Basis-presented subalgebras of a+n with exact validation.

A Subalgebra stores an independent basis and verifies bracket closure
exactly (elements.bracket_rows on pairs of coordinate rows).  An element is
its coords() row, so the coordinate matrix, one row per basis element, is
read from the basis and not kept beside it.  The exact classifiers work on
combinations of those rows (linalg.combine, on the frame that nilclassify
keeps for each subalgebra), and sampling reads them as the float matrix
np.array(h.coord_rows(), dtype=float).
"""

from __future__ import annotations

from . import linalg
from .elements import AlgebraElement, bracket, bracket_rows
from .scalars import as_exact_real


class SubalgebraError(ValueError):
    pass


class NotClosed(SubalgebraError):
    def __init__(self, i, j):
        super().__init__(f"[b{i}, b{j}] is not in the span of the basis")
        self.pair = (i, j)


class NotIndependent(SubalgebraError):
    pass


class Subalgebra:
    def __init__(self, basis):
        if not basis:
            raise SubalgebraError("empty basis")
        n = basis[0].n
        if any(b.n != n for b in basis):
            raise SubalgebraError("inconsistent n across basis")
        self.n = n
        self.basis = list(basis)
        self._validate()

    # -- validation ------------------------------------------------------------

    def _validate(self):
        rows = self.coord_rows()
        echelon = linalg.rref(rows)
        if len(echelon[0]) != len(self.basis):
            raise NotIndependent("basis is linearly dependent over R")
        for i, ri in enumerate(rows):
            for j in range(i + 1, len(rows)):
                if any(linalg.residual(echelon, bracket_rows(self.n, ri, rows[j]))):
                    raise NotClosed(i, j)

    # -- structure ---------------------------------------------------------------

    @property
    def dim(self):
        return len(self.basis)

    def is_nilpotent(self):
        return all(b.is_nilpotent() for b in self.basis)

    def element(self, coeffs) -> AlgebraElement:
        """Linear combination of the basis with real coefficients."""
        coeffs = [c and as_exact_real(c) for c in coeffs]
        return AlgebraElement.from_coords(self.n, linalg.combine(self.coord_rows(), coeffs))

    def contains(self, u: AlgebraElement) -> bool:
        return linalg.span_contains(self.coord_rows(), u.coords())

    def coord_rows(self):
        """The coords() row of each basis element, as new lists."""
        return [b.coords() for b in self.basis]

    def __repr__(self):
        return f"Subalgebra(n={self.n}, dim={self.dim})"


def close_under_bracket(seed, max_dim=None):
    """Grow a generating set to a bracket-closed independent basis.

    Used by the corpus generator; returns a Subalgebra.
    """
    if not seed:
        raise SubalgebraError("empty seed")
    n = seed[0].n
    max_dim = max_dim or AlgebraElement.coord_dim(n)
    basis = []
    echelon = linalg.rref([])

    def try_add(u):
        nonlocal echelon
        if not any(linalg.residual(echelon, u.coords())):
            return False
        basis.append(u)
        echelon = linalg.rref([b.coords() for b in basis])
        return True

    for s in seed:
        try_add(s)
    # Each pass brackets, in order, the pairs i < j of the basis it starts
    # with, except those an earlier pass bracketed (j < done).  A bracket
    # once in the span stays there, so skipping them leaves the basis and
    # its order unchanged.
    done = 0
    while done < len(basis):
        k = len(basis)
        for i in range(k):
            for j in range(max(i + 1, done), k):
                w = bracket(basis[i], basis[j])
                if not w.is_zero() and try_add(w) and len(basis) > max_dim:
                    raise SubalgebraError("closure exceeded the ambient dimension")
        done = k
    return Subalgebra(basis)
