"""Basis-presented subalgebras of a+n with exact validation.

A Subalgebra stores an independent basis, verifies bracket closure exactly,
and caches the coordinate matrix: one coords() row per basis element.  The
exact classifiers work on combinations of those rows (nilclassify._Frame),
and sampling reads them as the float matrix np.array(h.coord_rows(),
dtype=float).
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .elements import AlgebraElement, bracket
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
        self._coord_rows = [b.coords() for b in basis]
        self._validate()

    # -- validation ------------------------------------------------------------

    def _validate(self):
        if linalg.rank(self._coord_rows) != len(self.basis):
            raise NotIndependent("basis is linearly dependent over R")
        for i, bi in enumerate(self.basis):
            for j in range(i + 1, len(self.basis)):
                if not self.contains(bracket(bi, self.basis[j])):
                    raise NotClosed(i, j)

    # -- structure ---------------------------------------------------------------

    @property
    def dim(self):
        return len(self.basis)

    def is_nilpotent(self):
        return all(b.is_nilpotent() for b in self.basis)

    def element(self, coeffs) -> AlgebraElement:
        """Linear combination of the basis with real coefficients."""
        out = [Fraction(0)] * len(self._coord_rows[0])
        for c, row in zip(coeffs, self._coord_rows):
            if c:
                c = as_exact_real(c)
                for k, v in enumerate(row):
                    if v:
                        out[k] += c * v
        return AlgebraElement.from_coords(self.n, out)

    def contains(self, u: AlgebraElement) -> bool:
        return linalg.span_contains(self._coord_rows, u.coords())

    def coord_rows(self):
        return [row[:] for row in self._coord_rows]

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
    rows = []

    def try_add(u):
        c = u.coords()
        if linalg.span_contains(rows, c):
            return False
        basis.append(u)
        rows.append(c)
        return True

    for s in seed:
        try_add(s)
    changed = True
    while changed:
        changed = False
        k = len(basis)
        for i in range(k):
            for j in range(i + 1, k):
                w = bracket(basis[i], basis[j])
                if not w.is_zero() and try_add(w):
                    changed = True
                    if len(basis) > max_dim:
                        raise SubalgebraError("closure exceeded the ambient dimension")
    return Subalgebra(basis)
