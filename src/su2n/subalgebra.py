"""Basis-presented subalgebras of a+n with exact validation.

A Subalgebra stores an independent basis, verifies bracket closure exactly,
and caches the coordinate matrix and the central slot part

    z = { u in h : phi_u = 0 and x_u = y_u = 0 }  (intersected with n).

Bases are exact; sampling reads them as the float matrix
np.array(h.coord_rows(), dtype=float).
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
        self._z_basis = None

    # -- validation ------------------------------------------------------------

    def _validate(self):
        if linalg.rank(self._coord_rows) != len(self.basis):
            raise NotIndependent("basis is linearly dependent over R")
        struct = {}
        for i, bi in enumerate(self.basis):
            for j in range(i + 1, len(self.basis)):
                w = bracket(bi, self.basis[j])
                coeffs = linalg.in_span(self._coord_rows, w.coords())
                if coeffs is None:
                    raise NotClosed(i, j)
                struct[(i, j)] = coeffs
        self._structure = struct

    # -- structure ---------------------------------------------------------------

    @property
    def dim(self):
        return len(self.basis)

    def is_nilpotent(self):
        return all(b.is_nilpotent() for b in self.basis)

    def coords_of(self, coeffs) -> list:
        """coords() of the linear combination of the basis with real coefficients."""
        out = [Fraction(0)] * len(self._coord_rows[0])
        for c, row in zip(coeffs, self._coord_rows):
            if c:
                c = as_exact_real(c)
                for k, v in enumerate(row):
                    if v:
                        out[k] += c * v
        return out

    def element(self, coeffs) -> AlgebraElement:
        """Linear combination of the basis with real coefficients."""
        return AlgebraElement.from_coords(self.n, self.coords_of(coeffs))

    def contains(self, u: AlgebraElement) -> bool:
        return linalg.span_contains(self._coord_rows, u.coords())

    def coord_rows(self):
        return [row[:] for row in self._coord_rows]

    def structure_constants(self):
        return dict(self._structure)

    def z_part(self) -> list:
        """Basis (as AlgebraElements) of the central-slot part z.

        Exact kernel of the linear map u -> (phi_u, x_u, y_u) restricted to
        the nilpotent part of the span.
        """
        if self._z_basis is not None:
            return list(self._z_basis)
        slots = AlgebraElement.slot_columns(self.n)
        head = [slots[name] for name in ("t", "phi", "x", "y")]
        rows = [[v for s in head for v in row[s]] for row in self._coord_rows]
        # kernel over coefficients: t parts must vanish too (z lives in n)
        cols = len(rows[0])
        mat = [[rows[i][c] for i in range(len(rows))] for c in range(cols)]
        kern = linalg.kernel_basis(mat)
        self._z_basis = [self.element(k) for k in kern]
        return list(self._z_basis)

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
