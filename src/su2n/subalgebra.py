"""Basis-presented subalgebras of a+n with exact validation.

A Subalgebra stores an independent basis, never changed after construction,
and verifies bracket closure exactly on integers: the int echelon form of the
basis rows (linalg.echelon_ints, kept as `echelon` for every later span test
against h) and the int bracket of each pair (elements.int_bracket), tested
with linalg.in_span, so no Fraction is built.  An element is its row
(ints, den), the one row form of linalg, so rows() is the basis elements'
pairs, read from the basis and not kept beside it.  The exact classifiers
work on combinations of those rows (linalg.combine, on the frame that
nilclassify keeps for each subalgebra), and sampling reads them as the
float matrix np.array(h.coord_rows(), dtype=float).
"""

from __future__ import annotations

from . import linalg
from .elements import AlgebraElement, bracket, int_bracket
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
        """Reduce the basis rows once, keeping their int echelon form as
        `echelon` (the basis never changes), then test independence and the
        closure of each pair against it."""
        basis = self.basis
        self.echelon = echelon = linalg.echelon_ints(self.rows())
        if len(echelon[0]) != len(basis):
            raise NotIndependent("basis is linearly dependent over R")
        for i, u in enumerate(basis):
            for j, v in enumerate(basis[i + 1:], start=i + 1):
                if not linalg.in_span(echelon, int_bracket(u, v)[0]):
                    raise NotClosed(i, j)

    # -- structure ---------------------------------------------------------------

    @property
    def dim(self):
        return len(self.basis)

    def is_nilpotent(self):
        return all(b.is_nilpotent() for b in self.basis)

    def element(self, coeffs) -> AlgebraElement:
        """Linear combination of the basis with real coefficients, one per
        basis element (ValueError for any other number)."""
        coeffs = [c and as_exact_real(c) for c in coeffs]
        return AlgebraElement.from_ints(self.n, *linalg.combine(self.rows(), coeffs))

    def contains(self, u: AlgebraElement) -> bool:
        return linalg.in_span(self.echelon, u.ints)

    def coord_rows(self):
        """The coords() row of each basis element, as new lists."""
        return [b.coords() for b in self.basis]

    def rows(self):
        """The row (ints, den) of each basis element, as linalg reads rows."""
        return _rows(self.basis)

    def __repr__(self):
        return f"Subalgebra(n={self.n}, dim={self.dim})"


def _rows(basis):
    return [(b.ints, b.den) for b in basis]


def close_under_bracket(seed):
    """Grow a generating set to a bracket-closed independent basis.

    Used by the corpus generator; returns a Subalgebra.  Each candidate is
    tested on ints against the int echelon form of the basis so far, and a
    bracket is built as an element only when it joins the basis.
    """
    if not seed:
        raise SubalgebraError("empty seed")
    n = seed[0].n
    max_dim = AlgebraElement.coord_dim(n)
    basis = []
    echelon = ([], [])

    def add(u):
        nonlocal echelon
        basis.append(u)
        echelon = linalg.echelon_ints(_rows(basis))

    for s in seed:
        if not linalg.in_span(echelon, s.ints):
            add(s)
    # Each pass brackets, in order, the pairs i < j of the basis it starts
    # with, except those an earlier pass bracketed (j < done).  A bracket
    # once in the span stays there, so skipping them leaves the basis and
    # its order unchanged.
    done = 0
    while done < len(basis):
        k = len(basis)
        for i in range(k):
            for j in range(max(i + 1, done), k):
                u, v = basis[i], basis[j]
                if not linalg.in_span(echelon, int_bracket(u, v)[0]):
                    add(bracket(u, v))
                    if len(basis) > max_dim:
                        raise SubalgebraError("closure exceeded the ambient dimension")
        done = k
    return Subalgebra(basis)
