"""Weyl reflections and adjoint conjugation.

The reflections are realized by fixed monomial matrices in SU(2,n):

  w_alpha : e1 <-> e2 and e_{n+1} <-> e_{n+2}   (two swaps, det 1)
  w_beta  : e2 -> i e_{n+1}, e_{n+1} -> i e2    (the i's fix both det and form)

Only the action on root spaces is contractual; the sign convention is an
internal choice and never exposed.  Ad(w) maps a+n into itself only when the
slots sent to negative roots vanish (phi for alpha; y, yy for beta) — the
caller gets NotInAN otherwise.

Both the reflections and Ad(g) u are computed on Gaussian-integer rows: the
matrix of u is built on u's int row, multiplied by g and g^{-1} as rows over
one denominator, and its coordinates are read back off those rows.
"""

from __future__ import annotations

from .elements import AlgebraElement, GroupElement, _element_of_rows, _matrix_element


def weyl_matrix(n: int, root: str) -> GroupElement:
    m = n + 2
    rows = [[(k, 1, 0)] for k in range(m)]
    if root == "alpha":
        rows[0], rows[1], rows[n], rows[m - 1] = rows[1], rows[0], rows[m - 1], rows[n]
    elif root == "beta":
        rows[1], rows[n] = [(n, 0, 1)], [(1, 0, 1)]
    else:
        raise ValueError("reflection implemented for the simple roots only")
    return GroupElement.from_rows(n, rows, 1)


def conjugate(g: GroupElement, u: AlgebraElement) -> AlgebraElement:
    """Ad(g) u = g (matrix of u) g^{-1}, read back into coordinates.

    Raises NotInAN when the result leaves a+n; classifier call sites only
    use normalizing g for which closure holds.
    """
    p = g @ _matrix_element(u) @ g.inverse()
    return _element_of_rows(u.n, p.rows, p.den)


def weyl_reflect(u: AlgebraElement, root: str) -> AlgebraElement:
    """Ad of the fixed reflection matrix for a simple root."""
    if root not in ("alpha", "beta"):
        raise ValueError("reflection implemented for alpha and beta only")
    return conjugate(weyl_matrix(u.n, root), u)
