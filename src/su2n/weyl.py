"""Weyl reflections and adjoint conjugation.

The reflections are realized by fixed monomial matrices in SU(2,n):

  w_alpha : e1 <-> e2 and e_{n+1} <-> e_{n+2}   (two swaps, det 1)
  w_beta  : e2 -> i e_{n+1}, e_{n+1} -> i e2    (the i's fix both det and form)

Only the action on root spaces is contractual; the sign convention is an
internal choice and never exposed.  Ad(w) maps a+n into itself only when the
slots sent to negative roots vanish (phi for alpha; y, yy for beta) — the
caller gets NotInAN otherwise.
"""

from __future__ import annotations

from .elements import (
    AlgebraElement,
    GroupElement,
    element_from_matrix,
    matrix_of,
    _mat_mul,
)
from .scalars import QQi


def weyl_matrix(n: int, root: str) -> GroupElement:
    m = n + 2
    zero, one, i_ = QQi(0), QQi(1), QQi(0, 1)
    M = [[zero for _ in range(m)] for _ in range(m)]
    for k in range(m):
        M[k][k] = one
    if root == "alpha":
        M[0][0] = M[1][1] = M[n][n] = M[m - 1][m - 1] = zero
        M[0][1] = M[1][0] = one
        M[n][m - 1] = M[m - 1][n] = one
    elif root == "beta":
        M[1][1] = M[n][n] = zero
        M[1][n] = i_
        M[n][1] = i_
    else:
        raise ValueError("reflection implemented for the simple roots only")
    return GroupElement(n, M)


def conjugate(g: GroupElement, u: AlgebraElement) -> AlgebraElement:
    """Ad(g) u = g (matrix of u) g^{-1}, read back into coordinates.

    Raises NotInAN when the result leaves a+n; classifier call sites only
    use normalizing g for which closure holds.
    """
    m = u.n + 2
    res = _mat_mul(_mat_mul(g.mat, matrix_of(u), m), g.inverse().mat, m)
    return element_from_matrix(res, u.n)


def weyl_reflect(u: AlgebraElement, root: str) -> AlgebraElement:
    """Ad of the fixed reflection matrix for a simple root."""
    if root not in ("alpha", "beta"):
        raise ValueError("reflection implemented for alpha and beta only")
    return conjugate(weyl_matrix(u.n, root), u)
