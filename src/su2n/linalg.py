"""Exact linear algebra over the rationals.

Everything the classifiers decide (kernels, ranks, memberships, quadratic-form
signatures) is computed here with Fraction arithmetic, so classification
answers are independent of any floating tolerance.  Vectors are plain lists of
Fractions, matrices lists of rows.

A span test row-reduces the spanning rows once (rref) and reduces each vector
against that echelon form (residual): the vector is in the span iff nothing
is left.  A caller with many vectors to test against one basis keeps the
echelon form and calls residual directly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence


Vec = list
Mat = list


def _frac_rows(rows) -> Mat:
    return [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = _frac_rows(rows)
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def combine(rows, coeffs) -> Vec:
    """The combination sum_i coeffs[i] rows[i], skipping zero coefficients
    and zero entries."""
    out = [Fraction(0)] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for k, v in enumerate(row):
                if v:
                    out[k] += c * v
    return out


def rank(rows) -> int:
    return len(rref(rows)[0])


def kernel_basis(rows) -> list:
    """Basis of the right kernel {v : rows @ v = 0}."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def residual(echelon, v) -> list:
    """v minus its combination of the rows of `echelon`, a pair (rows,
    pivots) from rref: zero iff v lies in their span.  Each rref row is 1 at
    its own pivot and 0 at the others, so one pass over the pivots clears
    them all."""
    red, pivots = echelon
    v = list(v)
    for row, pc in zip(red, pivots):
        f = v[pc]
        if f != 0:
            v = [a - f * b if b else a for a, b in zip(v, row)]
    return v


def span_contains(rows, v) -> bool:
    return not any(residual(rref(rows), v))


def subspace_leq(rows_a, rows_b) -> bool:
    """span(rows_a) <= span(rows_b), with rows_b row-reduced once."""
    echelon = rref(rows_b)
    return not any(any(residual(echelon, v)) for v in rows_a)


def subspace_eq(rows_a, rows_b) -> bool:
    return subspace_leq(rows_a, rows_b) and subspace_leq(rows_b, rows_a)


def solve_linear(rows, rhs) -> Optional[list]:
    """One solution x of rows @ x = rhs, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


# -- quadratic forms ----------------------------------------------------------

def gram_from_quadratic(q: Callable, vectors: Sequence) -> list:
    """Gram matrices of quadratic forms by polarization on `vectors`.

    `q` maps a vector to a list of Fractions, the values of one or more
    quadratic forms there; one Gram per entry of that list is returned, each
    evaluating q once at every vector and every pairwise sum.  With no
    vectors there is nothing to evaluate and the list is empty.
    """
    d = len(vectors)
    if not d:
        return []
    diag = [q(v) for v in vectors]
    grams = [[[Fraction(0)] * d for _ in range(d)] for _ in diag[0]]
    for i in range(d):
        for g, val in zip(grams, diag[i]):
            g[i][i] = val
        for j in range(i + 1, d):
            vals = q([a + b for a, b in zip(vectors[i], vectors[j])])
            for g, val, vi, vj in zip(grams, vals, diag[i], diag[j]):
                g[i][j] = g[j][i] = (val - vi - vj) / 2
    return grams


def signature(gram) -> tuple:
    """Exact signature (n_pos, n_neg, n_zero) of a symmetric rational matrix.

    Symmetric elimination with pivoting; when no nonzero diagonal remains an
    off-diagonal entry is folded in (char 0, so u+v repairs the diagonal).
    Also returns a congruence basis: vectors v with q(v) equal to each
    reported diagonal value (positive, negative, or zero).
    """
    g = _frac_rows(gram)
    d = len(g)
    basis = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    active = list(range(d))
    pos, neg = [], []
    while active:
        k = next((i for i in active if g[i][i] != 0), None)
        if k is None:
            pair = None
            for i in active:
                for j in active:
                    if i < j and g[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                break  # remaining block is zero: radical
            i, j = pair
            # fold row/col j into i: e_i <- e_i + e_j
            for c in range(d):
                g[i][c] += g[j][c]
            for r in range(d):
                g[r][i] += g[r][j]
            basis[i] = [a + b for a, b in zip(basis[i], basis[j])]
            k = i
        dkk = g[k][k]
        (pos if dkk > 0 else neg).append((dkk, basis[k][:]))
        active.remove(k)
        for r in active:
            if g[r][k] != 0:
                f = g[r][k] / dkk
                for c in range(d):
                    g[r][c] -= f * g[k][c]
                for c in range(d):
                    g[c][r] -= f * g[c][k]
                basis[r] = [a - f * b for a, b in zip(basis[r], basis[k])]
    radical = [basis[i][:] for i in active]
    return len(pos), len(neg), len(radical), {
        "positive": pos,
        "negative": neg,
        "radical": radical,
    }


def is_definite(gram) -> bool:
    """Anisotropic over R == definite (or the zero-dimensional form)."""
    p, n, z, _ = signature(gram)
    return z == 0 and (p == 0 or n == 0)


def gram_is_zero(gram) -> bool:
    return all(all(x == 0 for x in row) for row in gram)
