"""Exact linear algebra over the rationals.

Everything the classifiers decide (kernels, ranks, memberships, quadratic-form
signatures) is computed here exactly, so classification answers are
independent of any floating tolerance.  Vectors are plain lists of Fractions,
matrices lists of rows.

The row reduction and the Gram matrices of fixed forms are fraction-free (the
idea of Bareiss, Math. Comp. 22, 1968): each row is scaled to Python ints by
the lcm of its denominators (int_row), the arithmetic runs on ints, and
Fractions are built only in the results.  The reduced row echelon form of a
matrix is unique, so it is the same value as Fraction elimination gives.

A span test row-reduces the spanning rows once (rref) and reduces each vector
against that echelon form (residual): the vector is in the span iff nothing
is left.  A caller with many vectors to test against one basis keeps the
echelon form and calls residual directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional, Sequence


Vec = list
Mat = list


def _frac_rows(rows) -> Mat:
    return [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]


def int_row(row):
    """(ints, den): row == [a / den for a in ints], den the lcm of the
    denominators of the entries of `row`, which are ints, Fractions or floats
    (a float read as its exact binary value)."""
    pairs = [x.as_integer_ratio() for x in row]
    den = lcm(*{d for _, d in pairs})
    return [a * (den // d) for a, d in pairs], den


def _primitive(row):
    """The int row divided by the gcd of its entries (a zero row as it is)."""
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def echelon_ints(rows):
    """(ints, pivots): the reduced echelon form of `rows` as primitive int
    rows, row k having its nonzero pivot entry at pivots[k] and zeros at the
    other pivots; rref divides row k by that entry.

    Fraction-free Gauss-Jordan: the rows are scaled to ints (int_row), and
    clearing column c of row i takes p * row_i - f * pivot_row with p the
    pivot and f the entry of row i, then divides by the gcd of the result.
    """
    m = [_primitive(int_row(row)[0]) for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                m[i] = _primitive([p * a - f * b for a, b in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).

    The entries of `rows` are exact rationals (ints, Fractions, floats read
    exactly); the rows returned are lists of Fractions.
    """
    ints, pivots = echelon_ints(rows)
    zero = Fraction(0)
    return [[Fraction(a, row[c]) if a else zero for a in row]
            for row, c in zip(ints, pivots)], pivots


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
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
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


def sparse_form(gram) -> tuple:
    """A symmetric rational matrix Q as form_gram reads it: (cols, entries,
    den), with cols the support of Q (the indices of its nonzero rows) and
    Q[cols[a]][cols[b]] == v / den for each (a, b, v) in entries, v a nonzero
    int and den the lcm of the denominators of Q."""
    cols = tuple(a for a, row in enumerate(gram) if any(row))
    k = len(cols)
    flat, den = int_row([gram[a][b] for a in cols for b in cols])
    return cols, tuple((i // k, i % k, v) for i, v in enumerate(flat) if v), den


def form_gram(rows, form) -> list:
    """The Gram matrix W Q W^T of a fixed quadratic form on the rows W of
    `rows`, Q given as sparse_form(Q).

    Each row is read on the support columns only and scaled to ints
    (int_row), so every product is an int and each nonzero entry is one
    Fraction over den times the two rows' denominators.
    """
    cols, entries, den = form
    ints, dens = [], []
    for row in rows:
        w, dw = int_row([row[c] for c in cols])
        ints.append(w)
        dens.append(dw)
    d, zero = len(rows), Fraction(0)
    gram = [[zero] * d for _ in range(d)]
    for i, w in enumerate(ints):
        qw = [0] * len(cols)
        for a, b, v in entries:
            if w[b]:
                qw[a] += v * w[b]
        for j in range(i, d):
            s = sum(a * b for a, b in zip(qw, ints[j]) if a)
            if s:
                gram[i][j] = gram[j][i] = Fraction(s, den * dens[i] * dens[j])
    return gram


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
