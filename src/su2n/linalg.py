"""Exact linear algebra over the rationals.

Everything the classifiers decide (kernels, ranks, memberships, quadratic-form
signatures) is computed here exactly, so classification answers are
independent of any floating tolerance.

A row is a pair (ints, den): the rational row [a / den for a in ints], with
den a positive int coprime to the ints.  It is the one form in which a
coordinate row is held, passed and computed on: an AlgebraElement is its
(ints, den), Subalgebra.rows() gives those pairs, and the row reduction, the
span tests, the kernels, the signatures, the combinations of rows and the
Gram matrices of fixed forms take pairs or int matrices and run on Python
ints, fraction-free (the idea of Bareiss, Math. Comp. 22, 1968).  int_row is
the one reader of rational entries into a row; combine returns a pair and
builds no Fraction.

A span test reduces the ints of each vector against the int echelon form of
the spanning rows (echelon_ints, in_span): the vector is in the span iff
nothing is left.  kernel_basis returns its kernel vectors as rows (ints,
den), the coefficients a caller combines rows by (combine(rows, *v)).  rref
and solve_linear take rational rows and give rational rows, for the callers
that read those values: the reduced row echelon form is unique, so rref is
the same value as Fraction elimination gives.

The classifier decides on these ints too: a row's ints are the rational row
times a positive number (its den), so every zero test, minor and kernel it
takes on them is the rational row's.  It hands kernel_basis a value matrix
only when the kernel is not read off the matrix (all of the rows when every
value is zero, none for one row and a nonzero value), and sums the forms of
a central parameter as ints (sum_forms) into one Gram.  form_gram gives a
Gram as an int matrix over one positive denominator, and signature
eliminates on ints: its congruence vectors, the witnesses it hands back, are
rows (ints, den), and only its diagonal values are Fractions.  Fractions are
built in those values, in gram_from_quadratic and in rref and solve_linear.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional, Sequence


def int_row(row):
    """The row (ints, den) of the rational entries of `row`, which are ints,
    Fractions or floats (a float read as its exact binary value): den is the
    lcm of their denominators, so it is coprime to the ints."""
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

    Fraction-free Gauss-Jordan on the rows' ints: clearing column c of row
    i takes p * row_i - f * pivot_row with p the pivot and f the entry of
    row i, then divides by the gcd of the result.
    """
    m = [_primitive(ints) for ints, _ in rows]
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


def in_span(echelon, ints) -> bool:
    """Whether the int row `ints` lies in the span of the rows of `echelon`,
    a pair (ints, pivots) from echelon_ints.  Each echelon row is nonzero at
    its own pivot and zero at the others, so clearing the pivots one by one,
    p * w - f * row, leaves zero iff the row is in the span."""
    rows, pivots = echelon
    for row, pc in zip(rows, pivots):
        f = ints[pc]
        if f:
            p = row[pc]
            ints = [p * a - f * b for a, b in zip(ints, row)]
    return not any(ints)


def span_contains(rows, v) -> bool:
    return in_span(echelon_ints(rows), v[0])


def subspace_leq(rows_a, rows_b) -> bool:
    """span(rows_a) <= span(rows_b), with rows_b row-reduced once."""
    echelon = echelon_ints(rows_b)
    return all(in_span(echelon, v[0]) for v in rows_a)


def subspace_eq(rows_a, rows_b) -> bool:
    return subspace_leq(rows_a, rows_b) and subspace_leq(rows_b, rows_a)


def kernel_basis(rows) -> list:
    """Basis of the right kernel {v : rows @ v = 0} of the rows (pairs), as
    rows (ints, den): one vector per free column fc of the echelon form, 1
    at fc, 0 at the other free columns and -row[fc] / row[pc] at the pivot pc
    of each echelon row, over the lcm of those pivots and then divided by the
    gcd with it."""
    if not rows:
        return []
    ncols = len(rows[0][0])
    ints, pivots = echelon_ints(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        hits = [(row[fc], row[pc], pc) for row, pc in zip(ints, pivots) if row[fc]]
        den = lcm(*(p for _, p, _ in hits))
        v = [0] * ncols
        v[fc] = den
        for f, p, pc in hits:
            v[pc] = -f * (den // p)
        g = gcd(*v)
        basis.append(([a // g for a in v], den // g) if g > 1 else (v, den))
    return basis


def combine(rows, coeffs, den=1) -> tuple:
    """The row sum_i (coeffs[i] / den) rows[i], one rational coefficient
    (int or Fraction) per row over the positive int den, skipping zero
    coefficients: a vector (ints, den) of kernel_basis or signature combines
    the rows as combine(rows, *v).  Summed on the rows' ints over one common
    denominator, then divided by the gcd with it.  ValueError when the
    numbers of coefficients and rows differ."""
    if len(coeffs) != len(rows):
        raise ValueError(f"{len(coeffs)} coefficients for {len(rows)} rows")
    terms = [(c.as_integer_ratio(), row) for c, row in zip(coeffs, rows) if c]
    common = lcm(*(cd * rd for (_, cd), (_, rd) in terms))
    out = [0] * len(rows[0][0])
    for (cn, cd), (ints, rd) in terms:
        f = cn * (common // (cd * rd))
        for k, a in enumerate(ints):
            if a:
                out[k] += f * a
    den *= common
    g = gcd(den, *out)
    if g > 1:
        out, den = [a // g for a in out], den // g
    return out, den


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns), for
    callers that read the rational rows: the a-rows of anclassify and
    solve_linear.

    The entries of `rows` are exact rationals (ints, Fractions, floats read
    exactly, each row by int_row); the rows returned are lists of Fractions.
    """
    ints, pivots = echelon_ints([int_row(row) for row in rows])
    zero = Fraction(0)
    return [[Fraction(a, row[c]) if a else zero for a in row]
            for row, c in zip(ints, pivots)], pivots


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

    `q` maps a vector to a list of ints or Fractions, the values of one or
    more quadratic forms there; one Gram per entry of that list is returned,
    each evaluating q once at every vector and every pairwise sum.  The
    diagonal holds those values as they are and each off-diagonal entry is
    one exact Fraction, also on int values.  With no vectors there is
    nothing to evaluate and the list is empty.
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
                g[i][j] = g[j][i] = Fraction(val - vi - vj, 2)
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


def sum_forms(terms, den) -> tuple:
    """sum_i c_i Q_i / den as a sparse_form, for the pairs (c_i, Q_i) of
    `terms`, each c_i an int and Q_i a sparse_form: the entries are summed
    as ints over the lcm of the forms' denominators."""
    lden = lcm(*(form[2] for _, form in terms))
    acc = {}
    for c, (cols, entries, fden) in terms:
        f = c * (lden // fden)
        for a, b, v in entries:
            key = cols[a], cols[b]
            acc[key] = acc.get(key, 0) + f * v
    cols = sorted({a for a, _ in acc})
    at = {c: k for k, c in enumerate(cols)}
    return tuple(cols), tuple((at[a], at[b], v) for (a, b), v in acc.items() if v), lden * den


def form_gram(rows, form) -> tuple:
    """The Gram matrix W Q W^T of a fixed quadratic form on the rows W of
    `rows` (pairs), Q given as sparse_form(Q), as (G, den): an int matrix G
    and a positive int den with W Q W^T = G / den.

    Each row's ints are read on the support columns only, over the lcm D of
    the rows' denominators, so every product is an int and den is the form's
    denominator times D^2.
    """
    cols, entries, fden = form
    common = lcm(*(dw for _, dw in rows))
    ints = [[w[c] for c in cols] if dw == common else [w[c] * (common // dw) for c in cols]
            for w, dw in rows]
    d = len(rows)
    gram = [[0] * d for _ in range(d)]
    for i, w in enumerate(ints):
        qw = [0] * len(cols)
        for a, b, v in entries:
            if w[b]:
                qw[a] += v * w[b]
        for j in range(i, d):
            gram[i][j] = gram[j][i] = sum(a * b for a, b in zip(qw, ints[j]) if a)
    return gram, fden * common * common


def signature(gram) -> tuple:
    """Exact signature (n_pos, n_neg, n_zero) of a symmetric rational matrix,
    a square list of rows of ints or Fractions.

    Symmetric elimination with pivoting; when no nonzero diagonal remains an
    off-diagonal entry is folded in (char 0, so u+v repairs the diagonal).
    Also returns a congruence basis: vectors v, as rows (ints, den), with
    q(v) equal to each reported diagonal value (positive, negative, or zero),
    each value a Fraction.

    Fraction-free: the matrix is read as ints over one denominator, and basis
    vector r is B[r] / s[r], s[r] > 0, with the int matrix G = B Q B^T kept
    on the active indices.  Eliminating with pivot k sets B[r] to a B[r] -
    b B[k] for (a, b) = (G[k][k], G[r][k]), both negated when G[k][k] < 0,
    and s[r] to a s[r]; folding j into i sets B[i] to (l / s[i]) B[i] +
    (l / s[j]) B[j] and s[i] to l = lcm(s[i], s[j]).  Row and column r of G
    take the same combination, and then B[r], s[r] and row and column r of
    G are divided by gcd(s[r], B[r]).  G is the rational matrix of the
    current vectors with row and column r scaled by s[r] > 0 (and all of it
    by the input's denominator), so its zero tests and diagonal signs, and
    with them every pivot and fold choice, are those of elimination on
    Fractions, and so are the vectors.
    """
    d = len(gram)
    flat, den0 = int_row([x for row in gram for x in row])
    g = [flat[i * d:(i + 1) * d] for i in range(d)]
    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    scale = [1] * d
    active = list(range(d))
    pos, neg = [], []

    def set_row(r, a, k, b, s):
        """Vector r becomes (a B[r] + b B[k]) / s, G kept equal to B Q B^T
        on the active indices; then reduced by its gcd."""
        gr, gk = g[r], g[k]
        grr = a * a * gr[r] + 2 * a * b * gr[k] + b * b * gk[k]
        for c in active:
            gr[c] = g[c][r] = a * gr[c] + b * gk[c]
        gr[r] = grr
        v = [a * x + b * y for x, y in zip(basis[r], basis[k])]
        f = gcd(s, *v)
        if f > 1:
            v, s = [x // f for x in v], s // f
            for c in active:
                gr[c] = g[c][r] = gr[c] // f
            gr[r] = grr // (f * f)
        basis[r], scale[r] = v, s

    while active:
        k = next((i for i in active if g[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in active for j in active if i < j and g[i][j]), None)
            if pair is None:
                break  # remaining block is zero: radical
            i, j = pair
            # fold j into i: e_i <- e_i + e_j
            l = lcm(scale[i], scale[j])
            set_row(i, l // scale[i], j, l // scale[j], l)
            k = i
        dkk = g[k][k]
        (pos if dkk > 0 else neg).append(
            (Fraction(dkk, den0 * scale[k] * scale[k]), (basis[k], scale[k])))
        active.remove(k)
        a, sign = abs(dkk), (1 if dkk > 0 else -1)
        for r in active:
            if g[r][k]:
                b = g[r][k]
                set_row(r, a, k, -sign * b, a * scale[r])
                g[k][r] = g[r][k] = 0
    radical = [(basis[i], scale[i]) for i in active]
    return len(pos), len(neg), len(radical), {
        "positive": pos,
        "negative": neg,
        "radical": radical,
    }


def is_definite(sig) -> bool:
    """Whether a form of signature sig (as signature gives it) is anisotropic
    over R: definite, or the zero-dimensional form."""
    p, n, z, _ = sig
    return z == 0 and (p == 0 or n == 0)


def gram_is_zero(gram) -> bool:
    return all(all(x == 0 for x in row) for row in gram)
