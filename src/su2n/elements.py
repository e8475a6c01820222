"""Elements of su(2,n) in explicit coordinates.

The group is realized as isometries of the indefinite Hermitian form

    <v|w> = v_1 conj(w_{n+2}) + v_2 conj(w_{n+1}) + sum_{i=3}^{n} v_i conj(w_i)
            + v_{n+1} conj(w_2) + v_{n+2} conj(w_1)

on C^{n+2}, so that A is positive diagonal and N is upper unitriangular.  An
element of the Lie algebra of AN is determined by the coordinates
(t1, t2, phi, x, y, eta, xx, yy) with t1, t2, xx, yy real, phi, eta complex,
and x, y row vectors in C^{n-2}; the matrix of such an element is

    [ t1   phi  x    eta   i*xx  ]
    [ 0    t2   y    i*yy  -eta~ ]
    [ 0    0    0    -y+   -x+   ]
    [ 0    0    0    -t2   -phi~ ]
    [ 0    0    0    0     -t1   ]

(~ conjugate, + conjugate transpose; middle block of size n-2).  The first two
rows determine the whole matrix.  `_coord_entries` holds this display as the
one table from coordinate columns to matrix entries.

The six coordinate slots phi, y, x, yy, eta, xx are the root spaces for
alpha, beta, alpha+beta, 2*beta, alpha+2*beta, 2*alpha+2*beta where
alpha(a) = a1/a2 and beta(a) = a2 on a = diag(a1, a2, 1, ..., 1/a2, 1/a1).

An `AlgebraElement` is its coordinate row as ints over one denominator, the
row form of `linalg`; Fractions are built only in coords() and the slot
views.  The exact kernels are fraction-free (the idea of Bareiss, Math.
Comp. 22, 1968): sums, scalings, parts, `bracket`, `exp_series`,
`exp_closed` and `delta_formula` compute on Python ints (Gaussian-integer
pairs for matrix entries): an element is reduced once (`from_ints`), a
matrix entry divided once; `int_bracket` gives the bracket unreduced.
The action of a on n lives once, in the a-part term of `_bracket_ints`,
which scales each root column by its root (`column_roots`): [t, w] is
`int_bracket(t, w)` for an element t of a.  A row becomes its matrix on
one int route: `_gaussian_of_row` reads each part of the display as one
signed coordinate (`_cell_table`), and `matrix_of` is that matrix over den,
one Fraction per distinct numerator (`_gaussian_matrix`).

A `GroupElement` is its sparse Gaussian-integer rows over one denominator.
`exp_closed`, `exp_series`, `identity` and `diagonal` build those rows;
products, inverse, det (Bareiss elimination over Z[i]) and the form check
run on them; `_element_of_rows` reads an a+n coordinate row back off them
(for `weyl.conjugate` and `element_from_matrix`).  QQi matrices appear only
at the edge: `.mat`, `matrix_of`, GroupElement(n, mat) and
`element_from_matrix`, every zero entry the shared `scalars.ZERO`.
`exp_closed` evaluates the closed display on the coordinate row and shares
no code with `exp_series`, which is its oracle: both read the element's ints.

The module is exact only and imports no numpy: the float exponential of a
coordinate vector (`float_line`) lives with the sampling curves in `lab`,
which reads `_coord_entries` for it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul
from typing import Optional

from .linalg import int_row
from .scalars import (
    ZERO,
    QQi,
    _make,
    as_exact_complex,
    as_exact_real,
    conj,
)


# the one Fraction zero of coords(), the slot views and the matrix views
_ZERO = Fraction(0)


class NotInAN(ValueError):
    """A matrix does not have the a+n coordinate pattern."""


# root name -> functional (c1, c2) meaning c1*t1 + c2*t2
ROOTS = {
    "alpha": (1, -1),
    "beta": (0, 1),
    "alpha+beta": (1, 0),
    "2beta": (0, 2),
    "alpha+2beta": (1, 1),
    "2alpha+2beta": (2, 0),
}

# root name -> coordinate slot it scales
ROOT_SLOT = {
    "alpha": "phi",
    "beta": "y",
    "alpha+beta": "x",
    "2beta": "yy",
    "alpha+2beta": "eta",
    "2alpha+2beta": "xx",
}

REDUCED_ROOTS = ("alpha", "beta", "alpha+beta", "alpha+2beta")

# Non-root functionals whose kernels appear as normalizer tori.
EXTENDED_FUNCTIONALS = {
    "alpha-beta": (1, -2),
    "2alpha+beta": (2, -1),
    "alpha-2beta": (1, -3),
}


def root_functional(name: str) -> tuple:
    if name in ROOTS:
        return ROOTS[name]
    return EXTENDED_FUNCTIONALS[name]


def root_value(root: str, t1, t2):
    c1, c2 = root_functional(root)
    return c1 * t1 + c2 * t2


def primitive_line(t1, t2) -> tuple:
    """Primitive integer generator (p, q) of the line through (t1, t2) != 0,
    signed so that p > 0, or p = 0 < q."""
    t1, t2 = Fraction(t1), Fraction(t2)
    den = t1.denominator * t2.denominator
    p, q = int(t1 * den), int(t2 * den)
    g = gcd(p, q)
    p, q = p // g, q // g
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return (p, q)


def kernel_line(root: str) -> tuple:
    """Primitive integer generator of ker(root) in (t1, t2) coordinates."""
    c1, c2 = root_functional(root)
    return primitive_line(-c2, c1)


def kernel_root(p, q) -> Optional[str]:
    """The first root, then extended functional, that kills (p, q); or None."""
    return next((nm for nm in (*ROOTS, *EXTENDED_FUNCTIONALS)
                 if root_value(nm, p, q) == 0), None)


class AlgebraElement:
    """Immutable element of a+n for SU(2,n) in the coordinates above.

    It is its coordinate row as ints over one denominator, the `linalg` row
    form: `n`, `ints`, a tuple of 4n ints in the `slot_columns` layout, and
    `den`, a positive int coprime to them, so the row is
    [a / den for a in ints] and equal elements have equal fields.  Sums,
    scalings, parts and brackets are computed on the ints (from_ints) and
    build no Fraction.  Fractions are built only at the edge: coords(), and
    the read-only slot views, phi, eta and the entries of x and y as
    Gaussian rationals, t1, t2, xx and yy as Fractions.  Float sampling
    works on np.array(u.coords(), dtype=float) instead (see lab.float_line).
    """

    __slots__ = ("n", "ints", "den")

    # Always "exact"; kept because bench/tracing.py names the exp_closed and
    # exp_series spans after the mode of their first argument.
    mode = "exact"

    def __init__(self, n, *, t1=0, t2=0, phi=0, x=None, y=None, eta=0, xx=0, yy=0):
        if n < 3:
            raise ValueError("n must be >= 3")
        d = n - 2
        if x is None:
            x = [0] * d
        if y is None:
            y = [0] * d
        if len(x) != d or len(y) != d:
            raise ValueError(f"x, y must have length n-2 = {d}")
        row = [as_exact_real(t1), as_exact_real(t2)]
        for z in (phi, *x, *y, eta):
            if type(z) is int:  # int_row reads it as it is
                row += (z, 0)
            else:
                z = as_exact_complex(z)
                row += (z.re, z.im)
        row += (as_exact_real(xx), as_exact_real(yy))
        ints, self.den = int_row(row)
        self.n, self.ints = n, tuple(ints)

    @staticmethod
    def from_ints(n, ints, den):
        """The element of the row [a / den for a in ints], 4n ints over a
        nonzero int den, held over its least positive denominator
        (ValueError for any other length or a zero den)."""
        if n < 3 or len(ints) != 4 * n or not den:
            raise ValueError(f"not a coordinate row for n = {n}: {len(ints)} ints over {den}")
        g = gcd(den, *ints) if den > 0 else -gcd(den, *ints)
        if g != 1:
            ints, den = [a // g for a in ints], den // g
        e = object.__new__(AlgebraElement)
        e.n, e.ints, e.den = n, tuple(ints), den
        return e

    # -- slot views ------------------------------------------------------------

    def _value(self, k):
        a = self.ints[k]
        return Fraction(a, self.den) if a else _ZERO

    def _complex(self, k):
        return _make(self._value(k), self._value(k + 1))

    t1 = property(lambda self: self._value(0))
    t2 = property(lambda self: self._value(1))
    phi = property(lambda self: self._complex(2))
    x = property(lambda self: tuple(map(self._complex, range(4, 2 * self.n, 2))))
    y = property(lambda self: tuple(map(self._complex, range(2 * self.n, 4 * self.n - 4, 2))))
    eta = property(lambda self: self._complex(4 * self.n - 4))
    xx = property(lambda self: self._value(-2))
    yy = property(lambda self: self._value(-1))

    # -- vector-space structure ----------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        den = lcm(self.den, other.den)
        fu, fv = den // self.den, den // other.den
        return AlgebraElement.from_ints(
            self.n, [a * fu + b * fv for a, b in zip(self.ints, other.ints)], den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        """Multiply by a real scalar (a float is read as its exact binary value)."""
        p, q = as_exact_real(c).as_integer_ratio()
        return AlgebraElement.from_ints(self.n, [p * a for a in self.ints], q * self.den)

    __rmul__ = scale
    __mul__ = scale

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.n, self.ints, self.den))

    def _check_compatible(self, other):
        if not isinstance(other, AlgebraElement):
            raise TypeError("expected AlgebraElement")
        if other.n != self.n:
            raise ValueError(f"size mismatch: n={self.n} vs n={other.n}")

    # -- structure -------------------------------------------------------------

    def is_nilpotent(self):
        return not self.ints[0] and not self.ints[1]

    def is_zero(self):
        return not any(self.ints)

    def a_part(self):
        return AlgebraElement.from_ints(
            self.n, self.ints[:2] + (0,) * (4 * self.n - 2), self.den)

    def nilpotent_part(self):
        return AlgebraElement.from_ints(self.n, (0, 0) + self.ints[2:], self.den)

    def coords(self):
        """Real coordinate vector of Fractions, [a / den for a in ints] as a
        new list.

        The layout is the one `slot_columns` describes.
        """
        den = self.den
        return [Fraction(a, den) if a else _ZERO for a in self.ints]

    @staticmethod
    def slot_columns(n) -> dict:
        """Slot name -> slice of its columns in coords().

        t is (t1, t2); phi, x, y, eta are (Re, Im) pairs per complex entry;
        xx and yy are one column each.
        """
        d = 2 * (n - 2)
        cols, start = {}, 0
        for name, width in (("t", 2), ("phi", 2), ("x", d), ("y", d),
                            ("eta", 2), ("xx", 1), ("yy", 1)):
            cols[name] = slice(start, start + width)
            start += width
        return cols

    @staticmethod
    def coord_dim(n):
        return AlgebraElement.slot_columns(n)["yy"].stop

    @staticmethod
    def from_coords(n, vec):
        """The element whose coords() is `vec`, a sequence of 4n exact reals
        (read by linalg.int_row; ValueError for any other length)."""
        if n < 3 or len(vec) != 4 * n:
            raise ValueError(f"not a coordinate row for n = {n}: {len(vec)} entries")
        return AlgebraElement.from_ints(
            n, *int_row([v if type(v) is Fraction else as_exact_real(v) for v in vec]))

    def root_component(self, root: str):
        """The root-space component as a new element (a-part dropped)."""
        sl = self.slot_columns(self.n)[ROOT_SLOT[root]]
        ints = [0] * (4 * self.n)
        ints[sl] = self.ints[sl]
        return AlgebraElement.from_ints(self.n, ints, self.den)

    def __repr__(self):
        parts = []
        for name in ("t1", "t2", "phi", "eta", "xx", "yy"):
            v = getattr(self, name)
            if v:
                parts.append(f"{name}={v}")
        if any(self.x):
            parts.append(f"x={list(self.x)}")
        if any(self.y):
            parts.append(f"y={list(self.y)}")
        return f"AlgebraElement(n={self.n}, {', '.join(parts) or '0'})"


@lru_cache(maxsize=None)
def _coord_entries(n) -> tuple:
    """For each coords() column c, the entries (i, j, re, im) of the matrix
    of the c-th coordinate unit vector: M[i][j] = re + i*im, each +-1 or
    +-i, read off the display above.  The matrix of a row is the sum of its
    columns' entries scaled by the row's values."""
    m = n + 2
    # (i, j) of each complex entry z of the display, then of its -conj(z)
    places = ([(0, 1, n, m - 1)] + [(0, 2 + k, 2 + k, m - 1) for k in range(n - 2)]
              + [(1, 2 + k, 2 + k, n) for k in range(n - 2)] + [(0, n, 1, m - 1)])
    table = [((0, 0, 1, 0), (m - 1, m - 1, -1, 0)), ((1, 1, 1, 0), (n, n, -1, 0))]
    for i, j, ci, cj in places:
        table += [((i, j, 1, 0), (ci, cj, -1, 0)), ((i, j, 0, 1), (ci, cj, 0, 1))]
    return tuple(table + [((0, m - 1, 0, 1),), ((1, n, 0, 1),)])


@lru_cache(maxsize=None)
def _cell_table(n) -> tuple:
    """The entries of the display that a coordinate fills, row by row in
    column order: cells[i] holds (j, rc, rs, ic, is_) for each such entry
    (i, j), with Re M[i][j] = rs * row[rc] and Im M[i][j] = is_ * row[ic]
    for the coordinate row of any element, each sign +-1, or 0 (and column
    0) where that part is always zero.  Every part of the display is one
    signed coordinate, so this reads _coord_entries as it is."""
    parts = {}
    for c, entries in enumerate(_coord_entries(n)):
        for i, j, a, b in entries:
            rc, rs, ic, is_ = parts.get((i, j), (0, 0, 0, 0))
            parts[i, j] = (c, a, ic, is_) if a else (rc, rs, c, b)
    return tuple(tuple((j, *parts[i, j]) for j in range(n + 2) if (i, j) in parts)
                 for i in range(n + 2))


def _gaussian_of_row(n, ints):
    """The matrix of the int coordinate row `ints`, in the sparse
    Gaussian-integer rows of `_gaussian_ints`, read from _cell_table."""
    out = []
    for cells in _cell_table(n):
        row = []
        for j, rc, rs, ic, is_ in cells:
            r, s = rs * ints[rc], is_ * ints[ic]
            if r or s:
                row.append((j, r, s))
        out.append(row)
    return out


def matrix_of(u: AlgebraElement):
    """The (n+2)x(n+2) matrix of an algebra element, nested lists of
    GaussianRationals: its `_gaussian_of_row` over u.den (_gaussian_matrix)."""
    return _gaussian_matrix(_gaussian_of_row(u.n, u.ints), u.den, u.n + 2)


def _matrix_element(u: AlgebraElement) -> "GroupElement":
    """matrix_of(u) held as a GroupElement, built on u's ints with no QQi
    entry in between, for the exact products of a commutator or a
    conjugation (the matrix is not in the group; only products are read)."""
    return GroupElement.from_rows(u.n, _gaussian_of_row(u.n, u.ints), u.den)


def element_from_matrix(M, n) -> AlgebraElement:
    """Read coordinates from an exact matrix (`_element_of_rows` on its
    Gaussian-integer rows); raises NotInAN on pattern mismatch."""
    return _element_of_rows(n, *_gaussian_ints(M, n + 2))


def _element_of_rows(n, rows, den) -> AlgebraElement:
    """The algebra element of the matrix (rows, den) of `_gaussian_ints`:
    each column's coordinate is read at its first entry in _coord_entries,
    and the whole matrix must then be that row's `_gaussian_of_row`.
    Raises NotInAN at the first entry (i, j), in row-major order, that breaks
    the a+n pattern."""
    entries = {(i, j): (r, s) for i, row in enumerate(rows) for j, r, s in row}
    ints = []
    for (i, j, a, b), *_ in _coord_entries(n):
        r, s = entries.get((i, j), (0, 0))
        ints.append(a * r + b * s)
    for i, (row, want) in enumerate(zip(rows, _gaussian_of_row(n, ints))):
        if row != want:
            j = min(j for j, _, _ in set(row) ^ set(want))
            raise NotInAN(f"entry ({i},{j}) breaks the a+n pattern")
    return AlgebraElement.from_ints(n, ints, den)


@lru_cache(maxsize=None)
def column_roots(n) -> tuple:
    """The root of each coords() column: the root whose space holds the
    column's slot (ROOT_SLOT), None for the a-part columns t1 and t2."""
    slot_root = {slot: root for root, slot in ROOT_SLOT.items()}
    return tuple(slot_root.get(slot) for slot, sl in AlgebraElement.slot_columns(n).items()
                 for _ in range(sl.start, sl.stop))


def bracket(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Lie bracket [u, v] in coordinates: int_bracket, over its least
    denominator."""
    return AlgebraElement.from_ints(u.n, *int_bracket(u, v))


def int_bracket(u: AlgebraElement, v: AlgebraElement) -> tuple:
    """The coords() row of [u, v] as (ints, du * dv): `_bracket_ints` on the
    rows (U, du) of u and (V, dv) of v.  It is not reduced, so a closure or
    normalizer test that only asks whether the bracket lies in a span
    (linalg.in_span) reads it as it is."""
    u._check_compatible(v)
    return _bracket_ints(u.n, u.ints, v.ints), u.den * v.den


def _bracket_ints(n, U, V) -> list:
    """The coords() row of [u, v] as ints over du * dv, from the rows
    U / du of u and V / dv of v.

    For nilpotent parts this is the closed-form slot computation

        x  = phi_u y_v - phi_v y_u
        eta = -<x_u, y_v> + <x_v, y_u> + i (phi_u yy_v - phi_v yy_u)
        yy = -2 Im <y_u, y_v>
        xx = -2 Im (<x_u, x_v> + phi_u conj(eta_v) - phi_v conj(eta_u))

    with <a, b> = sum_k a_k conj(b_k); a-parts act diagonally on the root
    slots (alpha+beta scales x by t1, etc.).  The result is always nilpotent
    since a is abelian and normalizes n.  It is evaluated fraction-free:
    every product is a Python int.
    """
    d = 2 * (n - 2)
    X, Y, E = 4, 4 + d, 4 + 2 * d  # first columns of x, y and eta
    out = [0] * (4 * n)
    pr_u, pi_u, pr_v, pi_v = U[2], U[3], V[2], V[3]
    yy_u, yy_v = U[E + 3], V[E + 3]
    eta_re = -(pi_u * yy_v - pi_v * yy_u)
    eta_im = pr_u * yy_v - pr_v * yy_u
    yy = xx = 0
    for k in range(0, d, 2):
        xr_u, xi_u, yr_u, yi_u = U[X + k], U[X + k + 1], U[Y + k], U[Y + k + 1]
        xr_v, xi_v, yr_v, yi_v = V[X + k], V[X + k + 1], V[Y + k], V[Y + k + 1]
        out[X + k] = pr_u * yr_v - pi_u * yi_v - pr_v * yr_u + pi_v * yi_u
        out[X + k + 1] = pr_u * yi_v + pi_u * yr_v - pr_v * yi_u - pi_v * yr_u
        eta_re += xr_v * yr_u + xi_v * yi_u - xr_u * yr_v - xi_u * yi_v
        eta_im += xi_v * yr_u - xr_v * yi_u - xi_u * yr_v + xr_u * yi_v
        yy += yi_u * yr_v - yr_u * yi_v
        xx += xi_u * xr_v - xr_u * xi_v
    xx += (pi_u * V[E] - pr_u * V[E + 1]) - (pi_v * U[E] - pr_v * U[E + 1])
    out[E], out[E + 1], out[E + 2], out[E + 3] = eta_re, eta_im, -2 * xx, -2 * yy
    # a-part action: [t_u, v] - [t_v, u], each root slot scaled by its root
    t1_u, t2_u, t1_v, t2_v = U[0], U[1], V[0], V[1]
    if t1_u or t2_u or t1_v or t2_v:
        value = {root: (c1 * t1_u + c2 * t2_u, c1 * t1_v + c2 * t2_v)
                 for root, (c1, c2) in ROOTS.items()}
        for c, root in enumerate(column_roots(n)):
            if root:
                r_u, r_v = value[root]
                out[c] += r_u * V[c] - r_v * U[c]
    return out


def _gaussian_ints(M, m):
    """(rows, den) for an m x m matrix M of Gaussian rationals: M[i][j] is
    (re + i im) / den for the (j, re, im) in rows[i], with re, im integers,
    and 0 where rows[i] has no entry j.  den is the lcm of the denominators."""
    parts, dens = [], set()
    for row in M[:m]:
        out = []
        for j, z in enumerate(row[:m]):
            if z is not ZERO:
                a, b = z.re.as_integer_ratio()
                c, d = z.im.as_integer_ratio()
                if a or c:
                    out.append((j, a, b, c, d))
                    dens.update((b, d))
        parts.append(out)
    den = lcm(*dens)
    return [[(j, a * (den // b), c * (den // d)) for j, a, b, c, d in row]
            for row in parts], den


def _gaussian_product(A, B, m):
    """A B for m x m Gaussian-integer matrices in the sparse rows of
    `_gaussian_ints`; only products of two nonzero entries are taken."""
    out = []
    for a_row in A:
        re_, im_ = [0] * m, [0] * m
        for k, ar, ai in a_row:
            for j, br, bi in B[k]:
                re_[j] += ar * br - ai * bi
                im_[j] += ar * bi + ai * br
        out.append([(j, r, i) for j, (r, i) in enumerate(zip(re_, im_)) if r or i])
    return out


def _gaussian_matrix(rows, den, m):
    """The m x m matrix of Gaussian rationals that (rows, den) stands for,
    its zero entries the shared ZERO.  Each distinct numerator's Fraction is
    built once and shared, the zero part the Fraction _ZERO."""
    fracs, out = {0: _ZERO}, []
    for row in rows:
        out_row = [ZERO] * m
        for j, r, i in row:
            fr = fracs.get(r)
            if fr is None:
                fr = fracs[r] = Fraction(r, den)
            fi = fracs.get(i)
            if fi is None:
                fi = fracs[i] = Fraction(i, den)
            out_row[j] = _make(fr, fi)
        out.append(out_row)
    return out


def exp_series(u: AlgebraElement) -> "GroupElement":
    """Exact matrix exponential by series; the oracle for exp_closed.

    n is nilpotent of step <= 4, so the series terminates at the fourth
    power.  Elements with an a-part have transcendental exponentials and are
    rejected.  With N = den M for the common denominator den of M, the sum
    I + sum_k M^k / k! is sum_k N^k den^(4-k) (24 / k!) over 24 den^4: the
    powers and the sum are taken over the Gaussian integers and divided once.
    Every entry equals the dense sum over QQi.
    """
    if not u.is_nilpotent():
        raise ValueError("exact exponentials need a nilpotent element")
    m, den = u.n + 2, u.den
    N = _gaussian_of_row(u.n, u.ints)
    acc = [{i: (24 * den ** 4, 0)} for i in range(m)]  # column -> (re, im), per row
    P = N
    for k in range(1, 5):
        if k > 1:
            P = _gaussian_product(P, N, m)
        w = den ** (4 - k) * (24 // factorial(k))
        for row_acc, row in zip(acc, P):
            for j, r, i in row:
                a, b = row_acc.get(j, (0, 0))
                row_acc[j] = (a + w * r, b + w * i)
    rows = [[(j, r, i) for j, (r, i) in sorted(row_acc.items()) if r or i] for row_acc in acc]
    return GroupElement.from_rows(u.n, rows, 24 * den ** 4)


def _slot_sums(n, U):
    """(|x|^2, |y|^2, Re <x, y>, Im <x, y>) on the int coordinate row U,
    with <x, y> = sum_k x_k conj(y_k)."""
    d = 2 * (n - 2)
    x, y = U[4:4 + d], U[4 + d:4 + 2 * d]
    return (sum(map(mul, x, x)), sum(map(mul, y, y)), sum(map(mul, x, y)),
            sum(map(mul, x[1::2], y[::2])) - sum(map(mul, x[::2], y[1::2])))


def _exp_display(n, U, D):
    """The entries of exp(u) that are not coordinates of u, per the general
    display, from u's row U / D in ints:

        x_row_k = x_k + phi y_k / 2
        e1n = eta - <x, y> / 2 + i phi yy / 2 - phi |y|^2 / 6
        e1m = -|x|^2 / 2 - Re(phi conj(eta)) + |phi|^2 |y|^2 / 24
              + i (xx - |phi|^2 yy / 6 + Im(conj(phi) <x, y>) / 3)
        e2n = i yy - |y|^2 / 2
        e2m = -conj(eta) - <y, x> / 2 - i conj(phi) yy / 2 + conj(phi) |y|^2 / 6
        mid_m_k = -conj(x_k) + conj(phi y_k) / 2

    Each entry is a Gaussian-integer pair (re, im) over 24 D^4: a monomial of
    degree k with coefficient c is weighted by 24 c D^(4-k).  Returns
    (x_row, e1n, e1m, e2n, e2m, mid_m), x_row and mid_m lists over k.
    """
    Y, E = 2 * n, 4 * n - 4  # first columns of y and eta
    pr, pi, er, ei, xx, yy = U[2], U[3], U[E], U[E + 1], U[E + 2], U[E + 3]
    c1, h2, s3 = 24 * D ** 3, 12 * D * D, 4 * D  # weights of 1, 1/2 and 1/6
    ax2, ay2, a, b = _slot_sums(n, U)
    aphi2 = pr * pr + pi * pi
    x_row, mid_m = [], []
    for k in range(0, Y - 4, 2):
        xr, xi, yr, yi = U[4 + k], U[5 + k], U[Y + k], U[Y + k + 1]
        qr, qi = h2 * (pr * yr - pi * yi), h2 * (pr * yi + pi * yr)  # phi y_k / 2
        x_row.append((c1 * xr + qr, c1 * xi + qi))
        mid_m.append((qr - c1 * xr, c1 * xi - qi))
    e1n = (c1 * er - h2 * (a + pi * yy) - s3 * pr * ay2,
           c1 * ei - h2 * (b - pr * yy) - s3 * pi * ay2)
    e1m = (aphi2 * ay2 - h2 * (ax2 + 2 * (pr * er + pi * ei)),
           c1 * xx - s3 * (aphi2 * yy - 2 * (pr * b - pi * a)))
    e2n = (-h2 * ay2, c1 * yy)
    e2m = (s3 * pr * ay2 - c1 * er - h2 * (a + pi * yy),
           c1 * ei + h2 * (b - pr * yy) - s3 * pi * ay2)
    return x_row, e1n, e1m, e2n, e2m, mid_m


def exp_closed(u: AlgebraElement) -> "GroupElement":
    """Exact closed-form exp for nilpotent elements.

    Implements the general display (`_exp_display`) on the int row of u and
    holds it as Gaussian-integer rows over 24 D^4; the entries phi, y and
    their negated conjugates are u's own coordinates on that scale.  The
    phi = 0 and y = 0 specializations are recomputed on the same integer
    scale and compared against it whenever they apply, as a structural
    self-check (they are distinct displayed formulas, not shortcuts).
    """
    if not u.is_nilpotent():
        raise ValueError("exp_closed needs a nilpotent element (t1 = t2 = 0)")
    n, m = u.n, u.n + 2
    U, D = u.ints, u.den
    parts = _exp_display(n, U, D)
    if not U[2] and not U[3]:
        _check_phi0_form(n, U, D, parts)
    if not any(U[2 * n:4 * n - 4]):
        _check_y0_form(n, U, D, parts)
    x_row, e1n, e1m, e2n, e2m, mid_m = parts
    den, c1, pr, pi = 24 * D ** 4, 24 * D ** 3, U[2], U[3]
    ys = [(c1 * U[k], c1 * U[k + 1]) for k in range(2 * n, 4 * n - 4, 2)]
    full = [[(0, den, 0), (1, c1 * pr, c1 * pi),
             *((2 + k, r, i) for k, (r, i) in enumerate(x_row)), (n, *e1n), (m - 1, *e1m)],
            [(1, den, 0), *((2 + k, r, i) for k, (r, i) in enumerate(ys)),
             (n, *e2n), (m - 1, *e2m)],
            *([(2 + k, den, 0), (n, -r, i), (m - 1, *mid_m[k])] for k, (r, i) in enumerate(ys)),
            [(n, den, 0), (m - 1, -c1 * pr, c1 * pi)],
            [(m - 1, den, 0)]]
    return GroupElement.from_rows(n, [[e for e in row if e[1] or e[2]] for row in full], den)


def _check_phi0_form(n, U, D, rows):
    """The phi = 0 display on the scale of `_exp_display`: x_row_k = x_k,
    e1n = eta - <x, y> / 2, e1m = i xx - |x|^2 / 2 and
    e2m = -conj(eta) - <y, x> / 2."""
    x_row, e1n, e1m, _, e2m, _ = rows
    E = 4 * n - 4
    er, ei, xx = U[E], U[E + 1], U[E + 2]
    c1, h2 = 24 * D ** 3, 12 * D * D
    ax2, _, a, b = _slot_sums(n, U)
    ok = x_row == [(c1 * U[k], c1 * U[k + 1]) for k in range(4, 2 * n, 2)]
    ok = ok and e1n == (c1 * er - h2 * a, c1 * ei - h2 * b)
    ok = ok and e1m == (-h2 * ax2, c1 * xx)
    ok = ok and e2m == (-c1 * er - h2 * a, c1 * ei + h2 * b)
    if not ok:
        raise AssertionError("phi=0 exponential display disagrees with general form")


def _check_y0_form(n, U, D, rows):
    """The y = 0 display on the scale of `_exp_display`: x_row_k = x_k,
    e1n = eta + i phi yy / 2, e1m = -|x|^2 / 2 - Re(phi conj(eta))
    + i (xx - |phi|^2 yy / 6), e2n = i yy and
    e2m = -conj(eta) - i conj(phi) yy / 2."""
    x_row, e1n, e1m, e2n, e2m, _ = rows
    E = 4 * n - 4
    pr, pi, er, ei, xx, yy = U[2], U[3], U[E], U[E + 1], U[E + 2], U[E + 3]
    c1, h2, s3 = 24 * D ** 3, 12 * D * D, 4 * D
    ax2 = _slot_sums(n, U)[0]
    ok = x_row == [(c1 * U[k], c1 * U[k + 1]) for k in range(4, 2 * n, 2)]
    ok = ok and e1n == (c1 * er - h2 * pi * yy, c1 * ei + h2 * pr * yy)
    ok = ok and e1m == (-h2 * (ax2 + 2 * (pr * er + pi * ei)),
                        c1 * xx - s3 * (pr * pr + pi * pi) * yy)
    ok = ok and e2n == (0, c1 * yy)
    ok = ok and e2m == (-c1 * er - h2 * pi * yy, c1 * ei - h2 * pr * yy)
    if not ok:
        raise AssertionError("y=0 exponential display disagrees with general form")


def delta_formula(u: AlgebraElement):
    """Delta(exp u), exactly, from the fully expanded coordinate formula

        Re = -|eta|^2 + xx yy - |x|^2 |y|^2 / 4 + |<x, y>|^2 / 4
             - |y|^2 Re(eta conj(phi)) / 6 - yy Im(<x, y> conj(phi)) / 6
             + yy^2 |phi|^2 / 12 - |y|^4 |phi|^2 / 144
        Im = yy |phi|^2 |y|^2 / 24 + Im(<x, y> conj(eta)) + xx |y|^2 / 2
             + yy |x|^2 / 2

    evaluated on u's int row U / D: Re over 144 D^6 and Im over
    24 D^5, a monomial of degree k with coefficient c weighted by
    144 c D^(6-k), resp. 24 c D^(5-k).
    """
    if not u.is_nilpotent():
        raise ValueError("delta_formula needs a nilpotent element (t1 = t2 = 0)")
    U, D = u.ints, u.den
    E = 4 * u.n - 4
    pr, pi, er, ei, xx, yy = U[2], U[3], U[E], U[E + 1], U[E + 2], U[E + 3]
    ax2, ay2, a, b = _slot_sums(u.n, U)
    aphi2 = pr * pr + pi * pi
    D2 = D * D
    re_part = (144 * D2 * D2 * (xx * yy - er * er - ei * ei)
               + 36 * D2 * (a * a + b * b - ax2 * ay2)
               - 24 * D2 * (ay2 * (er * pr + ei * pi) + yy * (b * pr - a * pi))
               + 12 * D2 * yy * yy * aphi2 - ay2 * ay2 * aphi2)
    im_part = yy * aphi2 * ay2 + 12 * D2 * (2 * (b * er - a * ei) + xx * ay2 + yy * ax2)
    zero = Fraction(0)
    return _make(Fraction(re_part, 144 * D2 ** 3) if re_part else zero,
                 Fraction(im_part, 24 * D2 * D2 * D) if im_part else zero)


def _form_swap(n):
    """The permutation J stands for: 0 <-> n+1 and 1 <-> n, the rest fixed."""
    m = n + 2
    sigma = list(range(m))
    sigma[0], sigma[m - 1], sigma[1], sigma[n] = m - 1, 0, n, 1
    return sigma


def gram_matrix(n):
    """Gram matrix J of the Hermitian form (J^2 = identity), the permutation
    matrix of _form_swap; one shared one, and ZERO."""
    one = QQi(1)
    return [[one if j == s else ZERO for j in range(n + 2)] for s in _form_swap(n)]


def form_value(v, w):
    """<v|w> for coordinate vectors of length n+2."""
    if len(v) != len(w):
        raise ValueError("length mismatch")
    m = len(v)
    n = m - 2
    total = v[0] * conj(w[m - 1]) + v[1] * conj(w[n])
    for i in range(2, n):
        total = total + v[i] * conj(w[i])
    total = total + v[n] * conj(w[1]) + v[m - 1] * conj(w[0])
    return total


def _least_den(rows, den):
    """(rows, den) over the least common denominator: the entries and den
    divided by their gcd, the form `_gaussian_ints` reads off a matrix."""
    g = gcd(den, *(p for row in rows for _, r, i in row for p in (r, i)))
    if g == 1:
        return rows, den
    return [[(j, r // g, i // g) for j, r, i in row] for row in rows], den // g


def _bareiss_det(rows, m):
    """det of the m x m Gaussian-integer matrix of the sparse rows `rows`,
    as (re, im), by fraction-free elimination (Bareiss, Math. Comp. 22,
    1968): step k replaces each entry (i, j) below and right of the pivot p
    by (p a_ij - a_ik a_kj) / q, q the previous pivot, a division that is
    exact in Z[i].  A row with a_ik = 0 is left as it is when p = q."""
    R = [[0] * m for _ in range(m)]
    I = [[0] * m for _ in range(m)]
    for row_re, row_im, row in zip(R, I, rows):
        for j, r, i in row:
            row_re[j], row_im[j] = r, i
    sign, qr, qi = 1, 1, 0
    for k in range(m):
        piv = next((i for i in range(k, m) if R[i][k] or I[i][k]), None)
        if piv is None:
            return 0, 0
        if piv != k:
            R[k], R[piv], I[k], I[piv], sign = R[piv], R[k], I[piv], I[k], -sign
        pr, pi, kr, ki = R[k][k], I[k][k], R[k], I[k]
        q2, same = qr * qr + qi * qi, pr == qr and pi == qi
        for row_re, row_im in zip(R[k + 1:], I[k + 1:]):
            fr, fi = row_re[k], row_im[k]
            if same and not (fr or fi):
                continue
            for j in range(k + 1, m):
                xr, xi = row_re[j], row_im[j]
                tr, ti = pr * xr - pi * xi, pr * xi + pi * xr
                if fr or fi:
                    tr -= fr * kr[j] - fi * ki[j]
                    ti -= fr * ki[j] + fi * kr[j]
                row_re[j] = (tr * qr + ti * qi) // q2
                row_im[j] = (ti * qr - tr * qi) // q2
        qr, qi = pr, pi
    return sign * qr, sign * qi


class GroupElement:
    """An exact (n+2)x(n+2) matrix preserving the Hermitian form, det 1.

    It is its sparse Gaussian-integer rows over their least common
    denominator, `rows` and `den` as `_gaussian_ints` reads them: entry
    (i, j) is (re + i im) / den for the (j, re, im) in rows[i], each row in
    column order, and 0 where rows[i] has no entry j.  It is built, multiplied,
    inverted and checked (`det`, `check_invariants`) on these ints.  `mat` is
    the read-only QQi view (nested lists, zeros the shared ZERO), built on
    first read and kept.  GroupElement(n, mat) reads the ints of an exact
    matrix once, at construction; from_rows takes them as they are.

    Floating-point group elements are plain (m, m) complex arrays (see
    lab.float_line, lab.exp_float and metrics).
    """

    __slots__ = ("n", "rows", "den", "_mat")

    # Always "exact"; kept because bench/tracing.py names the matmul span
    # after the mode of its first argument.
    mode = "exact"

    def __init__(self, n, mat):
        self.n, self._mat = n, None
        self.rows, self.den = _gaussian_ints(mat, n + 2)

    @staticmethod
    def from_rows(n, rows, den):
        """The element of the Gaussian-integer rows `rows` over `den` (each
        row in column order, with no zero entry), over their least
        denominator."""
        g = object.__new__(GroupElement)
        g.n, g._mat = n, None
        g.rows, g.den = _least_den(rows, den)
        return g

    @property
    def mat(self):
        if self._mat is None:
            self._mat = _gaussian_matrix(self.rows, self.den, self.n + 2)
        return self._mat

    @staticmethod
    def identity(n):
        return GroupElement.diagonal(n, 1, 1)

    @staticmethod
    def diagonal(n, a1, a2, mode="exact"):
        """diag(a1, a2, 1, ..., 1, 1/a2, 1/a1); a point of A when a1,a2 > 0.

        mode accepts only "exact"; the keyword stays because bench/workloads.py
        passes it.  The float chamber point is metrics.CartanPoint.matrix.
        """
        if mode != "exact":
            raise ValueError(f"group elements are exact, not {mode!r}")
        a1, a2 = as_exact_real(a1), as_exact_real(a2)
        ints, den = int_row([a1, a2] + [1] * (n - 2) + [1 / a2, 1 / a1])
        return GroupElement.from_rows(n, [[(i, v, 0)] for i, v in enumerate(ints)], den)

    def __matmul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("incompatible group elements")
        return GroupElement.from_rows(
            self.n, _gaussian_product(self.rows, other.rows, self.n + 2), self.den * other.den)

    def inverse(self):
        """g^{-1} = J g^dagger J, using g^dagger J g = J.  J is the
        permutation matrix of sigma (_form_swap), so the product is the
        entries of g conjugated and moved: (J g^dagger J)[i][j] =
        conj(g[sigma(j)][sigma(i)]), over the same denominator."""
        sigma, rows = _form_swap(self.n), self.rows
        out = [[] for _ in sigma]
        for j, s in enumerate(sigma):
            for k, r, i in rows[s]:
                out[sigma[k]].append((j, r, -i))
        return GroupElement.from_rows(self.n, out, self.den)

    def det(self):
        """det g = det N / den^m for the Gaussian-integer matrix N = den g
        (`_bareiss_det`)."""
        m, den = self.n + 2, self.den
        re_, im_ = _bareiss_det(self.rows, m)
        return _make(Fraction(re_, den ** m), Fraction(im_, den ** m))

    def check_invariants(self):
        """(g^dagger J g == J, det == 1), exactly, on N = den g: J N is N with
        its rows moved by sigma (_form_swap), and N^dagger J N must be
        den^2 J, whose row i is den^2 at column sigma(i)."""
        m, sigma = self.n + 2, _form_swap(self.n)
        rows, den = self.rows, self.den
        dagger = [[] for _ in rows]
        for k, row in enumerate(rows):
            for j, r, i in row:
                dagger[j].append((k, r, -i))
        lhs = _gaussian_product(dagger, [rows[s] for s in sigma], m)
        d2 = den * den
        for i, row in enumerate(lhs):
            if row != [(sigma[i], d2, 0)]:
                got = {j: (r, s) for j, r, s in row}
                j = next(j for j in range(m)
                         if got.get(j, (0, 0)) != ((d2, 0) if j == sigma[i] else (0, 0)))
                return False, f"form not preserved at ({i},{j})"
        if _bareiss_det(rows, m) != (den ** m, 0):
            return False, "determinant != 1"
        return True, ""

    def __repr__(self):
        return f"GroupElement(n={self.n})"


def delta(g: GroupElement):
    """det of the 2x2 block in rows 1,2 and columns n+1, n+2."""
    n = g.n
    a, b = g.mat[0][n], g.mat[0][n + 1]
    c, d = g.mat[1][n], g.mat[1][n + 1]
    return a * d - b * c
