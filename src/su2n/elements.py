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
rows determine the whole matrix.

The six coordinate slots phi, y, x, yy, eta, xx are the root spaces for
alpha, beta, alpha+beta, 2*beta, alpha+2*beta, 2*alpha+2*beta where
alpha(a) = a1/a2 and beta(a) = a2 on a = diag(a1, a2, 1, ..., 1/a2, 1/a1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .scalars import (
    QQi,
    abs2,
    as_exact_complex,
    as_exact_real,
    conj,
    herm,
    im,
    re,
)


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


def kernel_line(root: str) -> tuple:
    """Primitive integer generator of ker(root) in (t1, t2) coordinates."""
    c1, c2 = root_functional(root)
    from math import gcd

    g = gcd(abs(c1), abs(c2))
    p, q = -c2 // g, c1 // g
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return (p, q)


class AlgebraElement:
    """Immutable element of a+n for SU(2,n) in the coordinates above.

    Entries are exact: Fractions and Gaussian rationals.  Floating-point
    sampling works on the coordinate vector np.array(u.coords(), dtype=float)
    instead (see exp_float).
    """

    __slots__ = ("n", "t1", "t2", "phi", "x", "y", "eta", "xx", "yy")

    # Always "exact"; kept because bench/tracing.py names the exp_closed and
    # exp_series spans after the mode of their first argument.
    mode = "exact"

    def __init__(self, n, *, t1=0, t2=0, phi=0, x=None, y=None, eta=0, xx=0, yy=0):
        if n < 3:
            raise ValueError("n must be >= 3")
        self.n = n
        d = n - 2
        if x is None:
            x = [0] * d
        if y is None:
            y = [0] * d
        if len(x) != d or len(y) != d:
            raise ValueError(f"x, y must have length n-2 = {d}")
        self.t1 = as_exact_real(t1)
        self.t2 = as_exact_real(t2)
        self.phi = as_exact_complex(phi)
        self.eta = as_exact_complex(eta)
        self.x = tuple(as_exact_complex(v) for v in x)
        self.y = tuple(as_exact_complex(v) for v in y)
        self.xx = as_exact_real(xx)
        self.yy = as_exact_real(yy)

    # -- vector-space structure ----------------------------------------------

    def _like(self, **kw):
        base = dict(t1=self.t1, t2=self.t2, phi=self.phi, x=self.x, y=self.y,
                    eta=self.eta, xx=self.xx, yy=self.yy)
        base.update(kw)
        return AlgebraElement(self.n, **base)

    def __add__(self, other):
        self._check_compatible(other)
        return self._like(
            t1=self.t1 + other.t1, t2=self.t2 + other.t2,
            phi=self.phi + other.phi,
            x=[a + b for a, b in zip(self.x, other.x)],
            y=[a + b for a, b in zip(self.y, other.y)],
            eta=self.eta + other.eta, xx=self.xx + other.xx, yy=self.yy + other.yy)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        """Multiply by a real scalar (a float is read as its exact binary value)."""
        c = as_exact_real(c)
        return self._like(
            t1=c * self.t1, t2=c * self.t2, phi=self.phi * c,
            x=[v * c for v in self.x], y=[v * c for v in self.y],
            eta=self.eta * c, xx=c * self.xx, yy=c * self.yy)

    __rmul__ = scale
    __mul__ = scale

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self.coords() == other.coords()

    def __hash__(self):
        return hash((self.n, tuple(self.coords())))

    def _check_compatible(self, other):
        if not isinstance(other, AlgebraElement):
            raise TypeError("expected AlgebraElement")
        if other.n != self.n:
            raise ValueError(f"size mismatch: n={self.n} vs n={other.n}")

    # -- structure -------------------------------------------------------------

    def is_nilpotent(self):
        return not self.t1 and not self.t2

    def is_zero(self):
        return not any(self.coords())

    def a_part(self):
        return AlgebraElement(self.n, t1=self.t1, t2=self.t2)

    def nilpotent_part(self):
        return self._like(t1=0, t2=0)

    def coords(self):
        """Real coordinate vector of Fractions.

        The layout is the one `slot_columns` describes.
        """
        out = [self.t1, self.t2, re(self.phi), im(self.phi)]
        for v in self.x:
            out += [re(v), im(v)]
        for v in self.y:
            out += [re(v), im(v)]
        out += [re(self.eta), im(self.eta), self.xx, self.yy]
        return out

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
        """The element whose coords() is the list `vec`."""
        cols = AlgebraElement.slot_columns(n)

        def pairs(name):
            v = vec[cols[name]]
            return [QQi(a, b) for a, b in zip(v[0::2], v[1::2])]

        t1, t2 = vec[cols["t"]]
        (phi,), (eta,) = pairs("phi"), pairs("eta")
        (xx,), (yy,) = vec[cols["xx"]], vec[cols["yy"]]
        return AlgebraElement(n, t1=t1, t2=t2, phi=phi, x=pairs("x"), y=pairs("y"),
                              eta=eta, xx=xx, yy=yy)

    def root_component(self, root: str):
        """The root-space component as a new element (a-part dropped)."""
        slot = ROOT_SLOT[root]
        zeroed = dict(t1=0, t2=0, phi=0, x=[0] * (self.n - 2),
                      y=[0] * (self.n - 2), eta=0, xx=0, yy=0)
        zeroed[slot] = getattr(self, slot)
        return AlgebraElement(self.n, **zeroed)

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


def root_project(u: AlgebraElement, root: str) -> AlgebraElement:
    """Project onto a single root space (nilpotent part only)."""
    return u.root_component(root)


def matrix_of(u: AlgebraElement):
    """The (n+2)x(n+2) matrix of an algebra element: nested lists of
    GaussianRationals.
    """
    n, m = u.n, u.n + 2
    i_ = QQi(0, 1)
    z = QQi(0)
    M = [[z for _ in range(m)] for _ in range(m)]
    M[0][0] = QQi(u.t1)
    M[1][1] = QQi(u.t2)
    M[n][n] = QQi(-u.t2)
    M[m - 1][m - 1] = QQi(-u.t1)
    M[0][1] = u.phi
    for j in range(n - 2):
        M[0][2 + j] = u.x[j]
        M[1][2 + j] = u.y[j]
        M[2 + j][n] = -conj(u.y[j])
        M[2 + j][m - 1] = -conj(u.x[j])
    M[0][n] = u.eta
    M[0][m - 1] = i_ * u.xx
    M[1][n] = i_ * u.yy
    M[1][m - 1] = -conj(u.eta)
    M[n][m - 1] = -conj(u.phi)
    return M


def element_from_matrix(M, n, check=True) -> AlgebraElement:
    """Read coordinates from an exact matrix; raises NotInAN on pattern mismatch."""
    m = n + 2
    if im(M[0][0]) != 0 or im(M[1][1]) != 0:
        raise NotInAN("complex diagonal")
    u = AlgebraElement(
        n, t1=re(M[0][0]), t2=re(M[1][1]), phi=M[0][1],
        x=[M[0][2 + j] for j in range(n - 2)],
        y=[M[1][2 + j] for j in range(n - 2)],
        eta=M[0][n], xx=im(M[0][m - 1]), yy=im(M[1][n]))
    if check:
        expected = matrix_of(u)
        for i in range(m):
            for j in range(m):
                if expected[i][j] != M[i][j]:
                    raise NotInAN(f"entry ({i},{j}) breaks the a+n pattern")
    return u


def bracket(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Lie bracket [u, v] in coordinates.

    For nilpotent parts this is the closed-form slot computation; a-parts act
    diagonally on the root slots (alpha+beta scales x by t1, etc.).  The
    result is always nilpotent since a is abelian and normalizes n.
    """
    u._check_compatible(v)
    two = 2
    # nilpotent x nilpotent part
    x_slot = [u.phi * yv - v.phi * yu for yu, yv in zip(u.y, v.y)]
    i_ = QQi(0, 1)
    eta_slot = (-herm(u.x, v.y) + herm(v.x, u.y)
                + i_ * (u.phi * v.yy) - i_ * (v.phi * u.yy))
    yy_slot = -two * im(herm(u.y, v.y))
    xx_slot = -two * im(herm(u.x, v.x) + u.phi * conj(v.eta) - v.phi * conj(u.eta))
    out = AlgebraElement(u.n, phi=0, x=x_slot, y=[0] * (u.n - 2), eta=eta_slot,
                         xx=xx_slot, yy=yy_slot)
    # a-part action
    if u.t1 or u.t2 or v.t1 or v.t2:
        def ad_a(t1, t2, w):
            return AlgebraElement(
                w.n, phi=w.phi * root_value("alpha", t1, t2),
                y=[root_value("beta", t1, t2) * c for c in w.y],
                x=[root_value("alpha+beta", t1, t2) * c for c in w.x],
                yy=root_value("2beta", t1, t2) * w.yy,
                eta=w.eta * root_value("alpha+2beta", t1, t2),
                xx=root_value("2alpha+2beta", t1, t2) * w.xx)
        out = out + ad_a(u.t1, u.t2, v.nilpotent_part()) - ad_a(v.t1, v.t2, u.nilpotent_part())
    return out


def _mat_mul(A, B, m):
    """Exact product of two m x m matrices of Gaussian rationals.

    Terms with an exact-zero factor are skipped: a+n matrices are upper
    triangular and mostly zero.  Every entry equals the dense sum
    `sum(A[i][k] * B[k][j] for k in range(m))` started at QQi(0).
    """
    out = []
    for i in range(m):
        row = [(k, a) for k, a in enumerate(A[i][:m]) if a]
        out_row = []
        for j in range(m):
            acc = QQi(0)
            for k, a in row:
                b = B[k][j]
                if b:
                    acc = acc + a * b
            out_row.append(acc)
        out.append(out_row)
    return out


def exp_series(u: AlgebraElement) -> "GroupElement":
    """Exact matrix exponential by series; the oracle for exp_closed.

    n is nilpotent of step <= 4, so the series terminates at the fourth
    power.  Elements with an a-part have transcendental exponentials and are
    rejected.
    """
    if not u.is_nilpotent():
        raise ValueError("exact exponentials need a nilpotent element")
    m = u.n + 2
    M = matrix_of(u)
    acc = [[QQi(1 if i == j else 0) for j in range(m)] for i in range(m)]
    P = [[QQi(1 if i == j else 0) for j in range(m)] for i in range(m)]
    fact = 1
    for k in range(1, 5):
        P = _mat_mul(P, M, m)
        fact *= k
        inv = Fraction(1, fact)
        acc = [[acc[i][j] + P[i][j] * inv for j in range(m)] for i in range(m)]
    return GroupElement(u.n, acc)


def _exp_rows_general(u):
    """First two rows (and derived data) of exp(u) per the general display."""
    i_ = QQi(0, 1)
    half, sixth, third, c24 = (Fraction(1, k) for k in (2, 6, 3, 24))
    xyd = herm(u.x, u.y)
    ax2 = sum((abs2(v) for v in u.x), Fraction(0))
    ay2 = sum((abs2(v) for v in u.y), Fraction(0))
    aphi2 = abs2(u.phi)
    x_row = [xv + half * (u.phi * yv) for xv, yv in zip(u.x, u.y)]
    e1n = u.eta - half * xyd + half * (i_ * (u.phi * u.yy)) - sixth * (u.phi * ay2)
    corner_re = -half * ax2 - re(u.phi * conj(u.eta)) + c24 * aphi2 * ay2
    corner_im = u.xx - sixth * aphi2 * u.yy + third * im(conj(u.phi) * xyd)
    e1m = corner_re + i_ * corner_im
    e2n = i_ * u.yy - half * ay2
    e2m = (-conj(u.eta) - half * herm(u.y, u.x)
           - half * (i_ * (conj(u.phi) * u.yy)) + sixth * (conj(u.phi) * ay2))
    mid_n = [-conj(yv) for yv in u.y]
    mid_m = [-conj(xv) + half * (conj(u.phi) * conj(yv)) for xv, yv in zip(u.x, u.y)]
    return x_row, e1n, e1m, e2n, e2m, mid_n, mid_m


def exp_closed(u: AlgebraElement) -> "GroupElement":
    """Exact closed-form exp for nilpotent elements.

    Implements the general display; the phi = 0 and y = 0 specializations are
    recomputed and compared against it whenever they apply, as a structural
    self-check (they are distinct displayed formulas, not shortcuts).
    """
    if not u.is_nilpotent():
        raise ValueError("exp_closed needs a nilpotent element (t1 = t2 = 0)")
    n, m = u.n, u.n + 2
    x_row, e1n, e1m, e2n, e2m, mid_n, mid_m = _exp_rows_general(u)
    if not u.phi:
        _check_phi0_form(u, x_row, e1n, e1m, e2n, e2m)
    if not any(u.y):
        _check_y0_form(u, x_row, e1n, e1m, e2n, e2m)
    M = [[QQi(1 if i == j else 0) for j in range(m)] for i in range(m)]
    M[0][1] = u.phi
    for j in range(n - 2):
        M[0][2 + j] = x_row[j]
        M[1][2 + j] = u.y[j]
        M[2 + j][n] = mid_n[j]
        M[2 + j][m - 1] = mid_m[j]
    M[0][n] = e1n
    M[0][m - 1] = e1m
    M[1][n] = e2n
    M[1][m - 1] = e2m
    M[n][m - 1] = -conj(u.phi)
    return GroupElement(u.n, M)


def _check_phi0_form(u, x_row, e1n, e1m, e2n, e2m):
    half = Fraction(1, 2)
    xyd = herm(u.x, u.y)
    ax2 = sum((abs2(v) for v in u.x), Fraction(0))
    ok = list(x_row) == list(u.x)
    ok = ok and e1n == u.eta - half * xyd
    ok = ok and e1m == QQi(0, 1) * u.xx - half * ax2
    ok = ok and e2m == -conj(u.eta) - half * herm(u.y, u.x)
    if not ok:
        raise AssertionError("phi=0 exponential display disagrees with general form")


def _check_y0_form(u, x_row, e1n, e1m, e2n, e2m):
    i_, half, sixth = QQi(0, 1), Fraction(1, 2), Fraction(1, 6)
    ax2 = sum((abs2(v) for v in u.x), Fraction(0))
    aphi2 = abs2(u.phi)
    ok = list(x_row) == list(u.x)
    ok = ok and e1n == u.eta + half * (i_ * (u.phi * u.yy))
    ok = ok and e1m == (-half * ax2 - re(u.phi * conj(u.eta))
                        + i_ * (u.xx - sixth * aphi2 * u.yy))
    ok = ok and e2n == i_ * u.yy
    ok = ok and e2m == -conj(u.eta) - half * (i_ * (conj(u.phi) * u.yy))
    if not ok:
        raise AssertionError("y=0 exponential display disagrees with general form")


@lru_cache(maxsize=None)
def _coord_basis(n):
    """(4n, m*m) complex: row i is matrix_of the i-th coordinate unit vector,
    flattened, so that c @ _coord_basis(n) is the matrix of a float c."""
    d = AlgebraElement.coord_dim(n)
    rows = []
    for i in range(d):
        unit = [0] * d
        unit[i] = 1
        u = AlgebraElement.from_coords(n, unit)
        rows.append(np.array(matrix_of(u), dtype=complex).ravel())
    B = np.array(rows)
    B.setflags(write=False)
    return B


def _nil_series(X, s):
    """sum_{k <= 4} s^k X^k / k! for a square matrix X with X^5 = 0.

    A float s gives one matrix, an array s the stack over its entries.  The
    weights multiply the powers entry by entry (no matrix product over the
    grid), so a float s gives bitwise the slice of a grid holding it.
    Raises ValueError unless X^4 X is exactly 0, which makes the truncated
    series the exponential; structural zeros keep that product exact in
    float.  A non-finite X gives a non-finite result, unchecked.
    """
    X2 = X @ X
    X3 = X2 @ X
    X4 = X2 @ X2
    if (X4 @ X).any() and np.isfinite(X4).all():
        raise ValueError("X^5 != 0: the exponential series does not end at X^4")
    t = np.reshape(np.asarray(s, dtype=float), (-1, 1, 1))
    t2 = t * t
    out = np.eye(len(X)) + t * X
    out += (t2 / 2) * X2
    out += (t2 * t / 6) * X3
    out += (t2 * t2 / 24) * X4
    return out if np.ndim(s) else out[0]


def exp_float(c, s=1.0):
    """exp(s c) in floating point for a nilpotent coordinate vector c.

    c is a real array in the coords() layout, e.g. np.array(u.coords(),
    dtype=float).  A float s gives the (m, m) complex matrix; an array s
    gives the (T, m, m) stack of exp(s_k c).  The matrix X of c satisfies
    X^5 = 0, so the Taylor series ends at X^4 / 4! and is exact ("Taylor
    series" in Moler and Van Loan, Nineteen Dubious Ways to Compute the
    Exponential of a Matrix, Twenty-Five Years Later, SIAM Review 45, 2003);
    X^5 = 0 is checked on every call.
    """
    c = np.asarray(c, dtype=float)
    n = len(c) // 4
    if c.ndim != 1 or n < 3 or len(c) != 4 * n:
        raise ValueError(f"not a coordinate vector: shape {c.shape}")
    if c[0] or c[1]:
        raise ValueError("exp_float needs a nilpotent element (t1 = t2 = 0)")
    m = n + 2
    return _nil_series((c @ _coord_basis(n)).reshape(m, m), s)


def exp_line(M, c):
    """exp(c M) for a float matrix M = D + N, D diagonal and N nilpotent with
    N D = D N: the matrix of a torus, graph or compatible one-parameter line.

    A float c gives the (m, m) matrix, an array c the (T, m, m) stack of
    exp(c_k M) = diag(exp(c_k D)) exp(c_k N), the second factor by the
    series of exp_float.  Raises ValueError unless N D - D N is exactly 0.
    """
    M = np.asarray(M, dtype=complex)
    d = M.diagonal()
    N = M - np.diag(d)
    if (N * d - d[:, None] * N).any():
        raise ValueError("the diagonal and nilpotent parts of M do not commute")
    return np.exp(np.multiply.outer(c, d))[..., None] * _nil_series(N, c)


def delta_formula(u: AlgebraElement):
    """Delta(exp u), exactly, from the fully expanded coordinate formula."""
    q = Fraction
    zero = Fraction(0)
    xyd = herm(u.x, u.y)
    ax2 = sum((abs2(v) for v in u.x), zero)
    ay2 = sum((abs2(v) for v in u.y), zero)
    aphi2 = abs2(u.phi)
    re_part = (-abs2(u.eta) + u.xx * u.yy - q(1, 4) * ax2 * ay2
               + q(1, 4) * abs2(xyd) - q(1, 6) * ay2 * re(u.eta * conj(u.phi))
               - q(1, 6) * u.yy * im(xyd * conj(u.phi))
               + q(1, 12) * u.yy * u.yy * aphi2
               - q(1, 144) * ay2 * ay2 * aphi2)
    im_part = (q(1, 24) * u.yy * aphi2 * ay2 + im(xyd * conj(u.eta))
               + q(1, 2) * u.xx * ay2 + q(1, 2) * u.yy * ax2)
    return re_part + QQi(0, 1) * im_part


def gram_matrix(n):
    """Gram matrix J of the Hermitian form (J^2 = identity)."""
    m = n + 2
    J = [[QQi(0) for _ in range(m)] for _ in range(m)]
    one = QQi(1)
    J[0][m - 1] = one
    J[1][n] = one
    for i in range(2, n):
        J[i][i] = one
    J[n][1] = one
    J[m - 1][0] = one
    return J


def form_value(v, w, n=None):
    """<v|w> for coordinate vectors of length n+2."""
    if len(v) != len(w):
        raise ValueError("length mismatch")
    m = len(v)
    n = m - 2 if n is None else n
    if m != n + 2:
        raise ValueError("vectors must have length n+2")
    total = v[0] * conj(w[m - 1]) + v[1] * conj(w[n])
    for i in range(2, n):
        total = total + v[i] * conj(w[i])
    total = total + v[n] * conj(w[1]) + v[m - 1] * conj(w[0])
    return total


class GroupElement:
    """An exact (n+2)x(n+2) matrix preserving the Hermitian form, det 1.

    Floating-point group elements are plain (m, m) complex arrays (see
    exp_float and metrics).
    """

    __slots__ = ("n", "mat")

    # Always "exact"; kept because bench/tracing.py names the matmul span
    # after the mode of its first argument.
    mode = "exact"

    def __init__(self, n, mat):
        self.n = n
        self.mat = [list(row) for row in mat]

    @staticmethod
    def identity(n):
        m = n + 2
        return GroupElement(n, [[QQi(1 if i == j else 0) for j in range(m)]
                                for i in range(m)])

    @staticmethod
    def diagonal(n, a1, a2, mode="exact"):
        """diag(a1, a2, 1, ..., 1, 1/a2, 1/a1); a point of A when a1,a2 > 0.

        mode accepts only "exact"; the keyword stays because bench/workloads.py
        passes it.  The float chamber point is metrics.CartanPoint.matrix.
        """
        if mode != "exact":
            raise ValueError(f"group elements are exact, not {mode!r}")
        m = n + 2
        a1, a2 = as_exact_real(a1), as_exact_real(a2)
        M = [[QQi(0) for _ in range(m)] for _ in range(m)]
        M[0][0] = QQi(a1)
        M[1][1] = QQi(a2)
        for i in range(2, n):
            M[i][i] = QQi(1)
        M[n][n] = QQi(1 / a2)
        M[m - 1][m - 1] = QQi(1 / a1)
        return GroupElement(n, M)

    def __matmul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("incompatible group elements")
        return GroupElement(self.n, _mat_mul(self.mat, other.mat, self.n + 2))

    def inverse(self):
        """g^{-1} = J g^dagger J, using g^dagger J g = J."""
        m = self.n + 2
        J = gram_matrix(self.n)
        gd = [[conj(self.mat[j][i]) for j in range(m)] for i in range(m)]
        return GroupElement(self.n, _mat_mul(_mat_mul(J, gd, m), J, m))

    def det(self):
        # fraction-free enough: plain elimination over the Gaussian rationals
        m = self.n + 2
        a = [row[:] for row in self.mat]
        det = QQi(1)
        for c in range(m):
            piv = next((r for r in range(c, m) if a[r][c]), None)
            if piv is None:
                return QQi(0)
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                det = -det
            det = det * a[c][c]
            inv = QQi(1) / a[c][c]
            for r in range(c + 1, m):
                if a[r][c]:
                    f = a[r][c] * inv
                    a[r] = [v - f * w for v, w in zip(a[r], a[c])]
        return det

    def check_invariants(self):
        """(g^dagger J g == J, det == 1), exactly."""
        m = self.n + 2
        J = gram_matrix(self.n)
        lhs = _mat_mul(_mat_mul([[conj(self.mat[j][i]) for j in range(m)]
                                 for i in range(m)], J, m), self.mat, m)
        for i in range(m):
            for j in range(m):
                if lhs[i][j] != J[i][j]:
                    return False, f"form not preserved at ({i},{j})"
        if self.det() != QQi(1):
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
