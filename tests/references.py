"""Slot-by-slot references that the tests compare the package against."""

from fractions import Fraction
from math import isqrt, lcm

import numpy as np

from su2n import AlgebraElement, lab, linalg
from su2n.elements import (
    ROOTS,
    NotInAN,
    _coord_entries,
    _slot_sums,
    bracket,
    column_roots,
    exp_closed,
    gram_matrix,
    root_value,
)
from su2n.metrics import rho_norm, sup_norm
from su2n.nilclassify import (
    _globally_dependent,
    _h_decomposes,
    _int_lambda,
    _kernel_d_lambda,
    _lambda_global,
    _minor_parts,
    _slot_subspace,
    _span_in_slots,
    _wedge_parts,
    _xx_axis_element,
    r_alpha,
)
from su2n.scalars import ZERO, QQi, _make, abs2, as_exact_real, conj, herm, im, re
from su2n.shapes import MuShape
from su2n.weyl import conjugate


def ad_a(t1, t2, w: AlgebraElement) -> AlgebraElement:
    """[diag(t1, t2), w]: each root column of w scaled by the value of its
    root at (t1, t2); a is abelian, so the a-part of w drops out.  The
    package computes this action once, in the a-part term of the bracket."""
    t1, t2 = as_exact_real(t1), as_exact_real(t2)
    value = {root: c1 * t1 + c2 * t2 for root, (c1, c2) in ROOTS.items()}
    return AlgebraElement.from_coords(w.n, [value[root] * v if root else 0
                                            for v, root in zip(w.coords(), column_roots(w.n))])


# -- the matrix of an element, read off its Fraction coordinates --------------
#
# The package builds matrix_of(u) from u's ints (elements._gaussian_of_row),
# one Fraction per distinct numerator.  This is the route it took before: each
# part of the display is one signed coordinate of coords(), negated where the
# display has -conj.

def entry_parts(n) -> tuple:
    """The entries of the display that a coordinate fills, as (i, j, rc, rs,
    ic, is_): Re M[i][j] = rs * row[rc] and Im M[i][j] = is_ * row[ic] for
    the coords() row of any element, each sign +-1, or 0 (and column 0)
    where that part is always zero."""
    parts = {}
    for c, entries in enumerate(_coord_entries(n)):
        for i, j, a, b in entries:
            rc, rs, ic, is_ = parts.get((i, j), (0, 0, 0, 0))
            parts[i, j] = (c, a, ic, is_) if a else (rc, rs, c, b)
    return tuple((i, j, *p) for (i, j), p in parts.items())


def reference_matrix_of(u: AlgebraElement):
    """The (n+2)x(n+2) QQi matrix of u, each part a signed coordinate of
    u.coords() (entry_parts), each zero entry the shared ZERO."""
    m, row, zero = u.n + 2, u.coords(), Fraction(0)
    out = [[ZERO] * m for _ in range(m)]
    for i, j, rc, rs, ic, is_ in entry_parts(u.n):
        r = row[rc] if rs > 0 else -row[rc] if rs else zero
        q = row[ic] if is_ > 0 else -row[ic] if is_ else zero
        if r or q:
            out[i][j] = _make(r, q)
    return out


# -- the Fraction-row form of an element ---------------------------------------
#
# An AlgebraElement holds its coordinate row as ints over one denominator.
# These are the same operations on the row as a tuple of 4n Fractions, as the
# package computed them when it held that tuple, with the bracket by its slot
# formula over QQi: the tests compare the two.

def row_views(n, row):
    """The slot views of the Fraction row: t1, t2, xx and yy as Fractions,
    phi and eta as QQi, x and y as tuples of QQi."""
    def pairs(start, stop):
        return tuple(QQi(row[k], row[k + 1]) for k in range(start, stop, 2))
    return {"t1": row[0], "t2": row[1], "phi": QQi(row[2], row[3]),
            "x": pairs(4, 2 * n), "y": pairs(2 * n, 4 * n - 4),
            "eta": QQi(row[-4], row[-3]), "xx": row[-2], "yy": row[-1]}


def row_sum(u, v):
    return tuple(a + b for a, b in zip(u, v))


def row_scale(c, u):
    return tuple(c * a for a in u)


def row_a_part(u):
    return u[:2] + (Fraction(0),) * (len(u) - 2)


def row_nilpotent_part(u):
    return (Fraction(0),) * 2 + u[2:]


def row_root_component(n, u, root):
    """The columns of the root's slot kept, every other column zero."""
    return tuple(a if r == root else Fraction(0) for a, r in zip(u, column_roots(n)))


def row_bracket(n, u, v):
    """[u, v] of the Fraction rows by the slot formula over QQi,

        x = phi_u y_v - phi_v y_u
        eta = -<x_u, y_v> + <x_v, y_u> + i (phi_u yy_v - phi_v yy_u)
        yy = -2 Im <y_u, y_v>
        xx = -2 Im (<x_u, x_v> + phi_u conj(eta_v) - phi_v conj(eta_u)),

    plus the a-parts' action [t_u, v] - [t_v, u] (ad_a on the rows)."""
    a, b = row_views(n, u), row_views(n, v)
    x = [a["phi"] * yv - b["phi"] * yu for yu, yv in zip(a["y"], b["y"])]
    eta = (herm(b["x"], a["y"]) - herm(a["x"], b["y"])
           + QQi(0, 1) * (a["phi"] * b["yy"] - b["phi"] * a["yy"]))
    yy = -2 * im(herm(a["y"], b["y"]))
    xx = -2 * im(herm(a["x"], b["x"]) + a["phi"] * conj(b["eta"]) - b["phi"] * conj(a["eta"]))
    row = [Fraction(0)] * 4 + [p for z in x for p in (re(z), im(z))]
    row += [Fraction(0)] * (2 * n - 4) + [re(eta), im(eta), xx, yy]
    roots = column_roots(n)
    value = {root: (c1 * u[0] + c2 * u[1], c1 * v[0] + c2 * v[1])
             for root, (c1, c2) in ROOTS.items()}
    return tuple(c + value[r][0] * vc - value[r][1] * uc if r else c
                 for c, r, uc, vc in zip(row, roots, u, v))


# -- the Fraction formulas of the classifier's int reads ----------------------
#
# nilclassify decides on the ints of each row (ints, den), a positive
# multiple of the rational row, and on the int lambda (lr, li, ld) = lambda * ld.  These are
# the same readings on the rational rows and a QQi lambda, as the classifier
# took them before it read ints: the tests compare the two.

def int_lambda(lam):
    """The int lambda (lr, li, ld) of a QQi: lambda = (lr + i li) / ld, with
    ld the lcm of the parts' denominators (so the three are coprime)."""
    (a, b), (c, d) = lam.re.as_integer_ratio(), lam.im.as_integer_ratio()
    ld = lcm(b, d)
    return a * (ld // b), c * (ld // d), ld


def fraction_rank_xy(n, u):
    """dim_C <x, y> of the rational row u, from its minor parts."""
    if not any(u[4:4 * n - 4]):
        return 0
    return 2 if any(_minor_parts(n, u)) else 1


def fraction_lambda(n, u):
    """<x, y> / |y|^2 of the rational row u as a QQi; None when y = 0."""
    _, ys, a, b = _slot_sums(n, u)
    return QQi(a / ys, b / ys) if ys else None


def fraction_x_minus_lam_y(n, lam, u):
    """x_u - lambda y_u of the rational row u at a QQi lambda, (Re, Im) per entry."""
    d = 2 * (n - 2)
    x, y = u[4:4 + d], u[4 + d:4 + 2 * d]
    lr, li = lam.re, lam.im
    return [v for k in range(0, d, 2)
            for v in (x[k] - (lr * y[k] - li * y[k + 1]),
                      x[k + 1] - (lr * y[k + 1] + li * y[k]))]


def fraction_d_lambda(n, u, lam):
    """xx + |lambda|^2 yy + 2 Im(lambda conj(eta)) of the rational row u."""
    er, ei, xx, yy = u[4 * n - 4:]
    lr, li = lam.re, lam.im
    return xx + (lr * lr + li * li) * yy + 2 * (li * er - lr * ei)


def fraction_phi_conj_eta(n, u, z):
    """phi_u conj(eta_z) of the rational rows u and z, as (Re, Im)."""
    (pr, pi), (er, ei) = u[2:4], z[4 * n - 4:4 * n - 2]
    return pr * er + pi * ei, pi * er - pr * ei


def fraction_pencil_roots(n, ci, cj):
    """Rational t where every (x; y) minor of the rational row ci + t cj
    vanishes: the roots of the first nonvanishing minor part, a t^2 + b t + c
    in Fractions, where every part vanishes, in the order of their set."""
    d = 2 * (n - 2)
    xi, yi, xj, yj = ci[4:4 + d], ci[4 + d:4 + 2 * d], cj[4:4 + d], cj[4 + d:4 + 2 * d]
    polys = [(a, b1 + b2, c) for a, b1, b2, c in zip(_minor_parts(n, cj), _wedge_parts(xi, yj),
                                                     _wedge_parts(xj, yi), _minor_parts(n, ci))
             if a or b1 + b2 or c]
    if not polys:
        return []
    roots = set()
    a, b, c = polys[0]
    if a == 0:
        if b != 0:
            roots.add(-c / b)
    else:
        disc = b * b - 4 * a * c
        if disc >= 0:
            rn, rd = isqrt(disc.numerator), isqrt(disc.denominator)
            if rn * rn == disc.numerator and rd * rd == disc.denominator:
                s = Fraction(rn, rd)
                roots.add((-b + s) / (2 * a))
                roots.add((-b - s) / (2 * a))
    return [t for t in roots if all(a * t * t + b * t + c == 0 for a, b, c in polys)]


def reference_kernel(values, within):
    """{u in span(within) : values(u) = 0} as the combinations of the rows
    (ints, den) of `within` by the kernel basis of the value matrix on the
    rational rows."""
    if not within:
        return []
    rational = [[Fraction(a, den) for a in ints] for ints, den in within]
    matrix = [list(col) for col in zip(*map(values, rational))] or [[0] * len(within)]
    return [linalg.combine(within, k)
            for k in fraction_kernel_basis([linalg.int_row(r) for r in matrix])]


# -- the Fraction kernel and signature ------------------------------------------
#
# linalg.kernel_basis and linalg.signature run on ints and give their vectors
# as rows (ints, den).  These are the same solvers on Fractions, as the
# package computed them before, with each vector a list of Fractions.

def fraction_kernel_basis(rows) -> list:
    """Basis of the right kernel of the rows (pairs), as lists of Fractions:
    one vector per free column fc of the echelon form, 1 at fc, 0 at the
    other free columns and -row[fc] / row[pc] at the pivot pc of each echelon
    row."""
    if not rows:
        return []
    ncols = len(rows[0][0])
    ints, pivots = linalg.echelon_ints(rows)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(ints, pivots):
            if row[fc]:
                v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def fraction_signature(gram) -> tuple:
    """Signature (n_pos, n_neg, n_zero) of a symmetric rational matrix by
    symmetric elimination on Fractions, with its congruence certificate:
    (value, vector) for each pivot and the radical's vectors, as lists of
    Fractions."""
    g = [[Fraction(x) for x in row] for row in gram]
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


# -- the QQi route of conjugation ---------------------------------------------
#
# weyl.conjugate computes g (matrix of u) g^{-1} on Gaussian-integer rows and
# reads the coordinates off those rows.  This is the same conjugation on the
# QQi view of g: dense QQi products, then the pattern read off the QQi
# matrix, as the package computed it before it kept group elements as ints.

def dense_product(A, B):
    """A B over QQi, every product and sum taken."""
    m = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(m)), QQi(0)) for j in range(m)]
            for i in range(m)]


def qqi_element_from_matrix(M, n):
    """The coordinates of a QQi matrix, each column's read at its first entry
    in _coord_entries; NotInAN at the first (i, j), row by row, where the
    matrix of that reading differs from M."""
    u = AlgebraElement.from_coords(n, [a * re(M[i][j]) + b * im(M[i][j])
                                       for (i, j, a, b), *_ in _coord_entries(n)])
    expected = reference_matrix_of(u)
    for i in range(n + 2):
        for j in range(n + 2):
            if expected[i][j] != M[i][j]:
                raise NotInAN(f"entry ({i},{j}) breaks the a+n pattern")
    return u


def qqi_conjugate(g, u):
    """Ad(g) u = g (matrix of u) g^{-1} over QQi, with g^{-1} = J g^dagger J."""
    m, G, J = u.n + 2, g.mat, gram_matrix(u.n)
    g_inv = dense_product(dense_product(J, [[conj(G[j][i]) for j in range(m)]
                                            for i in range(m)]), J)
    conjugated = dense_product(dense_product(G, reference_matrix_of(u)), g_inv)
    return qqi_element_from_matrix(conjugated, u.n)


# -- per-point sampling curves ------------------------------------------------
#
# lab evaluates a curve whose direction moves with t (lab._PerPoint) on a
# whole grid at once.  These are the per-point solvers it ran before: each
# maps a float t to the (m, m) matrix of its point, by one exp_float (two
# for a corner curve that clears Im g[0, n+1]) or one best-of-k scan.

def per_point_stack(fn, ts, m):
    """(stack, {index: error name}) of fn at each t of ts, one point at a
    time; a point whose solve raises ArithmeticError or ImplicitSolveFailed
    is a NaN slice."""
    out = np.full((len(ts), m, m), np.nan, dtype=complex)
    failed = {}
    for k, t in enumerate(ts):
        try:
            out[k] = fn(float(t))
        except (ArithmeticError, lab.ImplicitSolveFailed) as e:
            failed[k] = type(e).__name__
    return out, failed


def least_rho_ratio(g_u, z_line, p, factors):
    """Of g_u exp((p f) z) over the factors f, the candidate with the least
    rho/|h|, as min() over them takes it: the first least ratio, and a NaN
    ratio only in first place."""
    cands = g_u @ z_line.points(p * np.array(factors))
    ratio = rho_norm(cands) / np.maximum(sup_norm(cands), 1.0)
    return cands[0 if np.isnan(ratio[0]) else int(np.nanargmin(ratio))]


def extremal_54(u, z):
    """The type-11 extremal curve of the template evidence (u, z)."""
    eta_z = complex(z.eta)
    eta2 = abs2(eta_z)
    ys = sum(abs2(complex(v)) for v in u.y)
    r0 = (complex(u.phi) * eta_z.conjugate()).real
    ru = (complex(u.eta) * eta_z.conjugate()).real
    u_line, z_line = lab._commuting_lines(u, z)

    def lower(t):
        p0 = -(t ** 3 * ys * r0 / 12.0 + t * ru) / eta2
        return least_rho_ratio(u_line(t), z_line, p0, (1.0, 0.97, 1.03, 0.9, 1.1))
    return lower


def _square_3(els, n):
    u, z = lab._vec(els["u"]), lab._vec(els["z"])
    return lambda t: lab.exp_float(u * t + z * (t * t))


def _square_5(els, n):
    u, z = els["u"], els["z"]
    u1 = u - z.scale(u.xx)
    aphi2 = abs2(complex(u1.phi))
    yy = float(u1.yy)
    u1f, zf = lab._vec(u1), lab._vec(z)
    return lambda t: lab.exp_float(u1f * t + zf * ((t ** 3) * aphi2 * yy / 6.0))


def _corner(clear_im):
    def recipe(els, n):
        af, bf = lab._vec(els["u"]), lab._vec(els["v"])
        axis = lab._vec(AlgebraElement(n, xx=1))

        def curve(t):
            s = lab._root_nearest_zero(lab._re_corner(lab._slot_dot(af * t, bf, n)))
            e = af * t + bf * s
            g = lab.exp_float(e)
            return lab.exp_float(e + axis * -g[0, -1].imag) if clear_im else g
        return curve
    return recipe


def _linear_4(els, n):
    u, z = lab._vec(els["u"]), lab._vec(els["z"])

    def curve(t):
        dot = lab._slot_dot(u * t, z, n)
        redelta = (dot("xx", "yy") + dot("phi", "phi") * dot("yy", "yy") / 12
                   - dot("eta", "eta"))
        return lab.exp_float(u * t + z * lab._root_nearest_zero(redelta))
    return curve


def _linear_5(els, n):
    u, z = lab._linear_5_pair(els["u"], els["z"], n)
    u_line, z_line = lab._commuting_lines(u, z)
    eta2 = abs2(complex(z.eta))
    ys = sum(abs2(complex(v)) for v in u.y)
    r0 = re(complex(z.eta) * conj(complex(u.phi)))

    def curve(s):
        p_star = -(s ** 3) * ys * r0 / (12.0 * eta2)
        return least_rho_ratio(u_line(s), z_line, p_star, (1.0, 0.98, 1.02, 0.9, 1.1, 0.0))
    return curve


PER_POINT_WITNESSES = {
    ("square", 3): _square_3, ("square", 5): _square_5,
    ("square", 6): _corner(False), ("square", 7): _corner(True),
    ("linear", 4): _linear_4, ("linear", 5): _linear_5,
}


def per_point_witness(witness, n):
    """The per-point solver of a square 3, 5, 6, 7 or linear 4, 5 witness."""
    return PER_POINT_WITNESSES[witness.side, witness.condition_id](witness.elements, n)


# -- two deciders the classifier no longer holds ------------------------------
#
# Square condition 8 holds on no subalgebra, and linear condition 2's
# global-lambda branch returned only the row its pointwise branch returns.
# These are the two as the classifier held them; the tests check both claims.

def square_8(frame):
    """(u, v) rows of square condition 8 on h of frame `frame`, or None:
    dim 3, z = xx-axis = ker phi, u with y_u != 0, and v in ker(y, yy) with
    r_alpha(v) > 0."""
    if frame.d != 3:
        return None
    axis = _xx_axis_element(frame)
    if axis is None or not linalg.subspace_eq(frame.z_rows, [axis]):
        return None
    if not linalg.subspace_eq(frame.kernel(["phi"]), frame.z_rows):
        return None
    u = frame.nonzero_with(["y"], frame.full)
    if u is None:
        return None
    V = frame.kernel(["y", "yy"])
    p, _, _, cert = frame.signature(frame.fixed_gram(r_alpha, V))
    if p == 0:
        return None
    return u, linalg.combine(V, *cert["positive"][0][1])


def li2_global_lambda(frame):
    """The row of linear condition 2's global-lambda branch, or None: on
    W = ker phi with x, y C-dependent throughout and one lambda, read off
    its first row with y != 0, with x = lambda y on all of W, the first row
    with y != 0 of {D_lambda = 0}.  The branch ran after the y = 0 and
    x = 0 branches, so it returns None where either of them holds."""
    W = frame.kernel(["phi"])
    if not W:
        return None
    if (frame.nonzero_with(["x"], frame.kernel(["y", "yy"], W)) is not None
            or frame.nonzero_with(["y"], frame.kernel(["x", "xx"], W)) is not None):
        return None
    if not _globally_dependent(frame, W):
        return None
    wy = frame.nonzero_with(["y"], W)
    if wy is None:
        return None
    lam = _int_lambda(frame.n, wy)
    if not _lambda_global(frame, W, lam):
        return None
    return frame.nonzero_with(["y"], _kernel_d_lambda(frame, W, lam))


# -- the case lists as code ----------------------------------------------------
#
# nilclassify.SEMIDIRECT_CASES and anclassify._GRAPH_SHAPES hold their rows as
# data.  These are the rows as the package held them before: each semidirect
# condition a function of the frame and the template match, each graph shape
# a function of r.  The tests compare the rows the two pick.

def _has_lambda(match):
    """Type 3 with x = lambda y for a lambda != 0."""
    return bool(match.evidence.get("lambda"))


# (type_id, holds, root, case) in the order the rows are tried
SEMIDIRECT_CASES = [
    (1, lambda f, m: (_span_in_slots(f, f.full, ["yy"])
                      or _span_in_slots(f, f.full, ["xx"])), None, "semidirect-1a"),
    (1, lambda f, m: True, "alpha", "semidirect-1b"),
    (2, lambda f, m: _h_decomposes(f, [["x", "yy"], ["xx"]]), "alpha-beta", "semidirect-2"),
    (3, lambda f, m: (_has_lambda(m) and len(f.z_rows) < f.d
                      and _h_decomposes(f, [["y", "x"], ["yy", "eta", "xx"]])),
     "alpha", "semidirect-3"),
    (3, lambda f, m: not _has_lambda(m) and _h_decomposes(f, [["y"], ["yy"]]),
     None, "semidirect-4a"),
    (3, lambda f, m: not _has_lambda(m) and _h_decomposes(f, [["y", "eta"], ["yy"]]),
     "alpha+beta", "semidirect-4bi"),
    (3, lambda f, m: not _has_lambda(m) and _h_decomposes(f, [["y", "xx"], ["yy"]]),
     "2alpha+beta", "semidirect-4bii"),
    (3, lambda f, m: (not _has_lambda(m) and not f.z_rows
                      and _span_in_slots(f, f.full, ["y", "yy"])), "beta", "semidirect-4biii"),
    (4, lambda f, m: _h_decomposes(f, [["x"], ["xx", "eta", "yy"]]), None, "semidirect-5a"),
    (4, lambda f, m: _span_in_slots(f, f.full, ["x", "xx"]), "alpha+beta", "semidirect-5b"),
    (4, lambda f, m: _h_decomposes(f, [["phi", "x", "eta"], ["xx"]]), "beta", "semidirect-5c"),
    (5, lambda f, m: _h_decomposes(f, [["phi", "yy"], ["x"]]), "alpha-2beta", "semidirect-6"),
    (6, lambda f, m: _span_in_slots(f, f.full, ["eta"]), None, "semidirect-7a"),
    (6, lambda f, m: _h_decomposes(f, [["y", "x"], ["yy", "eta", "xx"]]),
     "alpha", "semidirect-7b"),
    (7, lambda f, m: _h_decomposes(f, [["x", "yy"], ["eta"]]), "alpha-beta", "semidirect-8x"),
    (7, lambda f, m: _h_decomposes(f, [["y", "xx"], ["eta"]]), "2alpha+beta", "semidirect-8y"),
    (8, lambda f, m: (_h_decomposes(f, [["phi", "y"], ["x", "yy"]])
                      and bool(_slot_subspace(f, ["phi", "y"]))), "alpha-beta", "semidirect-9"),
    (9, lambda f, m: _h_decomposes(f, [["phi", "y"], ["xx"]]), "alpha-beta", "semidirect-10"),
    (10, lambda f, m: _span_in_slots(f, f.full, ["phi"]), None, "semidirect-11a"),
    (10, lambda f, m: _span_in_slots(f, f.full, ["phi", "x", "eta"]), "beta", "semidirect-11b"),
    (10, lambda f, m: _span_in_slots(f, f.full, ["phi", "xx"]), "alpha+2beta", "semidirect-11c"),
]


def semidirect_case(frame, match):
    """(root, case) of the first row that h, of frame `frame` and template
    match `match`, satisfies, or None."""
    return next(((root, case) for type_id, holds, root, case in SEMIDIRECT_CASES
                 if type_id == match.type_id and holds(frame, match)), None)


# the graph cases for a simple omega, keyed by (omega, sigma)
GRAPH_SHAPES = {
    ("alpha", "alpha+beta"): lambda r: MuShape.band(1, 2, log_hi=-1, provenance="graph-1"),
    ("alpha", "alpha+2beta"): lambda r: MuShape.band(2, 2, log_lo=-2, provenance="graph-2"),
    ("beta", "alpha+2beta"): lambda r: MuShape.band(
        1, 2, log_lo=Fraction(r, 2), provenance="graph-3"),
    ("beta", "alpha+beta"): lambda r: MuShape.band(1, 1, log_hi=r, provenance="graph-4"),
}


# -- the compatible form of an AN line ----------------------------------------
#
# anclassify._sweep makes one pass over the roots in height order.  This is
# the sweep it ran before: passes repeated until the a-part of X commutes
# with the rest, at most 64 of them.

def sweep_until_commuting(X, U_basis):
    """Conjugate X, and U_basis with it, pass after pass over ROOTS, each
    cancelling every component of X on a root that does not kill the a-part
    of X, until [a-part, X] = 0; AssertionError after 64 passes."""
    for _ in range(64):
        if bracket(X.a_part(), X).is_zero():
            return X, U_basis
        for nm in ROOTS:
            rv = root_value(nm, X.t1, X.t2)
            comp = X.root_component(nm)
            if rv != 0 and not comp.is_zero():
                g = exp_closed(comp.scale(Fraction(1) / rv))
                X = conjugate(g, X)
                U_basis = [conjugate(g, b) for b in U_basis]
    raise AssertionError("conjugation sweep did not stabilize")
