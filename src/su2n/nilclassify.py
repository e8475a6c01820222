"""Exact decision procedure for closed connected subgroups of N.

Three independent routes are computed over exact rationals and then
cross-checked:

  * check_square  — seven conditions guaranteeing a sequence with
                    |rho(h_m)| ~ |h_m|^2 (6 and 7 in simplified forms,
                    equivalent once condition 2 has been ruled out; an
                    eighth holds on no subalgebra, see check_square);
  * check_linear  — five conditions guaranteeing |rho(h_m)| ~ |h_m|;
  * match_notcds  — eleven templates for the non-CDS subgroups, each carrying
                    the asymptotic shape of the Cartan projection.

H is a CDS iff a square and a linear witness both exist; the template list is
complete for the complement.  classify() enforces this double entry: the
witness pattern must agree with the envelope exponents of the matched shape
(square side present iff the upper envelope is |h|^2, linear side present iff
the lower envelope is |h|), and a matched template's case-list normalizer
must equal N_A(h).  Each route runs once and is deterministic, so a
disagreement is an implementation bug and raises InconsistentClassification.

Every polynomial form of the conditions (q_center, r_alpha, t_pair, pair_e,
d_lambda and the (x; y) minor parts) is one function of coordinate rows,
exact on ints and on Fractions alike; the cubic C of linear condition 2 is
t_pair(n, u, u).  Every other slot a decision reads is a column of a row
too: the 2x2 minors of any two complex vectors are _wedge_parts of their
(Re, Im) column pairs (the minor parts, the complex-line tests and the
pencil walk), lambda = <x, y> / |y|^2 is _int_lambda on elements._slot_sums,
and phi_u conj(eta_z) is _phi_conj_eta.  An AlgebraElement is built only for
the witnesses and the template evidence that the routes return.

The decisions read ints.  A row is the pair (ints, den) of linalg, the
rational row times its positive denominator: a homogeneous form has the
same zeros and sign on the ints, so every zero test, minor, lambda and slot
formula takes them, and a kernel takes the rows' ints over one common
denominator, a positive multiple of the value matrix with the same kernel
basis.  lambda travels as the int lambda (lr, li, ld) = lambda * ld, and
d_lambda and _x_minus_lam_y carry the factors ld^2 and ld.  The rows of h,
of its kernels and of every search are pairs (linalg.combine), and an
element of the result is read off one as it is (AlgebraElement.from_ints).
Fractions are built only in the Grams, the kernel coefficients, lambda and
the evidence; the signatures stay on Fractions, since their congruence
vectors become witnesses.

Universal statements (forms vanishing identically, anisotropy) are decided
deterministically: Gram matrices W Q W^T of
quadratic forms on the coordinate rows W, with the fixed symmetric matrix Q
of each form polarized once per n on the int coordinate unit rows (a form
with a central parameter z, t_pair or pair_e, is linear in z, so its Q is
sum_c z[c] Q_c over one fixed Q_c per column of z), and exact LDL-style
signatures for definiteness.  Existential equalities on quadrics
use the exact signature to decide and produce rational witnesses when the
zero cone has rational points (falling back to approximate witnesses,
reported with exact=False, with the decision still exact).  The rank-one
searches are exact in their layered cases (kernel sides, globally dependent,
complex-line images); outside them they walk the pencils through pairs of
basis rows, and a miss there is no proof that no rank-one element exists —
only the double entry stands behind it.

Every public route (classify, check_square, check_linear, match_notcds,
semidirect_case, normalizer_in_A) takes h as a Subalgebra and reads its
frame, the exact row data of h, from _frame_of: one frame per subalgebra,
built on the first query and freed with h.  classify keeps the case-list row
it checks N_A(h) against in its result, so no caller looks it up again.  The
case list SEMIDIRECT_CASES is data, a pure function of U's template type and
slot supports: SemidirectCase.holds reads a row on the frame alone.

The module is exact only and imports no numpy or scipy: the float curves
that realize a witness (`lab.witness_curve`) live with the other sampling
curves in `lab`.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional

from . import linalg
from .elements import (ROOTS, AlgebraElement, _slot_sums, column_roots, kernel_line,
                       kernel_root, primitive_line)
from .scalars import QQi
from .shapes import MuShape
from .subalgebra import Subalgebra


class ClassificationError(Exception):
    pass


class InconsistentClassification(ClassificationError):
    """The witness pattern and the template match, or N_A(h) and the
    case-list prediction, disagree: a bug, since every route is deterministic."""


class NotInN(ValueError):
    pass


@dataclass
class Witness:
    side: str  # "square" | "linear"
    condition_id: int
    elements: dict
    note: str = ""
    exact: bool = True


@dataclass
class NotCdsMatch:
    type_id: int
    shape: MuShape
    evidence: dict
    subcase: str = ""


@dataclass(frozen=True)
class NormalizerResult:
    kind: str  # "trivial" | "line" | "full"
    line: Optional[tuple] = None
    root: Optional[str] = None

    def __str__(self):
        if self.kind == "full":
            return "A"
        if self.kind == "trivial":
            return "trivial"
        if self.root:
            return f"ker({self.root})"
        return f"line{self.line}"


@dataclass
class ClassificationResult:
    verdict: str  # "CDS" | "NotCDS"
    shape: MuShape
    square: Optional[Witness]
    linear: Optional[Witness]
    template: Optional[NotCdsMatch]
    normalizer: NormalizerResult
    seed: int
    semidirect: Optional[SemidirectCase] = None  # the template's case row

    @property
    def is_cds(self):
        return self.verdict == "CDS"


# ---------------------------------------------------------------------------
# the coordinate-row frame


class _Frame:
    """Precomputed exact data for one subalgebra.

    A vector of h is its coordinate row (ints, den), a combination of
    h.rows(), so a slot functional is a column slice of the ints, an element
    is AlgebraElement.from_ints, and kernels, intersections and containments
    are small systems on rows.  The zero tests, the kernels' value matrices,
    the span tests, the echelon forms, the combinations and the Grams read
    the rows' ints.  A kernel that needs no solve is read off its value
    matrix (_solve_kernel).  The int echelon form of h is the one
    h.echelon that Subalgebra validation computed, so h's own rows are
    reduced once.  A frame belongs to the one h it was built from, and
    _frame_of builds it once per h.
    """

    def __init__(self, h: Subalgebra):
        if not h.is_nilpotent():
            raise NotInN("subalgebra has a nonzero a-part")
        self.n = h.n
        self.d = h.dim
        self.cols = AlgebraElement.slot_columns(self.n)
        self.full = h.rows()
        self.echelon = h.echelon
        self._kernels = {}
        self.z_rows = self.kernel(["phi", "x", "y"])

    @cached_property
    def li2(self):
        """Linear condition 2 on h (_li2), searched once and read by both
        check_linear and template 7."""
        return _li2(self)

    @cached_property
    def rank_one(self):
        """find_rank_one on all of h, searched once and read by templates 6
        and 7."""
        return find_rank_one(self, self.full)

    # functional values, read as column slices of the row --------------------

    def element(self, row) -> AlgebraElement:
        return AlgebraElement.from_ints(self.n, *row)

    def funcs_on(self, names, row):
        """Values of the named slot functionals (concatenated) at row."""
        return [x for nm in names for x in row[self.cols[nm]]]

    def func_on(self, name, row):
        return row[self.cols[name]]

    # subspace machinery ---------------------------------------------------

    def kernel_of(self, values, within):
        """Row basis of {u in within : values(u) = 0}, where `values` maps a
        row to a list of real-linear functionals.  The values are taken on
        the rows' ints scaled to one common denominator: a positive multiple
        of the value matrix, with the same kernel basis (_solve_kernel)."""
        if not within:
            return []
        den = math.lcm(*(d for _, d in within))
        rows = [values(a if d == den else [v * (den // d) for v in a]) for a, d in within]
        return _solve_kernel([list(col) for col in zip(*rows)], within)

    def kernel(self, names, within=None):
        """Row basis of {u in within : all named functionals vanish}; on all
        of h (within None) each is solved once per frame.

        The functionals are columns, read off the rows' ints by kernel_of.
        """
        if within is None:
            key = tuple(names)
            if key not in self._kernels:
                self._kernels[key] = self.kernel(names, self.full)
            return self._kernels[key]
        return self.kernel_of(lambda c: self.funcs_on(names, c), within)

    def vanishes_on(self, name, within) -> bool:
        sl = self.cols[name]
        return not any(any(c[0][sl]) for c in within)

    def nonzero_with(self, names, within) -> Optional:
        """A row in `within` where every named functional is nonzero; None
        iff some functional vanishes identically on `within`.

        A real vector space is not a finite union of proper subspaces, so a
        witness exists exactly when each functional is individually nonzero
        somewhere; it is built by perturbing along basis directions.  With
        two names (the most any caller passes) the first stays nonzero at all
        trial values of t but one at most, so running out of them is a bug.
        """
        if not within:
            return None
        live = []
        for nm in names:
            sl = self.cols[nm]
            cand = next((c for c in within if any(c[0][sl])), None)
            if cand is None:
                return None
            live.append(cand)
        u = live[0]
        for nm, helper in zip(names[1:], live[1:]):
            if any(u[0][self.cols[nm]]):
                continue
            for t in _TRIALS:
                cand = linalg.combine([u, helper], [1, t])
                if all(any(cand[0][self.cols[nm2]]) for nm2 in names):
                    u = cand
                    break
            else:
                raise AssertionError(f"no trial value keeps {names} nonzero")
        return u

    # quadratic forms -------------------------------------------------------

    def fixed_gram(self, q, within):
        """Gram W Q W^T of q_center or r_alpha on the rows W of `within`;
        empty, and Q not polarized, when `within` is."""
        return linalg.form_gram(within, _fixed_form(q, self.n)) if within else []

    def pair_gram(self, q, z, within):
        """Gram of u -> q(u, z) on `within`, for q = t_pair or pair_e at the
        central row z: W Q W^T for Q = sum_c z[c] Q_c over the forms of
        _pair_forms, summed on the ints of z into one sparse form."""
        zi, zd = z
        return linalg.form_gram(within, linalg.sum_forms(
            [(zi[c], form) for c, form in _pair_forms(q, self.n) if zi[c]], zd))

    def gram_witness(self, gram, within):
        """A row where the form with this Gram is nonzero."""
        k = len(gram)
        for i in range(k):
            if gram[i][i]:
                return within[i]
        for i in range(k):
            for j in range(i + 1, k):
                if gram[i][j]:
                    return linalg.combine([within[i], within[j]], [1, 1])
        return None


# the perturbations nonzero_with tries, in order
_TRIALS = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3), Fraction(3),
           Fraction(1, 5), Fraction(5))


def _solve_kernel(values, within):
    """The rows of `within` combined by the kernel basis of `values`, the
    value matrix of some functionals (one row per functional, one column per
    row of `within`) up to a positive factor.  The kernels that need no
    solve are read off the matrix: with every value zero it is all of
    `within`, as it stands (each kernel vector is a unit vector, and a row
    combined alone is itself), and with one row of `within` and a nonzero
    value it is empty."""
    values = [r for r in values if any(r)]
    if not values:
        return within
    if len(within) == 1:
        return []
    kern = linalg.kernel_basis([(r, 1) for r in values])
    return [linalg.combine(within, k) for k in kern]


_FRAMES = weakref.WeakKeyDictionary()


def _frame_of(h: Subalgebra) -> _Frame:
    """The frame of h, built on the first query and kept until h is freed
    (a frame holds no reference to its h)."""
    frame = _FRAMES.get(h)
    if frame is None:
        frame = _FRAMES[h] = _Frame(h)
    return frame


# the polynomial forms, on coordinate rows ------------------------------------
#
# Each form is a polynomial in the entries of a coordinate row (the coords()
# layout, with eta, xx and yy its last four columns), built with + and *
# only: on a row of ints it is an int, on a row of Fractions a Fraction.  The
# x and y sums (|x|^2, |y|^2, Re <x, y>, Im <x, y>) are elements._slot_sums.


def q_center(n, u):
    """|eta|^2 - xx*yy, the form whose anisotropy drives the central cases."""
    er, ei, xx, yy = u[4 * n - 4:]
    return er * er + ei * ei - xx * yy


def r_alpha(n, u):
    """|x|^2 + 2 Re(phi conj(eta))."""
    er, ei = u[4 * n - 4:4 * n - 2]
    return _slot_sums(n, u)[0] + 2 * (u[2] * er + u[3] * ei)


def t_pair(n, u, z):
    """xx_z |y_u|^2 + yy_z |x_u|^2 + 2 Im(x_u y_u+ conj(eta_z)); the cubic
    C(u) of linear condition 2 is t_pair(n, u, u)."""
    ax2, ay2, a, b = _slot_sums(n, u)
    er, ei, xx, yy = z[4 * n - 4:]
    return xx * ay2 + yy * ax2 + 2 * (b * er - a * ei)


def pair_e(n, u, z):
    """xx_z |y_u|^2 - Re(phi_u conj(eta_z)) yy_u + 2 Im(conj(eta_z) x_u y_u+)."""
    _, ay2, a, b = _slot_sums(n, u)
    er, ei, xx = z[4 * n - 4:4 * n - 1]
    return xx * ay2 - (u[2] * er + u[3] * ei) * u[4 * n - 1] + 2 * (b * er - a * ei)


def d_lambda(n, u, lam):
    """ld^2 (xx + |lambda|^2 yy + 2 Im(lambda conj(eta))) at the int lambda
    (lr, li, ld) of _int_lambda: D_lambda times ld^2, so its zeros and sign."""
    er, ei, xx, yy = u[4 * n - 4:]
    lr, li, ld = lam
    return ld * ld * xx + (lr * lr + li * li) * yy + 2 * ld * (li * er - lr * ei)


def _wedge_parts(x, y):
    """The real and imaginary parts of every 2x2 minor x_i y_j - x_j y_i,
    i < j, of the complex vectors x and y given as (Re, Im) column pairs, in
    the order (minor 0 Re, minor 0 Im, minor 1 Re, ...); none for vectors of
    one entry (n = 3)."""
    parts = []
    for i, j in itertools.combinations(range(0, len(x), 2), 2):
        (xir, xii), (xjr, xji) = x[i:i + 2], x[j:j + 2]
        (yir, yii), (yjr, yji) = y[i:i + 2], y[j:j + 2]
        parts += [xir * yjr - xii * yji - xjr * yir + xji * yii,
                  xir * yji + xii * yjr - xjr * yii - xji * yir]
    return parts


def _minor_parts(n, u):
    """The parts (_wedge_parts) of every (x; y) minor of the row u."""
    d = 2 * (n - 2)
    return _wedge_parts(u[4:4 + d], u[4 + d:4 + 2 * d])


def _fixed_forms(values, n):
    """The fixed symmetric matrices Q of the quadratic forms values(u), a
    list, on coordinate rows at this n, as linalg.sparse_form gives them:
    the polarization Grams on the 4n int coordinate unit rows."""
    d = 4 * n
    units = [[int(i == j) for j in range(d)] for i in range(d)]
    return tuple(linalg.sparse_form(g) for g in linalg.gram_from_quadratic(values, units))


@cache
def _fixed_form(q, n):
    """Q of the form q (q_center or r_alpha) at this n, found once."""
    return _fixed_forms(lambda u: [q(n, u)], n)[0]


@cache
def _pair_forms(q, n):
    """(c, Q_c) for the columns c of eta, xx and yy at this n, found once:
    q (t_pair or pair_e) reads only those columns of z and is linear in
    them, so u -> q(u, z) has Q = sum_c z[c] Q_c."""
    zcols = range(4 * n - 4, 4 * n)
    units = [[int(i == c) for i in range(4 * n)] for c in zcols]
    return tuple(zip(zcols, _fixed_forms(lambda u: [q(n, u, z) for z in units], n)))


@cache
def _minor_forms(n):
    """Q of the Re and Im parts of every (x; y) minor at this n, found once."""
    return _fixed_forms(lambda u: _minor_parts(n, u), n)


def _rank_xy(n, u) -> int:
    """dim_C <x, y> of the row u: 0, 1 or 2, read off the minor parts of its
    ints (a positive multiple of the row, with the same zeros)."""
    u = u[0]
    if not any(u[4:4 * n - 4]):  # the x and y columns
        return 0
    return 2 if any(_minor_parts(n, u)) else 1


# isotropic vectors -----------------------------------------------------------

def _rational_zero(frame, gram_data, within, avoid_kernels=()):
    """A vector v with q(v) = 0, outside every subspace in avoid_kernels.

    gram_data is the signature() certificate.  Uses the radical first, then
    zero-diagonal congruence directions, then small rational combinations of
    one positive and one negative congruence vector (rational when the
    discriminant is a perfect square).  Returns (row, exact_flag) or None
    when the real zero cone is degenerate enough to force a nonexistence
    (caller decides that via the signature).
    """
    p, nneg, z, cert = gram_data

    def lift(v):
        return linalg.combine(within, v)

    def ok(row):
        u = row[0]
        return any(u) and all(any(frame.funcs_on(names, u)) for names in avoid_kernels)

    candidates = [lift(v) for v in cert["radical"]]
    # combinations inside the radical
    for i in range(len(cert["radical"])):
        for j in range(i + 1, len(cert["radical"])):
            candidates.append(lift([a + b for a, b in
                                    zip(cert["radical"][i], cert["radical"][j])]))
    for row in candidates:
        if ok(row):
            return row, True
    # rational points mixing a positive and a negative direction
    for (dp, vp) in cert["positive"]:
        for (dn, vn) in cert["negative"]:
            ratio = -dn / dp  # q(vp * t + vn) = dp t^2 + dn: t^2 = -dn/dp
            num, den = ratio.numerator, ratio.denominator
            rn, rd = _isqrt_exact(num), _isqrt_exact(den)
            if rn is None or rd is None:
                continue
            t = Fraction(rn, rd)
            base = [t * a + b for a, b in zip(vp, vn)]
            for extra in [[Fraction(0)] * len(vp)] + cert["radical"]:
                row = lift([a + b for a, b in zip(base, extra)])
                if ok(row):
                    return row, True
            row = lift([-t * a + b for a, b in zip(vp, vn)])
            if ok(row):
                return row, True
    # floating fallback: exact decision, approximate witness
    for (dp, vp) in cert["positive"]:
        for (dn, vn) in cert["negative"]:
            t = math.sqrt(float(-dn / dp))
            coeffs = [Fraction(t).limit_denominator(10**12) * a + b
                      for a, b in zip(vp, vn)]
            lifted = lift(coeffs)
            if ok(lifted):
                return lifted, False
    return None


def _isqrt_exact(k: int):
    """The square root of the integer k when k is a perfect square, else None."""
    if k < 0:
        return None
    r = math.isqrt(k)
    return r if r * r == k else None


# ---------------------------------------------------------------------------
# rank-one machinery


def _minor_grams(frame, within):
    """Grams of the parts of every (x;y) minor (_minor_parts) on `within`,
    in their order; none when `within` is empty."""
    if not within:
        return []
    return [linalg.form_gram(within, form) for form in _minor_forms(frame.n)]


def _globally_dependent(frame, within):
    """True iff every element of `within` has x, y C-dependent (all minors
    vanish identically).  Deterministic via the polarization Grams."""
    return all(linalg.gram_is_zero(g) for g in _minor_grams(frame, within))


def _find_rank2(frame, within):
    """An element with C-independent x, y, or None (deterministic)."""
    for g in _minor_grams(frame, within):
        w = frame.gram_witness(g, within)
        if w is not None:
            return w  # the witnessed minor is nonzero, so x, y are independent
    return None


def _image_complex_line(frame, name, within):
    """v0, as int (Re, Im) column pairs, when the `name` vector of every row
    of `within` lies in the complex line C*v0 (a zero wedge with v0 is
    exactly C-colinearity); None when it does not, or when that vector
    vanishes on `within`.  Each row is read as its ints, a positive multiple
    of it: the line and the zero wedges are the same."""
    vecs = [frame.func_on(name, c[0]) for c in within]
    v0 = next((vec for vec in vecs if any(vec)), None)
    if v0 is None or any(any(_wedge_parts(v0, vec)) for vec in vecs):
        return None
    return v0


def _line_subspace(frame, v0, within):
    """{u in within : x_u and y_u both lie in the complex line C*v0}."""
    return frame.kernel_of(lambda c: [*_wedge_parts(v0, frame.func_on("x", c)),
                                      *_wedge_parts(v0, frame.func_on("y", c))], within)


def _int_lambda(n, u):
    """<x, y> / |y|^2 of the row u (elements._slot_sums), the lambda with
    x = lambda y when u has rank <= 1, as the int lambda (lr, li, ld):
    lambda = (lr + i li) / ld with ld > 0 and the three coprime, so equal
    lambdas are equal triples.  Read on u's ints, as lambda has degree 0.
    None when y = 0."""
    _, ys, a, b = _slot_sums(n, u[0])
    return _reduced(a, b, ys) if ys else None


def _reduced(lr, li, ld):
    """The int lambda (lr + i li) / ld for ld != 0, ld made positive and the
    three made coprime."""
    g = math.gcd(lr, li, ld) * (1 if ld > 0 else -1)
    return lr // g, li // g, ld // g


def _qqi_lambda(lam):
    """The QQi of an int lambda: the lambda a caller is given."""
    lr, li, ld = lam
    return QQi(Fraction(lr, ld), Fraction(li, ld))


def _lambda_of(n, u):
    """<x, y> / |y|^2 of the row u as a QQi (_int_lambda); None when y = 0."""
    lam = _int_lambda(n, u)
    return None if lam is None else _qqi_lambda(lam)


def _candidate_lambdas(frame, within):
    """The distinct int lambdas of the rank-one rows with y != 0 among the
    basis rows of `within` and then its pencil walk, yielded in that order."""
    seen = set()
    y = frame.cols["y"]
    for row in itertools.chain(within, _pencil_rank_one_rows(frame, within)):
        if _rank_xy(frame.n, row) == 1 and any(row[0][y]):
            lam = _int_lambda(frame.n, row)
            if lam not in seen:
                seen.add(lam)
                yield lam


def _pencil_rank_one_rows(frame, within):
    """The rank-one rows u + t v on the pencils through pairs u, v of basis
    rows of `within`, pair by pair, at the rational roots t of each pencil's
    first nonvanishing minor part.

    A rank-one element off these pencils, or at an irrational t, is not
    found: an exhausted walk is no proof that none exists.
    """
    for ci, cj in itertools.combinations(within, 2):
        for t in _pencil_rank1_roots(frame.n, ci, cj):
            row = linalg.combine([ci, cj], [1, t])
            if _rank_xy(frame.n, row) == 1:
                yield row


def _pencil_rank1_roots(n, ci, cj):
    """Rational t where every (x;y)-minor of the row ci + t*cj vanishes.

    The rows are read as ints, ci = Ii / Di and cj = Ij / Dj, so ci + t cj
    is (Ii + s Ij) / Di at s = t Di / Dj.  Each minor part of Ii + s Ij is
    the int quadratic a s^2 + b s + c with a and c the part at Ij and at Ii
    and b the sum of the two mixed parts; the rational roots s = p / q of
    the first nonvanishing one are kept where every part vanishes
    (a p^2 + b p q + c q^2 = 0), and returned as t = s Dj / Di."""
    (ii, di), (ij, dj) = ci, cj
    d = 2 * (n - 2)
    xi, yi, xj, yj = ii[4:4 + d], ii[4 + d:4 + 2 * d], ij[4:4 + d], ij[4 + d:4 + 2 * d]
    polys = [(a, b1 + b2, c) for a, b1, b2, c in zip(_minor_parts(n, ij), _wedge_parts(xi, yj),
                                                     _wedge_parts(xj, yi), _minor_parts(n, ii))
             if a or b1 + b2 or c]
    if not polys:
        return []
    roots = set()  # the t values, tried in the order of this set
    a, b, c = polys[0]
    if a == 0:
        if b != 0:
            roots.add(Fraction(-c * dj, b * di))
    else:
        r = _isqrt_exact(b * b - 4 * a * c)
        if r is not None:
            roots.add(Fraction((-b + r) * dj, 2 * a * di))
            roots.add(Fraction((-b - r) * dj, 2 * a * di))
    good = []
    for t in roots:
        p, q = t.numerator * di, t.denominator * dj  # s = p / q
        if all(a * p * p + b * p * q + c * q * q == 0 for a, b, c in polys):
            good.append(t)
    return good


def find_rank_one(frame, within):
    """An element of `within` with dim_C <x, y> = 1, or None.

    Exact in the layered cases (kernel sides, globally dependent, complex-line
    images), where a None means that no rank-one element exists.  Otherwise
    it returns the first row of the pencil walk (_pencil_rank_one_rows), and
    a None there is not a proof: only the classify() double entry checks it.
    """
    # y = 0, x != 0 side, then x = 0, y != 0
    w = frame.nonzero_with(["x"], frame.kernel(["y"], within))
    if w is not None:
        return w
    w = frame.nonzero_with(["y"], frame.kernel(["x"], within))
    if w is not None:
        return w
    # both sides empty: x = 0 iff y = 0, so rank one means x != 0 and y != 0
    if _globally_dependent(frame, within):
        return frame.nonzero_with(["y"], within)
    for name in ("y", "x"):
        v0 = _image_complex_line(frame, name, within)
        if v0 is not None:
            # rank-one elements have x, y in C*v0, and there rank one is name != 0
            return frame.nonzero_with([name], _line_subspace(frame, v0, within))
    return next(_pencil_rank_one_rows(frame, within), None)


# ---------------------------------------------------------------------------
# the seven square conditions


def check_square(h) -> Optional[Witness]:
    """Lowest-numbered satisfied square condition, with verifying elements.

    Conditions 6 and 7 are checked in the simplified forms that drop the
    x_v y_u+ restriction; after condition 2 has failed, any witness pair
    automatically satisfies the original restriction (its bracket lies in the
    central part, where |eta|^2 = xx*yy forces the missing equation).

    An eighth condition (ker phi = z = xx-axis, y_u != 0, v in ker(y, yy)
    with r_alpha(v) > 0) holds on no subalgebra: phi_v != 0 off the axis, so
    x([v, u]) = phi_v y_u != 0, yet [v, u] lies in ker phi, the axis.
    """
    return _first_witness(h, "square", _SQUARE_CHECKS)


def _first_witness(h, side, checks):
    """The lowest-numbered of `checks` that h satisfies, as a Witness."""
    frame = _frame_of(h)
    for cid, checker in enumerate(checks, start=1):
        res = checker(frame)
        if res is not None:
            elements, note, exact = res
            return Witness(side, cid, elements, note, exact)
    return None


def _sq1(frame):
    """phi_u = 0 with x_u, y_u linearly independent over C."""
    W = frame.kernel(["phi"])
    if not W:
        return None
    w = _find_rank2(frame, W)
    if w is None:
        return None
    return {"u": frame.element(w)}, "", True


def _sq2(frame):
    """z central with |eta_z|^2 != xx_z yy_z."""
    Z = frame.z_rows
    w = frame.gram_witness(frame.fixed_gram(q_center, Z), Z)
    if w is None:
        return None
    return {"z": frame.element(w)}, "", True


def _sq3(frame):
    """phi_u = 0 and T(u, z) != 0 for central z."""
    W = frame.kernel(["phi"])
    if not W:
        return None
    for zc in frame.z_rows:
        w = frame.gram_witness(frame.pair_gram(t_pair, zc, W), W)
        if w is not None:
            return {"u": frame.element(w), "z": frame.element(zc)}, "", True
    return None


def _sq4(frame):
    """phi_u != 0, y_u = 0, yy_u = 0, |x_u|^2 + 2Re(phi_u conj(eta_u)) = 0."""
    V = frame.kernel(["y", "yy"])
    if frame.vanishes_on("phi", V):
        return None
    g = frame.fixed_gram(r_alpha, V)
    sig = linalg.signature(g)
    p, q, z, cert = sig
    if p > 0 and q > 0:
        res = _rational_zero(frame, sig, V, avoid_kernels=[["phi"]])
        if res is None:
            return None
        row, exact = res
        return {"u": frame.element(row)}, "", exact
    # semidefinite: zero set is exactly the radical
    rad = [linalg.combine(V, v) for v in cert["radical"]]
    w = frame.nonzero_with(["phi"], rad)
    if w is None:
        return None
    return {"u": frame.element(w)}, "", True


def _xx_axis_element(frame):
    """The xx-axis row when the axis lies in h, else None: its int unit row
    tested against h's echelon form."""
    axis = [0] * (4 * frame.n)
    axis[frame.cols["xx"].start] = 1
    return (axis, 1) if linalg.in_span(frame.echelon, axis) else None


def _sq5(frame):
    """xx-axis inside h; u with phi_u != 0, yy_u != 0, y_u = 0."""
    axis = _xx_axis_element(frame)
    if axis is None:
        return None
    V = frame.kernel(["y"])
    w = frame.nonzero_with(["phi", "yy"], V)
    if w is None:
        return None
    return {"u": frame.element(w), "z": frame.element(axis)}, "", True


def _sq6(frame):
    """u: phi,y nonzero; v: phi_v = 0 = y_v = yy_v, x_v != 0 (simplified)."""
    u = frame.nonzero_with(["phi", "y"], frame.full)
    if u is None:
        return None
    V = frame.kernel(["phi", "y", "yy"])
    v = frame.nonzero_with(["x"], V)
    if v is None:
        return None
    return ({"u": frame.element(u), "v": frame.element(v)},
            "simplified form; x_v y_u+ = 0 holds given not-2", True)


def _sq7(frame):
    """xx-axis central; u: phi,y nonzero; v: phi_v = y_v = 0, x_v != 0."""
    axis = _xx_axis_element(frame)
    if axis is None:
        return None
    # the xx axis is automatically central when inside h
    u = frame.nonzero_with(["phi", "y"], frame.full)
    if u is None:
        return None
    V = frame.kernel(["phi", "y"])
    v = frame.nonzero_with(["x"], V)
    if v is None:
        return None
    return ({"u": frame.element(u), "v": frame.element(v)},
            "simplified form", True)


_SQUARE_CHECKS = [_sq1, _sq2, _sq3, _sq4, _sq5, _sq6, _sq7]


# ---------------------------------------------------------------------------
# the five linear conditions


def check_linear(h) -> Optional[Witness]:
    """Lowest-numbered satisfied linear condition, with verifying elements."""
    return _first_witness(h, "linear", _LINEAR_CHECKS)


def _li1(frame):
    """nonzero central z with |eta_z|^2 = xx_z yy_z."""
    Z = frame.z_rows
    sig = linalg.signature(frame.fixed_gram(q_center, Z))
    p, q, z, cert = sig
    if z == 0 and (p == 0 or q == 0):
        return None  # anisotropic, or no central part
    row, exact = _rational_zero(frame, sig, Z)
    return {"z": frame.element(row)}, "", exact


def _li2(frame):
    """phi_u = 0, dim_C <x,y> = 1, and the cubic C(u) = 0.

    Layered decision: the two kernel sides are linear; a lambda reduces C to
    |y|^2 * D_lambda with D_lambda linear on {x = lambda y}; the complex-line
    case expands C exactly and uses oddness of cubics on two-planes.  The
    lambdas come lazily from basis rows, then the pencil walk (a lambda
    global on ker phi comes first), so outside the exact layers a None is
    not a proof; only the double entry checks it.
    Template 7 reads the same search: for phi = 0 it says whether some
    rank-one element has C = 0.
    """
    W = frame.kernel(["phi"])
    if not W:
        return None
    # (a) y = 0, yy = 0, x != 0
    V = frame.kernel(["y", "yy"], W)
    w = frame.nonzero_with(["x"], V)
    if w is not None:
        return {"u": frame.element(w)}, "y_u = 0 branch", True
    # (b) x = 0, xx = 0, y != 0
    V = frame.kernel(["x", "xx"], W)
    w = frame.nonzero_with(["y"], V)
    if w is not None:
        return {"u": frame.element(w)}, "x_u = 0 branch", True
    # (c) candidate lambdas from basis rows and the pencil walk
    for lam in _candidate_lambdas(frame, W):
        Wl = _w_lambda(frame, W, lam)
        K = _kernel_d_lambda(frame, Wl, lam)
        w = frame.nonzero_with(["y"], K)
        if w is not None and _rank_xy(frame.n, w) == 1:
            return {"u": frame.element(w)}, "pointwise lambda branch", True
    # (d) complex-line case: exact cubic expansion on the line subspace
    v0 = _image_complex_line(frame, "y", W)
    if v0 is not None:
        return _li2_line_case(frame, W, v0)
    return None


def _x_minus_lam_y(frame, lam, c):
    """ld (x_u - lambda y_u) at the row c and the int lambda (lr, li, ld),
    (Re, Im) per entry: on an int row, ints."""
    lr, li, ld = lam
    x, y = frame.func_on("x", c), frame.func_on("y", c)
    return [v for k in range(0, len(x), 2)
            for v in (ld * x[k] - (lr * y[k] - li * y[k + 1]),
                      ld * x[k + 1] - (lr * y[k + 1] + li * y[k]))]


def _w_lambda(frame, W, lam):
    """{u in W : x_u = lam * y_u} as rows."""
    return frame.kernel_of(lambda c: _x_minus_lam_y(frame, lam, c), W)


def _lambda_global(frame, W, lam):
    """x_u = lam * y_u for every u in W, tested on the rows' ints."""
    return not any(any(_x_minus_lam_y(frame, lam, c[0])) for c in W)


def _kernel_d_lambda(frame, W, lam):
    return frame.kernel_of(lambda c: [d_lambda(frame.n, c, lam)], W)


def _cubic_coeffs(frame, within):
    """Exact symmetric-trilinear coefficients of C on `within`, keyed by
    index triples i <= j <= l, by 7-term polarization on row sums, with C
    evaluated once per index multiset (19 times, not 70, on three rows).

    The rows are read as ints over one common denominator D, so C =
    t_pair(n, u, u) is evaluated on int row sums and each coefficient is one
    Fraction over D**3."""
    den = math.lcm(*(d for _, d in within))
    scaled = [[a * (den // d) for a in r] for r, d in within]

    @cache
    def cval(*idx):
        u = [sum(col) for col in zip(*(scaled[i] for i in idx))]
        return t_pair(frame.n, u, u)

    den3 = den ** 3
    return {(i, j, l): Fraction(cval(i, j, l) - cval(i, j) - cval(i, l) - cval(j, l)
                                + cval(i) + cval(j) + cval(l), den3)
            for i, j, l in itertools.combinations_with_replacement(range(len(within)), 3)}


def _li2_line_case(frame, W, v0):
    line = _line_subspace(frame, v0, W)
    if not line:
        return None
    coeffs = _cubic_coeffs(frame, line)
    if all(v == 0 for v in coeffs.values()):
        w = frame.nonzero_with(["y"], line)
        if w is not None:
            return {"u": frame.element(w)}, "cubic vanishes on line subspace", True
        return None
    ky = frame.kernel(["y"], line)
    if len(line) - len(ky) >= 2:
        # an odd cubic vanishes somewhere on any 2-plane missing ker y
        u, exact = _odd_cubic_zero_on_plane(frame, line, ky)
        return {"u": u}, "odd-cubic zero on a 2-plane", exact
    return None


def _odd_cubic_zero_on_plane(frame, line, ky):
    """Bisection zero of C on a circle inside a 2-plane transverse to ker y.

    Returns (u, exact): exact is False for the bisection's approximate zero,
    an element with rational coefficients at which C is only nearly zero.
    The caller has dim(line) - dim(ker y) >= 2, so two rows of `line` are
    independent modulo ker y, and the pair search always finds them.
    """
    comp = [c for c in line if not linalg.span_contains(ky, c)]
    a, b = next((ci, cj) for ci, cj in itertools.combinations(comp, 2)
                if not linalg.span_contains(ky + [ci], cj))

    (ia, da), (ib, db) = a, b

    def val(theta):
        """(C(ca a + cb b), (ca, cb)), ca and cb cos(theta) and sin(theta)
        made rational: the int C of the row's ints over the denominator
        qa qb da db, divided by its cube (correctly rounded, so the float of
        the exact value)."""
        ca = Fraction(math.cos(theta)).limit_denominator(10**9)
        cb = Fraction(math.sin(theta)).limit_denominator(10**9)
        (pa, qa), (pb, qb) = ca.as_integer_ratio(), cb.as_integer_ratio()
        fa, fb = pa * qb * db, pb * qa * da
        u = [fa * x + fb * y for x, y in zip(ia, ib)]
        c = t_pair(frame.n, u, u)
        return c / (qa * qb * da * db) ** 3, (ca, cb)

    def at(coeffs):
        return frame.element(linalg.combine([a, b], coeffs))

    flo, c0 = val(0.0)
    if flo == 0:
        return at(c0), True
    lo, hi = 0.0, math.pi  # odd: C(pi) = -C(0)
    for _ in range(200):
        mid = (lo + hi) / 2
        fm, cm = val(mid)
        if fm == 0 or hi - lo < 1e-15:
            return at(cm), False
        if (fm > 0) == (flo > 0):
            lo = mid
            flo = fm
        else:
            hi = mid
    _, cm = val((lo + hi) / 2)
    return at(cm), False


def _li3(frame):
    """y_h = 0, yy_h = 0, |x|^2 + 2 Re(phi conj(eta)) != 0."""
    V = frame.kernel(["y", "yy"])
    w = frame.gram_witness(frame.fixed_gram(r_alpha, V), V)
    if w is None:
        return None
    return {"u": frame.element(w)}, "", True


def _li4(frame):
    """u: phi != 0, y = 0, yy != 0; central z: eta != 0, yy_z = 0."""
    V = frame.kernel(["y"])
    u = frame.nonzero_with(["phi", "yy"], V)
    if u is None:
        return None
    Z0 = frame.kernel(["yy"], frame.z_rows)
    z = frame.nonzero_with(["eta"], Z0)
    if z is None:
        return None
    return {"u": frame.element(u), "z": frame.element(z)}, "", True


def _li5(frame):
    """u: phi,y != 0; central z: yy_z = 0, phi_u conj(eta_z) real, E(u,z) = 0."""
    Z0 = frame.kernel(["yy"], frame.z_rows)
    for zc in Z0 + ([linalg.combine(Z0[:2], [1, 1])] if len(Z0) > 1 else []):
        if not any(frame.funcs_on(["eta", "xx"], zc[0])):
            continue
        res = _li5_fixed_z(frame, zc)
        if res is not None:
            return res
    return None


def _phi_conj_eta(frame, u, z):
    """phi_u conj(eta_z) of the rows u and z, as its (Re, Im) parts; on the
    rows' ints, the product times their two denominators."""
    pr, pi = frame.func_on("phi", u)
    er, ei = frame.func_on("eta", z)
    return pr * er + pi * ei, pi * er - pr * ei


def _li5_fixed_z(frame, zc):
    """Linear condition 5 at the central row zc: u ranges over K, where
    phi_u conj(eta_z) is real, so a witness u needs it nonzero."""
    z = zc[0]

    def witness(w, note, exact=True):
        if w is None or not _phi_conj_eta(frame, w[0], z)[0]:
            return None
        return {"u": frame.element(w), "z": frame.element(zc)}, note, exact

    K = frame.kernel_of(lambda c: [_phi_conj_eta(frame, c, z)[1]], frame.full)
    if not K:
        return None
    g = frame.pair_gram(pair_e, zc, K)
    sig = linalg.signature(g)
    p, q, zr, cert = sig
    if linalg.gram_is_zero(g):
        return witness(frame.nonzero_with(["phi", "y"], K), "E vanishes identically")
    if p > 0 and q > 0:
        # indefinite: try rational points of the zero cone
        res = _rational_zero(frame, sig, K, avoid_kernels=[["phi"], ["y"]])
        return None if res is None else witness(res[0], "", res[1])
    # semidefinite: the zero set is the radical
    rad = [linalg.combine(K, v) for v in cert["radical"]]
    return witness(frame.nonzero_with(["phi", "y"], rad), "")


# condition 2 is read from the frame, where template 7 reads it too
_LINEAR_CHECKS = [_li1, lambda frame: frame.li2, _li3, _li4, _li5]


# ---------------------------------------------------------------------------
# the eleven non-CDS templates

_ALL_SLOTS = ["phi", "y", "x", "yy", "eta", "xx"]


def _span_in_slots(frame, rows, slots):
    """Every element of the span of `rows` supported inside `slots`."""
    others = [s for s in _ALL_SLOTS if s not in slots]
    return not any(any(frame.funcs_on(others, c[0])) for c in rows)


def _slot_subspace(frame, slots):
    """{u in h : all slots outside `slots` vanish} as rows."""
    others = [s for s in _ALL_SLOTS if s not in slots]
    return frame.kernel(others)


def _h_decomposes(frame, slot_groups):
    """h == sum of (h ∩ slot-span) over the groups, checked exactly: the
    parts lie in h, so they sum to h iff their rank is dim h, and h's own
    rows are not reduced again."""
    parts = []
    for slots in slot_groups:
        parts.extend(_slot_subspace(frame, slots))
    return len(linalg.echelon_ints(parts)[0]) == frame.d


def _z_in_slots(frame, slots):
    return _span_in_slots(frame, frame.z_rows, slots)


def match_notcds(h) -> Optional[NotCdsMatch]:
    """First matching template of the eleven, with its mu-shape.

    Templates are tried in order; the order resolves the stated special-case
    overlaps (a one-dimensional central line with an isotropic form is type 1,
    and an anisotropic one falls through to type 6).  On a line h the shape
    is MuShape.on_a_line, noted "dim1": the band 1..s of types 2, 3a and 5
    is the curve |h|^s there.
    """
    frame = _frame_of(h)
    if not any(any(c[0]) for c in frame.full):
        raise ValueError("trivial subalgebra")
    for matcher in _TEMPLATES:
        m = matcher(frame)
        if m is not None:
            if frame.d == 1:
                m.shape = m.shape.on_a_line(f"{m.shape.provenance} dim1")
            return m
    return None


def _tm1(frame):
    """dim 1 central line with |eta|^2 = xx*yy identically: rho ~ |h|."""
    if frame.d != 1:
        return None
    if len(frame.z_rows) != frame.d:  # z, a subspace of h, is not all of h
        return None
    g = frame.fixed_gram(q_center, frame.full)
    if not linalg.gram_is_zero(g):
        return None
    return NotCdsMatch(1, MuShape.curve(1, provenance="notcds-1"), {})


def _tm2(frame):
    """phi = y = 0, some yy != 0, central part inside the xx-axis."""
    if not (frame.vanishes_on("phi", frame.full)
            and frame.vanishes_on("y", frame.full)):
        return None
    if frame.nonzero_with(["yy"], frame.full) is None:
        return None
    if not _z_in_slots(frame, ["xx"]):
        return None
    return NotCdsMatch(2, MuShape.band(1, Fraction(3, 2), provenance="notcds-2"), {})


def _tm3(frame):
    """phi = 0 with a single lambda: x = lambda y, eta_z = i lambda yy_z,
    xx_z = |lambda|^2 yy_z on the central part."""
    if not frame.vanishes_on("phi", frame.full):
        return None
    wy = frame.nonzero_with(["y"], frame.full)
    if wy is not None:
        if _rank_xy(frame.n, wy) == 2:
            return None
        lam = _int_lambda(frame.n, wy)
        if not _lambda_global(frame, frame.full, lam):
            return None
    else:
        # y identically zero: x must vanish too, and lambda is pinned by z
        if frame.nonzero_with(["x"], frame.full) is not None:
            return None
        wz = frame.nonzero_with(["yy"], frame.z_rows)
        if wz is None:
            return None
        er, ei, _, yy = wz[0][4 * frame.n - 4:]
        lam = _reduced(ei, -er, yy)  # eta_z / (i yy_z)
    # eta_z = i lambda yy_z and xx_z = |lambda|^2 yy_z on every central row,
    # times ld and ld^2 on its ints
    lr, li, ld = lam
    for zc in frame.z_rows:
        er, ei, xx, yy = zc[0][4 * frame.n - 4:]
        if (ld * er, ld * ei, ld * ld * xx) != (-li * yy, lr * yy, (lr * lr + li * li) * yy):
            return None
    # subcase (a): some u with D_lambda(u) != 0
    has_d = any(d_lambda(frame.n, c[0], lam) for c in frame.full)
    ev = {"lambda": _qqi_lambda(lam)}
    if has_d:
        return NotCdsMatch(3, MuShape.band(1, Fraction(3, 2), provenance="notcds-3a"),
                           ev, subcase="a")
    return NotCdsMatch(3, MuShape.curve(1, provenance="notcds-3b"), ev, subcase="b")


def _tm4(frame):
    """y = yy = 0 with |x|^2 + 2 Re(phi conj(eta)) anisotropic off the
    xx-axis: rho ~ |h|."""
    if not (frame.vanishes_on("y", frame.full)
            and frame.vanishes_on("yy", frame.full)):
        return None
    # R descends to h / (h ∩ xx-axis); anisotropy there means the form is
    # semidefinite with radical inside the xx-axis
    g = frame.fixed_gram(r_alpha, frame.full)
    p, q, z, cert = linalg.signature(g)
    if not (p == 0 or q == 0):
        return None
    for v in cert["radical"]:
        if not _span_in_slots(frame, [linalg.combine(frame.full, v)], ["xx"]):
            return None
    return NotCdsMatch(4, MuShape.curve(1, provenance="notcds-4"), {})


def _tm5(frame):
    """trivial central part, y = 0, phi = phi0 * yy with phi0 != 0."""
    if frame.z_rows:
        return None
    if not frame.vanishes_on("y", frame.full):
        return None
    wphi = frame.nonzero_with(["phi"], frame.full)
    if wphi is None:
        return None
    wyy = frame.nonzero_with(["yy"], frame.full)
    if wyy is None:
        return None
    w = wyy[0]
    pr, pi = frame.func_on("phi", w)
    yy = w[-1]
    # phi0 = phi / yy at wyy; phi_c = phi0 yy_c on every row, cross-multiplied
    for c in frame.full:
        u = c[0]
        (cr, ci), cyy = frame.func_on("phi", u), u[-1]
        if (cr * yy, ci * yy) != (pr * cyy, pi * cyy):
            return None
    phi0 = QQi(Fraction(pr, yy), Fraction(pi, yy))
    return NotCdsMatch(5, MuShape.band(1, Fraction(4, 3), provenance="notcds-5"),
                       {"phi0": phi0})


def _tm6(frame):
    """phi = 0, no rank-one (x,y) pair, central form anisotropic: rho ~ |h|^2."""
    if not frame.vanishes_on("phi", frame.full):
        return None
    if frame.rank_one is not None:
        return None
    if not linalg.is_definite(frame.fixed_gram(q_center, frame.z_rows)):
        return None
    return NotCdsMatch(6, MuShape.curve(2, provenance="notcds-6"), {})


def _tm7(frame):
    """phi = 0 mixing rank-2 (or central) and rank-1 directions, every rank-1
    element having a nonzero cubic, central form anisotropic: the 3/2..2 band."""
    if not frame.vanishes_on("phi", frame.full):
        return None
    if not linalg.is_definite(frame.fixed_gram(q_center, frame.z_rows)):
        return None
    has_not1 = bool(frame.z_rows) or (_find_rank2(frame, frame.full) is not None)
    if not has_not1:
        return None
    if frame.li2 is not None:
        return None  # linear condition 2: some rank-one element has C = 0
    # template 6 failed with phi = 0 and a definite form: rank_one is found
    return NotCdsMatch(7, MuShape.band(Fraction(3, 2), 2, provenance="notcds-7"),
                       {"rank_one": frame.element(frame.rank_one)})


def _tm8(frame):
    """dim <= 3, trivial central part, ker phi = ker y, (phi, yy) injective."""
    if frame.d > 3 or frame.z_rows:
        return None
    kphi = frame.kernel(["phi"])
    ky = frame.kernel(["y"])
    if not linalg.subspace_eq(kphi, ky):
        return None
    if frame.kernel(["phi", "yy"]):
        return None  # (phi, yy) must be injective
    return NotCdsMatch(8, MuShape.curve(Fraction(3, 2), provenance="notcds-8"), {})


def _tm9(frame):
    """dim 2 with central part exactly the xx-axis and phi, y nonzero off it."""
    if frame.d != 2:
        return None
    axis = _xx_axis_element(frame)
    if axis is None:
        return None
    if not linalg.subspace_eq(frame.z_rows, [axis]):
        return None
    kphi = frame.kernel(["phi"])
    ky = frame.kernel(["y"])
    if not (linalg.subspace_eq(kphi, frame.z_rows)
            and linalg.subspace_eq(ky, frame.z_rows)):
        return None
    return NotCdsMatch(9, MuShape.band(1, Fraction(3, 2), provenance="notcds-9"), {})


def _tm10(frame):
    """dim <= 2, phi never zero, y = yy = 0, R identically zero: rho ~ |h|^2."""
    if frame.d > 2:
        return None
    if not (frame.vanishes_on("y", frame.full)
            and frame.vanishes_on("yy", frame.full)):
        return None
    if frame.kernel(["phi"]):
        return None  # phi_h = 0 for some nonzero h
    g = frame.fixed_gram(r_alpha, frame.full)
    if not linalg.gram_is_zero(g):
        return None
    return NotCdsMatch(10, MuShape.curve(2, provenance="notcds-10"), {})


def _tm11(frame):
    """dim 2 with u (phi, y != 0) and central z (yy_z = 0,
    phi_u conj(eta_z) real nonzero, E(u,z) != 0): the 5/4..2 band."""
    if frame.d != 2:
        return None
    Z0 = frame.kernel(["yy"], frame.z_rows)
    if len(Z0) != 1:
        return None
    zc = Z0[0]
    z = zc[0]
    if not any(frame.func_on("eta", z)):
        return None
    # u ranges over h \ z; the conditions only depend on u modulo z and
    # rescaling, so one representative decides
    rep = next((c for c in frame.full
                if not linalg.span_contains(frame.z_rows, c)), None)
    if rep is None:
        return None
    u = rep[0]
    if not any(frame.func_on("phi", u)) or not any(frame.func_on("y", u)):
        return None
    # phi_u conj(eta_z), nonzero as both factors are, must be real
    if _phi_conj_eta(frame, u, z)[1]:
        return None
    if pair_e(frame.n, u, z) == 0:
        return None
    return NotCdsMatch(11, MuShape.band(Fraction(5, 4), 2, provenance="notcds-11"),
                       {"u": frame.element(rep), "z": frame.element(zc)})


_TEMPLATES = [_tm1, _tm2, _tm3, _tm4, _tm5, _tm6, _tm7, _tm8, _tm9, _tm10, _tm11]


# ---------------------------------------------------------------------------
# the semidirect case list


@dataclass(frozen=True)
class SemidirectCase:
    """One row of the case list for U of template `type_id`, as data.

    `parts` is a tuple of slot groups: U is the sum of its parts in those
    groups; one group means U lies in those slots, and none means always.
    `nonzero` names the slots that must not vanish identically on U (for a
    type-3 U, x is not identically zero exactly when its lambda is nonzero,
    as x = lambda y).  A row reads U's slots alone.  When U meets the row,
    N_A(U) is ker(root), or all of A when root is None; T x| U is
    semidirect case `case`, of shape `shape` for any such torus line T.
    Rows are tried in order, and a U that matches no row of its template
    has trivial N_A(U).
    """
    type_id: int
    parts: tuple
    root: Optional[str]
    case: str
    shape: MuShape
    nonzero: tuple = ()

    def holds(self, frame) -> bool:
        """Whether h, of frame `frame`, meets the row."""
        if any(frame.vanishes_on(name, frame.full) for name in self.nonzero):
            return False
        if len(self.parts) == 1:
            return _span_in_slots(frame, frame.full, self.parts[0])
        return not self.parts or _h_decomposes(frame, self.parts)

    def normalizer(self) -> NormalizerResult:
        if self.root is None:
            return NormalizerResult("full")
        return NormalizerResult("line", kernel_line(self.root), self.root)

    @property
    def verdict(self) -> str:
        return "CDS" if self.shape.kind == "full_chamber" else "NotCDS"

    def shape_of(self, dim_h: int) -> MuShape:
        """The shape of T x| U, noted `case`; when dim H = 2, U is a line and
        the shape is MuShape.on_a_line, as for the dim-1 templates."""
        sh = replace(self.shape, provenance=self.case)
        return sh.on_a_line(self.case) if dim_h == 2 else sh


_CDS = MuShape.full_chamber()
SEMIDIRECT_CASES = [
    SemidirectCase(1, (("yy",),), None, "semidirect-1a", MuShape.band(1, None)),
    SemidirectCase(1, (("xx",),), None, "semidirect-1a", MuShape.band(1, None)),
    SemidirectCase(1, (), "alpha", "semidirect-1b", _CDS),
    SemidirectCase(2, (("x", "yy"), ("xx",)), "alpha-beta", "semidirect-2",
                   MuShape.band(1, Fraction(3, 2))),
    SemidirectCase(3, (("y", "x"), ("yy", "eta", "xx")), "alpha", "semidirect-3", _CDS,
                   nonzero=("x",)),
    SemidirectCase(3, (("y",), ("yy",)), None, "semidirect-4a", MuShape.band(1, None)),
    SemidirectCase(3, (("y", "eta"), ("yy",)), "alpha+beta", "semidirect-4bi",
                   MuShape.curve(1)),
    SemidirectCase(3, (("y", "xx"), ("yy",)), "2alpha+beta", "semidirect-4bii",
                   MuShape.band(1, Fraction(3, 2))),
    SemidirectCase(3, (("y", "yy"),), "beta", "semidirect-4biii", _CDS),
    SemidirectCase(4, (("x",), ("xx", "eta", "yy")), None, "semidirect-5a", MuShape.band(1, None)),
    SemidirectCase(4, (("x", "xx"),), "alpha+beta", "semidirect-5b", _CDS),
    SemidirectCase(4, (("phi", "x", "eta"), ("xx",)), "beta", "semidirect-5c",
                   MuShape.curve(1)),
    SemidirectCase(5, (("phi", "yy"), ("x",)), "alpha-2beta", "semidirect-6",
                   MuShape.band(1, Fraction(4, 3))),
    SemidirectCase(6, (("eta",),), None, "semidirect-7a", MuShape.band(None, 2)),
    SemidirectCase(6, (("y", "x"), ("yy", "eta", "xx")), "alpha", "semidirect-7b",
                   MuShape.curve(2)),
    SemidirectCase(7, (("x", "yy"), ("eta",)), "alpha-beta", "semidirect-8x",
                   MuShape.band(Fraction(3, 2), 2)),
    SemidirectCase(7, (("y", "xx"), ("eta",)), "2alpha+beta", "semidirect-8y",
                   MuShape.band(Fraction(3, 2), 2)),
    SemidirectCase(8, (("phi", "y"), ("x", "yy")), "alpha-beta", "semidirect-9",
                   MuShape.curve(Fraction(3, 2))),
    SemidirectCase(9, (("phi", "y"), ("xx",)), "alpha-beta", "semidirect-10",
                   MuShape.band(1, Fraction(3, 2))),
    SemidirectCase(10, (("phi",),), None, "semidirect-11a", MuShape.band(None, 2)),
    SemidirectCase(10, (("phi", "x", "eta"),), "beta", "semidirect-11b", _CDS),
    SemidirectCase(10, (("phi", "xx"),), "alpha+2beta", "semidirect-11c",
                   MuShape.curve(2)),
]


def semidirect_case(h, match: NotCdsMatch) -> Optional[SemidirectCase]:
    """The first row of the case list for h's template that h satisfies."""
    frame = _frame_of(h)
    return next((row for row in SEMIDIRECT_CASES
                 if row.type_id == match.type_id and row.holds(frame)), None)


# ---------------------------------------------------------------------------
# normalizer in A and the classification driver


def normalizer_in_A(h) -> NormalizerResult:
    """{t in a : [t, h] <= h}, solved exactly as a 2-variable linear system."""
    frame = _frame_of(h)
    # [t, b] = t1 [(1, 0), b] + t2 [(0, 1), b] must lie in span(h) for every
    # basis row b, where [(1, 0), b] and [(0, 1), b] scale each root column
    # of b by the root's t1 and t2 coefficients: each column of a nonzero
    # residual is one constraint.  Both scaled rows are reduced on b's ints
    # with every pivot applied (_pivoted_leftover), so their leftovers are
    # the two residuals times one common factor, which leaves the kernel of
    # the (c1, c2) rows as it is.
    sys_rows = []
    for b in frame.full:
        ints = b[0]
        r1, r2 = (_pivoted_leftover(frame.echelon, [c * v for c, v in zip(cs, ints)])
                  for cs in _root_scales(frame.n))
        pairs = [[c1, c2] for c1, c2 in zip(r1, r2) if c1 or c2]
        sys_rows += [(r, 1) for r in pairs]
    if not sys_rows:
        return NormalizerResult("full")
    kern = linalg.kernel_basis(sys_rows)
    if not kern:
        return NormalizerResult("trivial")
    p, q = primitive_line(*kern[0])
    return NormalizerResult("line", (p, q), kernel_root(p, q))


@cache
def _root_scales(n):
    """The t1 and t2 coefficient of the root of each coords() column (0 on
    the a-part columns): [(1, 0), b] and [(0, 1), b] scale b's columns by
    them."""
    return tuple(zip(*(ROOTS[root] if root else (0, 0) for root in column_roots(n))))


def _pivoted_leftover(echelon, w):
    """The int row w reduced against an int echelon form (rows, pivots),
    p * w - f * row at every pivot, also where f is 0: w's residual against
    the span times the product of the pivots, one factor for every w."""
    rows, pivots = echelon
    for row, pc in zip(rows, pivots):
        p, f = row[pc], w[pc]
        w = [p * a - f * r for a, r in zip(w, row)] if f else [p * a for a in w]
    return w


def classify(h, seed: int = 0) -> ClassificationResult:
    """Full double-entry classification of a nontrivial subalgebra h of n.

    CDS iff a square and a linear witness both exist.  The template match is
    computed independently; the witness pattern must equal the envelope
    pattern of the matched shape (square witness iff the upper envelope is
    |h|^2, linear witness iff the lower envelope is |h|), no template may
    match in the CDS case, and a matched template's case-list normalizer
    (that of the first row h satisfies, else trivial) must equal N_A(h).
    Every route runs once and deterministically, so a disagreement is a bug
    and raises InconsistentClassification.  `seed` is only echoed into the
    result.
    """
    sq, li, tm = check_square(h), check_linear(h), match_notcds(h)
    if not _double_entry_ok(sq, li, tm):
        raise InconsistentClassification(
            f"witnesses (square={sq and sq.condition_id}, "
            f"linear={li and li.condition_id}) vs template {tm and tm.type_id}")
    norm = normalizer_in_A(h)
    if tm is None:
        shape = MuShape.full_chamber(provenance="square+linear witnesses")
        return ClassificationResult("CDS", shape, sq, li, None, norm, seed)
    row = semidirect_case(h, tm)
    exp = row.normalizer() if row else NormalizerResult("trivial")
    if exp != norm:
        raise InconsistentClassification(
            f"normalizer {norm} disagrees with the case list prediction {exp} "
            f"for template {tm.type_id}")
    return ClassificationResult("NotCDS", tm.shape, sq, li, tm, norm, seed, row)


def _double_entry_ok(sq, li, tm):
    if tm is None:
        return sq is not None and li is not None
    want_sq = tm.shape.upper_touches_square()
    want_li = tm.shape.lower_touches_linear()
    return (sq is not None) == want_sq and (li is not None) == want_li
