"""Exact decision procedure for closed connected subgroups of N.

Three independent routes are computed over exact rationals and then
cross-checked:

  * check_square  — eight conditions guaranteeing a sequence with
                    |rho(h_m)| ~ |h_m|^2 (conditions 6 and 7 in their
                    simplified forms, which are equivalent once condition 2
                    has been ruled out);
  * check_linear  — five conditions guaranteeing |rho(h_m)| ~ |h_m|;
  * match_notcds  — eleven templates for the non-CDS subgroups, each carrying
                    the asymptotic shape of the Cartan projection.

H is a CDS iff a square and a linear witness both exist; the template list is
complete for the complement.  classify() enforces this double entry: the
witness pattern must agree with the envelope exponents of the matched shape
(square side present iff the upper envelope is |h|^2, linear side present iff
the lower envelope is |h|).  Disagreement means an implementation bug or a
randomized false negative in one of the searches, and is retried with fresh
randomness before raising InconsistentClassification.

Universal statements (forms vanishing identically, anisotropy) are decided
deterministically: polarization Gram matrices for quadratic forms, exact
LDL-style signatures for definiteness.  Existential equalities on quadrics
use the exact signature to decide and produce rational witnesses when the
zero cone has rational points (falling back to approximate witnesses,
reported with exact=False, with the decision still exact).  Only the
rank-one element searches keep a randomized component, and those are the
ones covered by the double-entry check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import linalg
from .elements import (AlgebraElement, ad_a, exp_closed, exp_float, kernel_line,
                       kernel_root, primitive_line)
from .scalars import QQi, abs2, conj, herm, im, re
from .shapes import MuShape
from .subalgebra import Subalgebra


class ClassificationError(Exception):
    pass


class InconsistentClassification(ClassificationError):
    """Witness pattern and template match disagree after retries."""


class NotInN(ValueError):
    pass


@dataclass
class SquareWitness:
    condition_id: int
    elements: dict
    conjugations: list = field(default_factory=list)
    note: str = ""
    exact: bool = True


@dataclass
class LinearWitness:
    condition_id: int
    elements: dict
    conjugations: list = field(default_factory=list)
    note: str = ""
    exact: bool = True


@dataclass
class NotCdsMatch:
    type_id: int
    shape: MuShape
    evidence: dict
    dim_h: int
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
    square: Optional[SquareWitness]
    linear: Optional[LinearWitness]
    template: Optional[NotCdsMatch]
    normalizer: NormalizerResult
    seed: int

    @property
    def is_cds(self):
        return self.verdict == "CDS"


# ---------------------------------------------------------------------------
# the coordinate-row frame


class _Frame:
    """Precomputed exact data for one subalgebra.

    A vector of h is its coordinate row (the coords() of the element, a
    combination of h.coord_rows()), so a slot functional is a column slice,
    an element is AlgebraElement.from_coords, and kernels, intersections and
    containments are small rational systems on rows.
    """

    def __init__(self, h: Subalgebra, rng: random.Random):
        if not h.is_nilpotent():
            raise NotInN("subalgebra has a nonzero a-part")
        self.n = h.n
        self.d = h.dim
        self.rng = rng
        self.cols = AlgebraElement.slot_columns(self.n)
        self.full = h.coord_rows()
        self.z_rows = self.kernel(["phi", "x", "y"])

    # functional values, read as column slices of the row --------------------

    def element(self, row) -> AlgebraElement:
        return AlgebraElement.from_coords(self.n, row)

    def funcs_on(self, names, row):
        """Values of the named slot functionals (concatenated) at row."""
        return [x for nm in names for x in row[self.cols[nm]]]

    def func_on(self, name, row):
        return row[self.cols[name]]

    # subspace machinery ---------------------------------------------------

    def kernel_of(self, values, within):
        """Row basis of {u in within : values(u) = 0}, where `values` maps a
        row to a list of real-linear functionals."""
        if not within:
            return []
        rows = [values(c) for c in within]
        if not rows[0]:
            return within
        kern = linalg.kernel_basis([list(col) for col in zip(*rows)])
        return [self._combine(within, k) for k in kern]

    def kernel(self, names, within=None):
        """Row basis of {u in within : all named functionals vanish}."""
        within = self.full if within is None else within
        return self.kernel_of(lambda c: self.funcs_on(names, c), within)

    @staticmethod
    def _combine(within, coeffs):
        """The combination sum_i coeffs[i] within[i] of rows."""
        out = [Fraction(0)] * len(within[0])
        for c, vec in zip(coeffs, within):
            if c:
                for k, v in enumerate(vec):
                    if v:
                        out[k] += c * v
        return out

    def vanishes_on(self, name, within) -> bool:
        return all(all(v == 0 for v in self.func_on(name, c)) for c in within)

    def nonzero_with(self, names, within) -> Optional:
        """A row in `within` where every named functional is nonzero; None
        iff some functional vanishes identically on `within`.

        A real vector space is not a finite union of proper subspaces, so a
        witness exists exactly when each functional is individually nonzero
        somewhere; it is built by perturbing along basis directions.
        """
        if not within:
            return None
        live = []
        for nm in names:
            cand = next((c for c in within
                         if any(v != 0 for v in self.func_on(nm, c))), None)
            if cand is None:
                return None
            live.append(cand)
        u = live[0]
        for nm, helper in zip(names[1:], live[1:]):
            if any(v != 0 for v in self.func_on(nm, u)):
                continue
            for t in (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3),
                      Fraction(3), Fraction(1, 5), Fraction(5)):
                cand = [a + t * b for a, b in zip(u, helper)]
                if all(any(v != 0 for v in self.func_on(nm2, cand)) for nm2 in names):
                    u = cand
                    break
            else:
                return None  # should not happen over R
        return u

    # quadratic forms -------------------------------------------------------

    def gram(self, q, within):
        """Polarization Gram of the quadratic form q(element) on `within`."""
        if not within:
            return []
        return linalg.gram_from_quadratic(lambda v: [q(self.element(v))], within)[0]

    def gram_witness(self, gram, within):
        """A row where the form with this Gram is nonzero."""
        k = len(gram)
        for i in range(k):
            if gram[i][i] != 0:
                return within[i]
        for i in range(k):
            for j in range(i + 1, k):
                if gram[i][j] != 0:
                    return [a + b for a, b in zip(within[i], within[j])]
        return None

    def random_row(self, within, size):
        c = [Fraction(self.rng.randint(-size, size)) for _ in within]
        return self._combine(within, c)


# quadratic/cubic form values -------------------------------------------------

def q_center(e: AlgebraElement) -> Fraction:
    """|eta|^2 - xx*yy, the form whose anisotropy drives the central cases."""
    return abs2(e.eta) - e.xx * e.yy


def r_alpha(e: AlgebraElement) -> Fraction:
    """|x|^2 + 2 Re(phi conj(eta))."""
    return sum((abs2(v) for v in e.x), Fraction(0)) + 2 * re(e.phi * conj(e.eta))


def cubic_c(e: AlgebraElement) -> Fraction:
    """xx |y|^2 + yy |x|^2 + 2 Im(x y^dagger conj(eta))."""
    ax2 = sum((abs2(v) for v in e.x), Fraction(0))
    ay2 = sum((abs2(v) for v in e.y), Fraction(0))
    return e.xx * ay2 + e.yy * ax2 + 2 * im(herm(e.x, e.y) * conj(e.eta))


def pair_e(u: AlgebraElement, z: AlgebraElement) -> Fraction:
    """xx_z |y_u|^2 - phi_u yy_u conj(eta_z) + 2 Im(conj(eta_z) x_u y_u+)."""
    ay2 = sum((abs2(v) for v in u.y), Fraction(0))
    term2 = u.phi * conj(z.eta) * u.yy
    return z.xx * ay2 - re(term2) + 2 * im(conj(z.eta) * herm(u.x, u.y))


def t_pair(u: AlgebraElement, z: AlgebraElement) -> Fraction:
    """xx_z |y_u|^2 + yy_z |x_u|^2 + 2 Im(x_u y_u+ conj(eta_z))."""
    ax2 = sum((abs2(v) for v in u.x), Fraction(0))
    ay2 = sum((abs2(v) for v in u.y), Fraction(0))
    return z.xx * ay2 + z.yy * ax2 + 2 * im(herm(u.x, u.y) * conj(z.eta))


def d_lambda(e: AlgebraElement, lam) -> Fraction:
    """xx + |lambda|^2 yy + 2 Im(lambda conj(eta))."""
    return e.xx + abs2(lam) * e.yy + 2 * im(lam * conj(e.eta))


def _wedge(a, b):
    """Complex 2x2 minors a_i b_j - a_j b_i, i < j, of the stacked (a; b)
    matrix (empty for vectors of length 1, that is n = 3)."""
    return [a[i] * b[j] - a[j] * b[i]
            for i, j in itertools.combinations(range(len(a)), 2)]


def _rank_xy(e: AlgebraElement) -> int:
    has_vec = any(e.x) or any(e.y)
    if not has_vec:
        return 0
    if any(m != 0 for m in _wedge(e.x, e.y)):
        return 2
    return 1


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
        return frame._combine(within, v)

    def ok(row):
        if all(c == 0 for c in row):
            return False
        return all(any(frame.funcs_on(names, row)) for names in avoid_kernels)

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
    import math
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
    if k < 0:
        return None
    r = int(k ** 0.5)
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand * cand == k:
            return cand
    return None


# ---------------------------------------------------------------------------
# rank-one machinery (shared structure, independent random draws per caller)

# Rounds of the randomized rank-one searches (find_rank_one, linear condition
# 2).  Each round is an exact evaluation at a random integer point; a miss is
# covered by the double entry in classify().
_RANK_ONE_ROUNDS = 20
_LI2_ROUNDS = 40


def _minor_grams(frame, within):
    """Polarization Grams of the real and imaginary parts of every (x;y)
    minor, in the order (minor 0 Re, minor 0 Im, minor 1 Re, ...); each
    polarization point's element is built once for all of them."""
    def parts(v):
        e = frame.element(v)
        return [part(m) for m in _wedge(e.x, e.y) for part in (re, im)]
    return linalg.gram_from_quadratic(parts, within)


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
    """v0 when the `name` vector of every element of `within` lies in the
    complex line C*v0 (a zero wedge with v0 is exactly C-colinearity); None
    when it does not, or when that vector vanishes on `within`."""
    vecs = [getattr(frame.element(c), name) for c in within]
    v0 = next((vec for vec in vecs if any(vec)), None)
    if v0 is None or any(any(m != 0 for m in _wedge(v0, vec)) for vec in vecs):
        return None
    return v0


def _line_subspace(frame, v0, within):
    """{u in within : x_u and y_u both lie in the complex line C*v0}."""
    def values(c):
        e = frame.element(c)
        return [part(m) for vec in (e.x, e.y) for m in _wedge(v0, vec)
                for part in (re, im)]
    return frame.kernel_of(values, within)


def _lambda_of(e: AlgebraElement):
    """lambda with x = lambda y for a rank<=1 element with y != 0."""
    ys = sum((abs2(v) for v in e.y), Fraction(0))
    if ys == 0:
        return None
    return herm(e.x, e.y) / QQi(ys)


def _candidate_lambdas(frame, within, rounds=24):
    """Rational lambda candidates from structured rank-one hunting."""
    cands = []

    def push(lam):
        if lam is not None and lam not in cands:
            cands.append(lam)

    for c in within:
        e = frame.element(c)
        if _rank_xy(e) == 1 and any(e.y):
            push(_lambda_of(e))
    # pairwise pencils: roots of the first nonvanishing minor quadratic
    for ci, cj in itertools.combinations(within, 2):
        ei, ej = frame.element(ci), frame.element(cj)
        for t in _pencil_rank1_roots(ei, ej):
            e = frame.element([a + t * b for a, b in zip(ci, cj)])
            if _rank_xy(e) == 1 and any(e.y):
                push(_lambda_of(e))
    for _ in range(rounds):
        c = frame.random_row(within, size=50)
        e = frame.element(c)
        if _rank_xy(e) == 1 and any(e.y):
            push(_lambda_of(e))
    return cands


def _pencil_rank1_roots(ei, ej):
    """Rational t where every (x;y)-minor of ei + t*ej vanishes."""
    polys = []  # (a, b, c) real quadratics a t^2 + b t + c from each minor part
    for m0, m2, m1a, m1b in zip(_wedge(ei.x, ei.y), _wedge(ej.x, ej.y),
                                _wedge(ei.x, ej.y), _wedge(ej.x, ei.y)):
        for part in (re, im):
            a, b, c = part(m2), part(m1a + m1b), part(m0)
            if a or b or c:
                polys.append((a, b, c))
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
            rn = _isqrt_exact(disc.numerator)
            rd = _isqrt_exact(disc.denominator)
            if rn is not None and rd is not None:
                s = Fraction(rn, rd)
                roots.add((-b + s) / (2 * a))
                roots.add((-b - s) / (2 * a))
    good = []
    for t in roots:
        if all(a * t * t + b * t + c == 0 for a, b, c in polys):
            good.append(t)
    return good


def find_rank_one(frame, within):
    """An element of `within` with dim_C <x, y> = 1, or None.

    Exact in the layered cases (kernel sides, globally dependent, complex-line
    images), where a None means that no rank-one element exists; a randomized
    pencil/point search otherwise, so a None may be a false negative — the
    classify() double entry covers that.
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
    # pencils through basis pairs
    for ci, cj in itertools.combinations(within, 2):
        ei, ej = frame.element(ci), frame.element(cj)
        for t in _pencil_rank1_roots(ei, ej):
            cand = [a + t * b for a, b in zip(ci, cj)]
            if _rank_xy(frame.element(cand)) == 1:
                return cand
    for _ in range(_RANK_ONE_ROUNDS):
        c = frame.random_row(within, size=30)
        if _rank_xy(frame.element(c)) == 1:
            return c
    return None


# ---------------------------------------------------------------------------
# the eight square conditions


def check_square(h: Subalgebra, rng=None) -> Optional[SquareWitness]:
    """Lowest-numbered satisfied square condition, with verifying elements.

    Conditions 6 and 7 are checked in the simplified forms that drop the
    x_v y_u+ restriction; after condition 2 has failed, any witness pair
    automatically satisfies the original restriction (its bracket lies in the
    central part, where |eta|^2 = xx*yy forces the missing equation).
    """
    return _first_witness(h, rng or random.Random(0), _SQUARE_CHECKS, SquareWitness)


def _first_witness(h, rng, checks, witness):
    """The lowest-numbered of `checks` that h satisfies, as a `witness`."""
    frame = _Frame(h, rng)
    for cid, checker in enumerate(checks, start=1):
        res = checker(frame)
        if res is not None:
            elements, conjs, note, exact = res
            return witness(cid, elements, conjs, note, exact)
    return None


def _sq1(frame):
    """phi_u = 0 with x_u, y_u linearly independent over C."""
    W = frame.kernel(["phi"])
    if not W:
        return None
    w = _find_rank2(frame, W)
    if w is None:
        return None
    return {"u": frame.element(w)}, [], "", True


def _sq2(frame):
    """z central with |eta_z|^2 != xx_z yy_z."""
    Z = frame.z_rows
    if not Z:
        return None
    g = frame.gram(q_center, Z)
    w = frame.gram_witness(g, Z)
    if w is None:
        return None
    return {"z": frame.element(w)}, [], "", True


def _sq3(frame):
    """phi_u = 0 and T(u, z) != 0 for central z."""
    W = frame.kernel(["phi"])
    if not W:
        return None
    for zc in frame.z_rows:
        z = frame.element(zc)

        def q(e, z=z):
            return t_pair(e, z)

        g = frame.gram(q, W)
        w = frame.gram_witness(g, W)
        if w is not None:
            return {"u": frame.element(w), "z": z}, [], "", True
    return None


def _sq4(frame):
    """phi_u != 0, y_u = 0, yy_u = 0, |x_u|^2 + 2Re(phi_u conj(eta_u)) = 0."""
    V = frame.kernel(["y", "yy"])
    if not V:
        return None
    if frame.vanishes_on("phi", V):
        return None
    g = frame.gram(r_alpha, V)
    sig = linalg.signature(g)
    p, q, z, cert = sig
    if p > 0 and q > 0:
        res = _rational_zero(frame, sig, V, avoid_kernels=[["phi"]])
        if res is None:
            return None
        row, exact = res
        return {"u": frame.element(row)}, [], "", exact
    # semidefinite: zero set is exactly the radical
    rad = [frame._combine(V, v) for v in cert["radical"]]
    w = frame.nonzero_with(["phi"], rad)
    if w is None:
        return None
    return {"u": frame.element(w)}, [], "", True


def _xx_axis_element(frame):
    """The xx-axis row when the axis lies in h, else None."""
    axis = AlgebraElement(frame.n, xx=1).coords()
    return axis if linalg.span_contains(frame.full, axis) else None


def _sq5(frame):
    """xx-axis inside h; u with phi_u != 0, yy_u != 0, y_u = 0."""
    axis = _xx_axis_element(frame)
    if axis is None:
        return None
    V = frame.kernel(["y"])
    w = frame.nonzero_with(["phi", "yy"], V)
    if w is None:
        return None
    return {"u": frame.element(w), "z": AlgebraElement(frame.n, xx=1)}, [], "", True


def _sq6(frame):
    """u: phi,y nonzero; v: phi_v = 0 = y_v = yy_v, x_v != 0 (simplified)."""
    u = frame.nonzero_with(["phi", "y"], frame.full)
    if u is None:
        return None
    V = frame.kernel(["phi", "y", "yy"])
    v = frame.nonzero_with(["x"], V)
    if v is None:
        return None
    return ({"u": frame.element(u), "v": frame.element(v)}, [],
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
    return ({"u": frame.element(u), "v": frame.element(v)}, [],
            "simplified form", True)


def _sq8(frame):
    """dim 3, z = xx-axis, phi nonzero off z, y_u != 0, R(v) > 0 branch."""
    if frame.d != 3:
        return None
    axis = _xx_axis_element(frame)
    if axis is None:
        return None
    if not linalg.subspace_eq(frame.z_rows, [axis]):
        return None
    kphi = frame.kernel(["phi"])
    if not linalg.subspace_eq(kphi, frame.z_rows):
        return None
    u = frame.nonzero_with(["y"], frame.full)
    if u is None:
        return None
    V = frame.kernel(["y", "yy"])
    g = frame.gram(r_alpha, V)
    p, q, z, cert = linalg.signature(g)
    if p == 0:
        return None
    dval, vec = cert["positive"][0]
    v = frame._combine(V, vec)
    return {"u": frame.element(u), "v": frame.element(v)}, [], "", True


_SQUARE_CHECKS = [_sq1, _sq2, _sq3, _sq4, _sq5, _sq6, _sq7, _sq8]


# ---------------------------------------------------------------------------
# the five linear conditions


def check_linear(h: Subalgebra, rng=None) -> Optional[LinearWitness]:
    return _first_witness(h, rng or random.Random(1), _LINEAR_CHECKS, LinearWitness)


def _li1(frame):
    """nonzero central z with |eta_z|^2 = xx_z yy_z."""
    Z = frame.z_rows
    if not Z:
        return None
    g = frame.gram(q_center, Z)
    sig = linalg.signature(g)
    p, q, z, cert = sig
    if z == 0 and (p == 0 or q == 0):
        return None  # anisotropic
    res = _rational_zero(frame, sig, Z)
    if res is None:
        return None
    row, exact = res
    return {"z": frame.element(row)}, [], "", exact


def _li2(frame):
    """phi_u = 0, dim_C <x,y> = 1, and the cubic C(u) = 0.

    Layered decision: the two kernel sides are linear; a global or pointwise
    lambda reduces C to |y|^2 * D_lambda with D_lambda linear; the complex-line
    case expands C exactly and uses oddness of cubics on two-planes; the rest
    is randomized and covered by the double entry.  Template 7 reads the same
    search: for phi = 0 it says whether some rank-one element has C = 0.
    """
    W = frame.kernel(["phi"])
    if not W:
        return None
    # (a) y = 0, yy = 0, x != 0
    V = frame.kernel(["y", "yy"], W)
    w = frame.nonzero_with(["x"], V)
    if w is not None:
        return {"u": frame.element(w)}, [], "y_u = 0 branch", True
    # (b) x = 0, xx = 0, y != 0
    V = frame.kernel(["x", "xx"], W)
    w = frame.nonzero_with(["y"], V)
    if w is not None:
        return {"u": frame.element(w)}, [], "x_u = 0 branch", True
    # (c) global dependence: a single lambda works for all of W
    if _globally_dependent(frame, W):
        wy = frame.nonzero_with(["y"], W)
        if wy is not None:
            lam = _lambda_of(frame.element(wy))
            if lam is not None and _lambda_global(frame, W, lam):
                K = _kernel_d_lambda(frame, W, lam)
                w = frame.nonzero_with(["y"], K)
                if w is not None:
                    return ({"u": frame.element(w)}, [],
                            f"global lambda branch", True)
    # (d) candidate lambdas from structured search
    for lam in _candidate_lambdas(frame, W):
        Wl = _w_lambda(frame, W, lam)
        K = _kernel_d_lambda(frame, Wl, lam)
        w = frame.nonzero_with(["y"], K)
        if w is not None and _rank_xy(frame.element(w)) == 1:
            return {"u": frame.element(w)}, [], "pointwise lambda branch", True
    # (e) complex-line case: exact cubic expansion on the line subspace
    v0 = _image_complex_line(frame, "y", W)
    if v0 is not None:
        res = _li2_line_case(frame, W, v0)
        if res is not None:
            return res
    # (f) randomized sweep
    for _ in range(_LI2_ROUNDS):
        c = frame.random_row(W, size=40)
        e = frame.element(c)
        if _rank_xy(e) == 1 and cubic_c(e) == 0:
            return {"u": e}, [], "randomized", True
    return None


def _w_lambda(frame, W, lam):
    """{u in W : x_u = lam * y_u} as rows."""
    def values(c):
        e = frame.element(c)
        return [part(xv - lam * yv) for xv, yv in zip(e.x, e.y) for part in (re, im)]
    return frame.kernel_of(values, W)


def _lambda_global(frame, W, lam):
    """x_u = lam * y_u for every u in W."""
    for c in W:
        e = frame.element(c)
        if any(part(xv - lam * yv) for xv, yv in zip(e.x, e.y) for part in (re, im)):
            return False
    return True


def _kernel_d_lambda(frame, W, lam):
    return frame.kernel_of(lambda c: [d_lambda(frame.element(c), lam)], W)


def _cubic_coeffs(frame, within):
    """Exact symmetric-trilinear coefficients of C on `within`, keyed by
    index triples i <= j <= l, by 7-term polarization on row sums."""
    def cval(*idx):
        return cubic_c(frame.element([sum(col) for col in zip(*(within[i] for i in idx))]))

    return {(i, j, l): (cval(i, j, l) - cval(i, j) - cval(i, l) - cval(j, l)
                        + cval(i) + cval(j) + cval(l))
            for i, j, l in itertools.combinations_with_replacement(range(len(within)), 3)}


def _li2_line_case(frame, W, v0):
    line = _line_subspace(frame, v0, W)
    if not line:
        return None
    coeffs = _cubic_coeffs(frame, line)
    if all(v == 0 for v in coeffs.values()):
        w = frame.nonzero_with(["y"], line)
        if w is not None:
            return {"u": frame.element(w)}, [], "cubic vanishes on line subspace", True
        return None
    ky = frame.kernel(["y"], line)
    if len(line) - len(ky) >= 2:
        # an odd cubic vanishes somewhere on any 2-plane missing ker y
        found = _odd_cubic_zero_on_plane(frame, line, ky)
        if found is not None:
            u, exact = found
            return {"u": u}, [], "odd-cubic zero on a 2-plane", exact
    return None


def _odd_cubic_zero_on_plane(frame, line, ky):
    """Bisection zero of C on a circle inside a 2-plane transverse to ker y.

    Returns (u, exact): exact is False for the bisection's approximate zero,
    an element with rational coefficients at which C is only nearly zero.
    """
    import math
    comp = [c for c in line if not linalg.span_contains(ky, c)]
    if len(comp) < 2:
        return None
    a, b = None, None
    for ci, cj in itertools.combinations(comp, 2):
        if not linalg.span_contains(ky + [ci], cj):
            a, b = ci, cj
            break
    if a is None:
        return None

    def val(theta):
        ca, cb = math.cos(theta), math.sin(theta)
        cf = [Fraction(ca).limit_denominator(10**9) * x
              + Fraction(cb).limit_denominator(10**9) * y for x, y in zip(a, b)]
        return float(cubic_c(frame.element(cf))), cf

    v0, c0 = val(0.0)
    if v0 == 0:
        return frame.element(c0), True
    lo, hi = 0.0, math.pi  # odd: C(pi) = -C(0)
    flo, _ = val(lo)
    for _ in range(200):
        mid = (lo + hi) / 2
        fm, cm = val(mid)
        if fm == 0 or hi - lo < 1e-15:
            return frame.element(cm), False
        if (fm > 0) == (flo > 0):
            lo = mid
            flo = fm
        else:
            hi = mid
    _, cm = val((lo + hi) / 2)
    return frame.element(cm), False


def _li3(frame):
    """y_h = 0, yy_h = 0, |x|^2 + 2 Re(phi conj(eta)) != 0."""
    V = frame.kernel(["y", "yy"])
    if not V:
        return None
    g = frame.gram(r_alpha, V)
    w = frame.gram_witness(g, V)
    if w is None:
        return None
    return {"u": frame.element(w)}, [], "", True


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
    return {"u": frame.element(u), "z": frame.element(z)}, [], "", True


def _li5(frame):
    """u: phi,y != 0; central z: yy_z = 0, phi_u conj(eta_z) real, E(u,z) = 0."""
    Z0 = frame.kernel(["yy"], frame.z_rows)
    if not Z0:
        return None
    for zc in Z0 + [_z for _z in
                    ([ [a + b for a, b in zip(Z0[0], Z0[1])] ] if len(Z0) > 1 else [])]:
        z = frame.element(zc)
        if not z.eta and not z.xx:
            continue
        res = _li5_fixed_z(frame, z)
        if res is not None:
            return res
    return None


def _li5_fixed_z(frame, z):
    # K = {u : Im(phi_u conj(eta_z)) = 0}
    K = frame.kernel_of(lambda c: [im(frame.element(c).phi * conj(z.eta))],
                        frame.full)
    if not K:
        return None

    def qe(e):
        return pair_e(e, z)

    g = frame.gram(qe, K)
    sig = linalg.signature(g)
    p, q, zr, cert = sig
    if linalg.gram_is_zero(g):
        w = frame.nonzero_with(["phi", "y"], K)
        if w is not None and (z.eta or z.xx):
            u = frame.element(w)
            if im(u.phi * conj(z.eta)) == 0 and (u.phi * conj(z.eta)):
                return {"u": u, "z": z}, [], "E vanishes identically", True
        return None
    if p > 0 and q > 0:
        # indefinite: try rational points of the zero cone
        res = _rational_zero(frame, sig, K, avoid_kernels=[["phi"], ["y"]])
        if res is not None:
            row, exact = res
            u = frame.element(row)
            if any(u.y) and u.phi and (u.phi * conj(z.eta)):
                return {"u": u, "z": z}, [], "", exact
        return None
    # semidefinite: the zero set is the radical
    rad = [frame._combine(K, v) for v in cert["radical"]]
    w = frame.nonzero_with(["phi", "y"], rad)
    if w is not None:
        u = frame.element(w)
        if u.phi * conj(z.eta):
            return {"u": u, "z": z}, [], "", True
    return None


_LINEAR_CHECKS = [_li1, _li2, _li3, _li4, _li5]


# ---------------------------------------------------------------------------
# the eleven non-CDS templates

_SLOT_FUNCS = {
    "alpha": "phi", "beta": "y", "alpha+beta": "x",
    "2beta": "yy", "alpha+2beta": "eta", "2alpha+2beta": "xx",
}
_ALL_SLOTS = ["phi", "y", "x", "yy", "eta", "xx"]


def _span_in_slots(frame, rows, slots):
    """Every element of the span of `rows` supported inside `slots`."""
    others = [s for s in _ALL_SLOTS if s not in slots]
    return not any(any(frame.funcs_on(others, c)) for c in rows)


def _slot_subspace(frame, slots, within=None):
    """{u : all slots outside `slots` vanish} as rows."""
    others = [s for s in _ALL_SLOTS if s not in slots]
    return frame.kernel(others, within)


def _h_decomposes(frame, slot_groups):
    """h == sum of (h ∩ slot-span) over the groups, checked exactly."""
    parts = []
    for slots in slot_groups:
        parts.extend(_slot_subspace(frame, slots))
    return linalg.subspace_eq(parts, frame.full)


def _z_in_slots(frame, slots):
    return _span_in_slots(frame, frame.z_rows, slots)


def match_notcds(h: Subalgebra, rng=None) -> Optional[NotCdsMatch]:
    """First matching template of the eleven, with its mu-shape.

    Templates are tried in order; the order resolves the stated special-case
    overlaps (a one-dimensional central line with an isotropic form is type 1,
    an anisotropic one falls through to type 6, and the dim-1 specializations
    of types 3 and 5 carry curve shapes instead of bands).
    """
    rng = rng or random.Random(2)
    frame = _Frame(h, rng)
    if all(frame.element(c).is_zero() for c in frame.full):
        raise ValueError("trivial subalgebra")
    for matcher in _TEMPLATES:
        m = matcher(frame)
        if m is not None:
            return m
    return None


def _tm1(frame):
    """dim 1 central line with |eta|^2 = xx*yy identically: rho ~ |h|."""
    if frame.d != 1:
        return None
    if not linalg.subspace_eq(frame.z_rows, frame.full):
        return None
    g = frame.gram(q_center, frame.full)
    if not linalg.gram_is_zero(g):
        return None
    return NotCdsMatch(1, MuShape.curve(1, provenance="notcds-1"), {}, frame.d)


def _tm2(frame):
    """phi = y = 0, some yy != 0, central part inside the xx-axis."""
    if not (frame.vanishes_on("phi", frame.full)
            and frame.vanishes_on("y", frame.full)):
        return None
    if frame.nonzero_with(["yy"], frame.full) is None:
        return None
    if not _z_in_slots(frame, ["xx"]):
        return None
    if frame.d == 1:
        shape = MuShape.curve(Fraction(3, 2), provenance="notcds-2 dim1")
    else:
        shape = MuShape.band(1, Fraction(3, 2), provenance="notcds-2")
    return NotCdsMatch(2, shape, {}, frame.d)


def _tm3(frame):
    """phi = 0 with a single lambda: x = lambda y, eta_z = i lambda yy_z,
    xx_z = |lambda|^2 yy_z on the central part."""
    if not frame.vanishes_on("phi", frame.full):
        return None
    lam = None
    wy = frame.nonzero_with(["y"], frame.full)
    if wy is not None:
        e = frame.element(wy)
        if _rank_xy(e) == 2:
            return None
        lam = _lambda_of(e)
        if lam is None:
            return None
        if not _lambda_global(frame, frame.full, lam):
            return None
    else:
        # y identically zero: x must vanish too, and lambda is pinned by z
        if frame.nonzero_with(["x"], frame.full) is not None:
            return None
        wz = frame.nonzero_with(["yy"], frame.z_rows)
        if wz is None:
            return None
        z0 = frame.element(wz)
        lam = z0.eta / QQi(0, 1) / QQi(z0.yy)
    i_ = QQi(0, 1)
    for zc in frame.z_rows:
        z = frame.element(zc)
        if z.eta != i_ * lam * QQi(z.yy):
            return None
        if QQi(z.xx) != QQi(abs2(lam)) * QQi(z.yy):
            return None
    # subcase (a): some u with D_lambda(u) != 0
    rows = [[d_lambda(frame.element(c), lam)] for c in frame.full]
    has_d = any(r[0] != 0 for r in rows)
    ev = {"lambda": lam}
    if has_d:
        if frame.d == 1:
            shape = MuShape.curve(Fraction(3, 2), provenance="notcds-3a dim1")
        else:
            shape = MuShape.band(1, Fraction(3, 2), provenance="notcds-3a")
        return NotCdsMatch(3, shape, ev, frame.d, subcase="a")
    return NotCdsMatch(3, MuShape.curve(1, provenance="notcds-3b"), ev, frame.d,
                       subcase="b")


def _tm4(frame):
    """y = yy = 0 with |x|^2 + 2 Re(phi conj(eta)) anisotropic off the
    xx-axis: rho ~ |h|."""
    if not (frame.vanishes_on("y", frame.full)
            and frame.vanishes_on("yy", frame.full)):
        return None
    # R descends to h / (h ∩ xx-axis); anisotropy there means the form is
    # semidefinite with radical inside the xx-axis
    g = frame.gram(r_alpha, frame.full)
    p, q, z, cert = linalg.signature(g)
    if not (p == 0 or q == 0):
        return None
    for v in cert["radical"]:
        if not _span_in_slots(frame, [frame._combine(frame.full, v)], ["xx"]):
            return None
    return NotCdsMatch(4, MuShape.curve(1, provenance="notcds-4"), {}, frame.d)


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
    e0 = frame.element(wyy)
    if e0.yy == 0:
        return None
    phi0 = e0.phi / QQi(e0.yy)
    if not phi0:
        return None
    for c in frame.full:
        e = frame.element(c)
        if e.phi != phi0 * QQi(e.yy):
            return None
    ev = {"phi0": phi0}
    if frame.d == 1:
        shape = MuShape.curve(Fraction(4, 3), provenance="notcds-5 dim1")
    else:
        shape = MuShape.band(1, Fraction(4, 3), provenance="notcds-5")
    return NotCdsMatch(5, shape, ev, frame.d, subcase="")


def _tm6(frame):
    """phi = 0, no rank-one (x,y) pair, central form anisotropic: rho ~ |h|^2."""
    if not frame.vanishes_on("phi", frame.full):
        return None
    if find_rank_one(frame, frame.full) is not None:
        return None
    if frame.z_rows:
        g = frame.gram(q_center, frame.z_rows)
        if not linalg.is_definite(g):
            return None
    return NotCdsMatch(6, MuShape.curve(2, provenance="notcds-6"), {}, frame.d)


def _tm7(frame):
    """phi = 0 mixing rank-2 (or central) and rank-1 directions, every rank-1
    element having a nonzero cubic, central form anisotropic: the 3/2..2 band."""
    if not frame.vanishes_on("phi", frame.full):
        return None
    if frame.z_rows:
        g = frame.gram(q_center, frame.z_rows)
        if not linalg.is_definite(g):
            return None
    has_not1 = bool(frame.z_rows) or (_find_rank2(frame, frame.full) is not None)
    if not has_not1:
        return None
    v = find_rank_one(frame, frame.full)
    if v is None:
        return None
    if _li2(frame) is not None:
        return None  # linear condition 2: some rank-one element has C = 0
    return NotCdsMatch(7, MuShape.band(Fraction(3, 2), 2, provenance="notcds-7"),
                       {"rank_one": frame.element(v)}, frame.d)


def _tm8(frame):
    """dim <= 3, trivial central part, ker phi = ker y, (phi, yy) injective."""
    if frame.d > 3 or frame.z_rows:
        return None
    if frame.nonzero_with(["phi"], frame.full) is None:
        return None
    kphi = frame.kernel(["phi"])
    ky = frame.kernel(["y"])
    if not linalg.subspace_eq(kphi, ky):
        return None
    if frame.kernel(["phi", "yy"]):
        return None  # (phi, yy) must be injective
    return NotCdsMatch(8, MuShape.curve(Fraction(3, 2), provenance="notcds-8"),
                       {}, frame.d)


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
    return NotCdsMatch(9, MuShape.band(1, Fraction(3, 2), provenance="notcds-9"),
                       {}, frame.d)


def _tm10(frame):
    """dim <= 2, phi never zero, y = yy = 0, R identically zero: rho ~ |h|^2."""
    if frame.d > 2:
        return None
    if not (frame.vanishes_on("y", frame.full)
            and frame.vanishes_on("yy", frame.full)):
        return None
    if frame.kernel(["phi"]):
        return None  # phi_h = 0 for some nonzero h
    g = frame.gram(r_alpha, frame.full)
    if not linalg.gram_is_zero(g):
        return None
    return NotCdsMatch(10, MuShape.curve(2, provenance="notcds-10"), {}, frame.d)


def _tm11(frame):
    """dim 2 with u (phi, y != 0) and central z (yy_z = 0,
    phi_u conj(eta_z) real nonzero, E(u,z) != 0): the 5/4..2 band."""
    if frame.d != 2:
        return None
    Z0 = frame.kernel(["yy"], frame.z_rows)
    if len(Z0) != 1:
        return None
    z = frame.element(Z0[0])
    if not z.eta:
        return None
    # u ranges over h \ z; the conditions only depend on u modulo z and
    # rescaling, so one representative decides
    rep = next((c for c in frame.full
                if not linalg.span_contains(frame.z_rows, c)), None)
    if rep is None:
        return None
    u = frame.element(rep)
    if not u.phi or not any(u.y):
        return None
    prod = u.phi * conj(z.eta)
    if im(prod) != 0 or not prod:
        return None
    if pair_e(u, z) == 0:
        return None
    return NotCdsMatch(11, MuShape.band(Fraction(5, 4), 2, provenance="notcds-11"),
                       {"u": u, "z": z}, frame.d)


_TEMPLATES = [_tm1, _tm2, _tm3, _tm4, _tm5, _tm6, _tm7, _tm8, _tm9, _tm10, _tm11]


# ---------------------------------------------------------------------------
# the semidirect case list


@dataclass(frozen=True)
class SemidirectCase:
    """One row of the case list for U of template `type_id`.

    When U's slot structure satisfies `holds(frame, match)`, N_A(U) is
    ker(root), or all of A when root is None; T x| U is semidirect case
    `case`, of shape `shape` for any such torus line T.  Rows are tried in
    order, and a U that matches no row of its template has trivial N_A(U).
    """
    type_id: int
    holds: Callable
    root: Optional[str]
    case: str
    shape: MuShape

    def normalizer(self) -> NormalizerResult:
        if self.root is None:
            return NormalizerResult("full")
        return NormalizerResult("line", kernel_line(self.root), self.root)

    @property
    def verdict(self) -> str:
        return "CDS" if self.shape.kind == "full_chamber" else "NotCDS"

    def shape_of(self, dim_h: int) -> MuShape:
        """The shape of T x| U; a band 1..s with numeric s is the curve
        |h|^s when dim H = 2, as for the dim-1 templates."""
        sh = self.shape
        if dim_h == 2 and sh.kind == "band" and sh.s_lo == 1 and not sh.symbolic:
            return MuShape.curve(sh.s_hi, provenance=self.case)
        return replace(sh, provenance=self.case)


def _has_lambda(match):
    """Type 3 with x = lambda y for a lambda != 0."""
    return bool(match.evidence.get("lambda"))


_CDS = MuShape.full_chamber()
SEMIDIRECT_CASES = [
    SemidirectCase(1, lambda f, m: (_span_in_slots(f, f.full, ["yy"])
                                    or _span_in_slots(f, f.full, ["xx"])),
                   None, "semidirect-1a", MuShape.band(1, None)),
    SemidirectCase(1, lambda f, m: True, "alpha", "semidirect-1b", _CDS),
    SemidirectCase(2, lambda f, m: _h_decomposes(f, [["x", "yy"], ["xx"]]),
                   "alpha-beta", "semidirect-2", MuShape.band(1, Fraction(3, 2))),
    SemidirectCase(3, lambda f, m: (_has_lambda(m)
                                    and not linalg.subspace_eq(f.z_rows, f.full)
                                    and _h_decomposes(f, [["y", "x"],
                                                          ["yy", "eta", "xx"]])),
                   "alpha", "semidirect-3", _CDS),
    SemidirectCase(3, lambda f, m: (not _has_lambda(m)
                                    and _h_decomposes(f, [["y"], ["yy"]])),
                   None, "semidirect-4a", MuShape.band(1, None)),
    SemidirectCase(3, lambda f, m: (not _has_lambda(m)
                                    and _h_decomposes(f, [["y", "eta"], ["yy"]])),
                   "alpha+beta", "semidirect-4bi", MuShape.curve(1)),
    SemidirectCase(3, lambda f, m: (not _has_lambda(m)
                                    and _h_decomposes(f, [["y", "xx"], ["yy"]])),
                   "2alpha+beta", "semidirect-4bii", MuShape.band(1, Fraction(3, 2))),
    SemidirectCase(3, lambda f, m: (not _has_lambda(m) and not f.z_rows
                                    and _span_in_slots(f, f.full, ["y", "yy"])),
                   "beta", "semidirect-4biii", _CDS),
    SemidirectCase(4, lambda f, m: _h_decomposes(f, [["x"], ["xx", "eta", "yy"]]),
                   None, "semidirect-5a", MuShape.band(1, None)),
    SemidirectCase(4, lambda f, m: _span_in_slots(f, f.full, ["x", "xx"]),
                   "alpha+beta", "semidirect-5b", _CDS),
    SemidirectCase(4, lambda f, m: _h_decomposes(f, [["phi", "x", "eta"], ["xx"]]),
                   "beta", "semidirect-5c", MuShape.curve(1)),
    SemidirectCase(5, lambda f, m: _h_decomposes(f, [["phi", "yy"], ["x"]]),
                   "alpha-2beta", "semidirect-6", MuShape.band(1, Fraction(4, 3))),
    SemidirectCase(6, lambda f, m: _span_in_slots(f, f.full, ["eta"]),
                   None, "semidirect-7a", MuShape.band(None, 2)),
    SemidirectCase(6, lambda f, m: _h_decomposes(f, [["y", "x"], ["yy", "eta", "xx"]]),
                   "alpha", "semidirect-7b", MuShape.curve(2)),
    SemidirectCase(7, lambda f, m: _h_decomposes(f, [["x", "yy"], ["eta"]]),
                   "alpha-beta", "semidirect-8x", MuShape.band(Fraction(3, 2), 2)),
    SemidirectCase(7, lambda f, m: _h_decomposes(f, [["y", "xx"], ["eta"]]),
                   "2alpha+beta", "semidirect-8y", MuShape.band(Fraction(3, 2), 2)),
    SemidirectCase(8, lambda f, m: (_h_decomposes(f, [["phi", "y"], ["x", "yy"]])
                                    and bool(_slot_subspace(f, ["phi", "y"]))),
                   "alpha-beta", "semidirect-9", MuShape.curve(Fraction(3, 2))),
    SemidirectCase(9, lambda f, m: _h_decomposes(f, [["phi", "y"], ["xx"]]),
                   "alpha-beta", "semidirect-10", MuShape.band(1, Fraction(3, 2))),
    SemidirectCase(10, lambda f, m: _span_in_slots(f, f.full, ["phi"]),
                   None, "semidirect-11a", MuShape.band(None, 2)),
    SemidirectCase(10, lambda f, m: _span_in_slots(f, f.full, ["phi", "x", "eta"]),
                   "beta", "semidirect-11b", _CDS),
    SemidirectCase(10, lambda f, m: _span_in_slots(f, f.full, ["phi", "xx"]),
                   "alpha+2beta", "semidirect-11c", MuShape.curve(2)),
]


def semidirect_case(h: Subalgebra, match: NotCdsMatch) -> Optional[SemidirectCase]:
    """The first row of the case list that h, of template match, satisfies."""
    frame = _Frame(h, random.Random(0))  # the rows read exact kernels only
    return next((row for row in SEMIDIRECT_CASES
                 if row.type_id == match.type_id and row.holds(frame, match)), None)


# ---------------------------------------------------------------------------
# normalizer in A and the classification driver


def normalizer_in_A(h: Subalgebra) -> NormalizerResult:
    """{t in a : [t, h] <= h}, solved exactly as a 2-variable linear system."""
    if not h.is_nilpotent():
        raise NotInN("subalgebra has a nonzero a-part")
    rows = h.coord_rows()
    constraints = [(ad_a(1, 0, b).coords(), ad_a(0, 1, b).coords())
                   for b in h.basis]
    # [t1 d1 + t2 d2] must lie in span(h) for every basis element: reduce the
    # action vectors modulo span(h) and collect the residual constraints.
    red, pivots = linalg.rref(rows)

    def reduce_mod(vec):
        v = list(vec)
        for r, pc in enumerate(pivots):
            if v[pc] != 0:
                f = v[pc]
                v = [a - f * b for a, b in zip(v, red[r])]
        return v

    sys_rows = []
    for d1, d2 in constraints:
        r1 = reduce_mod(d1)
        r2 = reduce_mod(d2)
        for comp in range(len(r1)):
            if r1[comp] != 0 or r2[comp] != 0:
                sys_rows.append([r1[comp], r2[comp]])
    if not sys_rows:
        return NormalizerResult("full")
    kern = linalg.kernel_basis(sys_rows)
    if not kern:
        return NormalizerResult("trivial")
    if len(kern) == 2:
        return NormalizerResult("full")
    p, q = primitive_line(*kern[0])
    return NormalizerResult("line", (p, q), kernel_root(p, q))


def expected_normalizer(h: Subalgebra, match: NotCdsMatch) -> NormalizerResult:
    """Predicted N_A(h) for a matched template: that of the first case-list
    row h satisfies, else trivial."""
    row = semidirect_case(h, match)
    return row.normalizer() if row else NormalizerResult("trivial")


def classify(h: Subalgebra, seed: int = 0) -> ClassificationResult:
    """Full double-entry classification of a nontrivial subalgebra of n.

    CDS iff a square and a linear witness both exist.  The template match is
    computed independently; the witness pattern must equal the envelope
    pattern of the matched shape (square witness iff the upper envelope is
    |h|^2, linear witness iff the lower envelope is |h|), and no template may
    match in the CDS case.  A disagreement is retried with fresh randomness
    (a randomized search may produce a false negative) and then raised as
    InconsistentClassification.
    """
    if all(b.is_zero() for b in h.basis):
        raise ValueError("theorem applies to nontrivial subgroups only")
    last = None
    for attempt in range(3):
        salt = seed + attempt * 1000003
        sq = check_square(h, random.Random(salt))
        li = check_linear(h, random.Random(salt + 1))
        tm = match_notcds(h, random.Random(salt + 2))
        ok = _double_entry_ok(sq, li, tm)
        if ok:
            norm = normalizer_in_A(h)
            if tm is not None:
                exp = expected_normalizer(h, tm)
                if exp != norm:
                    last = (f"normalizer {norm} disagrees with the case list "
                            f"prediction {exp} for template {tm.type_id}")
                    continue
            if tm is None:
                shape = MuShape.full_chamber(provenance="square+linear witnesses")
                return ClassificationResult("CDS", shape, sq, li, None, norm, seed)
            return ClassificationResult("NotCDS", tm.shape, sq, li, tm, norm, seed)
        last = (f"witnesses (square={sq and sq.condition_id}, "
                f"linear={li and li.condition_id}) vs template "
                f"{tm and tm.type_id}")
    raise InconsistentClassification(last)


def _double_entry_ok(sq, li, tm):
    if tm is None:
        return sq is not None and li is not None
    want_sq = tm.shape.upper_touches_square()
    want_li = tm.shape.lower_touches_linear()
    return (sq is not None) == want_sq and (li is not None) == want_li


# ---------------------------------------------------------------------------
# witness curves


class ImplicitSolveFailed(RuntimeError):
    pass


def _vec(e: AlgebraElement) -> np.ndarray:
    """The float coordinate vector of an exact element, for exp_float."""
    return np.array(e.coords(), dtype=float)


def _conj_u_alpha(u: AlgebraElement, c):
    """Ad(exp(w)) u for w the alpha-root element with phi = c (exact)."""
    from .weyl import conjugate
    w = AlgebraElement(u.n, phi=c)
    return conjugate(exp_closed(w), u)


def witness_curve(witness, h: Subalgebra):
    """The proof's one-parameter curve t -> h(t) for a witness.

    Returns a callable from a float t to the (m, m) complex matrix of h(t).
    Square curves have |rho(h(t))| ~ |h(t)|^2, linear ones ~ |h(t)|;
    preliminary conjugations from the proofs are applied exactly, so the
    curve may live in a conjugate copy of H (which moves mu by a bounded
    amount only).
    """
    if isinstance(witness, SquareWitness):
        return _square_curve(witness, h)
    if isinstance(witness, LinearWitness):
        return _linear_curve(witness, h)
    raise TypeError("expected a SquareWitness or LinearWitness")


def _square_curve(w: SquareWitness, h: Subalgebra):
    cid = w.condition_id
    els = w.elements
    if cid == 1:
        u = els["u"]
        ys = sum((abs2(v) for v in u.y), Fraction(0))
        u1 = _conj_u_alpha(u, -(herm(u.x, u.y) / QQi(ys))) if ys else u
        uf = _vec(u1)
        return lambda t: exp_float(uf, t)
    if cid == 2:
        z = _vec(els["z"])
        return lambda t: exp_float(z, t)
    if cid == 3:
        u, z = _vec(els["u"]), _vec(els["z"])
        return lambda t: exp_float(u * t + z * (t * t))
    if cid == 4:
        u = _vec(els["u"])
        return lambda t: exp_float(u, t)
    if cid == 5:
        u, z = els["u"], els["z"]
        u1 = u - z.scale(u.xx)  # clear the xx slot
        aphi2 = abs2(complex(u1.phi))
        yy = float(u1.yy)
        u1f, zf = _vec(u1), _vec(z)

        def curve(t):
            c = (t ** 3) * aphi2 * yy / 6.0
            return exp_float(u1f * t + zf * c)
        return curve
    if cid in (6, 7):
        u, v = _vec(els["u"]), _vec(els["v"])
        axis = _vec(AlgebraElement(h.n, xx=1))

        def curve(t, cid=cid):
            s = _solve_re_corner(u, v, t)
            e = u * t + v * s
            g = exp_float(e)
            if cid == 6:
                return g
            return exp_float(e + axis * -g[0, -1].imag)
        return curve
    if cid == 8:
        u, v = _vec(els["u"]), _vec(els["v"])
        axis = _vec(AlgebraElement(h.n, xx=1))

        def curve(t):
            s = _solve_re_corner(v, u, t)  # h in exp(s u + t v + z): s = O(1)
            e = v * t + u * s
            g = exp_float(e)
            return exp_float(e + axis * -g[0, -1].imag)
        return curve
    raise ImplicitSolveFailed(f"no curve recipe for square condition {cid}")


def _solve_re_corner(u, v, t):
    """s with Re(exp(t u + s v)[0, n+1]) = 0, by bracketing + bisection."""
    from scipy.optimize import brentq

    def f(s):
        return exp_float(u * t + v * s)[0, -1].real

    f0 = f(0.0)
    if f0 == 0.0:
        return 0.0
    hi = 1.0
    for _ in range(200):
        if f(hi) * f0 < 0:
            return brentq(f, 0.0, hi) if hi > 0 else brentq(f, hi, 0.0)
        if f(-hi) * f0 < 0:
            return brentq(f, -hi, 0.0)
        hi *= 1.6
    raise ImplicitSolveFailed("no sign change for the corner-entry solve")


def _linear_curve(w: LinearWitness, h: Subalgebra):
    cid = w.condition_id
    els = w.elements
    if cid == 1:
        z = _vec(els["z"])
        return lambda t: exp_float(z, t)
    if cid == 2:
        u = els["u"]
        if any(u.y):
            from .weyl import weyl_reflect
            u = weyl_reflect(_conj_u_alpha(u, -_lambda_of(u)), "alpha")
        uf = _vec(u)
        return lambda t: exp_float(uf, t)
    if cid == 3:
        u = _vec(els["u"])
        return lambda t: exp_float(u, t)
    if cid == 4:
        u, z = _vec(els["u"]), _vec(els["z"])
        cols = AlgebraElement.slot_columns(h.n)

        def curve(t):
            from scipy.optimize import brentq

            def redelta(p):
                e = (u * t + z * p).tolist()
                (xx,), (yy,) = e[cols["xx"]], e[cols["yy"]]
                phi2 = sum(v * v for v in e[cols["phi"]])
                eta2 = sum(v * v for v in e[cols["eta"]])
                return xx * yy + phi2 * yy * yy / 12.0 - eta2

            p0, p1 = 0.0, 1.0
            f0 = redelta(p0)
            if f0 == 0:
                return exp_float(u, t)
            for _ in range(200):
                if redelta(p1) * f0 < 0:
                    p = brentq(redelta, min(p0, p1), max(p0, p1))
                    return exp_float(u * t + z * p)
                if redelta(-p1) * f0 < 0:
                    p = brentq(redelta, -p1, 0.0)
                    return exp_float(u * t + z * p)
                p1 *= 1.7
            raise ImplicitSolveFailed("linear condition 4: no root in p")
        return curve
    if cid == 5:
        return _linear5_curve(w, h)
    raise ImplicitSolveFailed(f"no curve recipe for linear condition {cid}")


def _linear5_curve(w: LinearWitness, h: Subalgebra):
    """Curve for the mixed phi/y + central-eta condition.

    The pair (u, z) is conjugated exactly so that u lives in the phi and y
    slots only and z is a pure central eta element with phi_u conj(eta_z)
    real; along exp(s u + p z) the corner determinant has a double root in p,
    and scanning p near it tracks the linear-growth direction.
    """
    from .weyl import conjugate

    u, z = w.elements["u"], w.elements["z"]
    n = u.n

    def conj_pair(welt, u, z):
        g = exp_closed(welt)
        return conjugate(g, u), conjugate(g, z)

    # (i) clear yy_u by a beta conjugation along y_u
    ys = sum((abs2(v) for v in u.y), Fraction(0))
    if u.yy != 0 and ys != 0:
        s = Fraction(u.yy, 2) / ys
        welt = AlgebraElement(n, y=[QQi(0, 1) * (s * v) for v in u.y])
        u, z = conj_pair(welt, u, z)
    # (ii) make x_u orthogonal to y_u (alpha conjugation)
    if ys != 0:
        c = -(herm(u.x, u.y) / QQi(ys))
        welt = AlgebraElement(n, phi=c)
        u, z = conj_pair(welt, u, z)
    # (iii) clear x_u by a beta element centralizing y_u
    if any(u.x) and u.phi:
        welt = AlgebraElement(n, y=[v / u.phi for v in u.x])
        u, z = conj_pair(welt, u, z)
    # (iv) clear eta_u
    if u.eta and ys != 0:
        welt = AlgebraElement(n, x=[(u.eta / QQi(ys)) * v for v in u.y])
        u, z = conj_pair(welt, u, z)
    # (v) clear xx_u
    if u.xx != 0 and u.phi:
        t = Fraction(u.xx, 2) / abs2(u.phi)
        welt = AlgebraElement(n, eta=QQi(0, 1) * (t * u.phi))
        u, z = conj_pair(welt, u, z)
    uf, zf = _vec(u), _vec(z)
    eta2 = abs2(complex(z.eta))
    ys = sum(abs2(complex(v)) for v in u.y)
    r0 = re(complex(z.eta) * conj(complex(u.phi)))

    def curve(s):
        if eta2 == 0:
            return exp_float(uf, s)
        p_star = -(s ** 3) * ys * r0 / (12.0 * eta2)
        best, best_ratio = None, None
        from .metrics import rho_norm, sup_norm
        for fac in (1.0, 0.98, 1.02, 0.9, 1.1, 0.0):
            g = exp_float(uf * s + zf * (p_star * fac))
            ratio = rho_norm(g) / max(sup_norm(g), 1.0)
            if best_ratio is None or ratio < best_ratio:
                best, best_ratio = g, ratio
        return best
    return curve
