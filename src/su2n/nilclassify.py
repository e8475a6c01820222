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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .config import DEFAULT
from .elements import (AlgebraElement, EXTENDED_FUNCTIONALS, ROOTS, _FloatSlots,
                        exp_closed, exp_float, kernel_line, root_functional,
                        root_value)
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
# coefficient-space frame


def _horizontal(values):
    """Stack functional values (lists of Fractions) into constraint rows."""
    width = len(values[0])
    return [[values[i][c] for i in range(len(values))] for c in range(width)]


class _Frame:
    """Precomputed exact data for one subalgebra.

    All subspaces are represented by coefficient vectors over h.basis, so
    kernels, intersections and containments are small rational systems.
    """

    def __init__(self, h: Subalgebra, rng: random.Random):
        if not h.is_nilpotent():
            raise NotInN("subalgebra has a nonzero a-part")
        self.h = h
        self.n = h.n
        self.d = h.dim
        self.rng = rng
        self.cols = AlgebraElement.slot_columns(self.n)
        self.full = [self._unit(i) for i in range(self.d)]
        self.z_coeffs = self.kernel(["phi", "x", "y"])

    def _unit(self, i):
        v = [Fraction(0)] * self.d
        v[i] = Fraction(1)
        return v

    # functional values, read as column slices of coeffs . C ----------------

    def element(self, coeffs) -> AlgebraElement:
        return self.h.element(coeffs)

    def funcs_on(self, names, coeffs):
        """Values of the named slot functionals (concatenated) at coeffs."""
        v = self.h.coords_of(coeffs)
        return [x for nm in names for x in v[self.cols[nm]]]

    def func_on(self, name, coeffs):
        return self.h.coords_of(coeffs)[self.cols[name]]

    # subspace machinery ---------------------------------------------------

    def kernel(self, names, within=None):
        """Coefficient basis of {u in within : all named functionals vanish}."""
        within = self.full if within is None else within
        if not within:
            return []
        mat = _horizontal([self.funcs_on(names, c) for c in within])
        kern = linalg.kernel_basis(mat)
        return [self._combine(within, k) for k in kern]

    def _combine(self, within, coeffs):
        out = [Fraction(0)] * self.d
        for c, vec in zip(coeffs, within):
            if c:
                out = [a + c * b for a, b in zip(out, vec)]
        return out

    def vanishes_on(self, name, within) -> bool:
        return all(all(v == 0 for v in self.func_on(name, c)) for c in within)

    def contains_coeff(self, within, coeff) -> bool:
        return linalg.span_contains(within, coeff)

    def subspace_leq(self, a, b) -> bool:
        return all(linalg.span_contains(b, v) for v in a)

    def subspace_eq(self, a, b) -> bool:
        return self.subspace_leq(a, b) and self.subspace_leq(b, a)

    def nonzero_with(self, names, within) -> Optional:
        """A coefficient vector in `within` where every named functional is
        nonzero; None iff some functional vanishes identically on `within`.

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
        k = len(within)

        def qc(coeffs):
            return q(self.element(self._combine(within, coeffs)))

        return linalg.gram_from_quadratic(qc, list(range(k))) if k else []

    def gram_witness(self, gram, within):
        """Coefficient vector where the form with this Gram is nonzero."""
        k = len(gram)
        for i in range(k):
            if gram[i][i] != 0:
                return within[i]
        for i in range(k):
            for j in range(i + 1, k):
                if gram[i][j] != 0:
                    return [a + b for a, b in zip(within[i], within[j])]
        return None

    def random_coeff(self, within, size=None):
        size = size or DEFAULT.pit_grid
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


def _xy_minors(e: AlgebraElement):
    """Complex 2x2 minors of the stacked (x; y) matrix (empty for n = 3)."""
    d = len(e.x)
    return [e.x[i] * e.y[j] - e.x[j] * e.y[i]
            for i in range(d) for j in range(i + 1, d)]


def _rank_xy(e: AlgebraElement) -> int:
    has_vec = any(e.x) or any(e.y)
    if not has_vec:
        return 0
    if any(m != 0 for m in _xy_minors(e)):
        return 2
    return 1


# isotropic vectors -----------------------------------------------------------

def _rational_zero(frame, gram_data, within, avoid_kernels=()):
    """A vector v with q(v) = 0, outside every subspace in avoid_kernels.

    gram_data is the signature() certificate.  Uses the radical first, then
    zero-diagonal congruence directions, then small rational combinations of
    one positive and one negative congruence vector (rational when the
    discriminant is a perfect square).  Returns (coeffs, exact_flag) or None
    when the real zero cone is degenerate enough to force a nonexistence
    (caller decides that via the signature).
    """
    p, nneg, z, cert = gram_data

    def lift(v):
        return frame._combine(within, v)

    def ok(coeffs):
        if all(c == 0 for c in coeffs):
            return False
        return all(any(frame.funcs_on(names, coeffs)) for names in avoid_kernels)

    candidates = [lift(v) for v in cert["radical"]]
    # combinations inside the radical
    for i in range(len(cert["radical"])):
        for j in range(i + 1, len(cert["radical"])):
            candidates.append(lift([a + b for a, b in
                                    zip(cert["radical"][i], cert["radical"][j])]))
    for coeffs in candidates:
        if ok(coeffs):
            return coeffs, True
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
                coeffs = lift([a + b for a, b in zip(base, extra)])
                if ok(coeffs):
                    return coeffs, True
            coeffs = lift([-t * a + b for a, b in zip(vp, vn)])
            if ok(coeffs):
                return coeffs, True
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


def _minor_grams(frame, within):
    """Polarization Grams of the real/imaginary parts of all (x;y) minors."""
    grams = []
    d = frame.n - 2
    for i in range(d):
        for j in range(i + 1, d):
            for part in (re, im):
                def q(e, i=i, j=j, part=part):
                    return part(e.x[i] * e.y[j] - e.x[j] * e.y[i])
                grams.append((q, frame.gram(q, within)))
    return grams


def _globally_dependent(frame, within):
    """True iff every element of `within` has x, y C-dependent (all minors
    vanish identically).  Deterministic via the polarization Grams."""
    return all(linalg.gram_is_zero(g) for _, g in _minor_grams(frame, within))


def _find_rank2(frame, within):
    """An element with C-independent x, y, or None (deterministic)."""
    for q, g in _minor_grams(frame, within):
        w = frame.gram_witness(g, within)
        if w is not None:
            e = frame.element(w)
            if _rank_xy(e) == 2:
                return w
            # the witnessed minor is nonzero, so independence holds
            return w
    return None


def _image_complex_line(frame, name, within):
    """If the `name` vector image lies in a complex line C*v0, return v0."""
    v0 = None
    for c in within:
        e = frame.element(c)
        vec = e.x if name == "x" else e.y
        if any(vec):
            v0 = vec
            break
    if v0 is None:
        return "zero"
    for c in within:
        e = frame.element(c)
        vec = e.x if name == "x" else e.y
        minors = [v0[i] * vec[j] - v0[j] * vec[i]
                  for i in range(len(v0)) for j in range(i + 1, len(v0))]
        if any(m != 0 for m in minors):
            return None
        # also need C-colinearity, not just wedge: wedge==0 is exactly that
    return v0


def _line_subspace(frame, v0, within):
    """{u in within : x_u and y_u both lie in the complex line C*v0}."""
    d = len(v0)

    def funcs(e):
        vals = []
        for vec in (e.x, e.y):
            for i in range(d):
                for j in range(i + 1, d):
                    mij = v0[i] * vec[j] - v0[j] * vec[i]
                    vals += [re(mij), im(mij)]
        return vals

    rows = [funcs(frame.element(c)) for c in within]
    if not rows or not rows[0]:
        return within
    kern = linalg.kernel_basis(_horizontal(rows))
    return [frame._combine(within, k) for k in kern]


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
        c = frame.random_coeff(within, size=50)
        e = frame.element(c)
        if _rank_xy(e) == 1 and any(e.y):
            push(_lambda_of(e))
    return cands


def _pencil_rank1_roots(ei, ej):
    """Rational t where every (x;y)-minor of ei + t*ej vanishes."""
    d = len(ei.x)
    polys = []  # (a, b, c) real quadratics a t^2 + b t + c from each minor part
    for i in range(d):
        for j in range(i + 1, d):
            m0 = ei.x[i] * ei.y[j] - ei.x[j] * ei.y[i]
            m2 = ej.x[i] * ej.y[j] - ej.x[j] * ej.y[i]
            m1 = (ei.x[i] * ej.y[j] - ei.x[j] * ej.y[i]
                  + ej.x[i] * ei.y[j] - ej.x[j] * ei.y[i])
            for part in (re, im):
                a, b, c = part(m2), part(m1), part(m0)
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


def find_rank_one(frame, within, want_y_nonzero=False):
    """An element of `within` with dim_C <x, y> = 1, or None.

    Exact in the layered cases (kernel sides, globally dependent, complex-line
    images); randomized pencil/point search otherwise, so a None may be a
    false negative — the classify() double entry covers that.
    """
    # y = 0, x != 0 side
    ky = frame.kernel(["y"], within)
    w = frame.nonzero_with(["x"], ky)
    if w is not None and not want_y_nonzero:
        return w
    kx = frame.kernel(["x"], within)
    w = frame.nonzero_with(["y"], kx)
    if w is not None:
        return w
    if _globally_dependent(frame, within):
        w = frame.nonzero_with(["y"], within)
        if w is not None:
            return w
        if not want_y_nonzero:
            return frame.nonzero_with(["x"], within)
        return None
    for name in ("y", "x"):
        v0 = _image_complex_line(frame, name, within)
        if v0 is not None and v0 != "zero":
            line = _line_subspace(frame, v0, within)
            w = frame.nonzero_with(["y"], line)
            if w is not None:
                return w
            if not want_y_nonzero:
                w = frame.nonzero_with(["x"], line)
                if w is not None and _rank_xy(frame.element(w)) == 1:
                    return w
    # pencils through basis pairs
    for ci, cj in itertools.combinations(within, 2):
        ei, ej = frame.element(ci), frame.element(cj)
        for t in _pencil_rank1_roots(ei, ej):
            cand = [a + t * b for a, b in zip(ci, cj)]
            e = frame.element(cand)
            if _rank_xy(e) == 1 and (any(e.y) or not want_y_nonzero):
                return cand
    for _ in range(DEFAULT.pit_rounds // 4):
        c = frame.random_coeff(within, size=30)
        e = frame.element(c)
        if _rank_xy(e) == 1 and (any(e.y) or not want_y_nonzero):
            return c
    return None


def no_rank_one(frame, within):
    """(True, None) if no element has dim_C <x,y> = 1; else (False, witness).

    Exact whenever the kernel sides differ, everything is globally dependent,
    or a vector image is a complex line; the leftover mixed case is a
    randomized search whose None side is certified by the double entry.
    """
    ky = frame.kernel(["y"], within)
    w = frame.nonzero_with(["x"], ky)
    if w is not None:
        return False, w
    kx = frame.kernel(["x"], within)
    w = frame.nonzero_with(["y"], kx)
    if w is not None:
        return False, w
    if _globally_dependent(frame, within):
        w = frame.nonzero_with(["y"], within)
        if w is not None:
            return False, w
        return True, None  # x and y vanish identically
    for name in ("y", "x"):
        v0 = _image_complex_line(frame, name, within)
        if v0 is not None and v0 != "zero":
            line = _line_subspace(frame, v0, within)
            w = frame.nonzero_with(["y" if name == "y" else "x"], line)
            if w is not None and _rank_xy(frame.element(w)) == 1:
                return False, w
            return True, None
    w = find_rank_one(frame, within)
    if w is not None:
        return False, w
    return True, None


# ---------------------------------------------------------------------------
# the eight square conditions


def check_square(h: Subalgebra, rng=None) -> Optional[SquareWitness]:
    """Lowest-numbered satisfied square condition, with verifying elements.

    Conditions 6 and 7 are checked in the simplified forms that drop the
    x_v y_u+ restriction; after condition 2 has failed, any witness pair
    automatically satisfies the original restriction (its bracket lies in the
    central part, where |eta|^2 = xx*yy forces the missing equation).
    """
    rng = rng or random.Random(0)
    frame = _Frame(h, rng)
    for cid, checker in enumerate(_SQUARE_CHECKS, start=1):
        res = checker(frame)
        if res is not None:
            elements, conjs, note, exact = res
            return SquareWitness(cid, elements, conjs, note, exact)
    return None


def _sq1(frame):
    """phi_u = 0 with x_u, y_u linearly independent over C."""
    W = frame.kernel(["phi"])
    if not W:
        return None
    w = _find_rank2(frame, W)
    if w is None:
        return None
    e = frame.element(w)
    if _rank_xy(e) != 2:
        return None
    return {"u": e}, [], "", True


def _sq2(frame):
    """z central with |eta_z|^2 != xx_z yy_z."""
    Z = frame.z_coeffs
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
    for zc in frame.z_coeffs:
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
        coeffs, exact = res
        return {"u": frame.element(coeffs)}, [], "", exact
    # semidefinite: zero set is exactly the radical
    rad = [frame._combine(V, v) for v in cert["radical"]]
    w = frame.nonzero_with(["phi"], rad)
    if w is None:
        return None
    return {"u": frame.element(w)}, [], "", True


def _xx_axis_element(frame):
    coeff = linalg.in_span(frame.h.coord_rows(),
                           AlgebraElement(frame.n, xx=1).coords())
    return coeff


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
    if not frame.subspace_eq(frame.z_coeffs, [axis]):
        return None
    kphi = frame.kernel(["phi"])
    if not frame.subspace_eq(kphi, frame.z_coeffs):
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
    rng = rng or random.Random(1)
    frame = _Frame(h, rng)
    for cid, checker in enumerate(_LINEAR_CHECKS, start=1):
        res = checker(frame)
        if res is not None:
            elements, conjs, note, exact = res
            return LinearWitness(cid, elements, conjs, note, exact)
    return None


def _li1(frame):
    """nonzero central z with |eta_z|^2 = xx_z yy_z."""
    Z = frame.z_coeffs
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
    coeffs, exact = res
    return {"z": frame.element(coeffs)}, [], "", exact


def _li2(frame):
    """phi_u = 0, dim_C <x,y> = 1, and the cubic C(u) = 0.

    Layered decision: the two kernel sides are linear; a global or pointwise
    lambda reduces C to |y|^2 * D_lambda with D_lambda linear; the complex-line
    case expands C exactly and uses oddness of cubics on two-planes; the rest
    is randomized and covered by the double entry.
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
    if v0 is not None and v0 != "zero":
        res = _li2_line_case(frame, W, v0)
        if res is not None:
            return res
    # (f) randomized sweep
    for _ in range(DEFAULT.pit_rounds // 2):
        c = frame.random_coeff(W, size=40)
        e = frame.element(c)
        if _rank_xy(e) == 1 and cubic_c(e) == 0 and (any(e.x) or any(e.y)):
            return {"u": e}, [], "randomized", True
    return None


def _w_lambda(frame, W, lam):
    """{u in W : x_u = lam * y_u} as coefficient vectors."""
    def funcs(e):
        vals = []
        for xv, yv in zip(e.x, e.y):
            dvv = xv - lam * yv
            vals += [re(dvv), im(dvv)]
        return vals
    rows = [funcs(frame.element(c)) for c in W]
    if not rows or not rows[0]:
        return W
    kern = linalg.kernel_basis(_horizontal(rows))
    return [frame._combine(W, k) for k in kern]


def _lambda_global(frame, W, lam):
    return all(all(v == 0 for v in
                   [x for xv, yv in zip(frame.element(c).x, frame.element(c).y)
                    for x in (re(xv - lam * yv), im(xv - lam * yv))])
               for c in W)


def _kernel_d_lambda(frame, W, lam):
    def func(e):
        return [d_lambda(e, lam)]
    rows = [func(frame.element(c)) for c in W]
    if not rows:
        return []
    kern = linalg.kernel_basis(_horizontal(rows))
    return [frame._combine(W, k) for k in kern]


def _cubic_coeffs(frame, within):
    """Exact symmetric-trilinear coefficients of C on `within`."""
    k = len(within)

    def cval(coeffs):
        return cubic_c(frame.element(frame._combine(within, coeffs)))

    coeffs = {}
    for i in range(k):
        for j in range(i, k):
            for l in range(j, k):
                ei = [Fraction(0)] * k
                ej = [Fraction(0)] * k
                el = [Fraction(0)] * k
                ei[i] = ej[j] = el[l] = Fraction(1)
                s = lambda *vs: [sum(col) for col in zip(*vs)]
                val = (cval(s(ei, ej, el)) - cval(s(ei, ej)) - cval(s(ei, el))
                       - cval(s(ej, el)) + cval(ei) + cval(ej) + cval(el))
                coeffs[(i, j, l)] = val
    return coeffs


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
    codim = len(line) - len(ky)
    if codim >= 2:
        # an odd cubic vanishes somewhere on any 2-plane missing ker y
        found = _odd_cubic_zero_on_plane(frame, line, ky)
        if found is not None:
            u, exact = found
            return {"u": u}, [], "odd-cubic zero on a 2-plane", exact
    if codim == 1:
        for _ in range(DEFAULT.pit_rounds):
            c = frame.random_coeff(line, size=25)
            e = frame.element(c)
            if _rank_xy(e) == 1 and cubic_c(e) == 0 and any(e.y):
                return {"u": e}, [], "randomized on line subspace", True
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
    Z0 = frame.kernel(["yy"], frame.z_coeffs)
    z = frame.nonzero_with(["eta"], Z0)
    if z is None:
        return None
    return {"u": frame.element(u), "z": frame.element(z)}, [], "", True


def _li5(frame):
    """u: phi,y != 0; central z: yy_z = 0, phi_u conj(eta_z) real, E(u,z) = 0."""
    Z0 = frame.kernel(["yy"], frame.z_coeffs)
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
    def reality(e):
        return [im(e.phi * conj(z.eta))]

    rows = [reality(frame.element(c)) for c in frame.full]
    kern = linalg.kernel_basis(_horizontal(rows))
    K = [frame._combine(frame.full, k) for k in kern]
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
    if p > 0 and q > 0 and p + q >= 3:
        res = _rational_zero(frame, sig, K, avoid_kernels=[["phi"], ["y"]])
        if res is not None:
            coeffs, exact = res
            u = frame.element(coeffs)
            if any(u.y) and u.phi and (u.phi * conj(z.eta)):
                return {"u": u, "z": z}, [], "", exact
        return None
    if p == 0 or q == 0:
        rad = [frame._combine(K, v) for v in cert["radical"]]
        w = frame.nonzero_with(["phi", "y"], rad)
        if w is not None:
            u = frame.element(w)
            if u.phi * conj(z.eta):
                return {"u": u, "z": z}, [], "", True
        return None
    # signature (1,1): zero cone is two hyperplanes; try rational points
    res = _rational_zero(frame, sig, K, avoid_kernels=[["phi"], ["y"]])
    if res is not None:
        coeffs, exact = res
        u = frame.element(coeffs)
        if any(u.y) and u.phi and (u.phi * conj(z.eta)):
            return {"u": u, "z": z}, [], "", exact
    return None


_LINEAR_CHECKS = [_li1, _li2, _li3, _li4, _li5]


# ---------------------------------------------------------------------------
# the eleven non-CDS templates

_SLOT_FUNCS = {
    "alpha": "phi", "beta": "y", "alpha+beta": "x",
    "2beta": "yy", "alpha+2beta": "eta", "2alpha+2beta": "xx",
}
_ALL_SLOTS = ["phi", "y", "x", "yy", "eta", "xx"]


def _span_in_slots(frame, coeffs_list, slots):
    """Every element of the coefficient span supported inside `slots`."""
    others = [s for s in _ALL_SLOTS if s not in slots]
    return not any(any(frame.funcs_on(others, c)) for c in coeffs_list)


def _slot_subspace(frame, slots, within=None):
    """{u : all slots outside `slots` vanish} as coefficient vectors."""
    others = [s for s in _ALL_SLOTS if s not in slots]
    return frame.kernel(others, within)


def _h_decomposes(frame, slot_groups):
    """h == sum of (h ∩ slot-span) over the groups, checked exactly."""
    parts = []
    for slots in slot_groups:
        parts.extend(_slot_subspace(frame, slots))
    return frame.subspace_eq(parts if parts else [], frame.full)


def _z_in_slots(frame, slots):
    return _span_in_slots(frame, frame.z_coeffs, slots)


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
    if not frame.subspace_eq(frame.z_coeffs, frame.full):
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
        wz = frame.nonzero_with(["yy"], frame.z_coeffs)
        if wz is None:
            return None
        z0 = frame.element(wz)
        lam = z0.eta / QQi(0, 1) / QQi(z0.yy)
    i_ = QQi(0, 1)
    for zc in frame.z_coeffs:
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
    if frame.z_coeffs:
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
    ok, _w = no_rank_one(frame, frame.full)
    if not ok:
        return None
    if frame.z_coeffs:
        g = frame.gram(q_center, frame.z_coeffs)
        if not linalg.is_definite(g):
            return None
    return NotCdsMatch(6, MuShape.curve(2, provenance="notcds-6"), {}, frame.d)


def _tm7(frame):
    """phi = 0 mixing rank-2 (or central) and rank-1 directions, every rank-1
    element having a nonzero cubic, central form anisotropic: the 3/2..2 band."""
    if not frame.vanishes_on("phi", frame.full):
        return None
    if frame.z_coeffs:
        g = frame.gram(q_center, frame.z_coeffs)
        if not linalg.is_definite(g):
            return None
    has_not1 = bool(frame.z_coeffs) or (_find_rank2(frame, frame.full) is not None)
    if not has_not1:
        return None
    v = find_rank_one(frame, frame.full)
    if v is None:
        return None
    ok, bad = _all_rank_one_cubic_nonzero(frame, frame.full)
    if not ok:
        return None
    return NotCdsMatch(7, MuShape.band(Fraction(3, 2), 2, provenance="notcds-7"),
                       {"rank_one": frame.element(v)}, frame.d)


def _all_rank_one_cubic_nonzero(frame, W):
    """Universal check: every rank-one element has cubic_c != 0.

    Exact on the kernel sides and for candidate lambdas; randomized sweep for
    the mixed stratum.  Returns (holds, counterexample_or_None).
    """
    # y = 0 side: need yy != 0 whenever x != 0, i.e. ker y ∩ ker yy ⊆ ker x
    kyyy = frame.kernel(["y", "yy"], W)
    w = frame.nonzero_with(["x"], kyyy)
    if w is not None:
        return False, w
    kxxx = frame.kernel(["x", "xx"], W)
    w = frame.nonzero_with(["y"], kxxx)
    if w is not None:
        return False, w
    if _globally_dependent(frame, W):
        wy = frame.nonzero_with(["y"], W)
        if wy is not None:
            lam = _lambda_of(frame.element(wy))
            if lam is not None and _lambda_global(frame, W, lam):
                K = _kernel_d_lambda(frame, W, lam)
                w = frame.nonzero_with(["y"], K)
                if w is not None:
                    return False, w
    for lam in _candidate_lambdas(frame, W):
        Wl = _w_lambda(frame, W, lam)
        K = _kernel_d_lambda(frame, Wl, lam)
        w = frame.nonzero_with(["y"], K)
        if w is not None and _rank_xy(frame.element(w)) == 1:
            return False, w
    v0 = _image_complex_line(frame, "y", W)
    if v0 is not None and v0 != "zero":
        line = _line_subspace(frame, v0, W)
        coeffs = _cubic_coeffs(frame, line)
        if all(v == 0 for v in coeffs.values()):
            w = frame.nonzero_with(["y"], line)
            if w is not None:
                return False, w
        else:
            ky = frame.kernel(["y"], line)
            if len(line) - len(ky) >= 2:
                u = _odd_cubic_zero_on_plane(frame, line, ky)
                if u is not None:
                    return False, None
    for _ in range(DEFAULT.pit_rounds // 2):
        c = frame.random_coeff(W, size=40)
        e = frame.element(c)
        if _rank_xy(e) == 1 and cubic_c(e) == 0:
            return False, c
    return True, None


def _tm8(frame):
    """dim <= 3, trivial central part, ker phi = ker y, (phi, yy) injective."""
    if frame.d > 3 or frame.z_coeffs:
        return None
    if frame.nonzero_with(["phi"], frame.full) is None:
        return None
    kphi = frame.kernel(["phi"])
    ky = frame.kernel(["y"])
    if not frame.subspace_eq(kphi, ky):
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
    if not frame.subspace_eq(frame.z_coeffs, [axis]):
        return None
    kphi = frame.kernel(["phi"])
    ky = frame.kernel(["y"])
    if not (frame.subspace_eq(kphi, frame.z_coeffs)
            and frame.subspace_eq(ky, frame.z_coeffs)):
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
    Z0 = frame.kernel(["yy"], frame.z_coeffs)
    if len(Z0) != 1:
        return None
    z = frame.element(Z0[0])
    if not z.eta:
        return None
    # u ranges over h \ z; the conditions only depend on u modulo z and
    # rescaling, so one representative decides
    rep = next((c for c in frame.full
                if not frame.contains_coeff(frame.z_coeffs, c)), None)
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
# normalizer in A and the classification driver


def normalizer_in_A(h: Subalgebra) -> NormalizerResult:
    """{t in a : [t, h] <= h}, solved exactly as a 2-variable linear system."""
    if not h.is_nilpotent():
        raise NotInN("subalgebra has a nonzero a-part")
    rows = h.coord_rows()
    constraints = [( _ad_diag(b, 1, 0).coords(), _ad_diag(b, 0, 1).coords())
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
    t1, t2 = kern[0]
    # primitive integer generator
    from math import gcd
    den = t1.denominator * t2.denominator // gcd(t1.denominator, t2.denominator)
    p, q = int(t1 * den), int(t2 * den)
    g = gcd(abs(p), abs(q))
    p, q = p // g, q // g
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    names = list(ROOTS) + list(EXTENDED_FUNCTIONALS)
    root = next((nm for nm in names
                 if root_functional(nm)[0] * p + root_functional(nm)[1] * q == 0),
                None)
    return NormalizerResult("line", (p, q), root)


def _ad_diag(b: AlgebraElement, t1, t2) -> AlgebraElement:
    """[diag(t1,t2), b] via the root scalings."""
    return AlgebraElement(
        b.n,
        phi=b.phi * root_value("alpha", t1, t2),
        y=[root_value("beta", t1, t2) * v for v in b.y],
        x=[root_value("alpha+beta", t1, t2) * v for v in b.x],
        yy=root_value("2beta", t1, t2) * b.yy,
        eta=b.eta * root_value("alpha+2beta", t1, t2),
        xx=root_value("2alpha+2beta", t1, t2) * b.xx)


def expected_normalizer(frame, match: NotCdsMatch) -> Optional[NormalizerResult]:
    """Predicted N_A(H) for a matched template, from the case list; None when
    the prediction is 'trivial unless one of the listed structures holds'."""
    t = match.type_id
    f = frame

    def line(root):
        return NormalizerResult("line", kernel_line(root), root)

    if t == 1:
        if _span_in_slots(f, f.full, ["yy"]) or _span_in_slots(f, f.full, ["xx"]):
            return NormalizerResult("full")
        return line("alpha")
    if t == 2:
        if _h_decomposes(f, [["x", "yy"], ["xx"]]):
            return line("alpha-beta")
        return NormalizerResult("trivial")
    if t == 3:
        lam = match.evidence.get("lambda")
        if lam:
            if _h_decomposes(f, [["y", "x"], ["yy", "eta", "xx"]]) \
                    and not f.subspace_eq(f.z_coeffs, f.full):
                return line("alpha")
            return NormalizerResult("trivial")
        # lambda = 0: the phi=0&x=0 cases
        if _h_decomposes(f, [["y"], ["yy"]]):
            return NormalizerResult("full")
        if _h_decomposes(f, [["y", "eta"], ["yy"]]):
            return line("alpha+beta")
        if _h_decomposes(f, [["y", "xx"], ["yy"]]):
            return line("2alpha+beta")
        if not f.z_coeffs and _span_in_slots(f, f.full, ["y", "yy"]):
            return line("beta")
        return NormalizerResult("trivial")
    if t == 4:
        if _h_decomposes(f, [["x"], ["xx", "eta", "yy"]]):
            return NormalizerResult("full")
        if _span_in_slots(f, f.full, ["x", "xx"]):
            return line("alpha+beta")
        if _h_decomposes(f, [["phi", "x", "eta"], ["xx"]]) \
                and not _span_in_slots(f, f.full, ["x", "xx"]):
            return line("beta")
        return NormalizerResult("trivial")
    if t == 5:
        if _h_decomposes(f, [["phi", "yy"], ["x"]]):
            return line("alpha-2beta")
        return NormalizerResult("trivial")
    if t == 6:
        if _span_in_slots(f, f.full, ["eta"]):
            return NormalizerResult("full")
        if _h_decomposes(f, [["y", "x"], ["yy", "eta", "xx"]]):
            return line("alpha")
        return NormalizerResult("trivial")
    if t == 7:
        if _h_decomposes(f, [["x", "yy"], ["eta"]]):
            return line("alpha-beta")
        if _h_decomposes(f, [["y", "xx"], ["eta"]]):
            return line("2alpha+beta")
        return NormalizerResult("trivial")
    if t == 8:
        if _h_decomposes(f, [["phi", "y"], ["x", "yy"]]) \
                and _slot_subspace(f, ["phi", "y"]):
            return line("alpha-beta")
        return NormalizerResult("trivial")
    if t == 9:
        if _h_decomposes(f, [["phi", "y"], ["xx"]]):
            return line("alpha-beta")
        return NormalizerResult("trivial")
    if t == 10:
        if _span_in_slots(f, f.full, ["phi"]):
            return NormalizerResult("full")
        if _span_in_slots(f, f.full, ["phi", "x", "eta"]):
            return line("beta")
        if _span_in_slots(f, f.full, ["phi", "xx"]):
            return line("alpha+2beta")
        return NormalizerResult("trivial")
    if t == 11:
        return NormalizerResult("trivial")
    return None



def classify(h: Subalgebra, seed: int = 0, check_normalizer: bool = True
             ) -> ClassificationResult:
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
            if tm is not None and check_normalizer:
                exp = expected_normalizer(_Frame(h, random.Random(salt + 3)), tm)
                if exp is not None and exp != norm:
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
                e = _FloatSlots((u * t + z * p).tolist(), cols, 1.0)
                yy = e.yy
                return (e.xx * yy + abs2(e.phi) * yy * yy / 12.0 - abs2(e.eta))

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
