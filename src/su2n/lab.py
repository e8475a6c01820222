"""Sampling harness tying the classifiers to the Cartan-projection numerics.

Every sampling curve lives here: the witness curves of the square and linear
conditions, the extremal curves of the templates and graph cases, rays, torus
and graph lines, and products of exponentials (depth up to 3, so the cloud
probes the full band of mu(H), not a single curve), clipped at the norm
ceiling where doubles stay trustworthy.  A direction in the algebra is its
float coordinate vector.  A curve along fixed directions is a _Curve, a
product of float lines each read at its own parameter, with an optional head
factor on the left; it builds each of its lines once (float_line checks
N D = D N and N^5 = 0 at build), and the rays and random products of a spec
are built by one float_lines call.  A curve whose direction moves with t is
a _PerPoint, solved per point: exp_float, or a line product at the real root
nearest 0 of a quartic (np.roots).  The curves of one spec are sampled
together (_collect): one doubling ladder gives each curve the top of its
grid, and the grids are built at once; on both, the curves are evaluated in
blocks of BLOCK_POINTS parameters, each block one Vandermonde product over
the factors of its curves, and rho_norm takes the block's kept samples in
one call.  A block's powers, factors and products are formed in the
scratch buffers rho_norm also uses (metrics._Scratch), kept from block to
block; the stack a block returns is always a fresh array.  The random
directions of a spec's product curves are drawn as coefficients and
combined in one numpy sum.
Fitted envelope exponents and log-power regressions are then compared against
the classifier's predicted shape.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import Optional

import numpy as np

from .anclassify import (Graph, OneParam, Semidirect, _pair_slots, _psi_in_2beta,
                         _sigma_of, classify_an, line_compatible)
from .config import DEFAULT, Tolerances
from .elements import (AlgebraElement, bracket, exp_closed, exp_float, float_line,
                       float_lines)
from .gallery import GalleryEntry, get as gallery_get
from .gallery import maximal_band_family, mixing_pair_family
from .metrics import (
    BLOCK_POINTS,
    InsufficientRange,
    SampleCloud,
    fit_log_power,
    fit_ray_power,
    mu,
    rho_norm,
    shape_check,
    sup_norm,
    _SCRATCH,
)
from .nilclassify import Witness, _lambda_of, classify
from .scalars import QQi, abs2, conj, herm, re
from .shapes import MuShape
from .subalgebra import Subalgebra
from .weyl import conjugate, weyl_reflect


class OverflowCeiling(ArithmeticError):
    pass


class ImplicitSolveFailed(RuntimeError):
    """A per-point solve of a witness curve found no root."""


# Random product curves per sampled spec, each a product of 1..PRODUCT_DEPTH
# exponentials of random directions in the algebra.
N_PRODUCT_CURVES = 20
PRODUCT_DEPTH = 3


@dataclass
class SamplingPlan:
    seed: int = 0
    per_curve: int = 48
    t_cap: Optional[float] = None
    tol: Tolerances = DEFAULT


@dataclass
class VerificationReport:
    spec_id: str
    verdict: str  # "pass" | "fail" | "unverifiable"
    predicted: Optional[MuShape]
    fitted: tuple = ()
    log_fits: dict = field(default_factory=dict)
    runtime: float = 0.0
    notes: str = ""
    classification: Optional[object] = None

    def __bool__(self):
        return self.verdict == "pass"


# A curve along fixed directions is a _Curve: a product of float lines, each
# read at its own parameter p(t), with an optional head factor on the left,
# head(t) @ (f_1(t) @ f_2(t) @ ...).  A parameter is (kind, a, scale):
#   LIN: a t                  POW: t^a
#   LOG: a log(t) / scale     LOGPOW: max(log t, 1e-9)^a
#   ONE: 1
# A curve whose direction moves with t is a _PerPoint, solved per point.
# All curves of a spec share one doubling ladder, whose rungs are evaluated
# LADDER_CHUNK at a time.  Curves are evaluated BLOCK_POINTS (metrics)
# parameters at a time (12 curves on a ladder chunk, 4 on grids of 48):
# larger blocks run faster but leave a larger peak RSS (on gallery rounds,
# 384 points added 2 MB where 192 add 0.5 MB).
LIN, POW, LOG, LOGPOW, ONE = range(5)
AT_T = (LIN, 1.0, 1.0)
LADDER_CHUNK = 16
_POWERS = np.arange(5)  # the Vandermonde columns of a float line


class _Curve:
    """t -> head(t) @ (f_1(t) @ f_2(t) @ ...), each factor a (FloatLine,
    parameter) pair.  Calling it evaluates it alone: a float t gives the
    (m, m) matrix, an array the (T, m, m) stack."""

    __slots__ = ("factors", "head")

    def __init__(self, factors, head=None):
        self.factors, self.head = tuple(factors), head

    @property
    def m(self):
        return self.factors[0][0].m

    def __call__(self, ts):
        stack = _Batch([self]).evaluate([0], np.atleast_1d(ts))[0][0]
        return stack if np.ndim(ts) else stack[0]


def _line_curve(line, param=AT_T, head=None):
    """The curve t -> head(t) @ line(p(t)) of one line."""
    return _Curve([(line, param)], head)


class _PerPoint:
    """A curve that solves for each t on its own (polynomial roots, best-of-k
    choices), stacked over a grid.  fn maps a float t to an (m, m) matrix,
    and so does calling the curve.  A failed solve leaves a NaN slice."""

    def __init__(self, fn, n):
        self.fn, self.m = fn, n + 2

    def __call__(self, t):
        return self.fn(t)

    def evaluate(self, ts):
        """(stack, {index: error name}) for the points whose solve failed."""
        out = np.full((len(ts), self.m, self.m), np.nan, dtype=complex)
        failed = {}
        for k, t in enumerate(ts):
            try:
                out[k] = self.fn(float(t))
            except (ArithmeticError, ImplicitSolveFailed) as e:
                failed[k] = type(e).__name__
        return out, failed


def _parameters(kind, a, scale, ts):
    """p(t) of each factor at its row of ts, for (F,) parameter columns and
    an (F, T) array ts.  A LOGPOW exponent stays a Python float, so that
    numpy takes its fast path for 0.5 (np.sqrt), as an array exponent would
    not."""
    p = a[:, None] * ts  # LIN
    for k in set(kind.tolist()) - {LIN}:
        sel = np.flatnonzero(kind == k)
        if k == POW:
            p[sel] = ts[sel] ** a[sel, None]
        elif k == LOG:
            p[sel] = a[sel, None] * np.log(ts[sel]) / scale[sel, None]
        elif k == LOGPOW:
            for f in sel:
                p[f] = np.maximum(np.log(ts[f]), 1e-9) ** float(a[f])
        elif k == ONE:
            p[sel] = 1.0
    return p


class _Batch:
    """The curves of one spec, evaluated together.

    The factors of the _Curve curves sit in one table, curve after curve,
    each curve's as [head, f_1, f_2, ...]: their coefficient stacks as one
    (F, 5, 2 m^2) array, their a-parts as (F, m), their parameters as
    columns.  evaluate reads the factors of the curves it is given as one
    Vandermonde product (F, T, 5) @ (F, 5, 2 m^2), then multiplies the
    factors of every curve of one depth at once, left to right, and the head
    onto that product last: the matmuls of a curve evaluated alone, so the
    stack is the same bit for bit.  A _PerPoint curve is solved per point.
    The powers, factors and partial products live in scratch arrays
    (metrics._SCRATCH); the stack evaluate returns is a fresh array.
    """

    def __init__(self, curves):
        self.curves = curves
        self.first, self.count, self.has_head = [], [], []
        factors = []
        for c in curves:
            self.first.append(len(factors))
            head = () if isinstance(c, _PerPoint) or c.head is None else (c.head,)
            own = () if isinstance(c, _PerPoint) else head + c.factors
            self.count.append(len(own))
            self.has_head.append(len(head))
            factors += own
        self.m = curves[0].m if curves else 0
        if factors:
            lines = [line for line, _ in factors]
            self.stack = np.stack([line.stack for line in lines])
            self.with_a = np.array([line.a_part is not None for line in lines])
            self.a_part = np.array([np.zeros(self.m) if line.a_part is None
                                    else line.a_part for line in lines], dtype=complex)
            kind, a, scale = zip(*(param for _, param in factors))
            self.kind, self.a, self.scale = np.array(kind), np.array(a), np.array(scale)

    def __len__(self):
        return len(self.curves)

    def evaluate(self, which, ts):
        """(stack, failed) for the curves numbered `which` at ts, one (T,)
        grid for all of them or a (len(which), T) row each: the
        (len(which), T, m, m) stack and, per curve, the {index: error name}
        of its failed per-point solves (their slices are NaN)."""
        rows = np.empty((len(which), np.shape(ts)[-1]))
        rows[...] = ts
        out = np.empty(rows.shape + (self.m, self.m), dtype=complex)
        failed = [{} for _ in which]
        fixed = []
        for j, i in enumerate(which):
            if self.count[i]:
                fixed.append((j, i))
            else:
                out[j], failed[j] = self.curves[i].evaluate(rows[j])
        if fixed:
            self._products(fixed, rows, out)
        return out, failed

    def _products(self, fixed, rows, out):
        # curves of one shape (factor count, head or not) side by side, their
        # factors laid out position by position, so that the factors at one
        # position form one (C, T, m, m) block.  Scratch buffers: powers and
        # a-part exponentials in "e", the gathered factor stacks in "a", the
        # factors g in "b", the chain's products in "c" and "d" by turns
        groups = {}
        for j, i in fixed:
            groups.setdefault((self.count[i], self.has_head[i]), []).append((j, i))
        ids, owner = [], []
        for (k, _), members in groups.items():
            for f in range(k):
                ids += [self.first[i] + f for _, i in members]
                owner += [j for j, _ in members]
        ids = np.array(ids)
        p = _parameters(self.kind[ids], self.a[ids], self.scale[ids], rows[owner])
        vander = np.power(p[..., None], _POWERS, out=_SCRATCH("e", p.shape + (5,), float))
        stack = self.stack.take(ids, 0, _SCRATCH("a", (len(ids),) + self.stack.shape[1:], float),
                                "clip")
        g = np.matmul(vander, stack, out=_SCRATCH("b", p.shape + stack.shape[-1:], float))
        g = g.view(complex).reshape(p.shape + (self.m, self.m))
        with_a = self.with_a[ids]
        if with_a.any():  # scale the a-part rows in place, run by run
            edges = np.flatnonzero(np.diff(np.concatenate(([False], with_a, [False]))))
            for lo, hi in edges.reshape(-1, 2):
                e = np.multiply(p[lo:hi, :, None], self.a_part[ids[lo:hi], None, :],
                                out=_SCRATCH("e", (hi - lo,) + p.shape[1:] + (self.m,)))
                g[lo:hi] *= np.exp(e, out=e)[..., None]
        at = 0
        for (k, head), members in groups.items():
            c = len(members)
            block = g[at:at + k * c].reshape((k, c) + g.shape[1:])
            at += k * c
            names = iter("cd" * k)
            acc = block[head]
            for f in range(head + 1, k):
                acc = np.matmul(acc, block[f], out=_SCRATCH(next(names), acc.shape))
            if head:
                acc = np.matmul(block[0], acc, out=_SCRATCH(next(names), acc.shape))
            out[[j for j, _ in members]] = acc


def _ladder_tops(batch, ceiling, t_cap=None):
    """The top of each curve's parameter grid, from one doubling ladder.

    The rungs 2^k, k = 1..80, are evaluated LADDER_CHUNK at a time for the
    curves still climbing, in blocks (_blocks).  A curve stops at its first
    rung at or above t_cap (its top is t_cap), at its first rung with a
    non-finite entry (half that rung) or at its first rung above the ceiling
    (that rung); one that passes every rung tops at 2^81.  No top is below 4.
    """
    rungs = 2.0 ** np.arange(1, 81)
    tops = np.full(len(batch), 2.0 ** 81)
    if t_cap is not None and rungs[-1] >= t_cap:
        cut = int(np.argmax(rungs >= t_cap))
        rungs, tops[:] = rungs[:cut], t_cap
    live = np.arange(len(batch))
    for start in range(0, len(rungs), LADDER_CHUNK):
        if not len(live):
            break
        chunk = rungs[start:start + LADDER_CHUNK]
        with np.errstate(all="ignore"):
            norms = np.concatenate([sup_norm(batch.evaluate(live[b.start:b.stop], chunk)[0])
                                    for b in _blocks(len(live), len(chunk))])
        finite = np.isfinite(norms)
        hit = ~finite | (norms > ceiling)
        stop = hit.any(axis=1)
        k = np.argmax(hit[stop], axis=1)
        tops[live[stop]] = np.where(finite[stop, k], chunk[k], chunk[k] / 2)
        live = live[~stop]
    return np.maximum(tops, 4.0)


def _blocks(count, per):
    """Ranges of consecutive curves, count in all, of at most BLOCK_POINTS
    parameters at per parameters a curve (at least one curve each)."""
    step = max(1, BLOCK_POINTS // max(per, 1))
    return [range(s, min(s + step, count)) for s in range(0, count, step)]


def _grids(tops, per):
    """np.geomspace(1, top, per) for each top, bit for bit, all at once:
    10^linspace(0, log10 top, per) with both ends pinned."""
    logs = np.log10(tops)
    y = np.arange(per, dtype=float) * (logs / max(per - 1, 1))[:, None]
    y[:, -1] = logs
    grids = 10.0 ** y
    grids[:, 0] = 1.0
    if per > 1:
        grids[:, -1] = tops
    return grids


def _collect(curves, plan, with_mu=False) -> SampleCloud:
    """Evaluate labeled curves on adaptive grids; discard above the ceiling.

    One ladder gives every curve the top of its grid (_ladder_tops), the
    grids are built at once (_grids) and evaluated in blocks (_blocks);
    rho_norm runs once per block, on its kept samples; both work in the
    shared scratch buffers (metrics._Scratch).  meta["discards"] counts the
    dropped points by cause: non_finite, over_ceiling, at_most_one
    (|h| <= 1) and the name of each error a per-point solve raised.
    with_mu adds the Cartan projection of every kept sample as
    meta["mu_points"].
    """
    ceiling = plan.tol.norm_ceiling
    batch = _Batch([c for _, c in curves])
    grids = _grids(_ladder_tops(batch, ceiling, plan.t_cap), plan.per_curve)
    norm_parts, rho_parts, tags = [np.empty(0)], [np.empty(0)], []
    mu_points = []
    t_vals = []
    discards = Counter(non_finite=0, over_ceiling=0, at_most_one=0)
    for which in _blocks(len(curves), plan.per_curve):
        ts = grids[which.start:which.stop]
        with np.errstate(all="ignore"):
            stacks, failed = batch.evaluate(which, ts)
            norms = sup_norm(stacks)
        # failed points are NaN slices, counted under their error alone
        finite = np.isfinite(norms)
        over = finite & (norms > ceiling)
        low = finite & (norms <= 1.0)
        keep = finite & ~over & ~low
        for f in failed:
            discards.update(f.values())
        discards["non_finite"] += int((~finite).sum()) - sum(map(len, failed))
        discards["over_ceiling"] += int(over.sum())
        discards["at_most_one"] += int(low.sum())
        good = stacks[keep]
        if len(good):
            rho_parts.append(rho_norm(good))
        norm_parts.append(norms[keep])
        t_vals += ts[keep].tolist()
        for i, k in zip(which, keep.sum(axis=1)):
            tags += [curves[i][0]] * int(k)
        if with_mu:
            mu_points += [mu(g).as_tuple() for g in good]
    kept, total = len(tags), grids.size
    if kept < plan.tol.min_samples:
        raise OverflowCeiling(
            f"only {kept} of {total} samples survived the ceiling")
    cloud = SampleCloud.collect(np.concatenate(norm_parts),
                                np.concatenate(rho_parts), tags)
    cloud.meta["t_values"] = t_vals
    cloud.meta["discard_fraction"] = 1.0 - kept / max(total, 1)
    cloud.meta["discards"] = dict(discards)
    if with_mu:
        cloud.meta["mu_points"] = mu_points
    return cloud


def _combine(coeffs, basis):
    """The combination of the rows of basis by each row of coeffs, as one
    (K, d, D) product summed over its middle axis, which adds the rows of
    basis in order."""
    return (coeffs[:, :, None] * basis).sum(axis=1)


def _product_draw(rng, d, depth):
    """(coefficients, parameters) of a random curve t -> exp(t^e_1 v_1) ...
    exp(t^e_k v_k), k in 1..depth: row i of the (k, d) coefficients, uniform
    in [-1, 1] and scaled to a unit vector, combines the d basis rows into
    v_i, and the exponents e_i lie in [0.35, 1], one of them 1."""
    k = rng.randint(1, depth)
    rows = [[rng.uniform(-1, 1) for _ in range(d)] for _ in range(k)]
    norms = [math.sqrt(sum([c * c for c in row])) or 1.0 for row in rows]  # 0 stays 0
    exps = [rng.uniform(0.35, 1.0) for _ in range(k)]
    exps[rng.randrange(k)] = 1.0
    return (np.array(rows) / np.array(norms)[:, None],
            [AT_T if e == 1.0 else (POW, e, 1.0) for e in exps])


def _rays_and_products(basis, draws, heads=None):
    """The line of each row of basis, and the product curve of each draw
    (with its head, if heads are given).  The directions of all draws are
    combined at once (_combine), and every line is built by one float_lines
    call."""
    dirs = _combine(np.vstack([coeffs for coeffs, _ in draws]), basis)
    lines = iter(float_lines(np.vstack([basis, dirs])))
    rays = [next(lines) for _ in basis]
    heads = heads or [None] * len(draws)
    return rays, [_Curve([(next(lines), param) for param in params], head)
                  for (_, params), head in zip(draws, heads)]


def _vec(e: AlgebraElement) -> np.ndarray:
    """The float coordinate vector of an exact element."""
    return np.array(e.coords(), dtype=float)


def _ray(e: AlgebraElement) -> _Curve:
    """The curve t -> exp(t e), for a float t or an array of them."""
    return _line_curve(float_line(_vec(e)))


def _commuting_lines(u: AlgebraElement, z: AlgebraElement):
    """The float lines of u and of z, which must commute (ValueError if not,
    decided exactly): then exp(t u + p z) = exp(t u) exp(p z)."""
    if not bracket(u, z).is_zero():
        raise ValueError("[u, z] != 0: exp(t u + p z) is not exp(t u) exp(p z)")
    return float_line(_vec(u)), float_line(_vec(z))


def _least_rho_ratio(g_u, z_line, p, factors):
    """Of g_u exp((p f) z) = exp(t u + (p f) z) over the factors f, the sample
    with the least rho/|h|: a best-of-k scan around the root p of a corner
    determinant, which tracks the lower envelope.  The candidates are one
    (k, m, m) stack, each factor of z its own one-row product (z_line.points:
    the bits of a float parameter, which a grid of k rows need not keep).
    As min() over them would, it takes the first least ratio, and a NaN
    ratio (an overflowed candidate) only in first place."""
    cands = g_u @ z_line.points(p * np.array(factors))
    ratio = rho_norm(cands) / np.maximum(sup_norm(cands), 1.0)
    return cands[0 if np.isnan(ratio[0]) else int(np.nanargmin(ratio))]


def _nil_curves(h: Subalgebra, plan, result=None):
    B = np.array(h.coord_rows(), dtype=float)
    rng = random.Random(plan.seed)
    curves = []
    if result is not None:
        for tag, w in (("square-witness", result.square),
                       ("linear-witness", result.linear)):
            if w is not None:
                curves.append((tag, witness_curve(w, h)))
        if result.template is not None:
            curves += _template_extremal_curves(result.template)
    draws = [_product_draw(rng, len(B), PRODUCT_DEPTH) for _ in range(N_PRODUCT_CURVES)]
    rays, products = _rays_and_products(B, draws)
    for i, line in enumerate(rays):
        curves.append((f"ray{i}", _line_curve(line)))
        curves.append((f"ray{i}-", _line_curve(line, (LIN, -1.0, 1.0))))
    return curves + [(f"prod{i}", c) for i, c in enumerate(products)]


def _template_extremal_curves(tm):
    """Proof-recipe curves pinning thin band envelopes of matched templates."""
    curves = []
    if tm.type_id == 11:
        u, z = tm.evidence["u"], tm.evidence["z"]
        eta_z = complex(z.eta)
        eta2 = abs2(eta_z)
        ys = sum(abs2(complex(v)) for v in u.y)
        r0 = (complex(u.phi) * eta_z.conjugate()).real
        ru = (complex(u.eta) * eta_z.conjugate()).real
        u_line, z_line = _commuting_lines(u, z)

        def lower(t):
            # track eta_h = -|y_h|^2 phi_h / 12 along exp(t u + p z)
            p0 = -(t ** 3 * ys * r0 / 12.0 + t * ru) / eta2
            return _least_rho_ratio(u_line(t), z_line, p0, (1.0, 0.97, 1.03, 0.9, 1.1))
        curves.append(("extremal-54", _PerPoint(lower, u.n)))
    if tm.type_id == 7 and "rank_one" in tm.evidence:
        curves.append(("extremal-32", _ray(tm.evidence["rank_one"])))
    return curves


# ---------------------------------------------------------------------------
# witness curves


def witness_curve(witness: Witness, h: Subalgebra):
    """The proof's one-parameter curve t -> h(t) for a witness.

    Returns a curve (a float line or a _PerPoint) from a float t to h(t).
    Square curves have |rho(h(t))| ~ |h(t)|^2, linear ones ~ |h(t)|;
    preliminary conjugations from the proofs are applied exactly, so the
    curve may live in a conjugate copy of H (which moves mu by a bounded
    amount only).
    """
    recipe = _WITNESS_RECIPES.get((witness.side, witness.condition_id))
    if recipe is None:
        raise ImplicitSolveFailed(
            f"no curve recipe for {witness.side} condition {witness.condition_id}")
    return recipe(witness.elements, h.n)


def _conj_u_alpha(u: AlgebraElement, c):
    """Ad(exp(w)) u for w the alpha-root element with phi = c (exact)."""
    return conjugate(exp_closed(AlgebraElement(u.n, phi=c)), u)


def _ray_recipe(name):
    """The recipe whose curve is the ray exp(t e), e = elements[name]."""
    return lambda els, n: _ray(els[name])


def _square_1(els, n):
    u = els["u"]
    ys = sum((abs2(v) for v in u.y), Fraction(0))
    return _ray(_conj_u_alpha(u, -(herm(u.x, u.y) / QQi(ys))) if ys else u)


def _square_3(els, n):
    u, z = _vec(els["u"]), _vec(els["z"])
    return _PerPoint(lambda t: exp_float(u * t + z * (t * t)), n)


def _square_5(els, n):
    u, z = els["u"], els["z"]
    u1 = u - z.scale(u.xx)  # clear the xx slot
    aphi2 = abs2(complex(u1.phi))
    yy = float(u1.yy)
    u1f, zf = _vec(u1), _vec(z)
    return _PerPoint(
        lambda t: exp_float(u1f * t + zf * ((t ** 3) * aphi2 * yy / 6.0)), n)


def _slot_dot(base, direction, n):
    """dot(a, b): the real inner product of slots a and b of base + p
    direction, as a np.poly1d in p (every slot is affine in p)."""
    cols = AlgebraElement.slot_columns(n)

    def dot(a, b):
        a0, a1 = base[cols[a]], direction[cols[a]]
        b0, b1 = base[cols[b]], direction[cols[b]]
        return np.poly1d([a1 @ b1, a0 @ b1 + a1 @ b0, a0 @ b0])
    return dot


def _root_nearest_zero(poly):
    """The real root of a real np.poly1d nearest 0, the first on a tie: of the
    companion-matrix eigenvalues (np.roots), those with imaginary part exactly
    0, as LAPACK returns a real matrix's real eigenvalues.  The zero
    polynomial gives 0; no real root raises ImplicitSolveFailed."""
    if not poly.coeffs.any():
        return 0.0
    roots = np.roots(poly.coeffs)
    real = roots.real[roots.imag == 0]
    if not len(real):
        raise ImplicitSolveFailed(f"no real root of {poly.coeffs}")
    return float(real[np.argmin(np.abs(real))])


def _re_corner(dot):
    """Re exp(X)[0, n+1] of a nilpotent X from its slot products dot
    (the real part of e1m in elements._exp_display)."""
    return (dot("phi", "phi") * dot("y", "y") / 24
            - dot("x", "x") / 2 - dot("phi", "eta"))


def _corner_recipe(a, b, clear_im):
    """Square conditions 6-8: t -> exp(t a + s b), s the root nearest 0 of the
    quartic Re exp(t a + s b)[0, n+1]; clear_im also clears Im g[0, n+1] of
    g = exp(e) by exp(e - Im g[0, n+1] xx)."""
    def recipe(els, n):
        af, bf = _vec(els[a]), _vec(els[b])
        axis = _vec(AlgebraElement(n, xx=1))

        def curve(t):
            s = _root_nearest_zero(_re_corner(_slot_dot(af * t, bf, n)))
            e = af * t + bf * s
            g = exp_float(e)
            return exp_float(e + axis * -g[0, -1].imag) if clear_im else g
        return _PerPoint(curve, n)
    return recipe


def _linear_2(els, n):
    u = els["u"]
    if any(u.y):
        u = weyl_reflect(_conj_u_alpha(u, -_lambda_of(u)), "alpha")
    return _ray(u)


def _linear_4(els, n):
    """t -> exp(t u + p z), p the root nearest 0 of the quartic Re(delta)."""
    u, z = _vec(els["u"]), _vec(els["z"])

    def curve(t):
        dot = _slot_dot(u * t, z, n)
        redelta = (dot("xx", "yy") + dot("phi", "phi") * dot("yy", "yy") / 12
                   - dot("eta", "eta"))
        return exp_float(u * t + z * _root_nearest_zero(redelta))
    return _PerPoint(curve, n)


def _linear_5(els, n):
    """Curve for the mixed phi/y + central-eta condition.

    The pair (u, z) is conjugated exactly so that u lives in the phi and y
    slots only and z is a pure central eta element with phi_u conj(eta_z)
    real; along exp(s u + p z) the corner determinant has a double root in p,
    and scanning p near it tracks the linear-growth direction.
    """
    u, z = els["u"], els["z"]

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
    u_line, z_line = _commuting_lines(u, z)
    eta2 = abs2(complex(z.eta))
    ys = sum(abs2(complex(v)) for v in u.y)
    r0 = re(complex(z.eta) * conj(complex(u.phi)))

    def curve(s):
        if eta2 == 0:
            return u_line(s)
        p_star = -(s ** 3) * ys * r0 / (12.0 * eta2)
        return _least_rho_ratio(u_line(s), z_line, p_star,
                                (1.0, 0.98, 1.02, 0.9, 1.1, 0.0))
    return _PerPoint(curve, n)


_WITNESS_RECIPES = {
    ("square", 1): _square_1, ("square", 2): _ray_recipe("z"),
    ("square", 3): _square_3, ("square", 4): _ray_recipe("u"),
    ("square", 5): _square_5, ("square", 6): _corner_recipe("u", "v", False),
    ("square", 7): _corner_recipe("u", "v", True),
    # h in exp(s u + t v + z): s = O(1)
    ("square", 8): _corner_recipe("v", "u", True),
    ("linear", 1): _ray_recipe("z"), ("linear", 2): _linear_2,
    ("linear", 3): _ray_recipe("u"), ("linear", 4): _linear_4,
    ("linear", 5): _linear_5,
}


DESIGNED_PREFIXES = ("square-witness", "linear-witness", "extremal", "ray",
                     "u-ray", "torus", "graph-line", "line")


def designed_subcloud(cloud: SampleCloud) -> SampleCloud:
    """The samples from proof-designed curves (witnesses, extremal recipes,
    single-parameter rays, torus and graph lines).  Product curves fill the
    interior of a band but converge slowly, so envelope slopes are read off
    the designed curves when they provide enough range."""
    designed = {t: t.startswith(DESIGNED_PREFIXES) for t in dict.fromkeys(cloud.tags)}
    keep = np.fromiter(map(designed.__getitem__, cloud.tags), bool, len(cloud.tags))
    if not keep.any():
        return cloud
    sub = SampleCloud(cloud.log_norm[keep], cloud.log_rho[keep],
                      list(compress(cloud.tags, keep)), dict(cloud.meta))
    for name in ("t_values", "mu_points"):
        if name in cloud.meta:
            sub.meta[name] = list(compress(cloud.meta[name], keep))
    return sub


def sample_subgroup(spec, plan: SamplingPlan = None, result=None) -> SampleCloud:
    """Cloud of (log|h|, log|rho(h)|) samples from a subgroup spec.

    An AN spec is sampled on its compatible conjugate from line_compatible,
    the subgroup that classify_an classifies (a spec read from JSON need not
    be compatible); conjugation moves mu by a bounded amount only.  A
    one-parameter cloud also carries the Cartan projection of every sample
    (meta["mu_points"]) and the a-part of its line (meta["ray_direction"]),
    which fit_ray_power reads.
    """
    plan = plan or SamplingPlan()
    if isinstance(spec, Subalgebra):
        return _collect(_nil_curves(spec, plan, result), plan)
    spec = line_compatible(spec)
    if isinstance(spec, Semidirect):
        return _collect(_semidirect_curves(spec, plan), plan)
    if isinstance(spec, Graph):
        return _collect(_graph_curves(spec, plan), plan)
    if isinstance(spec, OneParam):
        line, scale = _line(spec)
        cloud = _collect(_line_curves("line", line, scale), plan, with_mu=True)
        cloud.meta["ray_direction"] = tuple(_vec(spec.x)[:2])
        return cloud
    raise TypeError(f"cannot sample {type(spec).__name__}")


def _line(spec):
    """(line, scale) for a Semidirect, Graph or OneParam spec: the float_line
    of v, the float coordinates of its line (the torus, T + psi, or x), and
    scale the largest |t_i| of v, so that line(log t / scale) has a-part
    entries in [1/t, t]."""
    if isinstance(spec, Semidirect):
        x = spec.torus.element(spec.n)
    elif isinstance(spec, Graph):
        x = spec.torus().element(spec.n) + spec.psi_value
    else:
        x = spec.x
    v = _vec(x)
    return float_line(v), float(np.abs(v[:2]).max())


def _line_curves(tag, line, scale):
    """The line both ways: t -> line(+-log t / scale), tagged tag and tag-."""
    return [(tag, _line_curve(line, (LOG, 1.0, scale))),
            (tag + "-", _line_curve(line, (LOG, -1.0, scale)))]


def _ray_and_mix_curves(line, scale, u, rng):
    """A ray per basis row of u, then line(s log t / scale) times a random product."""
    B = np.array(u.coord_rows(), dtype=float)
    heads, draws = [], []
    for _ in range(N_PRODUCT_CURVES):
        heads.append((line, (LOG, rng.uniform(-2, 2), scale)))
        draws.append(_product_draw(rng, len(B), PRODUCT_DEPTH))
    rays, mixes = _rays_and_products(B, draws, heads)
    return ([(f"u-ray{i}", _line_curve(ray)) for i, ray in enumerate(rays)]
            + [(f"mix{i}", c) for i, c in enumerate(mixes)])


def _semidirect_curves(spec: Semidirect, plan):
    rng = random.Random(plan.seed + 1)
    line, scale = _line(spec)
    return (_line_curves("torus", line, scale)
            + _ray_and_mix_curves(line, scale, spec.u, rng))


def _graph_curves(spec: Graph, plan):
    rng = random.Random(plan.seed + 2)
    line, scale = _line(spec)
    return (_line_curves("graph-line", line, scale)
            + _ray_and_mix_curves(line, scale, spec.u, rng)
            + _extremal_graph_curves(spec, line, scale))


def extremal_graph_curves(spec: Graph):
    """The proof-recipe curves pinning the log-corrected envelopes."""
    return _extremal_graph_curves(spec, *_line(spec))


def _extremal_graph_curves(spec: Graph, line, scale):
    """extremal_graph_curves on the graph line (line, scale) of _line(spec)."""
    B = np.array(spec.u.coord_rows(), dtype=float)
    nrm0 = np.linalg.norm(B[0])
    ray0 = float_line(B[0] * (1.0 / (nrm0 or 1.0)))
    case = _graph_case(spec)
    curves = []
    cols, slots = AlgebraElement.slot_columns(spec.n), _pair_slots(spec.omega)
    inter = [b for b, row in zip(B, spec.u.coord_rows())
             if any(any(row[cols[s]]) for s in slots)]
    if inter:
        # U meets the omega root spaces: the chamber fills; pin the square
        # direction with the torus outpacing the unipotent factor
        curves.append(("extremal-square", _line_curve(
            float_line(inter[0]), head=(line, (LOG, 2.0, scale)))))
    along = (line, (LOG, 1.0, scale))  # line(log t / scale)
    if case == ("alpha", "alpha+beta"):
        # upper extremal: |x_u|^2 ~ log a1
        curves.append(("extremal-upper", _line_curve(ray0, (LOGPOW, 0.5, 1.0), along)))
    elif case == ("alpha", "alpha+2beta"):
        curves.append(("extremal-lower", _line_curve(ray0, (ONE, 1.0, 1.0), along)))
    elif case == ("beta", "alpha+2beta"):
        r = 1 if _psi_in_2beta(spec) else 2
        curves.append(("extremal-lower", _line_curve(ray0, (LOGPOW, r / 2.0, 1.0), along)))
    elif case == ("beta", "alpha+beta"):
        curves.append(("extremal-upper", _Curve([along])))
    return curves


def _graph_case(spec: Graph):
    return (spec.omega, _sigma_of(spec.u))


def fit_ray_drift(spec: OneParam, plan: SamplingPlan = None) -> float:
    """Empirical drift power k for a one-parameter subgroup."""
    return fit_ray_power(sample_subgroup(spec, plan))


def fit_graph_log_power(spec: Graph, plan: SamplingPlan = None):
    """Log-power coefficient along the proof's extremal curve.

    Returns (s, coefficient): the envelope exponent the extremal curve tracks
    and the regression coefficient of log|rho| - s log|h| on log log|h|.
    """
    plan = plan or SamplingPlan()
    curves = extremal_graph_curves(spec)
    if not curves:
        raise ValueError("no extremal curve for this graph case")
    ex = [(tag, c) for tag, c in curves if tag.startswith("extremal")]
    cloud = _collect(ex, plan)
    case = _graph_case(spec)
    s = 2.0 if case in (("alpha", "alpha+beta"), ("alpha", "alpha+2beta")) else 1.0
    return s, fit_log_power(cloud, s)


# ---------------------------------------------------------------------------
# end-to-end verification


def verify_shape(spec, plan: SamplingPlan = None, seed: int = 0,
                 spec_id: str = "") -> VerificationReport:
    """Classify, sample, fit, and compare against the predicted shape."""
    t0 = time.perf_counter()
    plan = plan or SamplingPlan(seed=seed)
    result = None
    if isinstance(spec, Subalgebra):
        result = classify(spec, seed=seed)
        shape = result.shape
    else:
        result = classify_an(spec, seed=seed)
        shape = result.shape
    if shape.symbolic:
        if shape.kind == "ray":
            cloud = sample_subgroup(spec, plan)
            try:
                k = fit_ray_power(cloud)
                note = f"ray drift power fitted as k = {k:.3f}"
            except (InsufficientRange, np.linalg.LinAlgError) as e:
                k = None
                note = f"ray fit failed: {e}"
            return VerificationReport(
                spec_id, "unverifiable", shape, fitted=(k,),
                runtime=time.perf_counter() - t0,
                notes=note + "; no predicted value", classification=result)
        return VerificationReport(
            spec_id, "unverifiable", shape, runtime=time.perf_counter() - t0,
            notes="symbolic exponent (quoted classification); " + result.notes
            if getattr(result, "notes", "") else "symbolic exponent",
            classification=result)
    nil_result = result if isinstance(spec, Subalgebra) else None
    cloud = sample_subgroup(spec, plan, result=nil_result)
    # Thin shapes are pinned by the proof-designed curves.  For the full
    # chamber the extremes may only be reached by torus x unipotent products,
    # so a designed-curve miss falls back to the whole cloud (more samples
    # can only widen the fitted band, which is the success direction there).
    try:
        report = shape_check(designed_subcloud(cloud), shape, plan.tol)
    except (InsufficientRange, np.linalg.LinAlgError):
        report = None
    if report is None or (not report.verdict and shape.kind == "full_chamber"):
        report = shape_check(cloud, shape, plan.tol)
    return VerificationReport(
        spec_id, "pass" if report.verdict else "fail", shape,
        fitted=report.fitted, log_fits=report.details,
        runtime=time.perf_counter() - t0, classification=result,
        notes=f"cloud of {len(cloud)} samples, "
              f"discard fraction {cloud.meta.get('discard_fraction', 0):.2f}")


def verify_gallery_entry(entry: GalleryEntry, seed: int = 0,
                         plan: SamplingPlan = None) -> VerificationReport:
    return verify_shape(entry.spec(), plan=plan, seed=seed, spec_id=entry.id)


# ---------------------------------------------------------------------------
# dimension table


def locked_pair_obstructed(n: int = 3) -> bool:
    """The three-dimensional locked family needs C-independent y, y~.

    For n = 3 the slot vectors live in C^1 where |y y~+| = |y| |y~| exactly,
    so |y|^2 = |y~|^2 = |3i y y~+| would force 3|y|^2 = |y|^2: no nonzero
    solution exists.  Verified here on the exact identity.
    """
    if n != 3:
        return False
    rng = random.Random(7)
    for _ in range(50):
        y = QQi(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        w = QQi(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        if abs2(y * w.conjugate()) != abs2(y) * abs2(w):
            return False
    return True


def check_dimension_table(seed: int = 0):
    """Rows of the maximal-dimension table exercised on constructions."""
    rows = []

    def add(name, cond, detail=""):
        rows.append({"check": name, "ok": bool(cond), "detail": detail})

    h = maximal_band_family(4)
    r = classify(h, seed=seed)
    add("band-3/2-2 family at n=4 has dimension n+1",
        h.dim == 5 and r.template and r.template.type_id == 7
        and r.shape == MuShape.band(Fraction(3, 2), 2),
        f"dim={h.dim}, type={r.template and r.template.type_id}")

    h = maximal_band_family(5)
    r = classify(h, seed=seed)
    add("band-3/2-2 family at n=5 has dimension n+1",
        h.dim == 6 and r.template and r.template.type_id == 7,
        f"dim={h.dim}")

    h = gallery_get("notcds07-n3").spec()
    r = classify(h, seed=seed)
    add("band-3/2-2 family at n=3 has dimension 3",
        h.dim == 3 and r.template and r.template.type_id == 7)

    h = mixing_pair_family(4, y=[3, QQi(0, 3)], ytilde=[QQi(2, 3), QQi(1, -2)])
    r = classify(h, seed=seed)
    add("locked triple at n=4 has dimension 3 and the 3/2 curve",
        h.dim == 3 and r.template and r.template.type_id == 8
        and r.shape == MuShape.curve(Fraction(3, 2)),
        f"dim={h.dim}, type={r.template and r.template.type_id}")

    h = gallery_get("notcds08-n3").spec()
    r = classify(h, seed=seed)
    add("curve-3/2 family at n=3 caps at dimension 2",
        h.dim == 2 and r.template and r.template.type_id == 8)

    add("locked-pair slot constraint unsolvable at n=3",
        locked_pair_obstructed(3),
        "one-dimensional slot vectors force |y yt+| = |y||yt|")
    try:
        mixing_pair_family(3, y=[3], ytilde=[QQi(0, -1)])
        add("locked-pair constructor rejects n=3", False)
    except ValueError:
        add("locked-pair constructor rejects n=3", True)
    return rows
