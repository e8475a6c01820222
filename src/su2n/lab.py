"""Sampling harness tying the classifiers to the Cartan-projection numerics.

Element clouds are generated from subgroup specs as products of exponentials
(depth up to 3, so the cloud probes the full band of mu(H), not a single
curve), clipped at the norm ceiling where doubles stay trustworthy.  A curve
is evaluated on a whole parameter grid at once, as a (T, m, m) numpy stack.
Fitted envelope exponents and log-power regressions are then compared against
the classifier's predicted shape.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .anclassify import (Graph, OneParam, Semidirect, classify_an,
                         line_compatible)
from .config import DEFAULT, Tolerances
# exp_closed is unused here; bench/test_bench.py checks that tracing rebinds
# this alias together with elements.exp_closed.
from .elements import exp_closed, exp_float, exp_line, matrix_of  # noqa: F401
from .gallery import GalleryEntry, get as gallery_get
from .gallery import maximal_band_family, mixing_pair_family
from .metrics import (
    InsufficientRange,
    SampleCloud,
    fit_log_power,
    fit_ray_power,
    mu,
    rho_norm,
    shape_check,
    sup_norm,
)
from .nilclassify import ImplicitSolveFailed, classify, witness_curve
from .scalars import QQi, abs2
from .shapes import MuShape
from .subalgebra import Subalgebra


class OverflowCeiling(ArithmeticError):
    pass


# Random product curves per sampled spec, each a product of 1..PRODUCT_DEPTH
# exponentials of random directions in the algebra.
N_PRODUCT_CURVES = 20
PRODUCT_DEPTH = 3


@dataclass
class SamplingPlan:
    seed: int = 0
    per_curve: int = 48
    collect_mu: bool = False
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


# A curve maps a float array of parameters t to the (T, m, m) stack of its
# group elements (a _PerPoint wraps the curves that solve per t); directions
# in the algebra are float coordinate vectors, the rows of
# np.array(h.coord_rows(), dtype=float).  Rungs of the doubling ladder are
# evaluated this many at a time.
LADDER_CHUNK = 16


class _PerPoint:
    """A curve that solves for each t on its own (root brackets, best-of-k
    choices), stacked over a grid.  fn maps a float t to an (m, m) matrix.
    A failed solve leaves a NaN slice."""

    def __init__(self, fn, n):
        self.fn, self.m = fn, n + 2

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


def _evaluate(curve, ts):
    """The curve's stack on ts, and the per-point errors behind NaN slices."""
    if isinstance(curve, _PerPoint):
        return curve.evaluate(ts)
    return curve(ts), {}


def _adaptive_grid(curve, per, ceiling, t_lo=1.0, t_cap=None):
    """Log-spaced parameter grid ending where the curve hits the ceiling.

    The doubling ladder t_lo 2^k, k = 1..80, ends at the first rung at or
    above t_cap (at t_cap), at the first rung with a non-finite entry (at
    half that rung) or at the first rung above the ceiling (at that rung); a
    curve that passes every rung ends at t_lo 2^81.
    """
    rungs = t_lo * 2.0 ** np.arange(1, 81)
    t_hi = t_lo * 2.0 ** 81
    if t_cap is not None and rungs[-1] >= t_cap:
        cut = int(np.argmax(rungs >= t_cap))
        rungs, t_hi = rungs[:cut], t_cap
    for start in range(0, len(rungs), LADDER_CHUNK):
        chunk = rungs[start:start + LADDER_CHUNK]
        with np.errstate(all="ignore"):
            norms = sup_norm(_evaluate(curve, chunk)[0])
        finite = np.isfinite(norms)
        hit = ~finite | (norms > ceiling)
        if hit.any():
            k = int(np.argmax(hit))
            t_hi = chunk[k] if finite[k] else chunk[k] / 2
            break
    t_hi = max(t_hi, t_lo * 4)
    return np.geomspace(t_lo, t_hi, per)


def _collect(curves, plan) -> SampleCloud:
    """Evaluate labeled curves on adaptive grids; discard above the ceiling.

    meta["discards"] counts the dropped points by cause: non_finite,
    over_ceiling, at_most_one (|h| <= 1) and the name of each error a
    per-point solve raised.
    """
    ceiling = plan.tol.norm_ceiling
    pts = []
    mu_points = []
    t_vals = []
    discards = Counter(non_finite=0, over_ceiling=0, at_most_one=0)
    total = kept = 0
    for tag, curve in curves:
        grid = _adaptive_grid(curve, plan.per_curve, ceiling,
                              t_cap=plan.t_cap)
        with np.errstate(all="ignore"):
            stack, failed = _evaluate(curve, grid)
            norms = sup_norm(stack)
        # failed points are NaN slices, counted under their error alone
        finite = np.isfinite(norms)
        over = finite & (norms > ceiling)
        low = finite & (norms <= 1.0)
        keep = finite & ~over & ~low
        discards.update(failed.values())
        discards["non_finite"] += int((~finite).sum()) - len(failed)
        discards["over_ceiling"] += int(over.sum())
        discards["at_most_one"] += int(low.sum())
        total += len(grid)
        if not keep.any():
            continue
        kept += int(keep.sum())
        good = stack[keep]
        pts += zip(norms[keep].tolist(), rho_norm(good).tolist(),
                   [tag] * len(good))
        t_vals += grid[keep].tolist()
        if plan.collect_mu:
            mu_points += [mu(g).as_tuple() for g in good]
    if kept < plan.tol.min_samples:
        raise OverflowCeiling(
            f"only {kept} of {total} samples survived the ceiling")
    cloud = SampleCloud.collect(pts)
    cloud.meta["t_values"] = t_vals
    cloud.meta["discard_fraction"] = 1.0 - kept / max(total, 1)
    cloud.meta["discards"] = dict(discards)
    if plan.collect_mu:
        cloud.meta["mu_points"] = mu_points
    return cloud


def _random_combo(rng, basis, scale=1.0):
    coeffs = [rng.uniform(-1, 1) for _ in basis]
    nrm = math.sqrt(sum(c * c for c in coeffs)) or 1.0
    out = None
    for c, b in zip(coeffs, basis):
        term = (scale * c / nrm) * b
        out = term if out is None else out + term
    return out


def _product_curve(rng, basis, depth):
    k = rng.randint(1, depth)
    dirs = [_random_combo(rng, basis) for _ in range(k)]
    exps = [rng.uniform(0.35, 1.0) for _ in range(k)]
    exps[rng.randrange(k)] = 1.0

    def curve(ts):
        g = None
        for v, e in zip(dirs, exps):
            f = exp_float(v, ts ** e)
            g = f if g is None else g @ f
        return g
    return curve


def _nil_curves(h: Subalgebra, plan, result=None):
    B = np.array(h.coord_rows(), dtype=float)
    rng = random.Random(plan.seed)
    curves = []
    if result is not None:
        if result.square is not None:
            curves.append(("square-witness",
                           _PerPoint(witness_curve(result.square, h), h.n)))
        if result.linear is not None:
            curves.append(("linear-witness",
                           _PerPoint(witness_curve(result.linear, h), h.n)))
    if result is not None and result.template is not None:
        curves += _template_extremal_curves(result.template)
    for i, b in enumerate(B):
        curves.append((f"ray{i}", lambda ts, b=b: exp_float(b, ts)))
        curves.append((f"ray{i}-", lambda ts, b=b: exp_float(b, -ts)))
    for i in range(N_PRODUCT_CURVES):
        curves.append((f"prod{i}", _product_curve(rng, B, PRODUCT_DEPTH)))
    return curves


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
        uf, zf = np.array(u.coords(), dtype=float), np.array(z.coords(), dtype=float)

        def lower(t):
            # track eta_h = -|y_h|^2 phi_h / 12 along exp(t u + p z)
            p0 = -(t ** 3 * ys * r0 / 12.0 + t * ru) / eta2
            best, best_ratio = None, None
            for fac in (1.0, 0.97, 1.03, 0.9, 1.1):
                g = exp_float(uf * t + zf * (p0 * fac))
                ratio = rho_norm(g) / max(sup_norm(g), 1.0)
                if best_ratio is None or ratio < best_ratio:
                    best, best_ratio = g, ratio
            return best
        curves.append(("extremal-54", _PerPoint(lower, u.n)))
    if tm.type_id == 7 and "rank_one" in tm.evidence:
        v = np.array(tm.evidence["rank_one"].coords(), dtype=float)
        curves.append(("extremal-32", lambda ts: exp_float(v, ts)))
    return curves


DESIGNED_PREFIXES = ("square-witness", "linear-witness", "extremal", "ray",
                     "u-ray", "torus", "graph-line", "line")


def designed_subcloud(cloud: SampleCloud) -> SampleCloud:
    """The samples from proof-designed curves (witnesses, extremal recipes,
    single-parameter rays, torus and graph lines).  Product curves fill the
    interior of a band but converge slowly, so envelope slopes are read off
    the designed curves when they provide enough range."""
    keep = [i for i, t in enumerate(cloud.tags)
            if t.startswith(DESIGNED_PREFIXES)]
    if not keep:
        return cloud
    idx = np.array(keep)
    sub = SampleCloud(cloud.log_norm[idx], cloud.log_rho[idx],
                      [cloud.tags[i] for i in keep], dict(cloud.meta))
    if "t_values" in cloud.meta:
        sub.meta["t_values"] = [cloud.meta["t_values"][i] for i in keep]
    if "mu_points" in cloud.meta:
        sub.meta["mu_points"] = [cloud.meta["mu_points"][i] for i in keep]
    return sub


def sample_subgroup(spec, plan: SamplingPlan = None, result=None) -> SampleCloud:
    """Cloud of (log|h|, log|rho(h)|) samples from a subgroup spec.

    An AN spec is sampled on its compatible conjugate from line_compatible,
    the subgroup that classify_an classifies (a spec read from JSON need not
    be compatible); conjugation moves mu by a bounded amount only.
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
        return _collect(_oneparam_curves(spec, plan), plan)
    raise TypeError(f"cannot sample {type(spec).__name__}")


def _float_matrix(u) -> np.ndarray:
    """The complex matrix of an exact algebra element."""
    return np.array(matrix_of(u), dtype=complex)


def _ray_and_mix_curves(L, scale, u, rng, plan):
    """A ray per basis row of u, then exp((s log t / scale) L) times a random product."""
    B = np.array(u.coord_rows(), dtype=float)
    curves = [(f"u-ray{i}", lambda ts, b=b: exp_float(b, ts)) for i, b in enumerate(B)]
    for i in range(N_PRODUCT_CURVES):
        s = rng.uniform(-2, 2)
        udirs = _product_curve(rng, B, PRODUCT_DEPTH)

        def curve(ts, s=s, udirs=udirs):
            return exp_line(L, s * np.log(ts) / scale) @ udirs(ts)
        curves.append((f"mix{i}", curve))
    return curves


def _semidirect_curves(spec: Semidirect, plan):
    rng = random.Random(plan.seed + 1)
    T = _float_matrix(spec.torus.element(spec.n))
    scale = max(abs(spec.torus.p), abs(spec.torus.q))
    t_unit = T * (1.0 / scale)
    return ([("torus", lambda ts: exp_line(t_unit, np.log(ts))),
             ("torus-", lambda ts: exp_line(-t_unit, np.log(ts)))]
            + _ray_and_mix_curves(T, scale, spec.u, rng, plan))


def _graph_x_matrix(spec: Graph) -> np.ndarray:
    return _float_matrix(spec.torus().element(spec.n) + spec.psi_value)


def _graph_curves(spec: Graph, plan):
    rng = random.Random(plan.seed + 2)
    X = _graph_x_matrix(spec)
    scale = max(abs(spec.torus().p), abs(spec.torus().q))
    return ([("graph-line", lambda ts: exp_line(X, np.log(ts) / scale)),
             ("graph-line-", lambda ts: exp_line(X, -np.log(ts) / scale))]
            + _ray_and_mix_curves(X, scale, spec.u, rng, plan)
            + extremal_graph_curves(spec))


def extremal_graph_curves(spec: Graph, result=None):
    """The proof-recipe curves pinning the log-corrected envelopes."""
    X = _graph_x_matrix(spec)
    B = np.array(spec.u.coord_rows(), dtype=float)
    scale = max(abs(spec.torus().p), abs(spec.torus().q))
    nrm0 = np.linalg.norm(B[0])
    u0 = B[0] * (1.0 / (nrm0 or 1.0))
    case = _graph_case(spec)
    curves = []
    inter = [b for b, e in zip(B, spec.u.basis)
             if not (e.root_component(spec.omega).is_zero()
                     and (spec.omega != "beta" or e.root_component("2beta").is_zero())
                     and (spec.omega != "alpha+beta"
                          or e.root_component("2alpha+2beta").is_zero()))]
    if inter:
        # U meets the omega root spaces: the chamber fills; pin the square
        # direction with the torus outpacing the unipotent factor
        u0i = inter[0]

        def square_curve(ts, u0i=u0i):
            return (exp_line(X, 2.0 * np.log(ts) / scale)
                    @ exp_float(u0i, ts))
        curves.append(("extremal-square", square_curve))
    if case == ("alpha", "alpha+beta"):
        # upper extremal: |x_u|^2 ~ log a1
        def upper(ts):
            tau = np.log(ts)
            return (exp_line(X, tau / scale)
                    @ exp_float(u0, np.sqrt(np.maximum(tau, 1e-9))))
        curves.append(("extremal-upper", upper))
    elif case == ("alpha", "alpha+2beta"):
        g0 = exp_float(u0)

        def lower(ts):
            return exp_line(X, np.log(ts) / scale) @ g0
        curves.append(("extremal-lower", lower))
    elif case == ("beta", "alpha+2beta"):
        r = 1 if (spec.psi_value.root_component("beta").is_zero()
                  and not spec.psi_value.root_component("2beta").is_zero()) else 2
        def lower(ts, r=r):
            tau = np.log(ts)
            return (exp_line(X, tau / scale)
                    @ exp_float(u0, np.maximum(tau, 1e-9) ** (r / 2.0)))
        curves.append(("extremal-lower", lower))
    elif case == ("beta", "alpha+beta"):
        curves.append(("extremal-upper",
                       lambda ts: exp_line(X, np.log(ts) / scale)))
    return curves


def _graph_case(spec: Graph):
    from .anclassify import _sigma_of
    sigma = _sigma_of(spec.u)
    return (spec.omega, sigma)


def _oneparam_curves(spec: OneParam, plan):
    X = _float_matrix(spec.x)
    scale = float(max(abs(spec.x.t1), abs(spec.x.t2)))
    return [("line", lambda ts: exp_line(X, np.log(ts) / scale)),
            ("line-", lambda ts: exp_line(X, -np.log(ts) / scale))]


def fit_ray_drift(spec: OneParam, plan: SamplingPlan = None) -> float:
    """Empirical drift power k for a one-parameter subgroup."""
    plan = replace(plan or SamplingPlan(), collect_mu=True)
    cloud = sample_subgroup(spec, plan)
    cloud.meta["ray_direction"] = (abs(spec.x.t1), abs(spec.x.t2))
    return fit_ray_power(cloud)


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
            cloud = sample_subgroup(spec, replace(plan, collect_mu=True))
            if isinstance(spec, OneParam):
                cloud.meta["ray_direction"] = (abs(spec.x.t1), abs(spec.x.t2))
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
    rep = verify_shape(entry.spec(), plan=plan, seed=seed, spec_id=entry.id)
    return rep


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
