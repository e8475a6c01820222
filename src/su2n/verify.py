"""Invariant suites behind `su2n verify` and the acceptance tests.

Each suite returns a list of (name, ok, detail) rows so the CLI and the test
harness print one line per check.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np

from .config import LOG_POWER_TOL
from .corpus import random_corpus, random_element
from .elements import (
    GroupElement,
    _matrix_element,
    bracket,
    delta,
    delta_formula,
    exp_closed,
    exp_series,
    matrix_of,
)
from .gallery import entries as gallery_entries, get as gallery_get
from .lab import (
    SamplingPlan,
    check_dimension_table,
    exp_float,
    fit_graph_log_power,
    verify_gallery_entry,
)
from .metrics import (
    CartanPoint,
    mu,
    rho_norm,
    rho_norm_oracle,
    sample_compact_pair,
    sup_norm,
)
from .nilclassify import InconsistentClassification, classify
from .subalgebra import Subalgebra
from .weyl import conjugate


def _row(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _budget_row(name, t0, budget):
    """A runtime row; the elapsed time is read once, for the check and the text."""
    elapsed = time.perf_counter() - t0
    return _row(name, elapsed < budget, f"{elapsed:.1f}s")


def _commutator_matches(u, v):
    m = u.n + 2
    gu, gv = _matrix_element(u), _matrix_element(v)
    uv, vu = (gu @ gv).mat, (gv @ gu).mat
    Mb = matrix_of(bracket(u, v))
    return all(uv[i][j] - vu[i][j] == Mb[i][j] for i in range(m) for j in range(m))


def formulas_suite(seed=0, trials_per_n=334, ns=(3, 4, 6)):
    """Closed-form exponential, corner determinant, bracket, Jacobi.

    A failing row's detail names the first n it failed at.
    """
    rng = random.Random(seed)
    rows = []
    t0 = time.perf_counter()
    failed_at = {}  # check -> first n where it failed
    for n in ns:
        for _ in range(trials_per_n):
            u = random_element(n, rng, max_slots=6)
            g1, g2 = exp_closed(u), exp_series(u)
            m = n + 2
            if any(g1.mat[i][j] != g2.mat[i][j] for i in range(m) for j in range(m)):
                failed_at.setdefault("exp", n)
            if delta(g1) != delta_formula(u):
                failed_at.setdefault("delta", n)
            v = random_element(n, rng, max_slots=6)
            if not _commutator_matches(u, v):
                failed_at.setdefault("commutator", n)
            w = random_element(n, rng, max_slots=4)
            jac = (bracket(bracket(u, v), w) + bracket(bracket(v, w), u)
                   + bracket(bracket(w, u), v))
            if not jac.is_zero():
                failed_at.setdefault("jacobi", n)
    for check, name in (("exp", "exp_closed equals the terminating series exactly"),
                        ("delta", "corner determinant matches its expanded formula"),
                        ("commutator", "bracket slots match the matrix commutator"),
                        ("jacobi", "Jacobi identity holds exactly")):
        n = failed_at.get(check)
        rows.append(_row(name, n is None,
                         "" if n is None else f"{check} mismatch at n={n}"))
    # group invariants of closed-form exponentials
    ginv = True
    for _ in range(50):
        u = random_element(4, rng, max_slots=6)
        ok, why = exp_closed(u).check_invariants()
        ginv = ginv and ok
    rows.append(_row("exp_closed lands in the isometry group with det 1", ginv))
    rows.append(_budget_row("formula suite runtime under budget", t0, 30))
    return rows


def cartan_suite(seed=0, cases=1000):
    """mu on the chamber, bi-invariance, inversion, rho against its oracle."""
    rng = np.random.default_rng(seed)
    rows = []
    t0 = time.perf_counter()
    ok_fix = ok_rho_a = True
    for _ in range(cases):
        n = int(rng.integers(3, 6))
        lam1 = rng.uniform(0, 6 * math.log(10))
        lam2 = rng.uniform(0, lam1)
        a1, a2 = math.exp(lam1), math.exp(lam2)
        a = CartanPoint(a1, a2).matrix(n)
        pt = mu(a)
        if abs(pt.a1 - a1) > 1e-10 * a1 or abs(pt.a2 - a2) > 1e-10 * max(a2, 1):
            ok_fix = False
        if abs(rho_norm(a) - a1 * a2) > 1e-12 * a1 * a2:
            ok_rho_a = False
    rows.append(_row("mu fixes chamber points to 1e-10", ok_fix))
    rows.append(_row("rho norm of a chamber point is exactly a1 a2", ok_rho_a))
    ok_k = ok_inv = ok_sandwich = True
    for _ in range(cases // 5):
        n = int(rng.integers(3, 6))
        a1 = math.exp(rng.uniform(0.5, 5))
        a2 = math.exp(rng.uniform(0, math.log(a1)))
        a = CartanPoint(a1, a2).matrix(n)
        k1, k2 = sample_compact_pair(n, rng), sample_compact_pair(n, rng)
        g = k1 @ a @ k2
        pt = mu(g)
        if abs(pt.a1 - a1) > 1e-8 * a1 or abs(pt.a2 - a2) > 1e-8 * a1:
            ok_k = False
        pti = mu(np.linalg.inv(g))
        if abs(pti.a1 - pt.a1) > 1e-8 * pt.a1 or abs(pti.a2 - pt.a2) > 1e-8 * pt.a1:
            ok_inv = False
        C = (n + 2) ** 4
        if not (1 / C <= sup_norm(g) / a1 <= C
                and 1 / C <= rho_norm(g) / (a1 * a2) <= C):
            ok_sandwich = False
    rows.append(_row("mu is K-bi-invariant to 1e-8", ok_k))
    rows.append(_row("mu is inversion-invariant to 1e-8", ok_inv))
    rows.append(_row("norms sandwich the chamber data within (n+2)^4",
                     ok_sandwich))
    ok_oracle = True
    for _ in range(100):
        n = int(rng.integers(3, 6))
        # a nilpotent float coordinate vector: t1 = t2 = 0, the rest normal
        c = np.concatenate([[0.0, 0.0], rng.normal(size=4 * n - 2)])
        g = exp_float(c)
        r1, r2 = rho_norm(g), rho_norm_oracle(g)
        if abs(r1 - r2) > 1e-9 * max(r1, 1):
            ok_oracle = False
    rows.append(_row("rho norm equals the wedge-square oracle", ok_oracle))
    rows.append(_budget_row("cartan suite runtime under budget", t0, 60))
    return rows


def classifier_suite(count=500, seed=0, ns=(3, 4, 5)):
    """Double-entry gate over the generated corpus plus the gallery."""
    t0 = time.perf_counter()
    corpus = random_corpus(count=count, ns=ns, seed=seed)
    bad = []
    verdicts = {"CDS": 0, "NotCDS": 0}
    for cid, h in corpus:
        try:
            r = classify(h, seed=0)
            verdicts[r.verdict] += 1
        except InconsistentClassification as e:
            bad.append((cid, str(e)))
    rows = [
        _row(f"double entry holds on {len(corpus)} subalgebras "
             f"({verdicts['CDS']} CDS / {verdicts['NotCDS']} not)",
             not bad, "; ".join(c for c, _ in bad[:4])),
        _budget_row("classifier suite runtime under budget", t0, 600),
    ]
    return rows


def shapes_suite(seed=0, only_ids=None):
    """Numeric gallery shapes reproduce under sampling."""
    rows = []
    for e in gallery_entries():
        if only_ids and e.id not in only_ids:
            continue
        rep = verify_gallery_entry(e, seed=seed)
        if rep.verdict == "unverifiable":
            rows.append(_row(f"{e.id}: symbolic shape flagged unverifiable",
                             True, rep.notes[:60]))
            continue
        fitted = tuple(round(float(v), 3) for v in rep.fitted if v is not None)
        rows.append(_row(f"{e.id}: fitted {fitted} matches {rep.predicted}",
                         rep.verdict == "pass"))
    return rows


def log_corrections_suite(seed=0):
    """Log-power coefficients along the extremal graph curves."""
    rows = []
    t0 = time.perf_counter()
    s, c = fit_graph_log_power(gallery_get("graph01-n4").spec(),
                               SamplingPlan(seed=seed))
    rows.append(_row("upper log deficit of the alpha/alpha+beta graph is -1",
                     abs(c - (-1.0)) <= LOG_POWER_TOL,
                     f"s={s}, coeff={c:.3f}"))
    s, c = fit_graph_log_power(gallery_get("graph03-r1-n3").spec(),
                               SamplingPlan(seed=seed))
    rows.append(_row("lower log power of the beta/alpha+2beta graph (r=1) is 1/2",
                     abs(c - 0.5) <= LOG_POWER_TOL,
                     f"s={s}, coeff={c:.3f}"))
    s, c = fit_graph_log_power(gallery_get("graph03-r2-n3").spec(),
                               SamplingPlan(seed=seed))
    rows.append(_row("lower log power of the beta/alpha+2beta graph (r=2) is 1",
                     abs(c - 1.0) <= LOG_POWER_TOL,
                     f"s={s}, coeff={c:.3f}"))
    rows.append(_budget_row("log-correction suite runtime under budget", t0, 120))
    return rows


def dimensions_suite(seed=0):
    rows = []
    for r in check_dimension_table(seed=seed):
        rows.append(_row(r["check"], r["ok"], r.get("detail", "")))
    return rows


def _random_conjugator(n, rng):
    """An exact conjugator: a rational chamber point or a root exponential."""
    if rng.random() < 0.4:
        a1 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        a2 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        return GroupElement.diagonal(n, a1, a2)
    w = random_element(n, rng, max_slots=2, coeff=2)
    return exp_closed(w)


def conjugation_suite(pairs=100, seed=0):
    """Classification shapes are unchanged by exact conjugations."""
    rng = random.Random(seed)
    corpus = random_corpus(count=pairs, ns=(3, 4), seed=seed + 13,
                           include_gallery=False)[:pairs]
    t0 = time.perf_counter()
    bad = []
    for cid, h in corpus:
        # an AN conjugate of a subalgebra of n is one: NotInAN or
        # SubalgebraError here is a bug and propagates
        g = _random_conjugator(h.n, rng)
        h2 = Subalgebra([conjugate(g, b) for b in h.basis])
        r1 = classify(h, seed=0)
        r2 = classify(h2, seed=0)
        same = (r1.verdict == r2.verdict and r1.shape == r2.shape)
        if not same:
            bad.append(cid)
    rows = [
        _row(f"shape equality under conjugation on {len(corpus)} pairs", not bad,
             "; ".join(bad[:4])),
        _budget_row("conjugation suite runtime under budget", t0, 120),
    ]
    return rows


SUITES = {
    "formulas": formulas_suite,
    "cartan": cartan_suite,
    "classifier": classifier_suite,
    "shapes": shapes_suite,
    "dimensions": dimensions_suite,
    "log-corrections": log_corrections_suite,
    "conjugation": conjugation_suite,
}
