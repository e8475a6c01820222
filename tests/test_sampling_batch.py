"""Batched sampling against per-point references written here.

Curves map an array of parameters t to a (T, m, m) stack; these tests check
each batched piece -- the grid exponential, the stacked metrics, the doubling
ladder and the product curves -- against the one-matrix-at-a-time version.
"""

import inspect
import random
from dataclasses import replace

import numpy as np
import pytest

from su2n import gallery
from su2n import elements, lab
from su2n.config import DEFAULT
from su2n.corpus import random_element
from su2n.elements import AlgebraElement, exp_closed, exp_closed_grid
from su2n.metrics import rho_norm, rho_norm_oracle, sup_norm
from su2n.nilclassify import ImplicitSolveFailed, classify

GRID = np.array([-40.0, -3.0, -0.25, 0.0, 0.5, 1.0, 7.0, 1e3, 2.0 ** 40])


def _assert_slices_match(stack, mats, rtol=1e-12):
    assert stack.shape == (len(mats),) + mats[0].shape
    for got, want in zip(stack, mats):
        assert np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max())


def _directions(n, rng):
    """Random nilpotent directions, plus ones with phi = 0 and with y = 0."""
    u = random_element(n, rng, max_slots=6).to_float()
    phi0 = AlgebraElement(n, x=[1 + 2j] * (n - 2), y=[0.5j] * (n - 2), eta=1 - 1j,
                          xx=2.0, yy=-1.0, mode="float")
    y0 = AlgebraElement(n, phi=0.75 - 1j, x=[1j] * (n - 2), eta=2.0, xx=-1.0,
                        yy=3.0, mode="float")
    return [u, phi0, y0]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exp_closed_grid_equals_scalar_exp_closed(n):
    rng = random.Random(n)
    for u in _directions(n, rng):
        stack = exp_closed_grid(u, GRID)
        _assert_slices_match(stack, [exp_closed(u.scale(s)).mat for s in GRID])


def test_exp_closed_grid_runs_the_self_checks_on_arrays(monkeypatch):
    calls = []
    for name in ("_check_phi0_form", "_check_y0_form"):
        orig = getattr(elements, name)

        def spy(u, *rows, orig=orig, name=name):
            calls.append((name, np.shape(u.phi)))
            return orig(u, *rows)
        monkeypatch.setattr(elements, name, spy)
    _, phi0, y0 = _directions(4, random.Random(0))
    exp_closed_grid(phi0, GRID)
    exp_closed_grid(y0, GRID)
    # once per grid, on the arrays of slot values
    assert calls == [("_check_phi0_form", GRID.shape), ("_check_y0_form", GRID.shape)]


def test_exp_closed_grid_self_check_catches_a_broken_display(monkeypatch):
    orig = elements._exp_rows_general

    def broken(u):
        rows = list(orig(u))
        rows[1] = rows[1] + 1e-6 * (1 + abs(rows[1]))  # perturb e1n
        return tuple(rows)
    monkeypatch.setattr(elements, "_exp_rows_general", broken)
    _, phi0, y0 = _directions(3, random.Random(0))
    for u in (phi0, y0):
        with pytest.raises(AssertionError):
            exp_closed_grid(u, GRID)


def test_exp_closed_grid_rejects_an_a_part():
    with pytest.raises(ValueError):
        exp_closed_grid(AlgebraElement(3, t1=1.0, mode="float"), GRID)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_stacked_norms_equal_per_matrix_norms(n):
    rng = random.Random(10 + n)
    mats = []
    for u in _directions(n, rng):
        mats += list(exp_closed_grid(u, GRID))
    stack = np.array(mats)
    rho, sup = rho_norm(stack), sup_norm(stack)
    assert rho.shape == sup.shape == (len(mats),)
    for k, g in enumerate(mats):
        one_rho, one_sup = rho_norm(g), sup_norm(g)
        assert isinstance(one_rho, float) and isinstance(one_sup, float)
        assert rho[k] == one_rho and sup[k] == one_sup
        if one_sup <= DEFAULT.norm_ceiling:  # where samples are kept
            assert abs(one_rho - rho_norm_oracle(g)) <= 1e-9 * max(1.0, one_rho)
    # a stack of stacks keeps its leading shape
    assert rho_norm(stack.reshape(3, -1, n + 2, n + 2)).shape == (3, len(GRID))


def _serial_grid(curve, per, ceiling, t_lo=1.0, t_cap=None):
    """The doubling ladder one point at a time; returns (grid, how it ended)."""
    t_hi, how = t_lo * 2, "never"
    for _ in range(80):
        if t_cap is not None and t_hi >= t_cap:
            t_hi, how = t_cap, "cap"
            break
        with np.errstate(all="ignore"):
            g = curve(np.array([t_hi]))[0]
        if not np.all(np.isfinite(g)):
            t_hi, how = t_hi / 2, "non_finite"
            break
        if np.abs(g).max() > ceiling:
            how = "ceiling"
            break
        t_hi *= 2
    t_hi = max(t_hi, t_lo * 4)
    return np.geomspace(t_lo, t_hi, per), how


def _nil_basis(eid):
    return gallery.get(eid).spec().to_float().basis


def _product(seed, basis, depth):
    rng = random.Random(seed)
    for _ in range(50):
        curve = lab._product_curve(rng, basis, depth)
        if len(inspect.getclosurevars(curve).nonlocals["dirs"]) == depth:
            return curve
    raise AssertionError("no product curve of full depth")


def test_adaptive_grid_equals_the_serial_ladder():
    basis = _nil_basis("cds-fulln-n3")
    ray = lambda ts: exp_closed_grid(basis[0], ts)  # noqa: E731
    still = lambda ts: exp_closed_grid(AlgebraElement(3, mode="float"), ts)  # noqa: E731
    # a depth-3 product of huge directions overflows (slots^4 pass 1e308)
    # before an infinite ceiling is reached
    big = [b.scale(1e60) for b in basis]
    prod = _product(3, big, 3)
    cases = [(ray, 1e8, None), (ray, 10.0, None), (ray, 1e8, 50.0),
             (ray, 1e8, 8.0), (ray, 1e8, 1.5), (still, 1e8, None),
             (still, 1e8, 1e20), (still, 1e8, 2.0 ** 40),
             (prod, np.inf, None), (prod, 1e8, None), (prod, 1e200, None)]
    # a cap on the first non-finite rung ends there, unevaluated
    overflow_rung = 2 * _serial_grid(prod, 48, np.inf)[0][-1]
    cases.append((prod, np.inf, overflow_rung))
    seen = set()
    for curve, ceiling, t_cap in cases:
        want, how = _serial_grid(curve, 48, ceiling, t_cap=t_cap)
        seen.add(how)
        got = lab._adaptive_grid(curve, 48, ceiling, t_cap=t_cap)
        assert np.array_equal(got, want), (how, got[-1], want[-1])
    assert seen == {"never", "cap", "non_finite", "ceiling"}


def test_product_curve_stack_equals_serial_product():
    for eid, depth in (("cds-fulln-n3", 3), ("notcds07-max-n4", 2)):
        curve = _product(7, _nil_basis(eid), depth)
        closure = inspect.getclosurevars(curve).nonlocals
        ts = np.geomspace(1.0, 1e3, 12)
        mats = []
        for t in ts:
            g = None
            for v, e in zip(closure["dirs"], closure["exps"]):
                f = exp_closed(v.scale(t ** e))
                g = f if g is None else g @ f
            mats.append(g.mat)
        _assert_slices_match(curve(ts), mats)


def _sampled(eid, plan):
    e = gallery.get(eid)
    spec = e.spec()
    result = classify(spec) if e.kind == "nil" else None
    return lab.sample_subgroup(spec, plan, result=result)


def test_discards_by_cause_sum_to_attempted_minus_kept():
    plan = lab.SamplingPlan(seed=0)
    for eid in ("cds-fulln-n3", "notcds11-n3", "semi02-n4", "graph01-n4",
                "oneparam-alpha-n3"):
        cloud = _sampled(eid, plan)
        discards = cloud.meta["discards"]
        assert {"non_finite", "over_ceiling", "at_most_one"} <= set(discards)
        attempted = round(len(cloud) / (1.0 - cloud.meta["discard_fraction"]))
        assert sum(discards.values()) == attempted - len(cloud), eid
        assert discards["over_ceiling"] > 0, eid


def test_failed_solves_are_counted_by_error():
    basis = _nil_basis("cds-fulln-n3")

    def fails(t):
        return int(t * 1000) % 3 == 0  # never on a ladder rung t = 2^k

    def flaky(t):
        if fails(t):
            raise ImplicitSolveFailed("no root")
        return exp_closed(basis[0].scale(t))
    curve = lab._PerPoint(flaky, 3)
    ray = lambda ts: exp_closed_grid(basis[1], ts)  # noqa: E731
    cloud = lab._collect([("w", curve), ("ray0", ray)], lab.SamplingPlan())
    grid = lab._adaptive_grid(curve, 48, DEFAULT.norm_ceiling)
    failing = sum(fails(t) for t in grid)
    assert failing > 0
    assert cloud.meta["discards"]["ImplicitSolveFailed"] == failing
    assert 2 * 48 - len(cloud) == sum(cloud.meta["discards"].values())


def test_a_programming_error_in_a_curve_surfaces(monkeypatch):
    def broken_curve(witness, h):
        def curve(t):
            raise TypeError("a bug, not a numeric failure")
        return curve
    monkeypatch.setattr(lab, "witness_curve", broken_curve)
    h = gallery.get("cds-fulln-n3").spec()
    result = classify(h)
    assert result.square is not None or result.linear is not None
    with pytest.raises(TypeError):
        lab.sample_subgroup(h, lab.SamplingPlan(seed=0), result=result)


def test_plan_tolerances_set_the_ceiling():
    low = lab.SamplingPlan(seed=0, tol=replace(DEFAULT, norm_ceiling=1e6))
    for eid in ("cds-fulln-n3", "semi02-n4"):
        assert _sampled(eid, lab.SamplingPlan(seed=0)).log_norm.max() > 6.0
        cloud = _sampled(eid, low)
        assert len(cloud) >= DEFAULT.min_samples
        assert cloud.log_norm.max() <= 6.0
