"""Batched sampling against per-point references written here.

Curves map an array of parameters t to a (T, m, m) stack; these tests check
each batched piece -- the grid exponentials, the stacked metrics, the
doubling ladder and the product curves -- against the one-matrix-at-a-time
version, the float exponential against the exact one, and the line
exponential against scipy's expm.
"""

import inspect
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from su2n import gallery
from su2n import elements, lab
from su2n.anclassify import Graph, OneParam, Semidirect
from su2n.config import DEFAULT
from su2n.corpus import random_element
from su2n.elements import (AlgebraElement, exp_closed, exp_float, exp_line,
                           matrix_of)
from su2n.metrics import rho_norm, rho_norm_oracle, sup_norm
from su2n.nilclassify import ImplicitSolveFailed, classify

GRID = np.array([-40.0, -3.0, -0.25, 0.0, 0.5, 1.0, 7.0, 1e3, 2.0 ** 40])


def _assert_slices_match(stack, mats, rtol=1e-12):
    assert stack.shape == (len(mats),) + mats[0].shape
    for got, want in zip(stack, mats):
        assert np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max())


def _vec(u):
    return np.array(u.coords(), dtype=float)


def _directions(n, rng):
    """Random exact nilpotent directions, plus ones with phi = 0 and with y = 0."""
    u = random_element(n, rng, max_slots=6)
    phi0 = AlgebraElement(n, x=[1 + 2j] * (n - 2), y=[0.5j] * (n - 2), eta=1 - 1j,
                          xx=2, yy=-1)
    y0 = AlgebraElement(n, phi=0.75 - 1j, x=[1j] * (n - 2), eta=2, xx=-1, yy=3)
    return [u, phi0, y0]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exp_closed_grid_equals_scalar_exp_closed(n):
    # the float exponential on a grid against the exact one at each point,
    # and against itself at one float s at a time
    rng = random.Random(n)
    for u in _directions(n, rng):
        stack = exp_float(_vec(u), GRID)
        _assert_slices_match(stack, [np.array(exp_closed(u.scale(s)).mat, dtype=complex)
                                      for s in GRID])
        for s, got in zip(GRID, stack):
            one = exp_float(_vec(u), s)
            assert one.shape == (n + 2, n + 2)
            assert np.array_equal(one, got)


def test_exp_closed_grid_runs_the_self_checks_on_arrays(monkeypatch):
    # the phi = 0 / y = 0 self-checks live on the exact path only: the float
    # exponential is a truncated series checked by X^5 = 0 instead
    calls = []
    for name in ("_check_phi0_form", "_check_y0_form"):
        orig = getattr(elements, name)

        def spy(u, *rows, orig=orig, name=name):
            calls.append(name)
            return orig(u, *rows)
        monkeypatch.setattr(elements, name, spy)
    _, phi0, y0 = _directions(4, random.Random(0))
    exp_closed(phi0)
    exp_closed(y0)
    assert calls == ["_check_phi0_form", "_check_y0_form"]
    # both for phi = y = 0, neither for a general element
    exp_closed(AlgebraElement(4, eta=1, xx=1))
    exp_closed(AlgebraElement(4, phi=1, y=[1, 0]))
    assert calls[2:] == ["_check_phi0_form", "_check_y0_form"]
    # the float exponential runs none of them
    exp_float(_vec(phi0), GRID)
    exp_float(_vec(y0), 2.0)
    assert len(calls) == 4


def test_exp_closed_grid_self_check_catches_a_broken_display(monkeypatch):
    orig = elements._exp_rows_general

    def broken(u):
        rows = list(orig(u))
        rows[1] = rows[1] + Fraction(1, 10 ** 6)  # perturb e1n
        return tuple(rows)
    monkeypatch.setattr(elements, "_exp_rows_general", broken)
    _, phi0, y0 = _directions(3, random.Random(0))
    for u in (phi0, y0):
        with pytest.raises(AssertionError):
            exp_closed(u)


def _gallery_lines():
    """The torus, graph and line matrices of the AN gallery entries."""
    out = []
    for e in gallery.entries():
        spec = e.spec()
        if isinstance(spec, Semidirect):
            lines = [spec.torus.element(spec.n)]
        elif isinstance(spec, Graph):
            torus = spec.torus().element(spec.n)
            lines = [torus, torus + spec.psi_value]
        elif isinstance(spec, OneParam):
            lines = [spec.x]
        else:
            continue
        out += [np.array(matrix_of(x), dtype=complex) for x in lines]
    return out


def test_exp_line_equals_expm_on_the_gallery_lines():
    from scipy.linalg import expm

    cs = np.geomspace(1e-3, 30, 12)
    cs = np.concatenate([-cs[::-1], cs])
    lines = _gallery_lines()
    assert len(lines) == 21  # 6 tori, 7 graphs with their tori, 1 line
    for M in lines:
        _assert_slices_match(exp_line(M, cs), [expm(c * M) for c in cs])


def test_exp_line_rejects_a_non_commuting_line(alg):
    ok = np.array(matrix_of(alg(3, t1=1, t2=1, phi=1)), dtype=complex)
    exp_line(ok, GRID[:3])
    bad = np.array(matrix_of(alg(3, t1=1, phi=1)), dtype=complex)
    for c in (GRID[:3], 0.5):
        with pytest.raises(ValueError, match="do not commute"):
            exp_line(bad, c)


def test_exp_float_rejects_a_series_that_does_not_end(monkeypatch):
    n = 4
    u = AlgebraElement(n, phi=1, x=[1, 2j], xx=3)
    exp_float(_vec(u), GRID)
    # the xx coordinate also writes the identity: X = N + 3 I, X^5 != 0
    m = n + 2
    patched = elements._coord_basis(n).copy()
    patched[AlgebraElement.slot_columns(n)["xx"].start] += np.eye(m).ravel()
    monkeypatch.setattr(elements, "_coord_basis", lambda n: patched)
    for s in (GRID, 2.0):
        with pytest.raises(ValueError, match="X\\^5"):
            exp_float(_vec(u), s)


def test_exp_closed_grid_rejects_an_a_part():
    for s in (GRID, 1.0):
        with pytest.raises(ValueError):
            exp_float(_vec(AlgebraElement(3, t1=1)), s)
    # and anything that is not a coordinate vector
    for bad in (np.zeros(8), np.zeros(13), np.zeros((2, 12))):
        with pytest.raises(ValueError):
            exp_float(bad)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_stacked_norms_equal_per_matrix_norms(n):
    rng = random.Random(10 + n)
    mats = []
    for u in _directions(n, rng):
        mats += list(exp_float(_vec(u), GRID))
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
    return np.array(gallery.get(eid).spec().coord_rows(), dtype=float)


def _product(seed, basis, depth):
    rng = random.Random(seed)
    for _ in range(50):
        curve = lab._product_curve(rng, basis, depth)
        if len(inspect.getclosurevars(curve).nonlocals["dirs"]) == depth:
            return curve
    raise AssertionError("no product curve of full depth")


def test_adaptive_grid_equals_the_serial_ladder():
    basis = _nil_basis("cds-fulln-n3")
    ray = lambda ts: exp_float(basis[0], ts)  # noqa: E731
    still = lambda ts: exp_float(np.zeros(12), ts)  # noqa: E731
    # a depth-3 product of huge directions overflows (slots^4 pass 1e308)
    # before an infinite ceiling is reached
    big = [b * 1e60 for b in basis]
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
                f = exp_float(v, t ** e)
                g = f if g is None else g @ f
            mats.append(g)
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
        return exp_float(basis[0], t)
    curve = lab._PerPoint(flaky, 3)
    ray = lambda ts: exp_float(basis[1], ts)  # noqa: E731
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
