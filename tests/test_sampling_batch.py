"""Batched sampling against per-point references written here.

A curve along fixed directions is a product of float lines, each read at its
own parameter, and lab evaluates all the curves of a spec together: one
doubling ladder, all grids at once, a Vandermonde product per ladder chunk
and per grid block.  These tests check each batched piece -- the grid
exponentials, the stacked metrics, the shared ladder, the grids and the
batched curve products -- against the one-matrix-at-a-time version, the
float exponential against the exact one, and on the torus, graph and
one-parameter lines against scipy's expm.  A float line (float_line) runs
its checks once, when it is built, and sampling builds each line once per
curve.  The implicit witness curves take a quartic's real root nearest 0 at
each point, with numpy alone, and build the stack of a whole grid at once;
they and the best-of-k curves are checked against the per-point solvers of
tests/references.py.
"""

import math
import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from su2n import gallery
from su2n import lab
from su2n.anclassify import Graph, OneParam, Semidirect, line_compatible
from su2n.config import MIN_SAMPLES, NORM_CEILING
from su2n.corpus import random_corpus, random_element
from su2n.subalgebra import Subalgebra, close_under_bracket
from su2n.elements import AlgebraElement, exp_closed, matrix_of
from su2n.lab import ImplicitSolveFailed, exp_float, float_line, float_lines
from su2n.metrics import rho_norm, rho_norm_oracle, sup_norm
from su2n.nilclassify import check_linear, check_square, classify
from su2n.scalars import QQi

import references

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


def _gallery_lines():
    """The torus, graph and line elements of the AN gallery entries."""
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
        out += lines
    return out


def test_exp_float_equals_expm_on_the_gallery_lines():
    from scipy.linalg import expm

    cs = np.geomspace(1e-3, 30, 12)
    cs = np.concatenate([-cs[::-1], cs])
    lines = _gallery_lines()
    assert len(lines) == 21  # 6 tori, 7 graphs with their tori, 1 line
    for x in lines:
        M = np.array(matrix_of(x), dtype=complex)
        _assert_slices_match(exp_float(_vec(x), cs), [expm(c * M) for c in cs])


def test_exp_float_rejects_a_non_commuting_line(alg):
    exp_float(_vec(alg(3, t1=1, t2=1, phi=1)), GRID[:3])
    bad = _vec(alg(3, t1=1, phi=1))
    # the line itself refuses, before any parameter is given
    with pytest.raises(ValueError, match="do not commute"):
        float_line(bad)
    for c in (GRID[:3], 0.5):
        with pytest.raises(ValueError, match="do not commute"):
            exp_float(bad, c)


def test_exp_float_rejects_a_series_that_does_not_end(monkeypatch):
    n = 4
    u = AlgebraElement(n, phi=1, x=[1, 2j], xx=3)
    exp_float(_vec(u), GRID)
    # the xx coordinate also writes the identity: X = N + 3 I, X^5 != 0
    m = n + 2
    patched = lab._coord_basis(n).copy()
    patched[AlgebraElement.slot_columns(n)["xx"].start] += np.eye(m).ravel()
    monkeypatch.setattr(lab, "_coord_basis", lambda n: patched)
    with pytest.raises(ValueError, match="X\\^5"):
        float_line(_vec(u))
    for s in (GRID, 2.0):
        with pytest.raises(ValueError, match="X\\^5"):
            exp_float(_vec(u), s)


def test_exp_float_is_the_float_line_bitwise():
    # nilpotent directions on GRID, and the gallery lines (a-part and
    # nilpotent part together) on a grid whose exponentials stay finite
    cs = np.concatenate([-np.geomspace(30, 1e-3, 12), [0.0], np.geomspace(1e-3, 30, 12)])
    cases = [(_vec(u), GRID) for n in (3, 4, 6)
             for u in _directions(n, random.Random(20 + n))]
    cases += [(_vec(x), cs) for x in _gallery_lines()]
    for c, grid in cases:
        line = float_line(c)
        stack = line(grid)
        m = len(c) // 4 + 2
        assert stack.shape == (len(grid), m, m)
        assert np.array_equal(exp_float(c, grid), stack)
        for s, got in zip(grid, stack):
            one = line(s)
            assert np.array_equal(one, got)
            assert np.array_equal(exp_float(c, s), one)


def _one_line(c):
    """(stack, a-part) of the line of c, built alone, one matrix at a time."""
    n, m = len(c) // 4, len(c) // 4 + 2
    N = (c @ lab._coord_basis(n)).reshape(m, m)
    d = None
    if c[0] or c[1]:
        d = N.diagonal()
        N = N - np.diag(d)
    N2 = N @ N
    N3 = N2 @ N
    N4 = N2 @ N2
    return np.array([np.eye(m), N, N2 / 2, N3 / 6, N4 / 24]).reshape(5, -1).view(float), d


def test_float_lines_build_each_line_as_it_is_built_alone(alg):
    # random nilpotent rows, the test directions and the gallery lines, each
    # stack against the one built alone, bit for bit
    rng = np.random.default_rng(5)
    for n in (3, 4, 6):
        rows = rng.normal(size=(12, 4 * n)) * 10.0 ** rng.integers(-6, 6, (12, 1))
        rows[:, :2] = 0.0
        dirs = [_vec(u) for u in _directions(n, random.Random(30 + n))]
        lines = [x for x in _gallery_lines() if x.n == n]
        cs = np.vstack([rows, dirs] + [[_vec(x) for x in lines]] * bool(lines))
        for c, line in zip(cs, float_lines(cs)):
            stack, d = _one_line(c)
            assert np.array_equal(line.stack, stack)
            assert (line.a_part is None) == (d is None)
            assert d is None or np.array_equal(line.a_part, d)
    # one failing row fails the whole build
    bad = np.vstack([rows[:2], _vec(alg(6, t1=1, phi=1))])
    with pytest.raises(ValueError, match="do not commute"):
        float_lines(bad)
    with pytest.raises(ValueError):
        float_lines(rows[0])


def test_line_points_are_the_float_evaluations_bit_for_bit():
    # points(s) stacks line(float(s_k)); a grid of the same parameters may
    # differ in the last bits (it does for this random product direction
    # on a 48-point grid with OpenBLAS), so the least-rho scans use points
    h = gallery.get("notcds08-n3").spec()
    curves = dict(lab._nil_curves(h, lab.SamplingPlan(seed=0), classify(h)))
    s = np.geomspace(1.0, 500.0, 48)
    cs = np.linspace(-30.0, 30.0, 25)
    for line, grid in [(curves["prod4"].factors[0][0], s)] + [
            (float_line(_vec(x)), cs) for x in _gallery_lines()]:
        assert np.array_equal(line.points(grid), [line(float(t)) for t in grid])


def test_exp_closed_grid_rejects_an_a_part():
    for s in (GRID, 1.0):
        with pytest.raises(ValueError):
            exp_float(_vec(AlgebraElement(3, t1=1, phi=1)), s)
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
        if one_sup <= NORM_CEILING:  # where samples are kept
            assert abs(one_rho - rho_norm_oracle(g)) <= 1e-9 * max(1.0, one_rho)
    # a stack of stacks keeps its leading shape
    assert rho_norm(stack.reshape(3, -1, n + 2, n + 2)).shape == (3, len(GRID))


def _param(param, ts):
    """A factor's parameter p(t), one formula per kind (lab's table)."""
    kind, a, scale = param
    if kind == lab.LIN:
        return a * ts
    if kind == lab.POW:
        return ts ** a
    if kind == lab.LOG:
        return a * np.log(ts) / scale
    if kind == lab.LOGPOW:
        return np.maximum(np.log(ts), 1e-9) ** a
    assert kind == lab.ONE
    return np.ones_like(ts)


def _alone(curve, ts):
    """A fixed-direction curve on ts one factor at a time: head(t) @
    (f_1(t) @ f_2(t) @ ...), each line evaluated on its own."""
    g = None
    for line, param in curve.factors:
        f = line(_param(param, ts))
        g = f if g is None else g @ f
    if curve.head is not None:
        line, param = curve.head
        g = line(_param(param, ts)) @ g
    return g


def _evaluate(curve, ts):
    """One curve on the batched path, alone: (stack, failed solves)."""
    stacks, failed = lab._Batch([curve]).evaluate([0], ts)
    return stacks[0], failed[0]


def _serial_grid(curve, per, ceiling, t_lo=1.0, t_cap=None):
    """The doubling ladder one point at a time; returns (grid, how it ended)."""
    t_hi, how = t_lo * 2, "never"
    for _ in range(80):
        if t_cap is not None and t_hi >= t_cap:
            t_hi, how = t_cap, "cap"
            break
        with np.errstate(all="ignore"):
            g = _alone(curve, np.array([t_hi]))[0]
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
        coeffs, params = lab._product_draw(rng, len(basis), depth)
        if len(coeffs) == depth:
            return lab._Curve(zip(float_lines(lab._combine(coeffs, basis)), params))
    raise AssertionError("no product curve of full depth")


def _grid(curve, ceiling=NORM_CEILING, t_cap=None, per=48):
    """The grid lab samples one curve on."""
    return lab._grids(lab._ladder_tops(lab._Batch([curve]), ceiling, t_cap), per)[0]


def test_adaptive_grid_equals_the_serial_ladder():
    # the shared ladder, run for all curves at once, gives each the top of
    # the serial ladder: at a cap, at half a non-finite rung, at the first
    # rung over the ceiling (in the first chunk of 16 rungs or a later one)
    # or past every rung
    basis = _nil_basis("cds-fulln-n3")
    ray = lab._line_curve(float_line(basis[0]))
    still = lab._line_curve(float_line(np.zeros(12)))
    # a depth-3 product of huge directions overflows (slots^4 pass 1e308)
    # before an infinite ceiling is reached
    big = [b * 1e60 for b in basis]
    prod = _product(3, big, 3)
    slow = _product(5, basis * 1e-3, 2)
    curves = [ray, still, prod, slow]
    # a cap on the first non-finite rung ends there, unevaluated
    overflow_rung = 2 * _serial_grid(prod, 48, np.inf)[0][-1]
    cases = [(1e8, None), (10.0, None), (1e8, 50.0), (1e8, 8.0), (1e8, 1.5),
             (1e8, 1e20), (1e8, 2.0 ** 40), (np.inf, None), (1e200, None),
             (1e30, None), (np.inf, overflow_rung)]
    seen, rungs = set(), set()
    for ceiling, t_cap in cases:
        tops = lab._ladder_tops(lab._Batch(curves), ceiling, t_cap)
        got = lab._grids(tops, 48)
        for curve, grid in zip(curves, got):
            want, how = _serial_grid(curve, 48, ceiling, t_cap=t_cap)
            seen.add(how)
            if how in ("ceiling", "non_finite"):
                rungs.add(int(np.log2(want[-1])) // lab.LADDER_CHUNK)
            assert np.array_equal(grid, want), (how, grid[-1], want[-1])
            assert np.array_equal(_grid(curve, ceiling, t_cap), want)
    assert seen == {"never", "cap", "non_finite", "ceiling"}
    assert {0, 1} <= rungs  # curves stopped in the first chunk and later


def test_grids_equal_geomspace_bitwise():
    rng = np.random.default_rng(0)
    tops = np.concatenate([np.exp(rng.uniform(np.log(4.0), np.log(2.0 ** 81), 400)),
                           2.0 ** np.arange(2, 82), [4.0, 2.0 ** 81, 1e8, 50.0]])
    for per in (48, 12, 2):
        got = lab._grids(tops, per)
        assert got.shape == (len(tops), per)
        for top, row in zip(tops, got):
            assert np.array_equal(row, np.geomspace(1.0, top, per))


def _spec_curves(n):
    """Every kind of fixed-direction curve at n: rays both ways, products of
    depth 1-3, mixes of a torus line and a product, torus lines both ways,
    and at n = 3, 4 the graph, one-parameter and extremal graph curves of
    the gallery."""
    plan = lab.SamplingPlan(seed=n)
    if n <= 4:
        out = []
        for e in gallery.entries():
            spec = e.spec()
            if spec.n != n:
                continue
            if e.kind == "nil":
                out += lab._nil_curves(spec, plan, classify(spec))
            elif e.kind == "semidirect":
                out += lab._semidirect_curves(line_compatible(spec), plan)
            elif e.kind == "graph":
                out += lab._graph_curves(line_compatible(spec), plan)
            else:
                out += lab._line_curves("line", *lab._line(line_compatible(spec)))
        return out
    # a nilpotent spec of two random directions, and a torus line with a
    # random a-part
    rng = random.Random(n)
    h = close_under_bracket([random_element(n, rng, max_slots=4) for _ in range(2)])
    torus = np.zeros(4 * n)
    torus[:2] = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    line, scale = float_line(torus), float(np.abs(torus[:2]).max())
    return (lab._nil_curves(h, plan, classify(h)) + lab._line_curves("torus", line, scale)
            + lab._ray_and_mix_curves(line, scale, h, rng))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_batched_curves_equal_each_curve_alone(n):
    # the whole spec at once, on each curve's own grid, against each curve
    # alone on the batched path and one factor at a time, bit for bit
    curves = [c for _, c in _spec_curves(n) if not isinstance(c, lab._PerPoint)]
    depths = {(len(c.factors), c.head is not None) for c in curves}
    assert {(1, False), (2, False), (3, False), (1, True), (3, True)} <= depths
    kinds = {param[0] for c in curves
             for _, param in c.factors + ((c.head,) if c.head else ())}
    assert {lab.LIN, lab.POW, lab.LOG} <= kinds
    assert (lab.LOGPOW in kinds) == (n <= 4) and (lab.ONE in kinds) == (n == 3)
    rng = np.random.default_rng(n)
    grids = lab._grids(np.exp(rng.uniform(np.log(4.0), np.log(1e6), len(curves))), 48)
    with np.errstate(all="ignore"):
        stacks, failed = lab._Batch(curves).evaluate(range(len(curves)), grids)
        assert failed == [{}] * len(curves)
        for curve, grid, stack in zip(curves, grids, stacks):
            assert np.array_equal(stack, _alone(curve, grid), equal_nan=True)
            assert np.array_equal(stack, _evaluate(curve, grid)[0], equal_nan=True)
    if n <= 4:
        extremal = {tag for tag, c in _spec_curves(n)
                    if tag.startswith("extremal") and not isinstance(c, lab._PerPoint)}
        assert extremal == {3: {"extremal-lower", "extremal-square", "extremal-32"},
                            4: {"extremal-upper", "extremal-32"}}[n]


def test_a_later_evaluation_leaves_an_earlier_result_alone():
    # evaluation blocks run in scratch arrays kept between calls, but every
    # stack handed out is its own array
    curves = [c for tag, c in _spec_curves(3) if tag.startswith(("prod", "mix"))]
    first, second = curves[0], curves[-1]
    assert first.head is None and second.head is not None
    grid = np.geomspace(1.0, 1e4, 48)
    a, one = first(grid), first(7.0)
    stacks, _ = lab._Batch(curves).evaluate(range(len(curves)), grid)
    kept = a.copy(), one.copy(), stacks.copy()
    b = second(grid * 2)
    lab._Batch(curves[::-1]).evaluate(range(len(curves)), grid * 3)
    for got, want in zip((a, one, stacks), kept):
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, b)
        assert not any(np.shares_memory(got, buf) for buf in lab._SCRATCH.flat.values())


def test_a_graph_cloud_builds_its_graph_line_once(monkeypatch):
    # the graph-line curves, the mixes' heads and the extremal curves of one
    # graph cloud share one line; extremal_graph_curves(spec) builds its own
    built = []
    real = lab._line
    monkeypatch.setattr(lab, "_line", lambda spec: built.append(spec) or real(spec))
    spec = line_compatible(gallery.get("graph01-n4").spec())
    curves = dict(lab._graph_curves(spec, lab.SamplingPlan(seed=0)))
    assert len(built) == 1
    graph_line = curves["graph-line"].factors[0][0]
    along = [c for tag, c in curves.items() if tag.startswith(("extremal", "mix"))
             and c.head is not None]
    assert len(along) > lab.N_PRODUCT_CURVES
    assert all(c.head[0] is graph_line for c in along)
    alone = lab.extremal_graph_curves(spec)
    assert len(built) == 2
    grid = np.geomspace(1.0, 1e4, 48)
    assert [tag for tag, _ in alone] == [tag for tag in curves if tag.startswith("extremal")]
    for tag, c in alone:
        assert np.array_equal(c(grid), curves[tag](grid))


def test_random_combo_adds_the_rows_in_order():
    # the random directions of product curves, drawn and combined at once,
    # against the row-by-row sum of each
    rng = np.random.default_rng(1)
    for d in (1, 3, 8, 12):
        basis = rng.normal(size=(d, 16)) * 10.0 ** rng.integers(-4, 4, (d, 1))
        for seed in range(4):
            draws = random.Random(seed)
            wants = []
            for _ in range(draws.randint(1, 3)):
                coeffs = [draws.uniform(-1, 1) for _ in basis]
                nrm = math.sqrt(sum(c * c for c in coeffs)) or 1.0
                want = None
                for c, b in zip(coeffs, basis):
                    term = (c / nrm) * b
                    want = term if want is None else want + term
                wants.append(want)
            coeffs, _ = lab._product_draw(random.Random(seed), d, 3)
            assert np.array_equal(lab._combine(coeffs, basis), wants)
            assert np.array_equal(lab._combine(coeffs[:1], basis)[0], wants[0])


def test_product_curve_stack_equals_serial_product():
    for eid, depth in (("cds-fulln-n3", 3), ("notcds07-max-n4", 2)):
        basis = _nil_basis(eid)
        rng = random.Random(7)
        coeffs, params = lab._product_draw(rng, len(basis), depth)
        while len(coeffs) < depth:
            coeffs, params = lab._product_draw(rng, len(basis), depth)
        _, (curve,) = lab._rays_and_products(basis, [(coeffs, params)])
        dirs = lab._combine(coeffs, basis)
        exps = [1.0 if kind == lab.LIN else e for kind, e, _ in params]
        assert 1.0 in exps
        ts = np.geomspace(1.0, 1e3, 12)
        mats = []
        for t in ts:
            g = None
            for v, e in zip(dirs, exps):
                f = exp_float(v, t ** e)
                g = f if g is None else g @ f
            mats.append(g)
        _assert_slices_match(_evaluate(curve, ts)[0], mats)


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
        return t
    curve = lab._PerPoint(flaky, lambda ts, ps: exp_float(basis[0], ps), 3)
    ray = lab._line_curve(float_line(basis[1]))
    cloud = lab._collect([("w", curve), ("ray0", ray)], lab.SamplingPlan())
    grid = _grid(curve)
    failing = sum(fails(t) for t in grid)
    assert failing > 0
    assert cloud.meta["discards"]["ImplicitSolveFailed"] == failing
    assert 2 * 48 - len(cloud) == sum(cloud.meta["discards"].values())


def test_a_programming_error_in_a_curve_surfaces(monkeypatch):
    def broken_curve(witness, h):
        def solve(t):
            raise TypeError("a bug, not a numeric failure")
        return lab._PerPoint(solve, lambda ts, ps: exp_float(np.zeros(4 * h.n), ps), h.n)
    monkeypatch.setattr(lab, "witness_curve", broken_curve)
    h = gallery.get("cds-fulln-n3").spec()
    result = classify(h)
    assert result.square is not None or result.linear is not None
    with pytest.raises(TypeError):
        lab.sample_subgroup(h, lab.SamplingPlan(seed=0), result=result)


def test_plan_tolerances_set_the_ceiling(monkeypatch):
    ids = ("cds-fulln-n3", "semi02-n4")
    for eid in ids:
        assert _sampled(eid, lab.SamplingPlan(seed=0)).log_norm.max() > 6.0
    monkeypatch.setattr(lab, "NORM_CEILING", 1e6)
    for eid in ids:
        cloud = _sampled(eid, lab.SamplingPlan(seed=0))
        assert len(cloud) >= MIN_SAMPLES
        assert cloud.log_norm.max() <= 6.0


def test_sampling_builds_each_line_once(monkeypatch):
    # a ray, a product factor or a torus line is built once per curve, when
    # the curve is made, and never again for a ladder chunk or a grid; the
    # rays and product factors of a spec are built by one float_lines call.
    # float_line builds its one row by float_lines, so every line is counted
    # there, once
    built, calls = [], []

    def counted_rows(cs):
        calls.append(len(cs))
        built.extend(cs)
        return float_lines(cs)
    monkeypatch.setattr(lab, "float_lines", counted_rows)
    plan = lab.SamplingPlan(seed=0)

    h = gallery.get("cds-fulln-n3").spec()
    result = classify(h)
    # square condition 2 and linear condition 1 both sample the ray exp(t z)
    assert (result.square.condition_id, result.linear.condition_id) == (2, 1)
    curves = lab._nil_curves(h, plan, result)
    witnesses = [c for tag, c in curves if tag.endswith("-witness")]
    assert len(witnesses) == 2
    assert not any(isinstance(c, lab._PerPoint) for c in witnesses)
    factors = sum(len(c.factors) for tag, c in curves if tag.startswith("prod"))
    assert len(built) == 2 + len(h.coord_rows()) + factors
    # the two witness rays, one row each, then the rays and product factors
    assert calls == [1, 1, len(h.coord_rows()) + factors]
    made = len(built)
    built.clear()
    lab.sample_subgroup(h, plan, result=result)
    assert len(built) == made

    spec = line_compatible(gallery.get("semi02-n4").spec())
    assert isinstance(spec, Semidirect)
    built.clear()
    lab._semidirect_curves(spec, plan)
    made = len(built)
    # the torus line, a ray per basis row of u, 1..PRODUCT_DEPTH factors a mix
    rays = 1 + len(spec.u.coord_rows())
    assert (rays + lab.N_PRODUCT_CURVES <= made
            <= rays + lab.PRODUCT_DEPTH * lab.N_PRODUCT_CURVES)
    built.clear()
    lab.sample_subgroup(spec, plan)
    assert len(built) == made


def test_least_rho_curves_build_their_two_lines_once(monkeypatch):
    # the type-11 extremal curve and the linear condition 5 witness curve
    # sample exp(t u + p z) for a commuting pair u, z as exp(t u) exp(p z),
    # from two lines built with the curve and none built per point
    built, exps, pairs = [], [], []
    real = lab._commuting_lines

    def counted(c):
        built.append(c)
        return float_line(c)
    monkeypatch.setattr(lab, "float_line", counted)
    monkeypatch.setattr(lab, "exp_float", lambda *a: exps.append(a) or exp_float(*a))
    monkeypatch.setattr(lab, "_commuting_lines",
                        lambda u, z: pairs.append((u, z)) or real(u, z))
    grid = np.geomspace(1.0, 1e3, 12)
    for eid, tag in (("notcds11-n3", "extremal-54"),
                     ("cds-real-pair-n3", "linear-witness")):
        h = gallery.get(eid).spec()
        curves = dict(lab._nil_curves(h, lab.SamplingPlan(seed=0), classify(h)))
        assert isinstance(curves[tag], lab._PerPoint)
        made = len(built)
        stack, failed = _evaluate(curves[tag], grid)
        assert failed == {} and np.isfinite(stack).all()
        assert len(built) == made and exps == []
    assert len(pairs) == 2
    for u, z in pairs:
        u_line, z_line = real(u, z)
        for t in grid:
            for p in (-3.0, 0.0, 0.5, 40.0, -t ** 3):
                want = exp_float(_vec(u) * t + _vec(z) * p)
                got = u_line(t) @ z_line(p)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_least_rho_ratio_is_the_first_least_candidate():
    # the candidates of a whole grid as one stack against min() over each
    # point's candidates one at a time
    basis = _nil_basis("notcds11-n3")
    u_line, z_line = float_line(basis[0]), float_line(basis[-1])
    ts = np.array([1.0, 7.0, 300.0])
    for p, factors in ((lambda t: 2.5, (1.0, 0.97, 1.03, 0.9, 1.1)),
                       (lambda t: -40.0 * t, (1.0, 0.98, 1.02, 0.9, 1.1, 0.0)),
                       (lambda t: 3.0, (1.0, 1.0, 0.5, 0.5))):
        ps = np.array([p(t) for t in ts])
        got = lab._least_rho_ratio(u_line.points(ts), z_line, ps, factors)
        assert got.shape == (len(ts), 5, 5)
        for t, pk, g in zip(ts, ps, got):
            g_u = u_line(t)
            want = min((g_u @ z_line(pk * f) for f in factors),
                       key=lambda g: rho_norm(g) / max(sup_norm(g), 1.0))
            assert np.array_equal(g, want)


def test_a_non_commuting_pair_has_no_split_lines(alg):
    with pytest.raises(ValueError):
        lab._commuting_lines(alg(3, phi=1), alg(3, y=[1]))
    with pytest.raises(ValueError):
        lab._commuting_lines(alg(3, phi=1), alg(3, eta=QQi(0, 1)))


def test_root_nearest_zero():
    p = np.poly1d
    assert lab._root_nearest_zero(p([1, -3]) * p([1, 1]) * p([1, 0, 1])) \
        == pytest.approx(-1.0, rel=1e-12)
    tie = p([1, 0, -1])
    roots = np.roots(tie.coeffs)
    assert abs(roots[0]) == abs(roots[1]) and roots[0] != roots[1]
    assert lab._root_nearest_zero(tie) == roots[0]
    assert lab._root_nearest_zero(p([0.0, 0.0, 0.0])) == 0.0
    with pytest.raises(ImplicitSolveFailed):
        lab._root_nearest_zero(p([1, 0, 1]))
    # an overflowed coefficient is a failed solve, not a LinAlgError of np.roots
    for bad in ([-0.5, 0.0, np.inf], [1.0, np.nan, 1.0]):
        with pytest.raises(ImplicitSolveFailed, match="not finite"):
            lab._root_nearest_zero(p(bad))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_closed_form_corner_equals_the_float_exponential(n):
    # Re exp(a + p b)[0, n+1] as the quartic in p that the corner witness
    # curves solve, against the float exponential, for nilpotent a and b
    rng = np.random.default_rng(n)
    t = AlgebraElement.slot_columns(n)["t"]
    for _ in range(200):
        a, b = rng.normal(size=(2, 4 * n)) * rng.choice([0.1, 1.0, 10.0], (2, 1))
        a[t] = b[t] = 0.0
        corner = lab._re_corner(lab._slot_dot(a, b, n))
        for p in (-2.5, 0.0, 0.75, 4.0):
            g = exp_float(a + p * b)
            assert abs(corner(p) - g[0, -1].real) <= 1e-12 * max(1.0, np.abs(g).max())


def _solver_witnesses():
    """(h, witness) of square conditions 6 and 7 and linear condition 4 on
    hand-built subalgebras: two corner curves (the second clears
    Im g[0, n+1]) and a Re(delta) curve, each solving a quartic per point."""
    alg = AlgebraElement
    cases = [
        (check_square, [alg(4, phi=1, y=[1, 0]), alg(4, x=[0, 1])], 6),
        (check_square, [alg(4, phi=1, y=[1, 0]), alg(4, x=[QQi(0, -1), 0], yy=1),
                        alg(4, xx=1)], 7),
        (check_linear, [alg(3, phi=1, yy=1), alg(3, eta=1)], 4),
    ]
    out = []
    for check, els, cond in cases:
        h = Subalgebra(els)
        w = check(h)
        assert w.condition_id == cond
        out.append((h, w))
    return out


def test_witness_curves_run_without_scipy(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    grid = np.geomspace(1.0, 1e3, 12)
    for h, w in _solver_witnesses():
        curve = lab.witness_curve(w, h)
        mats = [curve(float(t)) for t in grid]
        stack, failed = _evaluate(curve, grid)
        assert failed == {} and np.isfinite(stack).all()
        assert np.array_equal(stack, mats)


def _per_point_curves():
    """(name, grid curve, per-point reference) for every curve whose
    direction moves with t that the gallery and the test corpus reach: the
    type-11 extremal curve of notcds11-n3, the linear-5 witness of
    cds-real-pair-n3, the witnesses of _solver_witnesses, and the square-3,
    square-5 and linear-4 witnesses of random_corpus(count=200) at seeds 0
    and 1."""
    out = []
    h = gallery.get("notcds11-n3").spec()
    tm = classify(h).template
    curve = dict(lab._template_extremal_curves(tm))["extremal-54"]
    out.append(("extremal-54", curve, references.extremal_54(tm.evidence["u"],
                                                             tm.evidence["z"])))
    h = gallery.get("cds-real-pair-n3").spec()
    pairs = [(h, classify(h).linear)] + _solver_witnesses()
    for seed in (0, 1):
        for _, g in random_corpus(count=200, seed=seed):
            r = classify(g, seed=0)
            pairs += [(g, w) for w in (r.square, r.linear) if w is not None
                      and (w.side, w.condition_id) in {("square", 3), ("square", 5),
                                                       ("linear", 4)}]
    for g, w in pairs:
        out.append((f"{w.side}-{w.condition_id}", lab.witness_curve(w, g),
                    references.per_point_witness(w, g.n)))
    return out


# grids topping at the least top, a middling one and two ladder rungs, the
# last the top of the ladder; then past the ladder: at 1e60 every candidate
# of some best-of-k points overflows (NaN slices), and at 1e120 t ** 3
# overflows (OverflowError) and the quartics of the root-solving curves get
# coefficients that are not finite (ImplicitSolveFailed)
TOPS = np.array([4.0, 1e4, 2.0 ** 40, 2.0 ** 81, 1e60, 1e120])
ROOT_SOLVING = {"square-6", "square-7", "linear-4"}


def test_grid_curves_equal_their_per_point_references():
    # each curve solved on a whole grid at once against the per-point
    # solvers it replaced, to the last bit, NaN and inf slices included,
    # with the same failed points under the same error names; a scalar call
    # is the grid of one point, and raises where that point fails
    curves = _per_point_curves()
    assert Counter(name for name, _, _ in curves) == {
        "extremal-54": 1, "linear-5": 1, "square-6": 1, "square-7": 1,
        "linear-4": 2, "square-3": 8, "square-5": 2}
    seen = Counter()
    for name, curve, point in curves:
        assert isinstance(curve, lab._PerPoint)
        for grid in lab._grids(TOPS, 48):
            with np.errstate(all="ignore"):
                want, want_failed = references.per_point_stack(point, grid, curve.m)
                got, failed = curve.evaluate(grid)
                for k in range(0, len(grid), 7):
                    if k in want_failed:  # a scalar call raises, as the solver did
                        with pytest.raises((ArithmeticError, ImplicitSolveFailed)) as e:
                            curve(grid[k])
                        assert type(e.value).__name__ == want_failed[k], name
                        seen["scalar raise"] += 1
                    else:
                        assert curve(grid[k]).tobytes() == want[k].tobytes(), name
            assert failed == want_failed, name
            assert got.tobytes() == want.tobytes(), name
            seen.update(failed.values())
            seen["NaN slice"] += int(np.isnan(want).any(axis=(1, 2)).sum()) - len(failed)
            if grid[-1] == TOPS[-1] and name in ROOT_SOLVING:
                # the top point's quartic overflows: a named discard
                assert failed[len(grid) - 1] == "ImplicitSolveFailed", name
                with pytest.raises(ImplicitSolveFailed, match="not finite"):
                    curve(grid[-1])
                seen["unsolved top"] += 1
    assert seen["OverflowError"] and seen["NaN slice"] and seen["scalar raise"]
    assert seen["unsolved top"] == 4


def _nan_first_argmin(row):
    return 0 if np.isnan(row[0]) else int(np.nanargmin(row))


def test_first_least_pick_is_nanargmin_with_a_nan_only_first():
    nan, inf = np.nan, np.inf
    table = np.array([
        [nan, 1.0, 0.5],  # a NaN in first place is taken
        [2.0, nan, 0.5],  # a later NaN is passed over
        [1.0, nan, 3.0],
        [0.5, 0.25, 0.25],  # ties: the first
        [0.25, 0.25, 0.25],
        [inf, inf, inf],  # all inf, none NaN: the first
        [inf, nan, inf],
        [nan, nan, nan],  # all NaN: the first
        [3.0, 2.0, 1.0],
    ])
    assert lab._first_least(table).tolist() == [0, 2, 0, 1, 0, 0, 0, 0, 2]
    assert lab._first_least(table).tolist() == [_nan_first_argmin(r) for r in table]
    rng = np.random.default_rng(0)
    values = np.array([nan, inf, 0.0, 0.5, 1.0, 2.0])
    for k in (1, 2, 5, 6):
        table = rng.choice(values, (400, k))
        assert lab._first_least(table).tolist() == [_nan_first_argmin(r) for r in table]


@pytest.mark.parametrize("which", [1, 2], ids=["square-7", "linear-4"])
def test_failed_roots_leave_nan_slices_counted_by_error(which, monkeypatch):
    # a root that fails at chosen points of a corner curve and of a Re(delta)
    # curve: exactly those slices are NaN, named ImplicitSolveFailed and
    # counted as discards; every other slice is the one solved without them
    h, w = _solver_witnesses()[which]
    curve = lab.witness_curve(w, h)
    plan = lab.SamplingPlan()
    grid = _grid(curve)
    chosen = [1, 5, 17, 30]
    assert not any(math.log2(t).is_integer() for t in grid[chosen])  # no ladder rung
    clean, clean_failed = curve.evaluate(grid)
    assert clean_failed == {}
    clean_cloud = lab._collect([("w", curve)], plan)

    fail_at, pending = set(grid[chosen].tolist()), []
    real_evaluate, real_root = lab._PerPoint.evaluate, lab._root_nearest_zero

    def evaluate(self, ts):
        pending[:] = np.asarray(ts).tolist()[::-1]
        return real_evaluate(self, ts)

    def root(poly):  # called once per point, in grid order
        if pending.pop() in fail_at:
            raise ImplicitSolveFailed("chosen")
        return real_root(poly)
    monkeypatch.setattr(lab._PerPoint, "evaluate", evaluate)
    monkeypatch.setattr(lab, "_root_nearest_zero", root)
    stack, failed = curve.evaluate(grid)
    assert failed == dict.fromkeys(chosen, "ImplicitSolveFailed")
    assert np.isnan(stack[chosen]).all()
    rest = np.setdiff1d(np.arange(len(grid)), chosen)
    assert stack[rest].tobytes() == clean[rest].tobytes()
    cloud = lab._collect([("w", curve)], plan)
    discards = cloud.meta["discards"]
    assert discards["ImplicitSolveFailed"] == len(chosen)
    assert "ImplicitSolveFailed" not in clean_cloud.meta["discards"]
    assert sum(discards.values()) == len(grid) - len(cloud)
    assert cloud.meta["t_values"] == [t for t in clean_cloud.meta["t_values"]
                                      if t not in fail_at]

    # called at a float t, the curve raises where the root fails, as the
    # per-point solver did, and leaves no NaN matrix behind
    def no_root(poly):
        raise ImplicitSolveFailed("chosen")
    monkeypatch.setattr(lab, "_root_nearest_zero", no_root)
    with pytest.raises(ImplicitSolveFailed):
        curve(grid[chosen[0]])


def test_an_overflowed_square_3_direction_is_a_nan_slice():
    # past the ladder t * t overflows, so the direction t u + t^2 z of a
    # square-3 witness curve is not finite there: its slice is NaN and named
    # by no error (a non_finite discard), not a failed line check, and every
    # other slice is the one built without it
    h, w = next((h, w) for _, h in random_corpus(count=200, seed=0)
                for w in [classify(h, seed=0).square]
                if w is not None and w.condition_id == 3)
    curve = lab.witness_curve(w, h)
    grid = lab._grids(np.array([1e200]), 48)[0]
    with np.errstate(all="ignore"):
        over = ~np.isfinite(grid * grid)
        stack, failed = curve.evaluate(grid)
        rest = curve.evaluate(grid[~over])[0]
    assert over.any() and failed == {}
    assert np.isnan(stack[over]).all()
    assert stack[~over].tobytes() == rest.tobytes()


def test_a_failed_line_check_surfaces_and_is_never_a_discard(monkeypatch):
    # a ValueError from float_lines in a grid's line build propagates out of
    # sampling, even when one point of the grid fails the check
    h, w = _solver_witnesses()[2]
    result = classify(h)
    plan = lab.SamplingPlan(seed=0)
    torus, bad = _vec(AlgebraElement(3, t1=1)), _vec(AlgebraElement(3, phi=1))
    grid = _grid(lab.witness_curve(w, h))
    # the torus line commutes; at grid[5] the direction gains a phi part,
    # which does not commute with it
    one_bad = lab._moving_curve(torus, bad, lambda t: float(t == grid[5]), 3)
    with pytest.raises(ValueError, match="do not commute"):
        one_bad.evaluate(grid)
    monkeypatch.setattr(lab, "witness_curve", lambda w, h: one_bad)
    with pytest.raises(ValueError, match="do not commute"):
        lab.sample_subgroup(h, plan, result=result)
    with pytest.raises(ValueError, match="do not commute"):
        lab._collect([("w", one_bad)], plan)
    monkeypatch.undo()
    # the yy coordinate also writes the identity: X = N + I, X^5 != 0
    curve = lab.witness_curve(w, h)
    assert curve.evaluate(grid)[1] == {}
    patched = lab._coord_basis(3).copy()
    patched[AlgebraElement.slot_columns(3)["yy"].start] += np.eye(5).ravel()
    monkeypatch.setattr(lab, "_coord_basis", lambda n: patched)
    with pytest.raises(ValueError, match="X\\^5"):
        curve.evaluate(grid)
    with pytest.raises(ValueError, match="X\\^5"):
        lab._collect([("w", curve)], plan)


# the candidates a point of each entry's best-of-k curve
BEST_OF_K = {"notcds11-n3": 5, "cds-real-pair-n3": 6}


@pytest.mark.parametrize("eid", ["notcds04-max-n4", "semi02-n4", "graph01-n4",
                                 *BEST_OF_K])
def test_rho_norm_runs_once_per_evaluation_block(eid, monkeypatch):
    # _collect takes rho_norm of each non-empty block's kept samples in one
    # call.  A best-of-k curve (the type-11 extremal curve of notcds11-n3,
    # the linear-5 witness of cds-real-pair-n3) takes rho_norm of all the
    # candidates of the points it is evaluated on in one call of its own,
    # once per evaluation, not once per point; the other entries have none
    sizes, collects, scans = [], [], []
    real_rho, real_collect, real_evaluate = lab.rho_norm, lab._collect, lab._PerPoint.evaluate

    def rho_spy(g):
        sizes.append(len(g))
        return real_rho(g)

    def evaluate_spy(self, ts):
        before = len(sizes)
        out = real_evaluate(self, ts)
        scans.append((len(ts) - len(out[1]), sizes[before:]))
        del sizes[before:]
        return out

    def collect_spy(curves, plan, with_mu=False):
        assert (any(isinstance(c, lab._PerPoint) for _, c in curves)
                == (eid in BEST_OF_K))
        before = len(sizes)
        cloud = real_collect(curves, plan, with_mu)
        collects.append((curves, plan, cloud, sizes[before:]))
        return cloud

    monkeypatch.setattr(lab, "rho_norm", rho_spy)
    monkeypatch.setattr(lab, "_collect", collect_spy)
    monkeypatch.setattr(lab._PerPoint, "evaluate", evaluate_spy)
    assert lab.verify_gallery_entry(gallery.get(eid), seed=0).verdict == "pass"
    assert collects
    assert bool(scans) == (eid in BEST_OF_K)
    for solved, calls in scans:
        assert calls == [BEST_OF_K[eid] * solved]
    for curves, plan, cloud, calls in collects:
        assert len({tag for tag, _ in curves}) == len(curves)  # tag -> curve
        kept = Counter(cloud.tags)
        per_block = [sum(kept[curves[i][0]] for i in block)
                     for block in lab._blocks(len(curves), plan.per_curve)]
        assert calls == [k for k in per_block if k]
        assert all(1 <= k <= lab.BLOCK_POINTS for k in calls)
        assert sum(calls) == len(cloud)


# The tracemalloc peak of one verify_gallery_entry at seed 0, after a warm-up
# call, when each curve still ran its own ladder and grid (numpy 2.4.6,
# Python 3.11).  Batching the curves may at most double it.
PEAK_PER_CURVE = {"notcds04-max-n4": 1_200_305, "semi02-n4": 1_106_733}


@pytest.mark.parametrize("eid", sorted(PEAK_PER_CURVE))
def test_batched_sampling_memory_stays_bounded(eid):
    entry = gallery.get(eid)
    lab.verify_gallery_entry(entry, seed=0)
    tracemalloc.start()
    try:
        lab.verify_gallery_entry(entry, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * PEAK_PER_CURVE[eid]
