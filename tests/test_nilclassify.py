import ast
import functools
import gc
import itertools
import math
import random
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from su2n import AlgebraElement, bracket, linalg
from su2n.elements import kernel_root, primitive_line
from su2n.lab import witness_curve
from su2n.metrics import rho_norm, sup_norm
from su2n.nilclassify import (
    _Frame,
    _cubic_coeffs,
    _frame_of,
    _odd_cubic_zero_on_plane,
    _fixed_form,
    _isqrt_exact,
    _lambda_of,
    _minor_forms,
    _minor_grams,
    _minor_parts,
    _pair_forms,
    _pencil_rank1_roots,
    _rank_xy,
    _wedge_parts,
    _x_minus_lam_y,
    InconsistentClassification,
    NormalizerResult,
    NotInN,
    SEMIDIRECT_CASES,
    check_linear,
    check_square,
    classify,
    d_lambda,
    find_rank_one,
    match_notcds,
    normalizer_in_A,
    pair_e,
    q_center,
    r_alpha,
    semidirect_case,
    t_pair,
)
from su2n.scalars import QQi, abs2, conj, herm, im, re
from su2n.serialize import classification_report
from su2n.shapes import MuShape
from su2n.subalgebra import Subalgebra

import references
from references import ad_a, int_lambda


# The forms on algebra elements in QQi arithmetic, as the paper writes them:
# the independent reference for the row forms of nilclassify.

def qqi_q_center(e):
    return abs2(e.eta) - e.xx * e.yy


def qqi_r_alpha(e):
    return sum((abs2(v) for v in e.x), Fraction(0)) + 2 * re(e.phi * conj(e.eta))


def qqi_t_pair(u, z):
    ax2 = sum((abs2(v) for v in u.x), Fraction(0))
    ay2 = sum((abs2(v) for v in u.y), Fraction(0))
    return z.xx * ay2 + z.yy * ax2 + 2 * im(herm(u.x, u.y) * conj(z.eta))


def qqi_cubic_c(e):
    """xx |y|^2 + yy |x|^2 + 2 Im(x y^dagger conj(eta)), written out."""
    ax2 = sum((abs2(v) for v in e.x), Fraction(0))
    ay2 = sum((abs2(v) for v in e.y), Fraction(0))
    return e.xx * ay2 + e.yy * ax2 + 2 * im(herm(e.x, e.y) * conj(e.eta))


def qqi_pair_e(u, z):
    ay2 = sum((abs2(v) for v in u.y), Fraction(0))
    return (z.xx * ay2 - re(u.phi * conj(z.eta) * u.yy)
            + 2 * im(conj(z.eta) * herm(u.x, u.y)))


def qqi_d_lambda(e, lam):
    return e.xx + abs2(lam) * e.yy + 2 * im(lam * conj(e.eta))


def qqi_wedge(a, b):
    """The complex 2x2 minors a_i b_j - a_j b_i, i < j, of the stacked
    (a; b) matrix."""
    return [a[i] * b[j] - a[j] * b[i] for i, j in itertools.combinations(range(len(a)), 2)]


def qqi_minors(e):
    """The complex (x; y) minors x_i y_j - x_j y_i, i < j."""
    return qqi_wedge(e.x, e.y)


def qqi_minor_parts(e):
    return [part(m) for m in qqi_minors(e) for part in (re, im)]


def test_square_condition_examples(alg, sub):
    assert check_square(sub(alg(4, x=[1, 0], y=[0, 1]))).condition_id == 1
    assert check_square(sub(alg(3, eta=1, xx=1))).condition_id == 2
    assert check_square(sub(alg(3, yy=1))) is None


def test_square_condition_three(alg, sub):
    # u with independent-ish x against a central z with nonzero pairing
    h = sub(alg(4, x=[1, 0], y=[QQi(0, 2), 0], xx=1), alg(4, yy=1))
    w = check_square(h)
    assert w.condition_id == 3
    u, z = w.elements["u"], w.elements["z"]
    # the z the condition cites is central in h
    assert all(bracket(z, b).is_zero() for b in h.basis)
    assert t_pair(4, u.coords(), z.coords()) != 0 and not u.phi


def test_square_conditions_four_to_seven(alg, sub):
    assert check_square(sub(alg(3, phi=1, x=[2], eta=-2))).condition_id == 4
    assert check_square(sub(alg(3, phi=1, yy=1), alg(3, xx=1))).condition_id == 5
    assert check_square(sub(alg(4, phi=1, y=[1, 0]),
                            alg(4, x=[0, 1]))).condition_id == 6
    h7 = sub(alg(4, phi=1, y=[1, 0]), alg(4, x=[QQi(0, -1), 0], yy=1),
             alg(4, xx=1))
    assert check_square(h7).condition_id == 7


def test_linear_condition_examples(alg, sub):
    assert check_linear(sub(alg(3, eta=1, xx=1, yy=1))).condition_id == 1
    assert check_linear(sub(alg(4, phi=1, x=[1, 0]))).condition_id == 3
    assert check_linear(sub(alg(3, phi=1))) is None
    assert check_linear(sub(alg(4, x=[1, 0]))).condition_id == 2


def test_linear_condition_two_locked(alg, sub):
    # x = i*y with the cubic vanishing: xx = -1 balances yy = +1
    h = sub(alg(3, y=[1], x=[QQi(0, 1)], xx=-1, yy=1))
    w = check_linear(h)
    assert w.condition_id == 2
    assert qqi_cubic_c(w.elements["u"]) == 0


def test_linear_conditions_four_five(alg, sub):
    h = sub(alg(3, phi=1, yy=1), alg(3, eta=1))
    assert check_linear(h).condition_id == 4
    h = sub(alg(3, phi=1, y=[1]), alg(3, eta=1))
    w = check_linear(h)
    assert w.condition_id == 5
    assert qqi_pair_e(w.elements["u"], w.elements["z"]) == 0


def test_each_condition_has_one_recipe(alg, sub):
    # lab holds one curve recipe per condition the classifier checks, and
    # the references one per-point solver per recipe whose curve moves with t
    from su2n import lab, nilclassify

    conditions = ({("square", i) for i in range(1, len(nilclassify._SQUARE_CHECKS) + 1)}
                  | {("linear", i) for i in range(1, len(nilclassify._LINEAR_CHECKS) + 1)})
    assert set(lab._WITNESS_RECIPES) == conditions
    # one example per condition, each of the examples above
    examples = {
        ("square", 1): sub(alg(4, x=[1, 0], y=[0, 1])),
        ("square", 2): sub(alg(3, eta=1, xx=1)),
        ("square", 3): sub(alg(4, x=[1, 0], y=[QQi(0, 2), 0], xx=1), alg(4, yy=1)),
        ("square", 4): sub(alg(3, phi=1, x=[2], eta=-2)),
        ("square", 5): sub(alg(3, phi=1, yy=1), alg(3, xx=1)),
        ("square", 6): sub(alg(4, phi=1, y=[1, 0]), alg(4, x=[0, 1])),
        ("square", 7): sub(alg(4, phi=1, y=[1, 0]), alg(4, x=[QQi(0, -1), 0], yy=1),
                           alg(4, xx=1)),
        ("linear", 1): sub(alg(3, eta=1, xx=1, yy=1)),
        ("linear", 2): sub(alg(4, x=[1, 0])),
        ("linear", 3): sub(alg(4, phi=1, x=[1, 0])),
        ("linear", 4): sub(alg(3, phi=1, yy=1), alg(3, eta=1)),
        ("linear", 5): sub(alg(3, phi=1, y=[1]), alg(3, eta=1)),
    }
    assert set(examples) == conditions
    per_point = set()
    for (side, cid), h in examples.items():
        w = (check_square if side == "square" else check_linear)(h)
        assert (w.side, w.condition_id) == (side, cid)
        if isinstance(witness_curve(w, h), lab._PerPoint):
            per_point.add((side, cid))
    assert set(references.PER_POINT_WITNESSES) == per_point


def test_square_8_holds_on_no_subalgebra():
    # square condition 8 as the classifier held it: ker phi = z = xx-axis
    # puts [v, u] on the axis, where x = 0, yet x([v, u]) = phi_v y_u != 0;
    # none of these specs (the gallery's nil entries among them) passes
    # even its dim-3 and axis gates
    from su2n.corpus import random_corpus

    specs = [h for ns in ((3, 4, 5), (6,)) for seed in range(3)
             for _, h in random_corpus(count=300, ns=ns, seed=seed)]
    assert len(specs) == 1800
    assert not [h for h in specs if references.square_8(_frame_of(h)) is not None]


def test_the_pointwise_lambdas_return_the_global_lambda_row():
    # wherever linear 2's old global-lambda branch returned a row, the
    # pointwise branch returns that row: the global lambda is the first
    # basis-row lambda, and its {x = lambda y} is all of ker phi
    from su2n.corpus import random_corpus
    from su2n.nilclassify import _li2

    hits = 0
    for seed in range(6):
        for _, h in random_corpus(count=300, seed=seed):
            frame = _frame_of(h)
            row = references.li2_global_lambda(frame)
            if row is not None:
                hits += 1
                assert _li2(frame)[0] == {"u": frame.element(row)}
    assert hits == 27


def test_a_basis_row_lambda_leaves_the_pencil_walk_unstarted(monkeypatch, alg, sub):
    # x = y on all of ker phi, so the first basis-row lambda decides linear
    # 2, and the pencil walk is never advanced
    from su2n import nilclassify

    h = sub(alg(4, x=[1, 0], y=[1, 0], xx=2, yy=1), alg(4, eta=QQi(1, 2)))
    frame = _frame_of(h)
    assert references.li2_global_lambda(frame) is not None
    walk, started = nilclassify._pencil_rank_one_rows, []

    def spy(frame, within):
        started.append(within)
        yield from walk(frame, within)

    monkeypatch.setattr(nilclassify, "_pencil_rank_one_rows", spy)
    w = nilclassify._li2(frame)
    assert w[1] == "pointwise lambda branch" and started == []


def test_mode_and_membership_guards(alg, sub):
    # algebra elements are exact; there is no floating mode to classify
    with pytest.raises(TypeError):
        alg(3, phi=1, mode="float")
    with pytest.raises(NotInN):
        check_square(sub(alg(3, t1=1)))
    with pytest.raises(ValueError):
        classify(sub(alg(3)))


def test_template_examples(alg, sub):
    m = match_notcds(sub(alg(3, yy=1)))
    assert m.type_id == 1 and m.shape == MuShape.curve(1)
    m = match_notcds(sub(alg(4, y=[1, 0]), alg(4, y=[QQi(0, 1), 0]),
                         alg(4, y=[0, 1]), alg(4, y=[0, QQi(0, 1)]),
                         alg(4, yy=1)))
    assert m.type_id == 3 and m.subcase == "b" and m.shape == MuShape.curve(1)
    assert m.evidence["lambda"] == QQi(0)
    m = match_notcds(sub(alg(3, phi=1)))
    assert m.type_id == 10 and m.shape == MuShape.curve(2)
    m = match_notcds(sub(alg(3, phi=1, y=[1]), alg(3, eta=1, xx=1)))
    assert m.type_id == 11 and m.shape == MuShape.band(Fraction(5, 4), 2)


def test_template_lambda_and_phi0_lock_globally(alg, sub):
    h = sub(alg(4, y=[1, 0], x=[QQi(0, 1), 0], xx=1),
            alg(4, eta=-1, xx=1, yy=1))
    m = match_notcds(h)
    assert m.type_id == 3 and m.subcase == "a"
    assert m.evidence["lambda"] == QQi(0, 1)
    for b in h.basis:
        assert all(xv == m.evidence["lambda"] * yv for xv, yv in zip(b.x, b.y))
    h = sub(alg(3, phi=QQi(2), yy=1))
    m = match_notcds(h)
    assert m.type_id == 5 and m.evidence["phi0"] == QQi(2)


def test_classify_double_entry(alg, sub):
    r = classify(sub(alg(4, x=[1, 0], y=[0, 1]), alg(4, eta=1, xx=1, yy=1)))
    assert r.verdict == "CDS"
    assert r.square.condition_id == 1 and r.linear.condition_id == 1
    assert r.template is None
    r = classify(sub(alg(4, x=[1, 0]), alg(4, x=[QQi(0, 1), 0]),
                     alg(4, x=[0, 1]), alg(4, x=[0, QQi(0, 1)]), alg(4, xx=1)))
    assert r.verdict == "NotCDS" and r.template.type_id == 4
    assert r.square is None and r.linear is not None


def test_classify_witness_pattern_matches_shape(alg, sub):
    # the 5/4..2 band has a square sequence but no linear one
    r = classify(sub(alg(3, phi=1, y=[1]), alg(3, eta=1, xx=1)))
    assert r.square is not None and r.linear is None
    # curve(3/2) families have neither
    r = classify(sub(alg(3, x=[1], yy=1)))
    assert r.square is None and r.linear is None


def test_normalizer_examples(alg, sub):
    assert str(normalizer_in_A(sub(alg(3, yy=1)))) == "A"
    assert str(normalizer_in_A(sub(alg(3, eta=1, xx=1, yy=1)))) == "ker(alpha)"
    assert str(normalizer_in_A(sub(alg(4, phi=1, x=[1, 0], eta=QQi(0, -1),
                                       yy=2)))) == "trivial"
    assert str(normalizer_in_A(sub(alg(3, x=[1], yy=1)))) == "ker(alpha-beta)"


def _curve_slope(curve, tmax=1e4, npts=40):
    pts = []
    for t in np.geomspace(1.0, tmax, npts):
        g = curve(float(t))
        nrm = sup_norm(g)
        if 1.0 < nrm <= 1e8:
            pts.append((np.log10(nrm), np.log10(rho_norm(g))))
    a = np.array(pts)
    return np.polyfit(a[:, 0], a[:, 1], 1)[0]


@pytest.mark.parametrize("make,cond,expect", [
    (lambda alg: [alg(4, x=[1, 0], y=[0, 1], eta=QQi(2, 1), xx=3)], 1, 2.0),
    (lambda alg: [alg(4, eta=1, xx=1)], 2, 2.0),
    (lambda alg: [alg(4, x=[1, 0], y=[QQi(0, 2), 0], xx=1), alg(4, yy=1)], 3, 2.0),
    (lambda alg: [alg(4, phi=1, x=[2, 0], eta=-2)], 4, 2.0),
    (lambda alg: [alg(3, phi=1, yy=1), alg(3, xx=1)], 5, 2.0),
    (lambda alg: [alg(4, phi=1, y=[1, 0]), alg(4, x=[0, 1])], 6, 2.0),
    (lambda alg: [alg(4, phi=1, y=[1, 0]), alg(4, x=[QQi(0, -1), 0], yy=1),
                  alg(4, xx=1)], 7, 2.0),
])
def test_square_witness_curves(alg, sub, make, cond, expect):
    h = sub(*make(alg))
    w = check_square(h)
    assert w is not None and w.condition_id == cond
    slope = _curve_slope(witness_curve(w, h))
    assert abs(slope - expect) < 0.08


@pytest.mark.parametrize("make,expect", [
    (lambda alg: [alg(3, eta=1, xx=1, yy=1)], 1.0),
    (lambda alg: [alg(3, y=[1], x=[QQi(0, 1)], xx=-1, yy=1)], 1.0),
    (lambda alg: [alg(3, phi=1, yy=1), alg(3, eta=1)], 1.0),
    (lambda alg: [alg(3, phi=1, y=[1]), alg(3, eta=1)], 1.0),
])
def test_linear_witness_curves(alg, sub, make, expect):
    h = sub(*make(alg))
    w = check_linear(h)
    assert w is not None
    slope = _curve_slope(witness_curve(w, h), tmax=3e4)
    assert abs(slope - expect) < 0.08


def test_classify_runs_on_saturated_randoms():
    from su2n.corpus import random_corpus
    for cid, h in random_corpus(count=60, seed=42, include_gallery=False):
        r = classify(h, seed=0)
        assert r.verdict in ("CDS", "NotCDS")
        if r.verdict == "NotCDS":
            assert (r.square is not None) == r.shape.upper_touches_square()
            assert (r.linear is not None) == r.shape.lower_touches_linear()


def test_type6_ratio_bounded_along_random_sequences(alg, sub):
    # for curve(2) matches, rho/|h|^2 stays within the (n+2)^4 corridor
    import random as _random
    h = sub(alg(4, x=[1, 0], y=[0, 1]))
    r = classify(h)
    assert r.template.type_id == 6
    u = np.array(h.basis[0].coords(), dtype=float)
    rng = _random.Random(3)
    from su2n.lab import exp_float
    C = (4 + 2) ** 4
    for _ in range(20):
        t = 10 ** rng.uniform(0.5, 4)
        g = exp_float(u, t)
        ratio = rho_norm(g) / sup_norm(g) ** 2
        assert 1 / C <= ratio <= C


def test_witness_curves_on_random_cds_examples():
    from su2n.corpus import random_corpus
    checked = 0
    for cid, h in random_corpus(count=60, seed=11, include_gallery=False):
        r = classify(h, seed=0)
        if r.verdict != "CDS" or checked >= 4:
            continue
        checked += 1
        for w, expect in ((r.square, 2.0), (r.linear, 1.0)):
            slope = _curve_slope(witness_curve(w, h), tmax=1e5)
            assert abs(slope - expect) < 0.08, (cid, w.condition_id, slope)
    assert checked >= 2


def test_irrational_isotropic_plane(alg, sub):
    # the central form -a^2 + 2b^2 has real but no rational zeros: the
    # decision stays exact (signature), the witness is approximate
    h = sub(alg(3, eta=1, xx=1, yy=2), alg(3, eta=2, xx=1, yy=2))
    r = classify(h, seed=0)
    assert r.verdict == "CDS"
    assert r.linear.condition_id == 1 and not r.linear.exact
    slope = _curve_slope(witness_curve(r.linear, h), tmax=3e4)
    assert abs(slope - 1.0) < 0.08


def test_odd_cubic_linear_witness_is_approximate(alg, sub):
    # phi = 0 throughout and the y-image of the complex-line subspace is two
    # real dimensions, so linear condition 2 finds its witness by bisecting
    # the odd cubic C on a circle: an element where C is only nearly zero
    h = sub(alg(3, eta=QQi(3), xx=-3, x=[QQi(1, -1)], y=[QQi(1, -2)]),
            alg(3, eta=QQi(-3, -1), xx=-3, yy=2, x=[QQi(-1, 2)], y=[QQi(-2, -2)]),
            alg(3, eta=QQi(-5, -4), xx=2, yy=-12))
    r = classify(h, seed=0)
    assert r.linear.condition_id == 2
    assert r.linear.note == "odd-cubic zero on a 2-plane"
    c = qqi_cubic_c(r.linear.elements["u"])
    assert c != 0 and abs(c) < 1e-9
    assert classification_report(r)["witnesses"]["linear"] == {
        "condition": 2, "exact": False}
    curve = witness_curve(r.linear, h)
    mats = np.array([curve(float(t)) for t in np.geomspace(1.0, 3e4, 40)])
    assert np.isfinite(mats).all()
    assert abs(_curve_slope(curve, tmax=3e4) - 1.0) < 0.08


def test_linear_five_with_xx_component(alg, sub):
    # E = xx_z |y_u|^2 - phi_u yy_u conj(eta_z) cancels between both terms
    h = sub(alg(3, phi=1, y=[1], yy=1), alg(3, eta=1, xx=1))
    r = classify(h, seed=0)
    assert r.verdict == "CDS" and r.linear.condition_id == 5
    slope = _curve_slope(witness_curve(r.linear, h), tmax=3e4)
    assert abs(slope - 1.0) < 0.08


def _slot_values(e, name):
    """A slot of an element as real numbers, (Re, Im) per complex entry."""
    if name == "t":
        return [e.t1, e.t2]
    if name in ("xx", "yy"):
        return [getattr(e, name)]
    entries = {"phi": [e.phi], "eta": [e.eta], "x": e.x, "y": e.y}[name]
    return [part(v) for v in entries for part in (re, im)]


def test_func_on_reads_the_slot_of_the_element():
    from su2n import gallery

    rng = random.Random(3)
    for entry in gallery.entries():
        if entry.kind != "nil":
            continue
        h = entry.spec()
        frame = _Frame(h)
        coeffs = [[Fraction(1)] + [Fraction(0)] * (frame.d - 1)]
        coeffs += [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(frame.d)]
                   for _ in range(3)]
        for c in coeffs:
            ints, den = row = linalg.combine(frame.full, c)
            e = h.element(c)
            assert frame.element(row) == e, entry.id
            for name in ("t", "phi", "x", "y", "eta", "xx", "yy"):
                assert [Fraction(a, den) for a in frame.func_on(name, ints)] == \
                    _slot_values(e, name), (entry.id, name)


def test_slot_kernels_on_ints_equal_the_kernels_of_their_values():
    """_Frame.kernel reads the slot columns off the rows' ints, as kernel_of
    does with the same functionals.  Both give the same rows, and every row
    returned is over its least positive denominator."""
    from su2n import gallery

    rng = random.Random(8)
    names = [["phi"], ["y"], ["x", "xx"], ["phi", "y", "yy"], ["eta"], ["yy"]]
    for entry in gallery.entries():
        if entry.kind != "nil":
            continue
        frame = _Frame(entry.spec())
        within = frame.full + [linalg.combine(frame.full, [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(frame.d)])]
        for nm in names:
            got = frame.kernel(nm, within)
            assert got == frame.kernel_of(lambda c: frame.funcs_on(nm, c), within)
            for ints, den in got:
                assert den > 0 and math.gcd(den, *ints) == 1, entry.id


def _n5_d3(alg, sub):
    """A 3-dimensional h at n = 5 whose x, y minors are not all zero."""
    return sub(alg(5, x=[1, 0, 0], y=[0, 1, 0], yy=1),
               alg(5, x=[0, 0, 1], y=[0, QQi(2, 1), 0], yy=2), alg(5, yy=1))


def _random_rows(rng, n, count):
    """Coordinate rows at n with mixed denominators, about half their
    entries zero, and a zero row among them when count > 2."""
    rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))
             if rng.random() < 0.5 else Fraction(0) for _ in range(4 * n)]
            for _ in range(count)]
    if count > 2:
        rows[rng.randrange(count)] = [Fraction(0)] * (4 * n)
    return rows


def _polarization_grams(values, n, rows):
    return linalg.gram_from_quadratic(
        lambda v: values(AlgebraElement.from_coords(n, v)), rows)


def test_fixed_form_grams_equal_the_polarization_grams():
    rng = random.Random(20)
    for n in range(3, 9):
        frame = SimpleNamespace(n=n)
        for count in (1, 2, 3, 5):
            rows = _random_rows(rng, n, count)
            pairs = [linalg.int_row(r) for r in rows]
            for q, ref in ((q_center, qqi_q_center), (r_alpha, qqi_r_alpha)):
                assert linalg.form_gram(pairs, _fixed_form(q, n)) == \
                    _polarization_grams(lambda e: [ref(e)], n, rows)[0], (n, q)
            # the forms with a central parameter z, at a random z
            eta, xx, yy = (rng.choice((0, Fraction(rng.randint(-9, 9), rng.randint(1, 7))))
                           for _ in range(3))
            z = AlgebraElement(n, eta=QQi(eta, rng.randint(-3, 3)), xx=xx, yy=yy)
            for q, ref in ((t_pair, qqi_t_pair), (pair_e, qqi_pair_e)):
                assert _Frame.pair_gram(frame, q, (z.ints, z.den), pairs) == \
                    _polarization_grams(lambda e: [ref(e, z)], n, rows)[0], (n, q, z)
            # one Gram per minor part (none at n = 3), in _minor_parts' order
            grams = _minor_grams(frame, pairs)
            assert len(grams) == (n - 2) * (n - 3)
            assert grams == _polarization_grams(qqi_minor_parts, n, rows), n
        # rows outside the support of every form give zero Grams
        outside = [(e.ints, e.den) for e in (AlgebraElement(n, t1=2, t2=-1, phi=QQi(1, 3)),
                                             AlgebraElement(n, y=[1] * (n - 2)))]
        assert linalg.form_gram(outside, _fixed_form(q_center, n)) == [[0, 0], [0, 0]]
        assert _fixed_form(q_center, n)[0] == tuple(range(4 * n - 4, 4 * n))


def test_row_forms_equal_their_qqi_definitions():
    """Each form on a coordinate row equals its QQi definition on the
    element of that row: a Fraction on Fraction rows, an int on int rows."""
    rng = random.Random(21)
    for n in range(3, 9):
        rows = _random_rows(rng, n, 40) + [[rng.randint(-9, 9) for _ in range(4 * n)]
                                           for _ in range(10)]
        for u, z in zip(rows, rows[1:] + rows[:1]):
            eu, ez = (AlgebraElement.from_coords(n, r) for r in (u, z))
            lam = QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            got = [q_center(n, u), r_alpha(n, u), t_pair(n, u, z), pair_e(n, u, z),
                   t_pair(n, u, u), *_minor_parts(n, u)]
            want = [qqi_q_center(eu), qqi_r_alpha(eu), qqi_t_pair(eu, ez),
                    qqi_pair_e(eu, ez), qqi_cubic_c(eu), *qqi_minor_parts(eu)]
            assert got == want, (n, u, z)
            ld = int_lambda(lam)[2]
            assert d_lambda(n, u, int_lambda(lam)) == ld * ld * qqi_d_lambda(eu, lam), (n, u, lam)
            if all(type(a) is int for a in u + z):
                assert all(type(v) is int for v in got), (n, u, z)


def test_building_the_fixed_forms_builds_no_element(monkeypatch):
    """The forms are polarized on int unit rows: no AlgebraElement is made."""
    built = []
    init, from_ints, from_coords = (AlgebraElement.__init__, AlgebraElement.from_ints,
                                    AlgebraElement.from_coords)
    monkeypatch.setattr(AlgebraElement, "__init__",
                        lambda self, *a, **kw: built.append("__init__") or init(self, *a, **kw))
    monkeypatch.setattr(AlgebraElement, "from_ints",
                        staticmethod(lambda *a: built.append("from_ints") or from_ints(*a)))
    monkeypatch.setattr(AlgebraElement, "from_coords",
                        staticmethod(lambda *a: built.append("from_coords") or from_coords(*a)))
    for n in range(3, 9):
        # the functions under the caches, so each form is polarized in this test
        for q in (q_center, r_alpha):
            _fixed_form.__wrapped__(q, n)
        for q in (t_pair, pair_e):
            _pair_forms.__wrapped__(q, n)
        _minor_forms.__wrapped__(n)
    assert built == []


def test_match_notcds_tests_the_rows_for_zero_without_building_elements(alg, sub, monkeypatch):
    """The trivial-subalgebra check reads the frame's rows: no AlgebraElement
    is made (the templates are emptied, so the check is all that runs)."""
    from su2n import nilclassify
    h = sub(alg(3, phi=1, y=[1]), alg(3, eta=1, xx=1))
    nilclassify._frame_of(h)  # the frame is built before the spy goes in
    built = []
    init, from_ints, from_coords = (AlgebraElement.__init__, AlgebraElement.from_ints,
                                    AlgebraElement.from_coords)
    monkeypatch.setattr(AlgebraElement, "__init__",
                        lambda self, *a, **kw: built.append("__init__") or init(self, *a, **kw))
    monkeypatch.setattr(AlgebraElement, "from_ints",
                        staticmethod(lambda *a: built.append("from_ints") or from_ints(*a)))
    monkeypatch.setattr(AlgebraElement, "from_coords",
                        staticmethod(lambda *a: built.append("from_coords") or from_coords(*a)))
    monkeypatch.setattr(nilclassify, "_TEMPLATES", [])
    assert match_notcds(h) is None
    assert built == []


def test_cubic_coeffs_evaluate_the_int_cubic_once_per_index_multiset(alg, sub, monkeypatch):
    from su2n import nilclassify

    frame = _Frame(_n5_d3(alg, sub))
    built, evaluated = [], []
    element = frame.element
    frame.element = lambda row: built.append(row) or element(row)
    monkeypatch.setattr(nilclassify, "t_pair",
                        lambda n, u, z: evaluated.append(tuple(u)) or t_pair(n, u, z))
    coeffs = _cubic_coeffs(frame, frame.full)
    # 10 triples i <= j <= l of 3 rows read C at the 3 + 6 + 10 multisets
    # of at most three indices, not at 7 row sums per triple, on int rows
    assert len(coeffs) == 10
    assert len(evaluated) == 19
    assert len(set(evaluated)) == 19
    assert all(type(a) is int for u in evaluated for a in u)
    assert built == []


def _row_frame(n):
    """The part of a frame that _cubic_coeffs, _odd_cubic_zero_on_plane and
    _x_minus_lam_y read, for rows that are no subalgebra's."""
    frame = SimpleNamespace(n=n, cols=AlgebraElement.slot_columns(n),
                            element=lambda row: AlgebraElement.from_ints(n, *row))
    frame.func_on = functools.partial(_Frame.func_on, frame)
    return frame


def test_int_cubic_equals_cubic_c():
    """C(u) = t_pair(n, u, u): on a row's ints over D it is C * D**3, and on
    an int row it is C itself, an int."""
    rng = random.Random(11)
    for n in range(3, 7):
        for row in _random_rows(rng, n, 12):
            ints, den = linalg.int_row(row)
            assert Fraction(t_pair(n, ints, ints), den ** 3) == \
                qqi_cubic_c(AlgebraElement.from_coords(n, row)), (n, row)
        for _ in range(12):
            row = [rng.randint(-9, 9) for _ in range(4 * n)]
            c = t_pair(n, row, row)
            assert type(c) is int and c == qqi_cubic_c(AlgebraElement.from_coords(n, row))
        # rows with mixed denominators: coefficients over D**3
        for _ in range(4):
            rows = _random_rows(rng, n, 3)
            assert _cubic_coeffs(_row_frame(n), [linalg.int_row(r) for r in rows]) == \
                _fraction_cubic_coeffs(n, rows), (n, rows)


def test_odd_cubic_zero_on_a_plane_of_rows_with_different_denominators():
    rng = random.Random(5)
    for n in (3, 4, 5):
        for _ in range(3):
            a, b = _random_rows(rng, n, 2)
            a = linalg.int_row([v / 3 for v in a])
            b = linalg.int_row([v / 7 for v in b])
            frame = _row_frame(n)
            u, exact = _odd_cubic_zero_on_plane(frame, [a, b], [])
            # C at the returned rational point is zero up to the bisection's
            # precision, relative to C on the circle
            scale = max(abs(qqi_cubic_c(frame.element(r))) for r in (a, b))
            assert exact or abs(qqi_cubic_c(u)) <= 1e-9 * scale, (n, a, b)


def _fraction_cubic_coeffs(n, within):
    """The polarization of the QQi cubic C on Fraction elements: C at the
    row sum of each index multiset of the rational rows `within`, built as
    an element; the reference for _cubic_coeffs."""
    @functools.cache
    def cval(*idx):
        return qqi_cubic_c(AlgebraElement.from_coords(
            n, [sum(col) for col in zip(*(within[i] for i in idx))]))

    return {(i, j, l): (cval(i, j, l) - cval(i, j) - cval(i, l) - cval(j, l)
                        + cval(i) + cval(j) + cval(l))
            for i, j, l in itertools.combinations_with_replacement(range(len(within)), 3)}


def test_cubic_coeffs_equal_the_fraction_polarization_on_the_classify_corpus(monkeypatch):
    from su2n import Subalgebra, anclassify, corpus, gallery, nilclassify

    calls = []
    monkeypatch.setattr(nilclassify, "_cubic_coeffs",
                        lambda frame, within: calls.append((frame, within))
                        or _cubic_coeffs(frame, within))
    # the specs of the classify benchmark's corpus at seeds 0 and 1, and the
    # gallery
    specs = [h for seed in (0, 1) for n in (3, 4, 5)
             for _, h in corpus.random_corpus(count=80, ns=(n,), seed=seed * 10 + n,
                                              include_gallery=False)]
    specs += [e.spec() for e in gallery.entries()]
    for spec in specs:
        if isinstance(spec, Subalgebra):
            classify(spec)
        else:
            anclassify.classify_an(spec)
    assert len(calls) >= 40
    assert {len(within) for _, within in calls} == {1, 2, 3}
    for frame, within in calls:
        rational = [[Fraction(a, den) for a in ints] for ints, den in within]
        assert _cubic_coeffs(frame, within) == _fraction_cubic_coeffs(frame.n, rational)


def test_classify_reduces_the_rows_of_h_once(monkeypatch):
    from su2n import gallery, nilclassify

    echelon_ints, reduced, reached = linalg.echelon_ints, [], []
    monkeypatch.setattr(linalg, "echelon_ints",
                        lambda rows: reduced.append([tuple(r) for r in rows])
                        or echelon_ints(rows))
    for name in ("_h_decomposes", "_xx_axis_element"):
        monkeypatch.setattr(nilclassify, name,
                            lambda *a, _f=getattr(nilclassify, name), _nm=name:
                            reached.append(_nm) or _f(*a))
    # template 3: a case-list row asks _h_decomposes, and square conditions
    # 5 and 7 look for the xx axis in h; no kernel of h here equals h's rows
    h = gallery.get("notcds03a-n4").spec()
    assert classify(h).template.type_id == 3
    assert set(reached) == {"_h_decomposes", "_xx_axis_element"}
    # once, in Subalgebra validation; the frame reads that echelon form
    assert reduced.count([tuple(r) for r in h.rows()]) == 1
    assert nilclassify._frame_of(h).echelon == echelon_ints(h.rows())


def test_minor_grams_are_the_single_part_polarizations_in_order(alg, sub):
    from su2n import gallery

    subs = [_n5_d3(alg, sub)] + [e.spec() for e in gallery.entries()
                                 if e.kind == "nil" and e.spec().n >= 4]
    for h in subs:
        frame = _Frame(h)
        grams = _minor_grams(frame, frame.full)
        expected = [_polarization_grams(lambda e, m=m, part=part: [part(qqi_minors(e)[m])],
                                        h.n, h.coord_rows())[0]
                    for m in range((h.n - 2) * (h.n - 3) // 2) for part in (re, im)]
        assert grams == expected, h


def test_cubic_coeffs_expand_the_cubic(alg, sub):
    frame = _Frame(_n5_d3(alg, sub))
    coeffs = _cubic_coeffs(frame, frame.full)
    assert any(coeffs.values())
    rng = random.Random(4)
    for _ in range(5):
        t = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in frame.full]
        # each key i <= j <= l holds 6 T(w_i, w_j, w_l), T the polar form of C
        expansion = sum(len(set(itertools.permutations(k))) * c * t[k[0]] * t[k[1]] * t[k[2]]
                        for k, c in coeffs.items()) / 6
        assert qqi_cubic_c(frame.element(linalg.combine(frame.full, t))) == expansion


@pytest.mark.parametrize("basis_kw, has_rank_one", [
    # the y image is the complex line C*(1, 0), which no x reaches
    ({"x": [0, 1], "y": [1, 0]}, False),
    # the y = 0 side
    ({"x": [1, 0]}, True),
    # x = y on all of h: globally dependent
    ({"x": [1, 0], "y": [1, 0]}, True),
], ids=["complex-line-miss", "y-zero-side", "globally-dependent"])
def test_find_rank_one_decides_the_layered_cases(alg, sub, basis_kw, has_rank_one):
    frame = _Frame(sub(alg(4, **basis_kw)))
    w = find_rank_one(frame, frame.full)
    if has_rank_one:
        assert _rank_xy(frame.n, w) == 1
    else:
        assert w is None


def test_templates_6_and_7_share_one_rank_one_search(monkeypatch):
    # phi = 0 on h: template 6 asks for a rank-one element and finds one,
    # then template 7 reads the same answer from the frame
    from su2n import gallery, nilclassify
    searched = []
    real = nilclassify.find_rank_one
    monkeypatch.setattr(nilclassify, "find_rank_one", lambda frame, within: (
        searched.append(within is frame.full) or real(frame, within)))
    r = classify(gallery.get("notcds07-n3").spec())
    assert r.template.type_id == 7 and "rank_one" in r.template.evidence
    assert searched.count(True) == 1


def test_classify_draws_no_random_numbers(monkeypatch):
    from su2n import corpus, gallery
    from su2n.anclassify import classify_an

    specs = [("nil", h) for _, h in corpus.random_corpus(count=120, seed=0)]
    specs += [(e.kind, e.spec()) for e in gallery.entries()]

    def no_generator(*args, **kwargs):
        raise AssertionError("classification built a random generator")

    monkeypatch.setattr(random, "Random", no_generator)
    for kind, spec in specs:
        if kind == "nil":
            classify(spec, seed=0)
        else:
            classify_an(spec, seed=0)


@pytest.mark.parametrize("route, fake", [
    ("match_notcds", lambda *args: None),
    # a case row predicting ker(alpha) for a U whose N_A(U) is trivial
    ("semidirect_case", lambda *args: next(row for row in SEMIDIRECT_CASES
                                           if row.case == "semidirect-1b")),
], ids=["double-entry", "normalizer"])
def test_a_disagreement_raises_on_the_single_pass(monkeypatch, route, fake):
    from su2n import gallery, nilclassify

    h = gallery.get("notcds11-n3").spec()
    runs = []
    square = nilclassify.check_square
    monkeypatch.setattr(nilclassify, "check_square",
                        lambda *args: runs.append(args) or square(*args))
    monkeypatch.setattr(nilclassify, route, fake)
    with pytest.raises(InconsistentClassification):
        classify(h)
    assert len(runs) == 1


def test_the_case_rows_pick_the_rows_of_their_reference():
    """The data rows pick the (root, case) of the lambda rows they replaced
    (references.SEMIDIRECT_CASES) for every NotCDS U of six random corpora,
    the nil gallery and the gallery's semidirect U, and every row is the
    first match of some U.  The rows' one extra condition decides: without
    semidirect-3's x condition some U picks another row."""
    from su2n import corpus, gallery

    us = [h for seed in range(6) for _, h in corpus.random_corpus(count=300, seed=seed)]
    us += [e.spec().u for e in gallery.entries() if e.kind == "semidirect"]
    loose = [replace(row, nonzero=()) for row in SEMIDIRECT_CASES]
    assert loose != SEMIDIRECT_CASES
    first, moved = Counter(), 0
    for h in us:
        match = match_notcds(h)
        if match is None:
            continue
        row = semidirect_case(h, match)
        got = None if row is None else (row.root, row.case)
        assert got == references.semidirect_case(_frame_of(h), match)
        if row is not None:
            first[SEMIDIRECT_CASES.index(row)] += 1
        frame = _frame_of(h)
        if got != next(((r.root, r.case) for r in loose
                        if r.type_id == match.type_id and r.holds(frame)), None):
            moved += 1
    assert len(SEMIDIRECT_CASES) == 22
    assert sorted(first) == list(range(22)), first
    assert moved


def test_the_case_rows_hold_no_callables():
    assert not [(row.case, value) for row in SEMIDIRECT_CASES
                for value in vars(row).values() if callable(value)]


def test_isqrt_exact_on_large_perfect_squares():
    assert _isqrt_exact((2 ** 80 + 3) ** 2) == 2 ** 80 + 3
    assert _isqrt_exact((10 ** 200 + 1) ** 2) == 10 ** 200 + 1
    assert _isqrt_exact((10 ** 200 + 1) ** 2 + 1) is None
    assert _isqrt_exact(-4) is None


def test_nonzero_with_raises_when_no_trial_value_works(alg, sub):
    # yy vanishes on both the start row (phi) and the y helper, so no trial
    # value of the perturbation keeps all three names nonzero
    frame = _Frame(sub(alg(3, phi=1)))
    within = [(e.ints, e.den) for e in (alg(3, phi=1), alg(3, y=[1]), alg(3, yy=1))]
    with pytest.raises(AssertionError):
        frame.nonzero_with(["phi", "y", "yy"], within)


def test_pencil_roots_are_the_rank_one_points_of_the_pencil(alg):
    ci, cj = ((e.ints, e.den) for e in (alg(4, x=[1, 0], y=[1, 1]), alg(4, x=[0, 1])))
    # ci + t cj has x = (1, t), y = (1, 1): its one minor is 1 - t
    assert _pencil_rank1_roots(4, ci, cj) == [1]
    # cj + t ci has x = (t, 1), y = (t, t): its one minor is t^2 - t
    assert sorted(_pencil_rank1_roots(4, cj, ci)) == [0, 1]


def qqi_pencil_roots(ei, ej):
    """Rational t where every (x; y) minor of ei + t ej vanishes, from the
    QQi wedges of the elements: each minor part is a t^2 + b t + c with a
    from ej's minor, c from ei's and b from the two mixed wedges, and the
    candidates are the rational roots of the first nonzero one."""
    polys = []
    for m0, m2, m1a, m1b in zip(qqi_wedge(ei.x, ei.y), qqi_wedge(ej.x, ej.y),
                                qqi_wedge(ei.x, ej.y), qqi_wedge(ej.x, ei.y)):
        for part in (re, im):
            a, b, c = part(m2), part(m1a + m1b), part(m0)
            if a or b or c:
                polys.append((a, b, c))
    if not polys:
        return []
    a, b, c = polys[0]
    if a == 0:
        roots = {-c / b} if b else set()
    else:
        disc = b * b - 4 * a * c
        rn, rd = _isqrt_exact(disc.numerator), _isqrt_exact(disc.denominator)
        s = Fraction(rn, rd) if disc >= 0 and rn is not None and rd is not None else None
        roots = set() if s is None else {(-b + s) / (2 * a), (-b - s) / (2 * a)}
    return sorted(t for t in roots if all(a * t * t + b * t + c == 0 for a, b, c in polys))


def _random_qqi(rng):
    return QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 5)))


def test_pencil_roots_equal_the_qqi_wedge_pencil():
    """On random Fraction rows, and on pencils through a rank-one row at a
    random rational t0, the row pencil finds the roots of the QQi one."""
    rng = random.Random(23)
    hits = 0
    for n in range(3, 9):
        for k in range(60):
            ci, cj = _random_rows(rng, n, 2)
            if k % 2:
                lam, y = _random_qqi(rng), [_random_qqi(rng) for _ in range(n - 2)]
                r = AlgebraElement(n, phi=_random_qqi(rng), x=[lam * v for v in y], y=y,
                                   xx=rng.randint(-3, 3)).coords()
                t0 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                ci = [a - t0 * b for a, b in zip(r, cj)]
            got = _pencil_rank1_roots(n, linalg.int_row(ci), linalg.int_row(cj))
            assert sorted(got) == qqi_pencil_roots(*(AlgebraElement.from_coords(n, c)
                                                     for c in (ci, cj))), (n, ci, cj)
            assert all(_rank_xy(n, linalg.int_row([a + t * b for a, b in zip(ci, cj)])) <= 1
                       for t in got)
            hits += bool(got)
    assert hits > 100


def test_row_slot_readings_equal_their_qqi_definitions():
    """_wedge_parts, _lambda_of and _x_minus_lam_y on random Fraction rows
    equal the QQi wedge, <x, y> / |y|^2 and x - lambda y of the elements."""
    rng = random.Random(24)
    lambdas = 0
    for n in range(3, 9):
        frame, d = _row_frame(n), 2 * (n - 2)
        rows = _random_rows(rng, n, 40)
        for u, v in zip(rows, rows[1:] + rows[:1]):
            eu, ev = (AlgebraElement.from_coords(n, r) for r in (u, v))
            assert _wedge_parts(u[4:4 + d], v[4 + d:4 + 2 * d]) == \
                [part(m) for m in qqi_wedge(eu.x, ev.y) for part in (re, im)], (n, u, v)
            ys = sum((abs2(w) for w in eu.y), Fraction(0))
            lam = _lambda_of(n, linalg.int_row(u))
            assert lam == (herm(eu.x, eu.y) / QQi(ys) if ys else None), (n, u)
            if lam is not None:
                lambdas += 1
                assert type(lam) is QQi and {type(lam.re), type(lam.im)} == {Fraction}
            mu = _random_qqi(rng)
            ld = int_lambda(mu)[2]
            assert _x_minus_lam_y(frame, int_lambda(mu), u) == \
                [ld * part(a - mu * b) for a, b in zip(eu.x, eu.y) for part in (re, im)], (n, u)
    assert lambdas > 100


def test_classify_builds_elements_only_for_its_outputs(monkeypatch):
    """classify builds an AlgebraElement for each element of its square and
    linear witnesses and its template evidence, and for nothing else: every
    decision reads coordinate rows.  The specs are fresh copies of the
    seed-0 corpus, which holds every nil gallery entry, so no frame is
    cached before the spy goes in."""
    from su2n import corpus, gallery

    named = corpus.random_corpus(count=120, seed=0)
    assert {e.id for e in gallery.entries() if e.kind == "nil"} <= {name for name, _ in named}
    specs = [Subalgebra(list(h.basis)) for _, h in named]
    built = []
    init, from_ints = AlgebraElement.__init__, AlgebraElement.from_ints
    monkeypatch.setattr(AlgebraElement, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    monkeypatch.setattr(AlgebraElement, "from_ints",
                        staticmethod(lambda *a: built.append(1) or from_ints(*a)))
    for h in specs:
        del built[:]
        r = classify(h)
        outputs = [v for part in (r.square and r.square.elements,
                                  r.linear and r.linear.elements,
                                  r.template and r.template.evidence) if part
                   for v in part.values() if isinstance(v, AlgebraElement)]
        assert len(built) == len(outputs), h


def _float_imports(source):
    """Line numbers of the imports of numpy, scipy, su2n.metrics or su2n.lab
    in a module source of the su2n package, function bodies included."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import inside the package names su2n.<module>
            base = ".".join(filter(None, ["su2n" * bool(node.level), node.module]))
            mods = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        if any(m.split(".")[0] in ("numpy", "scipy")
               or m.split(".")[:2] in (["su2n", "metrics"], ["su2n", "lab"])
               for m in mods):
            lines.append(node.lineno)
    return lines


def test_nilclassify_imports_no_float_code():
    # the exact decider stays exact: sampling and float numerics live in lab
    bad = """
import numpy as np
def f():
    from scipy.optimize import brentq
    from .metrics import rho_norm
    from . import lab
    import su2n.metrics
"""
    assert _float_imports(bad) == [2, 4, 5, 6, 7]
    assert _float_imports("from . import linalg\nfrom .elements import int_bracket") == []
    path = Path(__file__).parents[1] / "src" / "su2n" / "nilclassify.py"
    assert _float_imports(path.read_text()) == []


def test_classify_builds_one_frame_and_reads_linear_condition_2_once(monkeypatch):
    from su2n import gallery, nilclassify

    frames, li2_runs = [], []

    class CountedFrame(nilclassify._Frame):
        def __init__(self, h):
            frames.append(h)
            super().__init__(h)

    li2 = nilclassify._li2
    monkeypatch.setattr(nilclassify, "_Frame", CountedFrame)
    monkeypatch.setattr(nilclassify, "_li2", lambda frame: li2_runs.append(frame) or li2(frame))
    # template 7 reads linear condition 2 after check_linear has run it
    h = gallery.get("notcds07-max-n4").spec()
    result = classify(h)
    assert result.template.type_id == 7 and result.linear is None
    assert frames == [h]
    assert len(li2_runs) == 1


def test_routes_read_the_frame_of_their_own_h(alg, sub):
    # two subalgebras of one n and dimension with different answers on
    # every route, taken in turns: nothing of one may leak into the other
    h1 = sub(alg(3, eta=1, xx=1))  # square 2, template 6
    h2 = sub(alg(3, yy=1))         # linear 1, template 1
    for _ in range(2):
        assert check_square(h1).condition_id == 2 and check_square(h2) is None
        assert check_linear(h1) is None and check_linear(h2).condition_id == 1
        assert match_notcds(h1).type_id == 6 and match_notcds(h2).type_id == 1
        assert str(normalizer_in_A(h1)) == "ker(alpha)"
        assert str(normalizer_in_A(h2)) == "A"
        assert classify(h1).template.type_id == 6
        assert classify(h2).template.type_id == 1


def test_a_subalgebra_keeps_one_frame_while_it_lives(alg, sub, monkeypatch):
    from su2n import nilclassify

    framed = []
    init = nilclassify._Frame.__init__
    monkeypatch.setattr(nilclassify._Frame, "__init__",
                        lambda frame, h: framed.append(id(h)) or init(frame, h))
    monkeypatch.setattr(nilclassify, "_FRAMES", weakref.WeakKeyDictionary())
    h = sub(alg(3, eta=1, xx=1))
    first, second = classify(h), classify(h)
    assert len(framed) == 1 and first == second
    assert list(nilclassify._FRAMES.keys()) == [h]
    # the frame holds no reference to h, so h and its frame go together
    del h
    gc.collect()
    assert len(nilclassify._FRAMES) == 0


def residual(echelon, v) -> list:
    """v minus its combination of the rows of `echelon`, a pair (rows,
    pivots) from linalg.rref, on Fractions: zero iff v lies in their span.
    Each rref row is 1 at its own pivot and 0 at the others, so one pass
    over the pivots clears them all."""
    red, pivots = echelon
    v = list(v)
    for row, pc in zip(red, pivots):
        f = v[pc]
        if f != 0:
            v = [a - f * b if b else a for a, b in zip(v, row)]
    return v


def _ad_a_normalizer(h):
    """N_A(h) from the Fraction residuals of ad_a(1, 0, b) and ad_a(0, 1, b)."""
    echelon = linalg.rref(h.coord_rows())
    sys_rows = []
    for b in h.basis:
        r1 = residual(echelon, ad_a(1, 0, b).coords())
        r2 = residual(echelon, ad_a(0, 1, b).coords())
        sys_rows += [[c1, c2] for c1, c2 in zip(r1, r2) if c1 or c2]
    kern = (linalg.kernel_basis([linalg.int_row(r) for r in sys_rows]) if sys_rows
            else [[1, 0], [0, 1]])
    if len(kern) != 1:
        return NormalizerResult("full" if kern else "trivial")
    p, q = primitive_line(*kern[0])
    return NormalizerResult("line", (p, q), kernel_root(p, q))


def test_normalizer_in_A_equals_the_ad_a_system():
    from su2n import corpus

    specs = [h for _, h in corpus.random_corpus(count=60, seed=3)]
    kinds = set()
    for h in specs:
        assert normalizer_in_A(h) == _ad_a_normalizer(h), h
        kinds.add(normalizer_in_A(h).kind)
    assert kinds == {"trivial", "line", "full"}
