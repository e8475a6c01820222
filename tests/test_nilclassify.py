import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from su2n import linalg
from su2n.metrics import rho_norm, sup_norm
from su2n.nilclassify import (
    _Frame,
    _cubic_coeffs,
    _minor_grams,
    _pencil_rank1_roots,
    _rank_xy,
    _wedge,
    NotInN,
    check_linear,
    check_square,
    classify,
    cubic_c,
    find_rank_one,
    match_notcds,
    normalizer_in_A,
    pair_e,
    q_center,
    r_alpha,
    witness_curve,
)
from su2n.scalars import QQi, im, re
from su2n.serialize import classification_report
from su2n.shapes import MuShape


def test_square_condition_examples(alg, sub):
    assert check_square(sub(alg(4, x=[1, 0], y=[0, 1]))).condition_id == 1
    assert check_square(sub(alg(3, eta=1, xx=1))).condition_id == 2
    assert check_square(sub(alg(3, yy=1))) is None


def test_square_condition_three(alg, sub):
    # u with independent-ish x against a central z with nonzero pairing
    h = sub(alg(4, x=[1, 0], y=[QQi(0, 2), 0], xx=1), alg(4, yy=1))
    w = check_square(h)
    assert w.condition_id == 3
    assert q_center(w.elements["z"]) == 0 or True  # z cited by the condition
    u, z = w.elements["u"], w.elements["z"]
    from su2n.nilclassify import t_pair
    assert t_pair(u, z) != 0 and not u.phi


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
    assert cubic_c(w.elements["u"]) == 0


def test_linear_conditions_four_five(alg, sub):
    h = sub(alg(3, phi=1, yy=1), alg(3, eta=1))
    assert check_linear(h).condition_id == 4
    h = sub(alg(3, phi=1, y=[1]), alg(3, eta=1))
    w = check_linear(h)
    assert w.condition_id == 5
    assert pair_e(w.elements["u"], w.elements["z"]) == 0


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


@pytest.mark.parametrize("basis_kw,expect", [
    ([dict(x=[1, 0], y=[0, 1], eta=(2, 1), xx=3)], 2.0),
    ([dict(eta=1, xx=1)], 2.0),
    ([dict(phi=1, x=[2, 0], eta=-2)], 2.0),
])
def test_square_witness_curves(alg, sub, basis_kw, expect):
    els = []
    for kw in basis_kw:
        kw = dict(kw)
        if "eta" in kw and isinstance(kw["eta"], tuple):
            kw["eta"] = QQi(*kw["eta"])
        els.append(alg(4, **kw))
    h = sub(*els)
    w = check_square(h)
    assert w is not None
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
    from su2n.elements import exp_float
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
    c = cubic_c(r.linear.elements["u"])
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
        frame = _Frame(h, random.Random(0))
        coeffs = [[Fraction(1)] + [Fraction(0)] * (frame.d - 1)]
        coeffs += [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(frame.d)]
                   for _ in range(3)]
        for c in coeffs:
            row = frame._combine(frame.full, c)
            e = h.element(c)
            assert frame.element(row) == e, entry.id
            for name in ("t", "phi", "x", "y", "eta", "xx", "yy"):
                assert frame.func_on(name, row) == _slot_values(e, name), (entry.id, name)


def _n5_d3(alg, sub):
    """A 3-dimensional h at n = 5 whose x, y minors are not all zero."""
    return sub(alg(5, x=[1, 0, 0], y=[0, 1, 0], yy=1),
               alg(5, x=[0, 0, 1], y=[0, QQi(2, 1), 0], yy=2), alg(5, yy=1))


def test_minor_grams_build_each_polarization_element_once(alg, sub):
    frame = _Frame(_n5_d3(alg, sub), random.Random(0))
    built = []
    element = frame.element
    frame.element = lambda row: built.append(row) or element(row)
    grams = _minor_grams(frame, frame.full)
    # 3 minors x (Re, Im) Grams from d(d+1)/2 = 6 points, each built once
    assert len(grams) == 6
    assert len(built) == 6
    assert sum(not linalg.gram_is_zero(g) for g in grams) == 4


def test_minor_grams_are_the_single_part_polarizations_in_order(alg, sub):
    from su2n import gallery

    subs = [_n5_d3(alg, sub)] + [e.spec() for e in gallery.entries()
                                 if e.kind == "nil" and e.spec().n >= 4]
    for h in subs:
        frame = _Frame(h, random.Random(0))
        grams = _minor_grams(frame, frame.full)
        expected = [frame.gram(lambda e, m=m, part=part: part(_wedge(e.x, e.y)[m]),
                               frame.full)
                    for m in range((h.n - 2) * (h.n - 3) // 2) for part in (re, im)]
        assert grams == expected, h


def test_cubic_coeffs_expand_the_cubic(alg, sub):
    frame = _Frame(_n5_d3(alg, sub), random.Random(0))
    coeffs = _cubic_coeffs(frame, frame.full)
    assert any(coeffs.values())
    rng = random.Random(4)
    for _ in range(5):
        t = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in frame.full]
        # each key i <= j <= l holds 6 T(w_i, w_j, w_l), T the polar form of C
        expansion = sum(len(set(itertools.permutations(k))) * c * t[k[0]] * t[k[1]] * t[k[2]]
                        for k, c in coeffs.items()) / 6
        assert cubic_c(frame.element(frame._combine(frame.full, t))) == expansion


class _NoDraws(random.Random):
    """A generator that fails the test as soon as a search draws from it."""

    def randint(self, a, b):
        raise AssertionError("an exact layer drew a random number")


@pytest.mark.parametrize("basis_kw, has_rank_one", [
    # the y image is the complex line C*(1, 0), which no x reaches
    ({"x": [0, 1], "y": [1, 0]}, False),
    # the y = 0 side
    ({"x": [1, 0]}, True),
    # x = y on all of h: globally dependent
    ({"x": [1, 0], "y": [1, 0]}, True),
], ids=["complex-line-miss", "y-zero-side", "globally-dependent"])
def test_exact_rank_one_layers_draw_no_random_numbers(alg, sub, basis_kw, has_rank_one):
    frame = _Frame(sub(alg(4, **basis_kw)), _NoDraws())
    w = find_rank_one(frame, frame.full)
    if has_rank_one:
        assert _rank_xy(frame.element(w)) == 1
    else:
        assert w is None


def test_pencil_roots_are_the_rank_one_points_of_the_pencil(alg):
    ei, ej = alg(4, x=[1, 0], y=[1, 1]), alg(4, x=[0, 1])
    # ei + t ej has x = (1, t), y = (1, 1): its one minor is 1 - t
    assert _pencil_rank1_roots(ei, ej) == [1]
    # ej + t ei has x = (t, 1), y = (t, t): its one minor is t^2 - t
    assert sorted(_pencil_rank1_roots(ej, ei)) == [0, 1]
