import random
from fractions import Fraction

import pytest

from su2n import AlgebraElement, Subalgebra, anclassify, exp_closed, gallery
from su2n.anclassify import (
    Graph,
    NoCaseMatched,
    OneParam,
    Semidirect,
    SpecViolation,
    TorusLine,
    UNotNormalized,
    _GRAPH_SHAPES,
    _commutes,
    _sweep,
    classify_an,
    classify_semidirect,
    line_compatible,
    normalize_to_compatible,
)
from su2n.corpus import random_element
from su2n.elements import NotInAN, REDUCED_ROOTS, ROOTS, kernel_line, kernel_root, primitive_line
from su2n.lab import extremal_graph_curves, fit_graph_log_power
from su2n.scalars import QQi
from su2n.serialize import spec_from_json, spec_to_json
from su2n.shapes import MuShape
from su2n.weyl import conjugate, weyl_matrix

import references
from references import ad_a


def test_torus_line_naming():
    assert TorusLine.of_kernel("alpha") == TorusLine(1, 1)
    assert TorusLine.of_kernel("beta") == TorusLine(1, 0)
    assert kernel_root(2, 1) == "alpha-beta"
    assert kernel_root(5, 3) is None


def test_semidirect_cases(alg):
    r = classify_semidirect(TorusLine.of_kernel("alpha"),
                            Subalgebra([alg(3, eta=1, xx=1, yy=1)]))
    assert r.verdict == "CDS" and r.case == "semidirect-1b"
    r = classify_semidirect(TorusLine.of_kernel("2alpha+beta"),
                            Subalgebra([alg(4, y=[1, 0], xx=1)]))
    assert r.case == "semidirect-4bii" and r.shape == MuShape.curve(Fraction(3, 2))
    r = classify_semidirect(TorusLine.of_kernel("alpha+2beta"),
                            Subalgebra([alg(3, phi=1, xx=1)]))
    assert r.case == "semidirect-11c" and r.shape == MuShape.curve(2)
    r = classify_semidirect(TorusLine.of_kernel("beta"),
                            Subalgebra([alg(3, yy=1)]))
    assert r.case == "semidirect-1a" and r.shape.symbolic


def test_semidirect_errors(alg):
    with pytest.raises(UNotNormalized):
        classify_semidirect(TorusLine.of_kernel("beta"),
                            Subalgebra([alg(3, eta=1, xx=1, yy=1)]))
    # a U that is itself a CDS makes H one
    r = classify_semidirect(TorusLine.of_kernel("alpha"),
                            Subalgebra([alg(4, x=[1, 0], y=[0, 1]),
                                        alg(4, eta=1, xx=1, yy=1)]))
    assert r.verdict == "CDS" and r.case == "semidirect-cds"
    assert r.shape == MuShape.full_chamber()
    # a torus that fails to normalize is rejected before any case matching
    with pytest.raises(UNotNormalized):
        classify_semidirect(TorusLine.of_kernel("alpha+beta"),
                            Subalgebra([alg(3, eta=1, xx=1, yy=1)]))
    with pytest.raises(SpecViolation):
        classify_semidirect(TorusLine.of_kernel("alpha"),
                            Subalgebra([alg(3, t1=1)]))


@pytest.mark.parametrize("entry_id", [e.id for e in gallery.entries()
                                      if e.kind == "semidirect"])
def test_semidirect_case_is_the_same_on_every_generator_of_the_line(entry_id):
    # T x| U depends on the line T spans, not on its generator: -T and 2T
    # give the entry's case, and the zero torus spans no line
    spec = gallery.get(entry_id).spec()
    p, q = spec.torus.p, spec.torus.q
    base = classify_an(spec)
    assert base.case == gallery.get(entry_id).expected_case
    for t in (TorusLine(-p, -q), TorusLine(2 * p, 2 * q)):
        r = classify_an(Semidirect(t, spec.u))
        assert (r.verdict, r.shape, r.case, r.notes) == \
            (base.verdict, base.shape, base.case, base.notes), t
    with pytest.raises(SpecViolation):
        classify_an(Semidirect(TorusLine(0, 0), spec.u))


def test_semidirect_band_contains_unipotent_band(alg):
    # attaching a torus line can only widen the projection image
    u = Subalgebra([alg(4, x=[1, 0], yy=1), alg(4, xx=1)])
    from su2n.nilclassify import classify
    ru = classify(u)
    r = classify_semidirect(TorusLine.of_kernel("alpha-beta"), u)
    assert float(r.shape.s_lo) <= float(ru.shape.s_lo)
    assert float(r.shape.s_hi) >= float(ru.shape.s_hi)


def test_graph_cases(alg):
    r = classify_an(Graph("alpha", alg(4, phi=1),
                          Subalgebra([alg(4, x=[1, 0])])))
    assert r.case == "graph-1"
    assert r.shape == MuShape.band(1, 2, log_hi=-1)
    r = classify_an(Graph("alpha", alg(3, phi=1),
                          Subalgebra([alg(3, eta=1)])))
    assert r.case == "graph-2" and r.shape == MuShape.band(2, 2, log_lo=-2)
    r = classify_an(Graph("beta", alg(3, yy=1), Subalgebra([alg(3, eta=1)])))
    assert r.case == "graph-3" and r.r == 1
    assert r.shape == MuShape.band(1, 2, log_lo=Fraction(1, 2))
    r = classify_an(Graph("beta", alg(3, y=[1]), Subalgebra([alg(3, eta=1)])))
    assert r.case == "graph-3" and r.r == 2
    r = classify_an(Graph("beta", alg(4, yy=1), Subalgebra([alg(4, x=[1, 0])])))
    assert r.case == "graph-4" and r.shape == MuShape.band(1, 1, log_hi=1)


def test_graph_rows_are_the_shapes_of_their_reference():
    # r is 1 only for omega = beta, and always 2 for omega = alpha
    assert set(_GRAPH_SHAPES) == {(omega, sigma, r)
                                  for omega, sigma in references.GRAPH_SHAPES
                                  for r in ((1, 2) if omega == "beta" else (2,))}
    for (omega, sigma, r), shape in _GRAPH_SHAPES.items():
        want = references.GRAPH_SHAPES[omega, sigma](r)
        assert (shape, shape.provenance) == (want, want.provenance)


def test_classify_an_frames_each_subalgebra_once(alg, monkeypatch):
    from su2n import nilclassify

    framed = []
    init = nilclassify._Frame.__init__
    monkeypatch.setattr(nilclassify._Frame, "__init__",
                        lambda frame, h: framed.append(h) or init(frame, h))
    # a semidirect U and a graph U with a template: every route reads one frame
    for entry_id in ("semi02-n4", "graph01-n4"):
        spec = gallery.get(entry_id).spec()
        framed.clear()
        classify_an(spec)
        assert len(framed) == 1 and framed[0] is spec.u, entry_id
    # a graph with omega not simple is decided on root names: U alone is framed
    spec = Graph("alpha+2beta", alg(3, eta=1), Subalgebra([alg(3, phi=1)]))
    framed.clear()
    classify_an(spec)
    assert len(framed) == 1 and framed[0] is spec.u


def test_classify_an_reads_the_case_list_once(monkeypatch):
    from su2n import nilclassify

    scans = []

    class CountedCases(list):
        def __iter__(self):
            scans.append(1)
            return super().__iter__()

    monkeypatch.setattr(nilclassify, "SEMIDIRECT_CASES",
                        CountedCases(nilclassify.SEMIDIRECT_CASES))
    semidirect = [e for e in gallery.entries() if e.kind == "semidirect"]
    assert semidirect
    for entry in semidirect:
        scans.clear()
        r = classify_an(entry.spec())
        # the row classify found for N_A(U) is the row of T x| U
        assert len(scans) == (0 if r.nil_result.is_cds else 1), entry.id


def test_graph_cds_when_u_meets_omega(alg):
    r = classify_an(Graph("beta", alg(3, yy=1), Subalgebra([alg(3, y=[1])])))
    assert r.verdict == "CDS"


def test_one_param(alg):
    r = classify_an(OneParam(alg(3, t1=1, t2=1, phi=1)))
    assert r.shape.kind == "ray" and r.shape.symbolic
    with pytest.raises(SpecViolation):
        classify_an(OneParam(alg(3, t1=1)))
    with pytest.raises(SpecViolation):
        classify_an(OneParam(alg(3, phi=1)))
    # incompatible: phi is not killed by the torus line (1, 0), and the
    # conjugate is the bare torus line
    with pytest.raises(SpecViolation, match="H = H ∩ A"):
        classify_an(OneParam(alg(3, t1=1, t2=0, phi=1)))


def test_normalize_roundtrip(alg):
    X = alg(3, t1=1, t2=1, phi=1)
    U = [alg(3, eta=1)]
    g0 = exp_closed(alg(3, y=[QQi(1, 1)], xx=2, yy=Fraction(1, 2)))
    basis = [conjugate(g0, X)] + [conjugate(g0, u) for u in U]
    spec = normalize_to_compatible(basis)
    assert isinstance(spec, Graph) and spec.omega == "alpha"
    r1 = classify_an(spec)
    r2 = classify_an(Graph("alpha", alg(3, phi=1), Subalgebra(U)))
    assert r1.shape == r2.shape and r1.case == r2.case


def test_normalize_semidirect_and_oneparam(alg):
    spec = normalize_to_compatible([alg(3, t1=2, t2=1), alg(3, yy=1)])
    assert isinstance(spec, Semidirect) and spec.torus == TorusLine(2, 1)
    g0 = exp_closed(alg(3, x=[1], eta=QQi(0, 2)))
    spec = normalize_to_compatible([conjugate(g0, alg(3, t1=1, t2=1, phi=2))])
    assert isinstance(spec, OneParam)
    assert spec.x.nilpotent_part().root_component("alpha").phi == QQi(2)
    assert normalize_to_compatible([alg(3, t1=1), alg(3, t2=1)]) == "full-torus"


def test_normalize_rejects_an_empty_basis():
    with pytest.raises(SpecViolation, match="empty basis"):
        normalize_to_compatible([])


def _height(root):
    """The height of a root: ROOTS holds it as a functional (c1, c2) on
    (t1, t2), and alpha = (1, -1), beta = (0, 1), so its alpha and beta
    coefficients are c1 and c1 + c2."""
    c1, c2 = ROOTS[root]
    return c1 + (c1 + c2)


def test_roots_run_in_height_order():
    assert [_height(nm) for nm in ROOTS] == [1, 1, 2, 2, 3, 4]


def test_each_nonzero_line_is_killed_by_at_most_one_reduced_root():
    # so the omega that normalize_to_compatible picks is the only one; a
    # double root kills the lines its half kills
    lines = [kernel_line(nm) for nm in REDUCED_ROOTS]
    assert len(set(lines)) == len(lines)
    assert kernel_line("2beta") == kernel_line("beta")
    assert kernel_line("2alpha+2beta") == kernel_line("alpha+beta")


def _random_nilpotent(n, rng, coeff):
    """An element of n whose slots are each nonzero with probability 1/2,
    with integer parts in [-coeff, coeff]."""
    def c():
        return rng.randint(-coeff, coeff)
    kw = {}
    for slot in ("phi", "x", "y", "eta", "xx", "yy"):
        if rng.random() < 0.5:
            kw[slot] = (c() if slot in ("xx", "yy") else QQi(c(), c()) if slot in ("phi", "eta")
                        else [QQi(c(), c()) for _ in range(n - 2)])
    return AlgebraElement(n, **kw)


def test_one_pass_sweep_equals_the_sweep_until_commuting(monkeypatch):
    """One pass over the roots in height order leaves X compatible, with at
    most one exponential per root, and gives the (X, U) that repeated
    passes give, on random lines X = T + N through every special line."""
    rng = random.Random(0)
    us = {}
    for e in gallery.entries():
        spec = e.spec()
        if isinstance(spec, (Semidirect, Graph)):
            us.setdefault(spec.n, []).append(spec.u.basis)
    exps = []
    monkeypatch.setattr(anclassify, "exp_closed", lambda y: exps.append(y) or exp_closed(y))
    lines = set()
    for _ in range(1000):
        n = rng.randint(3, 5)
        t1, t2 = rng.randint(-4, 4), rng.randint(-4, 4)
        X = AlgebraElement(n, t1=t1, t2=t2) + _random_nilpotent(n, rng, 5)
        # the gallery's U, conjugated; at n = 5, which it lacks, one element
        g0 = exp_closed(_random_nilpotent(n, rng, 2))
        U = [conjugate(g0, b) for b in (rng.choice(us[n]) if n in us
                                        else [_random_nilpotent(n, rng, 5)])]
        exps.clear()
        got = _sweep(X, U)
        assert got == references.sweep_until_commuting(X, U)
        assert _commutes(got[0])
        roots = [[nm for nm in ROOTS if not y.root_component(nm).is_zero()] for y in exps]
        assert all(len(r) == 1 for r in roots)
        assert len({r[0] for r in roots}) == len(roots)
        if t1 or t2:
            lines.add(primitive_line(t1, t2))
    # the kernels of alpha, beta, alpha+beta, alpha+2beta, alpha-beta, 2alpha+beta
    assert {(1, 1), (1, 0), (0, 1), (1, -1), (2, 1), (1, 2)} <= lines


def test_line_compatible_conjugates_only_non_commuting_lines(alg):
    spec = OneParam(alg(3, t1=1, t2=1, phi=1))
    assert line_compatible(spec) is spec
    # phi is not killed by the torus line (1, 0): it conjugates away
    assert line_compatible(OneParam(alg(3, t1=1, phi=1))) == OneParam(alg(3, t1=1))
    spec = Graph("alpha", alg(4, y=[1, 0]), Subalgebra([alg(4, x=[1, 0])]))
    out = line_compatible(spec)
    assert isinstance(out, Semidirect) and out.torus == TorusLine(1, 1)


def test_classify_an_reads_a_degenerate_graph_as_its_subgroup(alg):
    # psi inside U (psi = 0 included), or psi in a: H is a semidirect product
    # of U with the line of T + psi
    for psi, u, line in [(alg(3, phi=1), alg(3, phi=1), TorusLine(1, 1)),
                         (alg(3), alg(3, phi=1), TorusLine(1, 1)),
                         (alg(3, t1=1), alg(3, eta=1), TorusLine(2, 1))]:
        u = Subalgebra([u])
        want = classify_semidirect(line, u)
        r = classify_an(Graph("alpha", psi, u))
        assert (r.verdict, r.shape, r.case) == (want.verdict, want.shape, want.case)
        assert f"semidirect on the torus line ({line.p}, {line.q})" in r.notes
    # a compatible line that does not normalize U: [T + y, phi] = phi - x
    with pytest.raises(UNotNormalized):
        classify_an(Graph("beta", alg(3, y=[1]), Subalgebra([alg(3, phi=1)])))


def test_classify_an_dispatch(alg):
    r = classify_an(Semidirect(TorusLine.of_kernel("alpha"),
                               Subalgebra([alg(3, eta=1, xx=1, yy=1)])))
    assert r.verdict == "CDS"
    r = classify_an(OneParam(alg(3, t1=1, t2=1, phi=1)))
    assert r.case == "oneparam"


def test_graph_shape_invariant_under_reflection(alg):
    # an omega = alpha+2beta presentation reflects (via the beta reflection)
    # onto an omega = alpha one; the classified shapes agree
    direct = classify_an(Graph("alpha", alg(3, phi=1),
                               Subalgebra([alg(3, eta=1)])))
    reflected = classify_an(Graph("alpha+2beta", alg(3, eta=1),
                                  Subalgebra([alg(3, phi=1)])))
    assert direct.shape == reflected.shape and direct.case == reflected.case


def _weyl_reflected(spec):
    """The graph spec of w H w^-1 for the simple reflection w that sends a
    simple omega to a non-simple root, by exact conjugation of psi and of
    U's basis, or None when it leaves a+n."""
    root = {"alpha": "beta", "beta": "alpha"}[spec.omega]
    c1, c2 = ROOTS[spec.omega]
    image = (c2, c1) if root == "alpha" else (c1, -c2)
    w = weyl_matrix(spec.n, root)
    try:
        return Graph(next(nm for nm, v in ROOTS.items() if v == image),
                     conjugate(w, spec.psi_value),
                     Subalgebra([conjugate(w, b) for b in spec.u.basis]))
    except NotInAN:
        return None


def _reflection_cases():
    for e in gallery.entries():
        if e.kind == "graph" and _weyl_reflected(e.spec()) is not None:
            yield pytest.param(e.id, id=e.id)


@pytest.mark.parametrize("entry_id", _reflection_cases())
def test_graph_invariant_under_weyl_reflection(entry_id):
    spec = gallery.get(entry_id).spec()
    moved = _weyl_reflected(spec)
    assert moved.omega in ("alpha+beta", "alpha+2beta")
    want, got = classify_an(spec), classify_an(moved)
    assert ((got.verdict, got.shape, got.case, got.r)
            == (want.verdict, want.shape, want.case, want.r))
    tags = [tag for tag, _ in extremal_graph_curves(spec)]
    assert [tag for tag, _ in extremal_graph_curves(moved)] == tags
    if want.verdict == "NotCDS":
        assert fit_graph_log_power(moved) == pytest.approx(
            fit_graph_log_power(spec), rel=1e-9, abs=1e-12)


def _e1(n):
    return [1] + [0] * (n - 3)


CONJUGATORS = {
    "phi": lambda n: AlgebraElement(n, phi=1),
    "y": lambda n: AlgebraElement(n, y=_e1(n)),
    "x-eta": lambda n: AlgebraElement(n, x=_e1(n), eta=2),
}


def _conjugated(spec, g):
    """The spec of g H g^-1 in the presentation of spec."""
    if isinstance(spec, OneParam):
        return OneParam(conjugate(g, spec.x))
    t = spec.torus().element(spec.n)
    return Graph(spec.omega, conjugate(g, t + spec.psi_value) - t,
                 Subalgebra([conjugate(g, b) for b in spec.u.basis]))


def _conjugation_cases():
    for e in gallery.entries():
        if e.kind not in ("graph", "oneparam"):
            continue
        for name in CONJUGATORS:
            marks = ()
            if (e.id, name) == ("graph04-r1-n4", "y"):
                # exp(y) keeps the line compatible but sends U = <x> to
                # <x + eta>, which no single root pair holds
                marks = pytest.mark.xfail(strict=True, raises=NoCaseMatched)
            yield pytest.param(e.id, name, marks=marks, id=f"{e.id}-{name}")


@pytest.mark.parametrize("entry_id, conjugator", _conjugation_cases())
def test_classify_an_invariant_under_exact_conjugation(entry_id, conjugator):
    spec = gallery.get(entry_id).spec()
    g = exp_closed(CONJUGATORS[conjugator](spec.n))
    moved = spec_from_json(spec_to_json(_conjugated(spec, g)))
    want, got = classify_an(spec), classify_an(moved)
    assert (got.verdict, got.shape, got.case) == (want.verdict, want.shape, want.case)


def test_commutes_equals_the_ad_a_reference():
    """_commutes(X), read off the int bracket [a-part of X, X], is the
    vanishing of ad_a at the a-part of X on X: on torus points in the kernel
    of a root, with X on that root's slot or on random slots, and on random
    torus points."""
    rng = random.Random(7)
    seen = set()
    for k in range(300):
        n, root = rng.randint(3, 6), rng.choice(list(ROOTS))
        t1, t2 = (kernel_line(root) if k % 3 else
                  (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-4, 4)))
        w = random_element(n, rng)
        if k % 2:
            w = w.root_component(root)
        X = AlgebraElement(n, t1=t1, t2=t2) + w
        want = ad_a(X.t1, X.t2, X).is_zero()
        assert _commutes(X) == want, X
        seen.add(want)
    assert seen == {True, False}
