from fractions import Fraction

import pytest

from su2n import AlgebraElement, Subalgebra, exp_closed
from su2n.anclassify import (
    Graph,
    NoCaseMatched,
    OneParam,
    Semidirect,
    SpecViolation,
    TorusLine,
    UIsCds,
    UNotNormalized,
    classify_an,
    classify_graph,
    classify_semidirect,
    is_compatible,
    is_compatible_basis,
    normalize_to_compatible,
    one_param_shape,
)
from su2n.scalars import QQi
from su2n.shapes import MuShape
from su2n.weyl import conjugate


def test_torus_line_naming():
    assert TorusLine.of_kernel("alpha") == TorusLine(1, 1)
    assert TorusLine.of_kernel("beta") == TorusLine(1, 0)
    assert TorusLine(2, 1).root_name() == "alpha-beta"
    assert TorusLine(5, 3).root_name() is None


def test_is_compatible(alg):
    spec = Semidirect(TorusLine.of_kernel("alpha"),
                      Subalgebra([alg(3, eta=1, xx=1, yy=1)]))
    assert is_compatible(spec)
    spec = Graph("alpha", alg(4, phi=1), Subalgebra([alg(4, x=[1, 0])]))
    assert is_compatible(spec)
    # psi outside its root pair is rejected
    bad = Graph("alpha", alg(4, y=[1, 0]), Subalgebra([alg(4, x=[1, 0])]))
    assert not is_compatible(bad)
    assert is_compatible(OneParam(alg(3, t1=1, t2=1, phi=1)))
    assert not is_compatible(OneParam(alg(3, t1=1, t2=0, phi=1)))


def test_is_compatible_basis(alg):
    # torus line plus a centralized slot: compatible as given
    assert is_compatible_basis([alg(3, t1=1, t2=1, phi=1), alg(3, eta=1)])
    # mixed non-centralized tail on the torus element: not in the normal form
    assert not is_compatible_basis([alg(3, t1=1, t2=0, phi=1, y=[1])])


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
    with pytest.raises(UIsCds):
        classify_semidirect(TorusLine.of_kernel("alpha"),
                            Subalgebra([alg(4, x=[1, 0], y=[0, 1]),
                                        alg(4, eta=1, xx=1, yy=1)]))
    # a torus that fails to normalize is rejected before any case matching
    # (for normalizing tori the required kernel is the full normalizer, so
    # NoCaseMatched only flags internal disagreement)
    with pytest.raises(UNotNormalized):
        classify_semidirect(TorusLine.of_kernel("alpha+beta"),
                            Subalgebra([alg(3, eta=1, xx=1, yy=1)]))
    with pytest.raises(SpecViolation):
        classify_semidirect(TorusLine.of_kernel("alpha"),
                            Subalgebra([alg(3, t1=1)]))


def test_semidirect_band_contains_unipotent_band(alg):
    # attaching a torus line can only widen the projection image
    u = Subalgebra([alg(4, x=[1, 0], yy=1), alg(4, xx=1)])
    from su2n.nilclassify import classify
    ru = classify(u)
    r = classify_semidirect(TorusLine.of_kernel("alpha-beta"), u)
    assert float(r.shape.s_lo) <= float(ru.shape.s_lo)
    assert float(r.shape.s_hi) >= float(ru.shape.s_hi)


def test_graph_cases(alg):
    r = classify_graph(Graph("alpha", alg(4, phi=1),
                             Subalgebra([alg(4, x=[1, 0])])))
    assert r.case == "graph-1"
    assert r.shape == MuShape.band(1, 2, log_hi=-1)
    r = classify_graph(Graph("alpha", alg(3, phi=1),
                             Subalgebra([alg(3, eta=1)])))
    assert r.case == "graph-2" and r.shape == MuShape.band(2, 2, log_lo=-2)
    r = classify_graph(Graph("beta", alg(3, yy=1), Subalgebra([alg(3, eta=1)])))
    assert r.case == "graph-3" and r.r == 1
    assert r.shape == MuShape.band(1, 2, log_lo=Fraction(1, 2))
    r = classify_graph(Graph("beta", alg(3, y=[1]), Subalgebra([alg(3, eta=1)])))
    assert r.case == "graph-3" and r.r == 2
    r = classify_graph(Graph("beta", alg(4, yy=1), Subalgebra([alg(4, x=[1, 0])])))
    assert r.case == "graph-4" and r.shape == MuShape.band(1, 1, log_hi=1)


def test_graph_cds_when_u_meets_omega(alg):
    r = classify_graph(Graph("beta", alg(3, yy=1), Subalgebra([alg(3, y=[1])])))
    assert r.verdict == "CDS"


def test_graph_reflection_reduction(alg):
    # omega = alpha+2beta reflects through beta to the alpha cases
    g = Graph("alpha+2beta", alg(3, eta=1), Subalgebra([alg(3, phi=1)]))
    r = classify_graph(g)
    assert r.verdict in ("CDS", "NotCDS")


def test_one_param(alg):
    r = one_param_shape(OneParam(alg(3, t1=1, t2=1, phi=1)))
    assert r.shape.kind == "ray" and r.shape.symbolic
    with pytest.raises(SpecViolation):
        one_param_shape(OneParam(alg(3, t1=1)))
    with pytest.raises(SpecViolation):
        one_param_shape(OneParam(alg(3, phi=1)))
    with pytest.raises(SpecViolation):
        one_param_shape(OneParam(alg(3, t1=1, t2=0, phi=1)))  # incompatible


def test_normalize_roundtrip(alg):
    X = alg(3, t1=1, t2=1, phi=1)
    U = [alg(3, eta=1)]
    g0 = exp_closed(alg(3, y=[QQi(1, 1)], xx=2, yy=Fraction(1, 2)))
    basis = [conjugate(g0, X)] + [conjugate(g0, u) for u in U]
    spec = normalize_to_compatible(basis)
    assert isinstance(spec, Graph) and spec.omega == "alpha"
    r1 = classify_graph(spec)
    r2 = classify_graph(Graph("alpha", alg(3, phi=1), Subalgebra(U)))
    assert r1.shape == r2.shape and r1.case == r2.case


def test_normalize_semidirect_and_oneparam(alg):
    spec = normalize_to_compatible([alg(3, t1=2, t2=1), alg(3, yy=1)])
    assert isinstance(spec, Semidirect) and spec.torus == TorusLine(2, 1)
    g0 = exp_closed(alg(3, x=[1], eta=QQi(0, 2)))
    spec = normalize_to_compatible([conjugate(g0, alg(3, t1=1, t2=1, phi=2))])
    assert isinstance(spec, OneParam)
    assert spec.x.nilpotent_part().root_component("alpha").phi == QQi(2)
    assert normalize_to_compatible([alg(3, t1=1), alg(3, t2=1)]) == "full-torus"


def test_classify_an_dispatch(alg):
    r = classify_an(Semidirect(TorusLine.of_kernel("alpha"),
                               Subalgebra([alg(3, eta=1, xx=1, yy=1)])))
    assert r.verdict == "CDS"
    r = classify_an(OneParam(alg(3, t1=1, t2=1, phi=1)))
    assert r.case == "oneparam"


def test_graph_shape_invariant_under_reflection(alg):
    # an omega = alpha+2beta presentation reflects (via the beta reflection)
    # onto an omega = alpha one; the classified shapes agree
    direct = classify_graph(Graph("alpha", alg(3, phi=1),
                                  Subalgebra([alg(3, eta=1)])))
    reflected = classify_graph(Graph("alpha+2beta", alg(3, eta=1),
                                     Subalgebra([alg(3, phi=1)])))
    assert direct.shape == reflected.shape and direct.case == reflected.case

