import random
from fractions import Fraction

import pytest

from su2n import (
    AlgebraElement,
    NotClosed,
    NotInAN,
    Subalgebra,
    bracket,
    close_under_bracket,
    conjugate,
    exp_closed,
    weyl_matrix,
    weyl_reflect,
)
from su2n.corpus import random_element
from su2n.nilclassify import _Frame
from su2n.scalars import QQi
from su2n.subalgebra import NotIndependent


def test_weyl_matrices_are_group_elements():
    for n in (3, 4, 5):
        for root in ("alpha", "beta"):
            w = weyl_matrix(n, root)
            ok, why = w.check_invariants()
            assert ok, (root, why)


def test_alpha_reflection_swaps_beta_pair(alg):
    r = weyl_reflect(alg(4, y=[1, 0]), "alpha")
    assert list(r.x) == [QQi(1), QQi(0)] and not any(r.y)
    r = weyl_reflect(alg(4, yy=Fraction(3)), "alpha")
    assert r.xx == 3 and r.yy == 0
    r = weyl_reflect(alg(4, t1=1, t2=2), "alpha")
    assert (r.t1, r.t2) == (2, 1)


def test_alpha_reflection_is_involution_on_slots(alg):
    u = alg(4, x=[1, QQi(0, 2)], y=[QQi(2, 1), 0], eta=QQi(1, 1), xx=2, yy=-3)
    r2 = weyl_reflect(weyl_reflect(u, "alpha"), "alpha")
    assert r2 == u


def test_alpha_reflection_rejects_phi(alg):
    with pytest.raises(NotInAN):
        weyl_reflect(alg(3, phi=1), "alpha")


def test_beta_reflection_swaps_alpha_tower(alg):
    r = weyl_reflect(alg(3, phi=QQi(2, 1)), "beta")
    assert not r.phi and r.eta  # phi lands in the eta slot
    # squaring gives the identity up to the sign convention of the matrix
    r2 = weyl_reflect(r, "beta")
    assert r2.phi in (QQi(2, 1), QQi(-2, -1)) and not r2.eta
    with pytest.raises(NotInAN):
        weyl_reflect(alg(3, y=[1]), "beta")


def test_conjugation_preserves_central_part(alg):
    # Ad by exponentials of the phi slot fixes the central slots setwise
    rng = random.Random(11)
    for _ in range(20):
        z = AlgebraElement(4, eta=QQi(rng.randint(-3, 3), rng.randint(-3, 3)),
                           xx=rng.randint(-3, 3), yy=rng.randint(-3, 3))
        g = exp_closed(alg(4, phi=QQi(rng.randint(-2, 2), rng.randint(-2, 2))))
        w = conjugate(g, z)
        assert not w.phi and not any(w.x) and not any(w.y)


def test_conjugation_respects_bracket():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.choice([3, 4])
        u, v = random_element(n, rng), random_element(n, rng)
        g = exp_closed(random_element(n, rng, max_slots=2))
        lhs = conjugate(g, bracket(u, v))
        rhs = bracket(conjugate(g, u), conjugate(g, v))
        assert lhs == rhs


def test_subalgebra_validation(alg):
    Subalgebra([alg(3, phi=1)])  # abelian line is fine
    with pytest.raises(NotClosed) as exc:
        Subalgebra([alg(4, phi=1), alg(4, y=[1, 0])])
    assert exc.value.pair == (0, 1)
    with pytest.raises(NotIndependent):
        Subalgebra([alg(3, phi=1), alg(3, phi=2)])


def test_close_under_bracket(alg):
    h = close_under_bracket([alg(4, phi=1), alg(4, y=[1, 0])])
    # needs x and eta directions: phi.y -> x, then [x-ish, y] -> eta
    assert h.dim == 4
    assert h.contains(alg(4, x=[1, 0]))
    assert h.contains(alg(4, eta=1))


def test_z_part(alg):
    h = Subalgebra([alg(4, x=[1, 0], y=[0, 1]), alg(4, eta=1, xx=1, yy=1)])
    (z,) = _Frame(h, random.Random(0)).z_rows
    assert z == alg(4, eta=1, xx=1, yy=1).coords()
    h2 = Subalgebra([alg(3, phi=1)])
    assert _Frame(h2, random.Random(0)).z_rows == []


def test_element_and_contains(alg):
    h = Subalgebra([alg(3, phi=1), alg(3, xx=1)])
    e = h.element([Fraction(2), Fraction(-1)])
    assert e.phi == QQi(2) and e.xx == -1
    assert h.contains(e)
    assert not h.contains(alg(3, yy=1))


def _coefficient_vectors(d, rng):
    """Zero, unit, negative and non-integer Fraction coefficient vectors."""
    vecs = [[Fraction(0)] * d, [Fraction(-1)] * d,
            [Fraction(1) if i == d - 1 else Fraction(0) for i in range(d)]]
    for _ in range(4):
        vecs.append([Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(d)])
    return vecs


def _written_sum(h, coeffs):
    out = AlgebraElement(h.n)
    for c, b in zip(coeffs, h.basis):
        out = out + b.scale(c)
    return out


def test_element_equals_scaled_sum_of_basis(alg):
    from su2n import gallery

    rng = random.Random(11)
    subs = [e.spec() for e in gallery.entries() if e.kind == "nil"]
    an = close_under_bracket([alg(3, t1=1, t2=Fraction(1, 2), yy=3),
                              alg(3, phi=QQi(1, 2))])
    assert any(b.t1 or b.t2 for b in an.basis)
    subs.append(an)
    for h in subs:
        for coeffs in _coefficient_vectors(h.dim, rng):
            assert h.element(coeffs) == _written_sum(h, coeffs), (h, coeffs)


def test_from_coords_inverts_coords(alg):
    rng = random.Random(5)
    for n in (3, 4, 6):
        u = random_element(n, rng, max_slots=6) + alg(n, t1=Fraction(2, 3), t2=-1)
        back = AlgebraElement.from_coords(n, u.coords())
        assert back == u
        assert len(u.coords()) == AlgebraElement.coord_dim(n)
