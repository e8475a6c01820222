import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su2n import elements, linalg
from su2n import (
    AlgebraElement,
    GroupElement,
    bracket,
    delta,
    delta_formula,
    element_from_matrix,
    exp_closed,
    exp_series,
    form_value,
    gram_matrix,
    matrix_of,
)
from su2n.corpus import random_element
from su2n.elements import NotInAN, ROOT_SLOT, ROOTS, root_value
from su2n.lab import exp_float
from su2n.scalars import ZERO, QQi, abs2, conj, herm, im, re
from su2n.weyl import weyl_matrix

from references import (
    ad_a,
    dense_product,
    reference_matrix_of,
    row_a_part,
    row_bracket,
    row_nilpotent_part,
    row_root_component,
    row_scale,
    row_sum,
    row_views,
)


def _random_scaled_element(n, rng):
    """A random element of a+n, its row scaled by a random rational and, half
    of the time, an a-part added."""
    u = random_element(n, rng, max_slots=6).scale(
        Fraction(rng.randint(-9, 9), rng.choice([1, 2, 7, 89])))
    if rng.random() < 0.5:
        u = u + AlgebraElement(n, t1=Fraction(rng.randint(-5, 5), 3),
                               t2=Fraction(rng.randint(-5, 5), 7))
    return u


def test_matrix_of_reads_each_part_off_the_row():
    """matrix_of against the reference that reads each part of the display
    off coords(): equal entries, reprs, entry and part types, and ZERO for
    every zero entry."""
    rng = random.Random(21)
    for n in (3, 4, 6):
        for _ in range(40):
            u = _random_scaled_element(n, rng)
            want = reference_matrix_of(u)
            got = matrix_of(u)
            assert got == want and repr(got) == repr(want)
            for got_row, want_row in zip(got, want):
                for a, b in zip(got_row, want_row):
                    assert (a is ZERO) == (b is ZERO)
                    assert (type(a), type(a.re), type(a.im)) == (QQi, Fraction, Fraction)


def _fractions_built(monkeypatch, f):
    """(f(), the number of Fractions built while f ran)."""
    built, new = [0], Fraction.__new__

    def spy(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(Fraction, "__new__", spy)
        out = f()
    return out, built[0]


def _nonzero_numerators(M, den):
    """The distinct nonzero numerators over den of the parts of a QQi matrix."""
    return {p * den for row in M for z in row for p in (z.re, z.im)} - {0}


def test_matrix_views_build_one_fraction_per_distinct_numerator(monkeypatch):
    """matrix_of(u) and the first read of g.mat build at most one Fraction per
    distinct nonzero numerator, plus one for zero: an element whose
    coordinates repeat one value needs two, 1 and -1."""
    rng = random.Random(5)
    for n in (3, 4, 6):
        d = n - 2
        ones = AlgebraElement(n, phi=QQi(1, 1), x=[QQi(1, 1)] * d, y=[QQi(1, 1)] * d,
                              eta=QQi(1, 1), xx=1, yy=1)
        for u in [ones, ones.scale(Fraction(3, 7))] + [_random_scaled_element(n, rng)
                                                      for _ in range(20)]:
            want = _nonzero_numerators(reference_matrix_of(u), u.den)
            M, built = _fractions_built(monkeypatch, lambda: matrix_of(u))
            assert M == reference_matrix_of(u) and built <= len(want) + 1
            if u is ones:
                assert built <= 2
            if not u.is_nilpotent():
                continue
            for g in (exp_closed(u), exp_series(u), exp_series(u) @ exp_closed(ones)):
                want = {p for row in g.rows for _, r, i in row for p in (r, i)} - {0}
                M, built = _fractions_built(monkeypatch, lambda: g.mat)
                assert built <= len(want) + 1
                assert _fractions_built(monkeypatch, lambda: g.mat) == (M, 0)


def test_group_element_of_a_view_holds_the_rows_of_the_view():
    """GroupElement(n, g.mat) reads back exactly (g.rows, g.den) for the
    exponentials, their products and inverses, and the points of A; so does
    GroupElement(n, M) for the same matrix M with each zero a new QQi(0)."""
    rng = random.Random(8)
    for n in (3, 4, 6):
        for _ in range(15):
            u, v = (random_element(n, rng, max_slots=6).scale(
                Fraction(rng.randint(1, 9), rng.choice([1, 2, 7, 89]))) for _ in "uv")
            a1, a2 = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))
            g, h, a = exp_closed(u), exp_series(v), GroupElement.diagonal(n, a1, a2)
            for x in (g, h, a, g @ h, h @ a @ g, g.inverse(), (a @ h).inverse(),
                      GroupElement.identity(n)):
                y = GroupElement(n, x.mat)
                assert (y.rows, y.den) == (x.rows, x.den)
                y = GroupElement(n, [[QQi(z.re, z.im) for z in row] for row in x.mat])
                assert (y.rows, y.den) == (x.rows, x.den)


def test_matrix_of_zero_is_zero(alg):
    M = matrix_of(alg(3))
    assert all(M[i][j] == QQi(0) for i in range(5) for j in range(5))


def test_matrix_of_phi_pattern_n3(alg):
    # phi sits at (1,2) with its negated conjugate at (n+1, n+2)
    M = matrix_of(alg(3, phi=1))
    assert M[0][1] == QQi(1)
    assert M[3][4] == QQi(-1)
    nz = [(i, j) for i in range(5) for j in range(5) if M[i][j]]
    assert nz == [(0, 1), (3, 4)]


def test_matrix_of_eta_pattern_n4(alg):
    M = matrix_of(alg(4, eta=QQi(0, 1)))
    assert M[0][4] == QQi(0, 1)
    assert M[1][5] == -QQi(0, -1)  # -conj(i) = i
    nz = [(i, j) for i in range(6) for j in range(6) if M[i][j]]
    assert nz == [(0, 4), (1, 5)]


def test_first_two_rows_determine_matrix(alg):
    u = alg(4, t1=2, t2=-1, phi=QQi(1, 1), x=[1, QQi(0, 2)], y=[3, QQi(1, -1)],
            eta=QQi(2, 5), xx=7, yy=-2)
    M = matrix_of(u)
    back = element_from_matrix(M, 4)
    assert back == u


def test_element_from_matrix_rejects_pattern_breaks(alg):
    M = matrix_of(alg(3, phi=1))
    M[3][4] = QQi(5)  # breaks the conjugate-pair constraint
    with pytest.raises(NotInAN):
        element_from_matrix(M, 3)


def test_bracket_spec_examples(alg):
    u = alg(4, phi=1)
    v = alg(4, y=[1, 0])
    w = bracket(u, v)
    assert list(w.x) == [QQi(1), QQi(0)]
    assert w.is_nilpotent() and not w.eta and not w.xx and not w.yy
    w2 = bracket(w, v)
    assert w2.eta == QQi(-1)
    assert all(not c for c in w2.coords() if c != w2.eta) or True
    assert bracket(u, u).is_zero()


def test_bracket_antisymmetry_bilinearity(alg):
    rng = random.Random(5)
    for _ in range(50):
        n = rng.choice([3, 4])
        u, v = random_element(n, rng), random_element(n, rng)
        assert (bracket(u, v) + bracket(v, u)).is_zero()
        w = random_element(n, rng)
        lhs = bracket(u + v, w)
        rhs = bracket(u, w) + bracket(v, w)
        assert lhs == rhs


def test_bracket_matches_commutator_with_a_parts(alg):
    rng = random.Random(6)
    for _ in range(30):
        n = rng.choice([3, 4, 5])
        u = random_element(n, rng) + AlgebraElement(n, t1=Fraction(rng.randint(-2, 2)),
                                                    t2=Fraction(rng.randint(-2, 2)))
        v = random_element(n, rng) + AlgebraElement(n, t1=Fraction(rng.randint(-2, 2)))
        m = n + 2
        gu, gv = GroupElement(n, matrix_of(u)), GroupElement(n, matrix_of(v))
        comm = [[a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip((gu @ gv).mat, (gv @ gu).mat)]
        Mb = matrix_of(bracket(u, v))
        assert all(comm[i][j] == Mb[i][j] for i in range(m) for j in range(m))


def _slot_bracket(u, v):
    """[u, v] by the slot formula over QQi: the reference for `bracket`."""
    def phi_times(phi, c):
        return phi * c if phi else QQi(0)
    x_slot = [phi_times(u.phi, yv) - phi_times(v.phi, yu) for yu, yv in zip(u.y, v.y)]
    eta_slot = (-herm(u.x, v.y) + herm(v.x, u.y)
                + QQi(0, 1) * (phi_times(u.phi, v.yy) - phi_times(v.phi, u.yy)))
    yy_slot = -2 * im(herm(u.y, v.y))
    xx_slot = -2 * im(herm(u.x, v.x) + phi_times(u.phi, conj(v.eta))
                      - phi_times(v.phi, conj(u.eta)))
    out = AlgebraElement(u.n, x=x_slot, eta=eta_slot, xx=xx_slot, yy=yy_slot)
    return out + ad_a(u.t1, u.t2, v.nilpotent_part()) - ad_a(v.t1, v.t2, u.nilpotent_part())


def _random_pair(rng):
    """Two elements for n in 3..8: an a-part on either side or none, a
    factor scaled by p/q, or the zero element."""
    n = rng.randint(3, 8)
    u = random_element(n, rng, max_slots=6)
    v = random_element(n, rng, max_slots=6)
    a_part = lambda: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 7, 89]))
    kind = rng.choice(["plain", "a_u", "a_v", "a_both", "scaled", "zero"])
    if kind in ("a_u", "a_both"):
        u = u + AlgebraElement(n, t1=a_part(), t2=a_part())
    if kind in ("a_v", "a_both"):
        v = v + AlgebraElement(n, t1=a_part(), t2=a_part())
    if kind == "scaled":
        u = u.scale(Fraction(rng.randint(-20, 20), rng.choice([3, 97])))
        v = v.scale(Fraction(rng.randint(1, 20), rng.choice([5, 89])))
    if kind == "zero":
        u = AlgebraElement(n)
    return (v, u) if rng.random() < 0.5 else (u, v)


def test_bracket_equals_the_slot_formula():
    rng = random.Random(13)
    seen = set()
    for _ in range(300):
        u, v = _random_pair(rng)
        seen.add(u.n)
        w = bracket(u, v)
        assert w == _slot_bracket(u, v)
        assert all(type(c) is Fraction for c in w.coords())
    assert seen == set(range(3, 9))


def test_the_kept_int_row_is_int_row_of_the_coordinates():
    rng = random.Random(15)
    for _ in range(100):
        u, v = _random_pair(rng)
        fresh = AlgebraElement.from_coords(u.n, u.coords())
        assert (list(u.ints), u.den) == linalg.int_row(u.coords()) and type(u.ints) is tuple
        # the bracket before its division: ints over du * dv
        ints, den = elements.int_bracket(u, v)
        assert den == u.den * v.den
        assert [Fraction(a, den) for a in ints] == bracket(u, v).coords()
        # an element read back from its coordinates has the same fields
        assert (fresh.ints, fresh.den) == (u.ints, u.den)
        assert u == fresh and fresh == u and hash(u) == hash(fresh)
        assert bracket(u, v) == bracket(fresh, v)


SLOTS = ("t1", "t2", "phi", "x", "y", "eta", "xx", "yy")
SLOT_ROOT = {slot: root for root, slot in ROOT_SLOT.items()}


def _exact(v, real):
    """What the constructor makes of one entry: a Fraction for a real slot,
    else a QQi; floats and complexes are read as their exact binary values."""
    if isinstance(v, QQi):
        return v
    if isinstance(v, complex):
        return QQi(Fraction(v.real), Fraction(v.imag))
    return Fraction(v) if real else QQi(Fraction(v))


def _keywords(n, rng):
    """Constructor keywords at n: ints, p/q values, QQi, floats and complexes,
    an a-part or none; no keywords (the zero element) one time in ten."""
    if rng.random() < 0.1:
        return {}
    q = lambda: Fraction(rng.randint(-9, 9), rng.choice([1, 3, 89, 97]))
    real = lambda: rng.choice([0, rng.randint(-3, 3), q(), rng.uniform(-2, 2)])
    cx = lambda: rng.choice([0, real(), QQi(q(), q()), QQi(0, q()),
                             complex(rng.uniform(-2, 2), rng.uniform(-2, 2))])
    kw = {}
    for slot in rng.sample(SLOTS[2:], rng.randint(1, 6)):
        if slot in ("x", "y"):
            kw[slot] = [cx() for _ in range(n - 2)]
        else:
            kw[slot] = real() if slot in ("xx", "yy") else cx()
    if rng.random() < 0.5:
        kw["t1"], kw["t2"] = real(), real()
    return kw


def _slots(kw, n):
    """The slot values of AlgebraElement(n, **kw), by the slot, over QQi."""
    out = {}
    for slot in SLOTS:
        default = [0] * (n - 2) if slot in ("x", "y") else 0
        v = kw.get(slot, default)
        if slot in ("x", "y"):
            out[slot] = tuple(_exact(c, False) for c in v)
        else:
            out[slot] = _exact(v, slot in ("t1", "t2", "xx", "yy"))
    return out


def _each(f, a):
    """f(slot, value) on every entry of the slot values a."""
    return {s: tuple(f(s, v) for v in a[s]) if s in ("x", "y") else f(s, a[s])
            for s in SLOTS}


def _views(u):
    """The slot views of u, with their types checked."""
    out = {s: getattr(u, s) for s in SLOTS}
    assert all(type(out[s]) is Fraction for s in ("t1", "t2", "xx", "yy"))
    assert type(out["x"]) is tuple and type(out["y"]) is tuple
    assert all(type(z) is QQi for z in (out["phi"], out["eta"], *out["x"], *out["y"]))
    return out


def _assert_is(u, slots):
    """u has exactly the slot values `slots`, in its views and its row."""
    assert _views(u) == slots
    assert u == AlgebraElement(u.n, **slots)
    assert all(type(c) is Fraction for c in u.coords())


def test_element_operations_equal_the_slot_formulas():
    rng = random.Random(15)
    seen = set()
    for _ in range(400):
        n = rng.randint(3, 8)
        seen.add(n)
        ku, kv = _keywords(n, rng), _keywords(n, rng)
        u, v = AlgebraElement(n, **ku), AlgebraElement(n, **kv)
        U, V = _slots(ku, n), _slots(kv, n)
        _assert_is(u, U)
        _assert_is(u + v, {s: tuple(a + b for a, b in zip(U[s], V[s]))
                           if s in ("x", "y") else U[s] + V[s] for s in SLOTS})
        _assert_is(u - v, {s: tuple(a - b for a, b in zip(U[s], V[s]))
                           if s in ("x", "y") else U[s] - V[s] for s in SLOTS})
        c = rng.choice([0, -1, rng.randint(-5, 5), Fraction(rng.randint(-20, 20), 97),
                        rng.uniform(-3, 3)])
        _assert_is(u.scale(c), _each(lambda s, z: z * Fraction(c), U))
        _assert_is(c * u, _each(lambda s, z: z * Fraction(c), U))
        _assert_is(-u, _each(lambda s, z: -z, U))
        a_slot = ("t1", "t2")
        _assert_is(u.nilpotent_part(), _each(lambda s, z: z * 0 if s in a_slot else z, U))
        _assert_is(u.a_part(), _each(lambda s, z: z if s in a_slot else z * 0, U))
        for root, slot in ROOT_SLOT.items():
            _assert_is(u.root_component(root),
                       _each(lambda s, z: z if s == slot else z * 0, U))
        t1, t2 = Fraction(rng.randint(-4, 4), rng.choice([1, 3])), rng.randint(-4, 4)
        _assert_is(ad_a(t1, t2, u), _each(
            lambda s, z: z * 0 if s in a_slot else z * root_value(SLOT_ROOT[s], t1, t2), U))
        assert u.is_zero() == (not any(u.coords()))
        assert u.is_nilpotent() == (not U["t1"] and not U["t2"])
        back = AlgebraElement.from_coords(n, u.coords())
        assert back == u and hash(back) == hash(u)
    assert seen == set(range(3, 9))


_fraction = st.one_of(st.just(Fraction(0)), st.integers(-40, 40).map(Fraction),
                     st.fractions(min_value=-40, max_value=40, max_denominator=60))


@st.composite
def _fraction_rows(draw):
    """(n, u, v, c, k): two Fraction rows at n with about a third of their
    entries zero, a rational scalar c and a nonzero int k."""
    n = draw(st.integers(3, 6))
    row = st.lists(_fraction, min_size=4 * n, max_size=4 * n).map(tuple)
    return (n, draw(row), draw(row), draw(_fraction),
            draw(st.integers(-30, 30).filter(bool)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_fraction_rows())
def test_every_route_gives_one_reduced_element_and_the_row_formulas(case):
    """An element built by the constructor, from_coords, from_ints on an
    unreduced or negated-denominator row, or scale(2).scale(1/2) has den > 0
    coprime to its ints, and all routes give equal elements with equal
    hashes.  Its coords(), slot views, sums, scalings, parts and brackets
    are the Fraction-row formulas of tests/references.py."""
    n, ru, rv, c, k = case
    ints, den = linalg.int_row(ru)
    views = row_views(n, ru)
    routes = [AlgebraElement(n, **views), AlgebraElement.from_coords(n, ru),
              AlgebraElement.from_ints(n, [k * a for a in ints], k * den),
              AlgebraElement.from_coords(n, ru).scale(2).scale(Fraction(1, 2))]
    for e in routes:
        assert e.den > 0 and math.gcd(e.den, *e.ints) == 1
        assert type(e.ints) is tuple and all(type(a) is int for a in e.ints)
        assert e == routes[0] and hash(e) == hash(routes[0])
    u, v = routes[0], AlgebraElement.from_coords(n, rv)
    assert u.coords() == list(ru) and all(type(a) is Fraction for a in u.coords())
    assert {slot: getattr(u, slot) for slot in views} == views
    for got, want in [(u + v, row_sum(ru, rv)), (u - v, row_sum(ru, row_scale(-1, rv))),
                      (u.scale(c), row_scale(c, ru)), (-u, row_scale(-1, ru)),
                      (u.a_part(), row_a_part(ru)), (u.nilpotent_part(), row_nilpotent_part(ru)),
                      (bracket(u, v), row_bracket(n, ru, rv)),
                      *((u.root_component(r), row_root_component(n, ru, r)) for r in ROOTS)]:
        assert got.coords() == list(want)
        assert got == AlgebraElement.from_coords(n, want)
        assert got.den > 0 and math.gcd(got.den, *got.ints) == 1


def test_from_coords_reads_an_int_row_and_checks_its_length():
    u = AlgebraElement.from_coords(3, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
    assert all(type(c) is Fraction for c in u.coords())
    assert u == AlgebraElement(3, t1=1, t2=2, phi=QQi(3, 4), x=[QQi(5, 6)],
                               y=[QQi(7, 8)], eta=QQi(9, 10), xx=11, yy=12)
    assert u.coords() is not u.coords()
    for length in (11, 13, 16):
        with pytest.raises(ValueError):
            AlgebraElement.from_coords(3, [0] * length)


def _random_sparse_matrix(m, rng, dens=range(1, 8)):
    """Gaussian rationals with zero rows and columns, imaginary and dense
    rows; denominators drawn from `dens`."""
    def entry(kind):
        q = lambda: Fraction(rng.randint(-9, 9), rng.choice(dens))
        if kind == "zero":
            return QQi(0)
        if kind == "imag":
            return QQi(0, q())
        return QQi(q(), q())
    zero_rows = set(rng.sample(range(m), 2))
    zero_cols = set(rng.sample(range(m), 2))
    dense_row = rng.choice([i for i in range(m) if i not in zero_rows])
    M = []
    for i in range(m):
        row = []
        for j in range(m):
            if i in zero_rows or (j in zero_cols and i != dense_row):
                kind = "zero"
            elif i == dense_row:
                kind = rng.choice(["imag", "full"])
            else:
                kind = rng.choice(["zero", "zero", "imag", "full"])
            row.append(entry(kind))
        M.append(row)
    return M


def test_mat_mul_equals_dense_sum():
    # GroupElement @ on matrices that are not in the group: only the product is read
    rng = random.Random(11)
    # coprime denominators 89 and 97 in different entries, up to n = 8
    for m, dens in ((5, range(1, 8)), (6, range(1, 8)), (8, range(1, 8)),
                    (6, (1, 89, 97)), (10, range(1, 8)), (10, (1, 2, 89, 97))):
        for _ in range(20):
            A, B = _random_sparse_matrix(m, rng, dens), _random_sparse_matrix(m, rng, dens)
            P = (GroupElement(m - 2, A) @ GroupElement(m - 2, B)).mat
            for i in range(m):
                for j in range(m):
                    dense = QQi(0)
                    for k in range(m):
                        dense = dense + A[i][k] * B[k][j]
                    assert isinstance(P[i][j], QQi)
                    assert P[i][j] == dense
    # an all-zero factor gives the exact zero matrix
    Z = [[QQi(0)] * 5 for _ in range(5)]
    assert (GroupElement(3, Z) @ GroupElement(3, _random_sparse_matrix(5, rng))).mat == Z


def _dense_exp(M, m):
    """I + sum_{k=1..4} M^k / k! over QQi, every product and sum taken."""
    eye = [[QQi(1 if i == j else 0) for j in range(m)] for i in range(m)]
    acc, P = eye, eye
    for k in range(1, 5):
        P = [[sum((P[i][l] * M[l][j] for l in range(m)), QQi(0)) for j in range(m)]
             for i in range(m)]
        acc = [[acc[i][j] + P[i][j] * QQi(Fraction(1, math.factorial(k)))
                for j in range(m)] for i in range(m)]
    return acc


def _random_nilpotent(n, rng, dens=range(1, 6)):
    """A nilpotent element whose slots are zero, imaginary-only or full;
    the complex slots draw their denominators from `dens`."""
    def entry():
        q = lambda: Fraction(rng.randint(-9, 9), rng.choice(dens))
        kind = rng.choice(["zero", "imag", "full"])
        return QQi(0) if kind == "zero" else QQi(0 if kind == "imag" else q(), q())
    kw = {}
    for slot in rng.sample(["phi", "x", "y", "eta", "xx", "yy"], rng.randint(1, 6)):
        if slot in ("x", "y"):
            kw[slot] = [entry() for _ in range(n - 2)]
        elif slot in ("xx", "yy"):
            kw[slot] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        else:
            kw[slot] = entry()
    return AlgebraElement(n, **kw)


def test_exp_series_equals_dense_sum():
    rng = random.Random(12)
    # coprime denominators 89 and 97 in different entries, up to n = 8
    for n, dens in ((3, range(1, 6)), (4, range(1, 6)), (6, range(1, 6)),
                    (4, (1, 89, 97)), (8, range(1, 6)), (8, (1, 3, 89, 97))):
        m = n + 2
        for _ in range(15):
            u = _random_nilpotent(n, rng, dens)
            g = exp_series(u)
            dense = _dense_exp(reference_matrix_of(u), m)
            for i in range(m):
                for j in range(m):
                    assert isinstance(g.mat[i][j], QQi)
                    assert g.mat[i][j] == dense[i][j]
    # imaginary-only entries, zero rows 2, 3 and 5 where x = y = 0, and zero
    for u in (AlgebraElement(4, phi=QQi(0, 2), yy=Fraction(1, 3)),
              AlgebraElement(4, x=[QQi(0, 1), QQi(0, -2)], xx=2),
              AlgebraElement(6)):
        assert exp_series(u).mat == _dense_exp(reference_matrix_of(u), u.n + 2)


def test_exp_closed_identity_and_y0_display(alg):
    assert all(exp_closed(alg(3)).mat[i][i] == QQi(1) for i in range(5))
    g = exp_closed(alg(3, phi=2, yy=1))
    assert g.mat[0][3] == QQi(0, 1)  # eta + i phi yy / 2 = i
    assert delta(g) == QQi(Fraction(1, 3))


def _qqi_exp_closed(u):
    """The matrix of exp(u) per the general display, over QQi: the
    reference for `exp_closed`."""
    i_ = QQi(0, 1)
    half, sixth, third, c24 = (Fraction(1, k) for k in (2, 6, 3, 24))
    phi, x, y, eta, xx, yy = u.phi, u.x, u.y, u.eta, u.xx, u.yy
    phi_c = conj(phi)
    xyd = herm(x, y)
    ax2 = sum((abs2(v) for v in x), Fraction(0))
    ay2 = sum((abs2(v) for v in y), Fraction(0))
    aphi2 = abs2(phi)
    x_row = [xv + half * (phi * yv) for xv, yv in zip(x, y)]
    e1n = eta - half * xyd + half * (i_ * (phi * yy)) - sixth * (phi * ay2)
    corner_re = -half * ax2 - re(phi * conj(eta)) + c24 * aphi2 * ay2
    corner_im = xx - sixth * aphi2 * yy + third * im(phi_c * xyd)
    e1m = corner_re + i_ * corner_im
    e2n = i_ * yy - half * ay2
    e2m = (-conj(eta) - half * herm(y, x)
           - half * (i_ * (phi_c * yy)) + sixth * (phi_c * ay2))
    mid_n = [-conj(yv) for yv in y]
    mid_m = [-conj(xv) + half * (phi_c * conj(yv)) for xv, yv in zip(x, y)]
    n, m = u.n, u.n + 2
    M = [[QQi(1 if i == j else 0) for j in range(m)] for i in range(m)]
    M[0][1] = phi
    for j, yj in enumerate(y):
        M[0][2 + j] = x_row[j]
        M[1][2 + j] = yj
        M[2 + j][n] = mid_n[j]
        M[2 + j][m - 1] = mid_m[j]
    M[0][n], M[0][m - 1], M[1][n], M[1][m - 1] = e1n, e1m, e2n, e2m
    M[n][m - 1] = -conj(phi)
    return M


def _qqi_delta_formula(u):
    """The expanded formula for Delta(exp u) over QQi: the reference for
    `delta_formula`."""
    q = Fraction
    phi, x, y, eta, xx, yy = u.phi, u.x, u.y, u.eta, u.xx, u.yy
    phi_c = conj(phi)
    xyd = herm(x, y)
    ax2 = sum((abs2(v) for v in x), Fraction(0))
    ay2 = sum((abs2(v) for v in y), Fraction(0))
    aphi2 = abs2(phi)
    re_part = (-abs2(eta) + xx * yy - q(1, 4) * ax2 * ay2
               + q(1, 4) * abs2(xyd) - q(1, 6) * ay2 * re(eta * phi_c)
               - q(1, 6) * yy * im(xyd * phi_c)
               + q(1, 12) * yy * yy * aphi2
               - q(1, 144) * ay2 * ay2 * aphi2)
    im_part = (q(1, 24) * yy * aphi2 * ay2 + im(xyd * conj(eta))
               + q(1, 2) * xx * ay2 + q(1, 2) * yy * ax2)
    return re_part + QQi(0, 1) * im_part


def _random_exp_input(rng):
    """A nilpotent element for n in 3..8: integer slots, a row scaled by one
    p/q, each entry scaled by its own p/q (mixed denominators), phi = 0,
    y = 0, both, or the zero element."""
    n = rng.randint(3, 8)
    row = random_element(n, rng, max_slots=6).coords()
    p_q = lambda: Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 7, 89, 97, 1024]))
    kind = rng.choice(["int", "scaled", "mixed", "phi0", "y0", "phi0_y0", "zero"])
    if kind == "scaled":
        c = p_q()
        row = [c * v for v in row]
    if kind in ("mixed", "phi0", "y0", "phi0_y0"):
        row = [p_q() * v if rng.random() < 0.7 else v for v in row]
    if kind in ("phi0", "phi0_y0"):
        row[2:4] = [0, 0]
    if kind in ("y0", "phi0_y0"):
        row[2 * n:4 * n - 4] = [0] * (2 * n - 4)
    if kind == "zero":
        row = [0] * (4 * n)
    return AlgebraElement.from_coords(n, row)


def _form(z):
    """An exact scalar's repr and the types of it and its parts."""
    return repr(z), type(z), type(z.re), type(z.im)


def test_exp_closed_and_delta_formula_equal_their_qqi_references():
    rng = random.Random(16)
    seen_n, phi0, y0, zero = set(), 0, 0, 0
    for _ in range(1000):
        u = _random_exp_input(rng)
        seen_n.add(u.n)
        phi0 += not u.phi
        y0 += not any(u.y)
        zero += u.is_zero()
        got, want = exp_closed(u).mat, _qqi_exp_closed(u)
        assert [list(map(_form, row)) for row in got] == \
            [list(map(_form, row)) for row in want], u
        assert _form(delta_formula(u)) == _form(_qqi_delta_formula(u)), u
    assert seen_n == set(range(3, 9))
    assert min(phi0, y0, zero) >= 50


def _phi0_and_y0(n):
    """A nilpotent element with phi = 0 and one with y = 0, every other slot set."""
    return (AlgebraElement(n, x=[1 + 2j] * (n - 2), y=[0.5j] * (n - 2), eta=1 - 1j,
                           xx=2, yy=-1),
            AlgebraElement(n, phi=0.75 - 1j, x=[1j] * (n - 2), eta=2, xx=-1, yy=3))


def test_exp_closed_runs_each_self_check_exactly_when_it_applies(monkeypatch):
    # the phi = 0 / y = 0 self-checks live on the exact path only: the float
    # exponential is a truncated series checked by X^5 = 0 instead
    calls = []
    for name in ("_check_phi0_form", "_check_y0_form"):
        orig = getattr(elements, name)

        def spy(*args, orig=orig, name=name):
            calls.append(name)
            return orig(*args)
        monkeypatch.setattr(elements, name, spy)
    phi0, y0 = _phi0_and_y0(4)
    exp_closed(phi0)
    exp_closed(y0)
    assert calls == ["_check_phi0_form", "_check_y0_form"]
    # both for phi = y = 0, neither for a general element
    exp_closed(AlgebraElement(4, eta=1, xx=1))
    exp_closed(AlgebraElement(4, phi=1, y=[1, 0]))
    assert calls[2:] == ["_check_phi0_form", "_check_y0_form"]
    # the float exponential runs none of them
    exp_float(np.array(phi0.coords(), dtype=float), np.array([-3.0, 0.5, 2.0]))
    exp_float(np.array(y0.coords(), dtype=float), 2.0)
    assert len(calls) == 4


@pytest.mark.parametrize("k, part", [(1, 0), (1, 1), (2, 0), (2, 1), (4, 0), (4, 1)],
                         ids=["e1n.re", "e1n.im", "e1m.re", "e1m.im", "e2m.re", "e2m.im"])
def test_exp_closed_self_checks_catch_a_display_one_unit_off(monkeypatch, k, part):
    # one unit on the integer scale of the display, in an entry that both
    # the phi = 0 and the y = 0 form check
    orig = elements._exp_display

    def broken(*args):
        rows = list(orig(*args))
        pair = list(rows[k])
        pair[part] += 1
        rows[k] = tuple(pair)
        return tuple(rows)
    monkeypatch.setattr(elements, "_exp_display", broken)
    for u in _phi0_and_y0(3):
        with pytest.raises(AssertionError):
            exp_closed(u)


def test_exp_closed_equals_series_exact():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.choice([3, 4, 6])
        u = random_element(n, rng, max_slots=6)
        g1, g2 = exp_closed(u), exp_series(u)
        m = n + 2
        assert all(g1.mat[i][j] == g2.mat[i][j] for i in range(m) for j in range(m))


def test_matrix_of_is_in_su_2n_and_exp_series_is_exp_closed():
    # checks of the coordinate table that do not read the table: M^H J + J M
    # = 0 for every matrix it gives, and the series of that matrix is the
    # closed form of the element
    rng = random.Random(22)
    for n in range(3, 9):
        m, J = n + 2, gram_matrix(n)
        for _ in range(6):
            u = random_element(n, rng, max_slots=6)
            a = AlgebraElement.from_coords(
                n, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
                + u.coords()[2:])
            for v in (u, a):
                M = matrix_of(v)
                assert all(sum((conj(M[k][i]) * J[k][j] + J[i][k] * M[k][j]
                                for k in range(m)), QQi(0)) == 0
                           for i in range(m) for j in range(m)), v
            g1, g2 = exp_closed(u), exp_series(u)
            assert all(g1.mat[i][j] == g2.mat[i][j] for i in range(m) for j in range(m)), u


def test_delta_formula_rejects_a_part(alg):
    # as exp_closed and exp_series do: Delta of exp u is read off exp u
    for u in (alg(3, t1=1, eta=1), alg(4, t2=Fraction(1, 3), phi=2, yy=1)):
        with pytest.raises(ValueError):
            delta_formula(u)


def test_exp_closed_rejects_a_part(alg):
    with pytest.raises(ValueError):
        exp_closed(alg(3, t1=1))
    # the series oracle is exact too: a-parts have transcendental exponentials
    with pytest.raises(ValueError):
        exp_series(alg(3, t1=1))


def test_group_invariants_and_inverse():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.choice([3, 4])
        g = exp_closed(random_element(n, rng, max_slots=6))
        ok, why = g.check_invariants()
        assert ok, why
        gi = g.inverse()
        prod = g @ gi
        m = n + 2
        assert all(prod.mat[i][j] == QQi(1 if i == j else 0)
                   for i in range(m) for j in range(m))


def test_inverse_is_the_product_j_g_dagger_j():
    # the reference: J g^dagger J as two exact products with J written out
    # here, entry by entry in value and in the types of the entry and its parts
    rng = random.Random(25)
    for n in range(3, 7):
        m = n + 2
        J = [[QQi(0) for _ in range(m)] for _ in range(m)]
        J[0][m - 1] = J[1][n] = J[n][1] = J[m - 1][0] = QQi(1)
        for i in range(2, n):
            J[i][i] = QQi(1)
        assert gram_matrix(n) == J
        for _ in range(6):
            g = exp_closed(random_element(n, rng, max_slots=6))
            a = GroupElement.diagonal(n, Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                                      Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            for h in (g, a, a @ g, g @ a @ exp_closed(random_element(n, rng))):
                gd = [[conj(h.mat[j][i]) for j in range(m)] for i in range(m)]
                want = dense_product(dense_product(J, gd), J)
                got = h.inverse().mat
                for i in range(m):
                    for j in range(m):
                        x, y = got[i][j], want[i][j]
                        assert x == y
                        assert (type(x), type(x.re), type(x.im)) == (type(y), type(y.re), type(y.im))


def test_group_elements_are_exact_only():
    # a float group element is a plain complex array; there is no float mode
    with pytest.raises(TypeError):
        GroupElement(3, GroupElement.identity(3).mat, mode="float")
    with pytest.raises(ValueError):
        GroupElement.diagonal(3, 4.0, 2.0, mode="float")
    a = GroupElement.diagonal(3, 4, Fraction(1, 3), mode="exact")
    assert a.mat == GroupElement.diagonal(3, 4, Fraction(1, 3)).mat
    assert a.mat[3][3] == QQi(3) and a.mat[4][4] == QQi(Fraction(1, 4))
    ok, why = a.check_invariants()
    assert ok, why


def _form_matrix(n):
    """J written out entry by entry."""
    m = n + 2
    J = [[QQi(0) for _ in range(m)] for _ in range(m)]
    J[0][m - 1] = J[1][n] = J[n][1] = J[m - 1][0] = QQi(1)
    for i in range(2, n):
        J[i][i] = QQi(1)
    return J


def _dagger(M, m):
    return [[conj(M[j][i]) for j in range(m)] for i in range(m)]


def _assert_same_matrix(got, want):
    """Equal in value, in repr and in the types of every entry and its parts,
    zeros the shared ZERO."""
    assert type(got) is list and all(type(row) is list for row in got)
    assert got == want and repr(got) == repr(want)
    for z in (z for row in got for z in row):
        assert (type(z), type(z.re), type(z.im)) == (QQi, Fraction, Fraction)
        assert z or z is ZERO


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_group_element_views_equal_the_eager_qqi_matrices(seed):
    # the QQi reference of each view is built entry by entry over QQi
    rng = random.Random(seed)
    for n in (3, 4, 6):
        m = n + 2
        u, v = random_element(n, rng, max_slots=6), random_element(n, rng, max_slots=6)
        u = u.scale(Fraction(rng.randint(1, 9), rng.choice([1, 2, 7, 89])))
        a1, a2 = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))
        g, h, a = exp_series(u), exp_closed(v), GroupElement.diagonal(n, a1, a2)
        eye = [[QQi(1 if i == j else 0) for j in range(m)] for i in range(m)]
        diag = [row[:] for row in eye]
        diag[0][0], diag[1][1], diag[n][n], diag[m - 1][m - 1] = (
            QQi(a1), QQi(a2), QQi(1 / a2), QQi(1 / a1))
        J = _form_matrix(n)
        _assert_same_matrix(g.mat, _dense_exp(reference_matrix_of(u), m))
        _assert_same_matrix(h.mat, _dense_exp(reference_matrix_of(v), m))
        _assert_same_matrix(GroupElement.identity(n).mat, eye)
        _assert_same_matrix(a.mat, diag)
        _assert_same_matrix(gram_matrix(n), J)
        _assert_same_matrix(reference_matrix_of(u), elements._matrix_element(u).mat)
        for x, y in ((g, h), (h, g), (a, g), (g @ a, h)):
            _assert_same_matrix((x @ y).mat, dense_product(x.mat, y.mat))
        for x in (g, h, a, g @ h @ a):
            want = dense_product(dense_product(J, _dagger(x.mat, m)), J)
            _assert_same_matrix(x.inverse().mat, want)
            # the ints held are the ints read off the view, and the view is kept
            assert (x.rows, x.den) == elements._gaussian_ints(x.mat, m)
            assert x.mat is x.mat
        with pytest.raises(AttributeError):
            g.mat = eye
    # the sparse coprime-denominator matrices of test_mat_mul_equals_dense_sum
    for m, dens in ((5, range(1, 8)), (6, (1, 89, 97)), (8, range(1, 8)), (10, (1, 2, 89, 97))):
        for _ in range(5):
            A, B = _random_sparse_matrix(m, rng, dens), _random_sparse_matrix(m, rng, dens)
            _assert_same_matrix((GroupElement(m - 2, A) @ GroupElement(m - 2, B)).mat,
                                dense_product(A, B))


def _qqi_det(M, m):
    """det by Gaussian elimination over QQi: the reference for det."""
    a = [row[:] for row in M]
    det = QQi(1)
    for c in range(m):
        piv = next((r for r in range(c, m) if a[r][c]), None)
        if piv is None:
            return QQi(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c]
        inv = QQi(1) / a[c][c]
        for r in range(c + 1, m):
            if a[r][c]:
                f = a[r][c] * inv
                a[r] = [v - f * w for v, w in zip(a[r], a[c])]
    return det


def _qqi_invariants(M, n):
    """check_invariants by dense QQi products with J written out."""
    m, J = n + 2, _form_matrix(n)
    lhs = dense_product(dense_product(_dagger(M, m), J), M)
    for i in range(m):
        for j in range(m):
            if lhs[i][j] != J[i][j]:
                return False, f"form not preserved at ({i},{j})"
    if _qqi_det(M, m) != QQi(1):
        return False, "determinant != 1"
    return True, ""


def _random_qqi_matrix(m, rng, zeros):
    """A dense QQi matrix with a zero at each (i, j) in `zeros`, so that
    elimination has to swap rows."""
    q = lambda: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 89]))
    M = [[QQi(q(), q()) for _ in range(m)] for _ in range(m)]
    for i, j in zeros:
        M[i][j] = QQi(0)
    return M


def test_det_and_check_invariants_equal_their_qqi_references():
    rng = random.Random(26)
    outcomes = set()
    for n in (3, 4, 6):
        m = n + 2
        eye = GroupElement.identity(n).mat
        # keeps the form with det i^2 = -1
        twist = [row[:] for row in eye]
        twist[0][0] = twist[m - 1][m - 1] = QQi(0, 1)
        # breaks the form, det 2
        stretch = [row[:] for row in eye]
        stretch[0][0] = QQi(2)
        cases = [exp_closed(random_element(n, rng, max_slots=6)) for _ in range(3)]
        cases += [GroupElement.diagonal(n, Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                                        Fraction(rng.randint(1, 9), rng.randint(1, 9))),
                  GroupElement(n, twist), GroupElement(n, stretch),
                  weyl_matrix(n, "alpha") @ cases[0], weyl_matrix(n, "beta") @ cases[1],
                  # one row swap, then two
                  GroupElement(n, _random_qqi_matrix(m, rng, [(0, 0)])),
                  GroupElement(n, _random_qqi_matrix(m, rng, [(0, 0), (0, 1), (1, 1)])),
                  GroupElement(n, _random_sparse_matrix(m, rng, (1, 89, 97))),
                  cases[2] @ GroupElement(n, stretch)]
        for g in cases:
            got, want = g.det(), _qqi_det(g.mat, m)
            assert got == want
            assert (type(got), type(got.re), type(got.im)) == (QQi, Fraction, Fraction)
            result = g.check_invariants()
            assert result == _qqi_invariants(g.mat, n)
            outcomes.add(result[1].split(" at ")[0])
    assert outcomes == {"", "determinant != 1", "form not preserved"}


def test_sparse_gaussian_product_equals_the_dense_product():
    """_gaussian_product on the Gaussian-integer rows of random matrices,
    with entries that cancel, and of the products the exact oracle takes
    (matrix_of and exp_closed rows): the dense QQi product, each row in
    column order with no zero entry."""
    rng = random.Random(31)
    cases = []
    for m in (1, 3, 5, 8):
        for _ in range(20):
            A, B = ([[(j, rng.randint(-2, 2), rng.randint(-2, 2)) for j in range(m)
                      if rng.random() < 0.4] for _ in range(m)] for _ in range(2))
            cases.append(([[e for e in row if e[1] or e[2]] for row in A],
                          [[e for e in row if e[1] or e[2]] for row in B], m))
    for n in (3, 4, 6):
        for _ in range(10):
            u, v = (random_element(n, rng, max_slots=6) for _ in range(2))
            gu, gv = (GroupElement(n, matrix_of(w)) for w in (u, v))
            cases += [(gu.rows, gv.rows, n + 2), (exp_closed(u).rows, gv.rows, n + 2)]
    for A, B, m in cases:
        got = elements._gaussian_product(A, B)
        assert all([j for j, _, _ in row] == sorted({j for j, _, _ in row}) for row in got)
        assert all(r or i for row in got for _, r, i in row)
        want = dense_product(elements._gaussian_matrix(A, 1, m), elements._gaussian_matrix(B, 1, m))
        assert elements._gaussian_matrix(got, 1, m) == want


def test_delta_identity_and_central(alg):
    assert delta(GroupElement.identity(3)) == QQi(0)
    g = exp_closed(alg(3, eta=1, xx=1, yy=1))
    assert delta(g) == QQi(0)  # -|eta|^2 + xx yy = 0


def test_delta_formula_oracle():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.choice([3, 4, 5])
        u = random_element(n, rng, max_slots=6)
        assert delta(exp_closed(u)) == delta_formula(u)


def test_form_value():
    n = 4
    m = n + 2
    e = [[QQi(1 if i == j else 0) for i in range(m)] for j in range(m)]
    assert form_value(e[0], e[0]) == QQi(0)
    assert form_value(e[0], e[m - 1]) == QQi(1)
    assert form_value(e[2], e[2]) == QQi(1)
    with pytest.raises(ValueError):
        form_value(e[0][:4], e[0])


def test_gram_matrix_squares_to_identity():
    J = gram_matrix(4)
    m = 6
    sq = [[sum((J[i][k] * J[k][j] for k in range(m)), QQi(0)) for j in range(m)]
          for i in range(m)]
    assert all(sq[i][j] == QQi(1 if i == j else 0)
               for i in range(m) for j in range(m))


def test_root_projections_sum_to_element(alg):
    rng = random.Random(10)
    for _ in range(20):
        u = random_element(4, rng, max_slots=6)
        total = None
        for r in ROOTS:
            p = u.root_component(r)
            total = p if total is None else total + p
        assert total + u.a_part() == u


def test_root_projection_slots(alg):
    u = alg(4, phi=1, y=[1, 0])
    p = u.root_component("alpha")
    assert p.phi == QQi(1) and not any(p.y)
    z = alg(4, eta=QQi(0, 3))
    assert z.root_component("alpha+2beta").eta == QQi(0, 3)
