import random
from fractions import Fraction

import pytest

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
    root_project,
)
from su2n.corpus import random_element
from su2n.elements import NotInAN, ROOTS
from su2n.scalars import QQi


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
    from su2n.elements import _mat_mul
    for _ in range(30):
        n = rng.choice([3, 4, 5])
        u = random_element(n, rng)._like(t1=Fraction(rng.randint(-2, 2)),
                                         t2=Fraction(rng.randint(-2, 2)))
        v = random_element(n, rng)._like(t1=Fraction(rng.randint(-2, 2)))
        m = n + 2
        Mu, Mv = matrix_of(u), matrix_of(v)
        comm = [[a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(_mat_mul(Mu, Mv, m), _mat_mul(Mv, Mu, m))]
        Mb = matrix_of(bracket(u, v))
        assert all(comm[i][j] == Mb[i][j] for i in range(m) for j in range(m))


def _random_sparse_matrix(m, rng):
    """Gaussian rationals with zero rows and columns, imaginary and dense rows."""
    def entry(kind):
        q = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
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
    from su2n.elements import _mat_mul
    rng = random.Random(11)
    for m in (5, 6, 8):
        for _ in range(20):
            A, B = _random_sparse_matrix(m, rng), _random_sparse_matrix(m, rng)
            P = _mat_mul(A, B, m)
            for i in range(m):
                for j in range(m):
                    dense = QQi(0)
                    for k in range(m):
                        dense = dense + A[i][k] * B[k][j]
                    assert isinstance(P[i][j], QQi)
                    assert P[i][j] == dense
    # an all-zero factor gives the exact zero matrix
    Z = [[QQi(0)] * 5 for _ in range(5)]
    assert _mat_mul(Z, _random_sparse_matrix(5, rng), 5) == Z


def test_exp_closed_identity_and_y0_display(alg):
    assert all(exp_closed(alg(3)).mat[i][i] == QQi(1) for i in range(5))
    g = exp_closed(alg(3, phi=2, yy=1))
    assert g.mat[0][3] == QQi(0, 1)  # eta + i phi yy / 2 = i
    assert delta(g) == QQi(Fraction(1, 3))


def test_exp_closed_equals_series_exact():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.choice([3, 4, 6])
        u = random_element(n, rng, max_slots=6)
        g1, g2 = exp_closed(u), exp_series(u)
        m = n + 2
        assert all(g1.mat[i][j] == g2.mat[i][j] for i in range(m) for j in range(m))


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
            p = root_project(u, r)
            total = p if total is None else total + p
        assert total + u.a_part() == u


def test_root_projection_slots(alg):
    u = alg(4, phi=1, y=[1, 0])
    p = root_project(u, "alpha")
    assert p.phi == QQi(1) and not any(p.y)
    z = alg(4, eta=QQi(0, 3))
    assert root_project(z, "alpha+2beta").eta == QQi(0, 3)
