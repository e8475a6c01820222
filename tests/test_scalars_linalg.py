from fractions import Fraction

import pytest

from su2n import linalg
from su2n.scalars import QQi, abs2, conj, herm, im, re


def test_gaussian_rational_arithmetic():
    a = QQi(1, 2)
    b = QQi(Fraction(1, 3), -1)
    assert a + b == QQi(Fraction(4, 3), 1)
    assert a * b == QQi(Fraction(1, 3) + 2, Fraction(2, 3) - 1)
    assert (a / b) * b == a
    assert a.conjugate() == QQi(1, -2)
    assert a.abs2() == 5
    assert bool(QQi(0, 0)) is False
    assert complex(a) == 1 + 2j


def test_gaussian_rational_int_interop():
    assert 2 * QQi(1, 1) == QQi(2, 2)
    assert QQi(1, 1) - 1 == QQi(0, 1)
    assert 1 / QQi(0, 1) == QQi(0, -1)
    with pytest.raises(ZeroDivisionError):
        QQi(1) / QQi(0)


def test_herm_is_sesquilinear():
    x = [QQi(1, 1), QQi(0, 2)]
    y = [QQi(2, 0), QQi(1, -1)]
    assert herm(x, y) == QQi(1, 1) * conj(QQi(2)) + QQi(0, 2) * conj(QQi(1, -1))
    assert conj(herm(x, y)) == herm(y, x)


def test_re_im_abs2_on_both_backends():
    assert re(QQi(3, 4)) == 3 and im(QQi(3, 4)) == 4
    assert abs2(QQi(3, 4)) == 25
    assert abs2(3 + 4j) == pytest.approx(25.0)
    assert im(Fraction(5)) == 0


def test_rref_rank_kernel():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    red, piv = linalg.rref(m)
    assert piv == [0] and len(red) == 1
    assert linalg.rank(m) == 1
    k = linalg.kernel_basis(m)
    assert len(k) == 1
    v = k[0]
    assert v[0] + 2 * v[1] == 0


def test_in_span_and_solve():
    rows = [[1, 0, 1], [0, 1, 1]]
    rows = [[Fraction(v) for v in r] for r in rows]
    assert linalg.in_span(rows, [Fraction(2), Fraction(3), Fraction(5)]) == [2, 3]
    assert linalg.in_span(rows, [Fraction(0), Fraction(0), Fraction(1)]) is None
    x = linalg.solve_linear(rows, [Fraction(2), Fraction(3)])
    assert [sum(r[j] * x[j] for j in range(3)) for r in rows] == [2, 3]


@pytest.mark.parametrize("gram,sig", [
    ([[Fraction(2)]], (1, 0, 0)),
    ([[Fraction(-3)]], (0, 1, 0)),
    ([[Fraction(0)]], (0, 0, 1)),
    # hyperbolic plane: xy has signature (1,1)
    ([[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), Fraction(0)]], (1, 1, 0)),
    ([[Fraction(1), Fraction(0), Fraction(0)],
      [Fraction(0), Fraction(-1), Fraction(0)],
      [Fraction(0), Fraction(0), Fraction(0)]], (1, 1, 1)),
])
def test_signature(gram, sig):
    p, n, z, cert = linalg.signature(gram)
    assert (p, n, z) == sig
    # certificate vectors actually achieve their signs
    def q(v):
        return sum(v[i] * gram[i][j] * v[j] for i in range(len(v))
                   for j in range(len(v)))
    for d, vec in cert["positive"]:
        assert q(vec) > 0
    for d, vec in cert["negative"]:
        assert q(vec) < 0
    for vec in cert["radical"]:
        assert q(vec) == 0


def test_gram_from_quadratic_polarization():
    def q(v):
        return [v[0] * v[0] + 3 * v[0] * v[1] - 2 * v[1] * v[1]]
    units = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    (g,) = linalg.gram_from_quadratic(q, units)
    assert g[0][0] == 1 and g[1][1] == -2
    assert g[0][1] == Fraction(3, 2) == g[1][0]
    # a non-unit basis: the Gram is B G B^T, the form's values on the rows
    basis = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(-1, 2)]]
    (gb,) = linalg.gram_from_quadratic(q, basis)
    assert gb == [[sum(a[k] * g[k][m] * b[m] for k in range(2) for m in range(2))
                   for b in basis] for a in basis]
    assert gb[0][0] == q(basis[0])[0] == 2
    # a two-valued q gives one Gram per value, in order
    g2 = linalg.gram_from_quadratic(lambda v: [q(v)[0], v[0] * v[1]], units)
    assert g2 == [g, [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]]
    assert linalg.gram_from_quadratic(q, []) == []


def test_is_definite():
    assert linalg.is_definite([[Fraction(1), Fraction(0)],
                               [Fraction(0), Fraction(2)]])
    assert not linalg.is_definite([[Fraction(1), Fraction(0)],
                                   [Fraction(0), Fraction(-2)]])
    assert not linalg.is_definite([[Fraction(0)]])
