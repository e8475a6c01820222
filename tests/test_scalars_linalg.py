from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from su2n import linalg
from su2n.scalars import (ZERO, GaussianRational, QQi, _make, abs2, conj, herm, im, parse_rational,
                          re)


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


def test_the_shared_zero_is_the_exact_zero():
    assert ZERO == QQi(0) and QQi(0) == ZERO and ZERO == 0 and 0 == ZERO
    assert hash(ZERO) == hash(QQi(0)) and repr(ZERO) == "QQi(0)" and not ZERO
    assert (type(ZERO), type(ZERO.re), type(ZERO.im)) == (QQi, Fraction, Fraction)
    assert ZERO != QQi(0, 1) and QQi(Fraction(1, 3)) != ZERO
    for a in (QQi(Fraction(1, 3), -2), QQi(0, 5), QQi(0), ZERO):
        assert a - ZERO is a
        d = ZERO - a
        assert d == -a and (type(d), type(d.re), type(d.im)) == (QQi, Fraction, Fraction)


def test_herm_is_sesquilinear():
    x = [QQi(1, 1), QQi(0, 2)]
    y = [QQi(2, 0), QQi(1, -1)]
    assert herm(x, y) == QQi(1, 1) * conj(QQi(2)) + QQi(0, 2) * conj(QQi(1, -1))
    assert conj(herm(x, y)) == herm(y, x)


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_gaussian = st.builds(QQi, _rationals, _rationals)
# zero, imaginary-only and full entries, as in the slots of an algebra element
_slot_entry = st.one_of(st.just(QQi(0)), st.builds(QQi, st.just(0), _rationals), _gaussian)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_gaussian, st.one_of(st.integers(-10**6, 10**6), _rationals))
def test_real_scalar_product_is_the_gaussian_product(z, v):
    dense = z * QQi(v)
    for p in (z * v, v * z):
        assert isinstance(p, QQi) and isinstance(p.re, Fraction) and isinstance(p.im, Fraction)
        assert (p.re, p.im) == (dense.re, dense.im)


# zero, real-only, imaginary-only and full Gaussian rationals
_any_parts = st.one_of(_slot_entry, st.builds(QQi, _rationals, st.just(0)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_any_parts, _any_parts)
def test_gaussian_operations_equal_their_part_formulas(z, w):
    a, b, c, d = z.re, z.im, w.re, w.im
    for got, want in ((z * w, (a * c - b * d, a * d + b * c)),
                      (z + w, (a + c, b + d)), (z - w, (a - c, b - d))):
        assert type(got) is QQi and type(got.re) is Fraction and type(got.im) is Fraction
        assert (got.re, got.im) == want
    assert (z == w) is (a == c and b == d)


# an unreduced (numerator, denominator) pair, read by Fraction
_unreduced = st.builds(lambda p, q, k: Fraction(p * k, q * k), st.integers(-40, 40),
                       st.integers(1, 12), st.integers(-6, 6).filter(bool))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_any_parts, _any_parts, _unreduced, _unreduced,
       st.one_of(st.integers(-5, 5), _rationals, _unreduced))
def test_gaussian_equality_is_fraction_equality_of_both_parts(z, w, p, q, v):
    """QQi == QQi against Fraction equality on both parts: on itself, on a
    copy sharing its parts, on ZERO, on equal values built from unreduced
    ratios, and with an int or Fraction right operand."""
    assert (z == w) is (z.re == w.re and z.im == w.im) and (z != w) is not (z == w)
    assert z == z and z == _make(z.re, z.im) and z == QQi(z.re, z.im)
    assert (z == ZERO) is (ZERO == z) is (z.re == 0 and z.im == 0)
    x = QQi(p, q)
    assert x == QQi(Fraction(p.numerator, p.denominator), Fraction(q.numerator, q.denominator))
    assert (x == w) is (p == w.re and q == w.im)
    for a, b in ((z, v), (x, v)):
        assert (a == v) is (a.re == v and a.im == 0)
        assert (a == v) is (v == a)


@st.composite
def _vector_pair(draw):
    k = draw(st.integers(0, 4))
    return [draw(st.lists(_slot_entry, min_size=k, max_size=k)) for _ in "xy"]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_vector_pair())
def test_herm_equals_dense_sum(xy):
    x, y = xy
    got = herm(x, y)
    if not x:
        assert got == 0 and type(got) is int
        return
    dense = x[0] * conj(y[0])
    for a, b in zip(x[1:], y[1:]):
        dense = dense + a * conj(b)
    assert type(got) is type(dense) and got == dense


def test_herm_skips_pairs_with_a_zero_factor(monkeypatch):
    calls = []
    mul = GaussianRational.__mul__
    monkeypatch.setattr(GaussianRational, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    x = [QQi(0), QQi(1, 1), QQi(0, 2), QQi(0)]
    y = [QQi(3, 1), QQi(0), QQi(1, -1), QQi(0)]
    assert herm(x, y) == QQi(-2, 2) and len(calls) == 1
    zero = herm([QQi(0)] * 3, y[:3])  # no nonzero pair: the first term
    assert type(zero) is QQi and zero == 0
    assert type(herm([Fraction(0)], [Fraction(2)])) is Fraction


def test_re_im_abs2_on_both_backends():
    assert re(QQi(3, 4)) == 3 and im(QQi(3, 4)) == 4
    assert abs2(QQi(3, 4)) == 25
    assert abs2(3 + 4j) == pytest.approx(25.0)
    assert im(Fraction(5)) == 0


def _pairs(rows):
    """The rational rows as linalg rows (ints, den)."""
    return [linalg.int_row(row) for row in rows]


def test_rref_rank_kernel():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    red, piv = linalg.rref(m)
    assert piv == [0] and len(red) == 1
    k = linalg.kernel_basis(_pairs(m))
    assert len(k) == 1
    v = k[0]
    assert v[0] + 2 * v[1] == 0


def test_in_span_and_solve():
    rows = [[1, 0, 1], [0, 1, 1]]
    rows = [[Fraction(v) for v in r] for r in rows]
    cols = [list(c) for c in zip(*rows)]
    assert linalg.solve_linear(cols, [Fraction(2), Fraction(3), Fraction(5)]) == [2, 3]
    assert not linalg.span_contains(_pairs(rows), ([0, 0, 1], 1))
    x = linalg.solve_linear(rows, [Fraction(2), Fraction(3)])
    assert [sum(r[j] * x[j] for j in range(3)) for r in rows] == [2, 3]


_entries = st.integers(-2, 2)


@st.composite
def _combination(draw, rows, ncols):
    """An integer combination of rows (the zero vector when rows is empty)."""
    coeffs = draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
    return [sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(ncols)]


@st.composite
def _span_cases(draw):
    """rows: up to four drawn rows (zero rows and the empty list included)
    plus up to two combinations of them, shuffled; other and v: drawn afresh
    or combinations of rows."""
    ncols = draw(st.integers(1, 4))
    vec = st.lists(_entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(vec, max_size=4))
    rows = draw(st.permutations(
        rows + draw(st.lists(_combination(rows, ncols), max_size=2))))
    other = draw(st.one_of(st.lists(vec, max_size=4),
                           st.lists(_combination(rows, ncols), max_size=3)))
    v = draw(st.one_of(vec, _combination(rows, ncols)))
    return rows, other, v


def _rank(rows):
    return len(linalg.rref(rows)[0])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_span_cases())
def test_span_tests_agree_with_rank(case):
    rows, other, v = case
    assert linalg.span_contains(_pairs(rows), linalg.int_row(v)) == (
        _rank(rows + [v]) == _rank(rows))
    assert linalg.subspace_leq(_pairs(other), _pairs(rows)) == (
        _rank(rows + other) == _rank(rows))
    assert linalg.subspace_eq(_pairs(rows), _pairs(other)) == (
        linalg.rref(rows)[0] == linalg.rref(other)[0])


def _fraction_rref(rows):
    """Gauss-Jordan on Fractions, row by row: the reference for linalg.rref."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


_exact_entry = st.one_of(
    st.just(0),
    st.integers(-10**12, 10**12),
    st.fractions(min_value=-100, max_value=100, max_denominator=97),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False))


@st.composite
def _matrices(draw):
    """Up to six rows of up to eight entries (wide matrices included) mixing
    ints, Fractions and floats, with zero rows and duplicate rows mixed in."""
    ncols = draw(st.integers(1, 8))
    row = st.lists(_exact_entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.append([0] * ncols)
    return draw(st.permutations(rows))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_matrices())
def test_rref_equals_fraction_gauss_jordan(rows):
    red, pivots = linalg.rref(rows)
    assert (red, pivots) == _fraction_rref(rows)
    assert all(type(x) is Fraction for row in red for x in row)
    # the integer echelon behind it: primitive rows, nonzero at their pivots
    ints, int_pivots = linalg.echelon_ints(_pairs(rows))
    assert int_pivots == pivots
    for row, c in zip(ints, pivots):
        assert row[c] != 0 and gcd(*row) == 1


def test_rref_of_small_cases():
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([[0, 0], [0, 0]]) == ([], [])
    # a negative pivot is divided out, and duplicate rows collapse
    assert linalg.rref([[-2, 4, 1], [-2, 4, 1]]) == (
        [[1, -2, Fraction(-1, 2)]], [0])
    # elimination leaves 2 * (1, 3) - (2, 1) = (0, 5): primitive as (0, 1)
    assert linalg.echelon_ints([([2, 1], 1), ([1, 3], 1)]) == ([[1, 0], [0, 1]], [0, 1])
    assert linalg.rref([[0.5, 0.25], [1, Fraction(1, 3)]]) == (
        [[1, 0], [0, 1]], [0, 1])


def _fraction_residual(rows, v):
    """v reduced on Fractions against the Gauss-Jordan form of rows: the
    reference for the span tests."""
    red, pivots = _fraction_rref(rows)
    v = [Fraction(x) for x in v]
    for row, pc in zip(red, pivots):
        f = v[pc]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def _fraction_kernel(rows):
    """The kernel vector of each free column of the Gauss-Jordan form of
    rows, 1 there and minus the column at the pivots: the reference for
    kernel_basis."""
    if not rows:
        return []
    red, pivots = _fraction_rref(rows)
    basis = []
    for fc in (c for c in range(len(rows[0])) if c not in pivots):
        v = [Fraction(0)] * len(rows[0])
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


@st.composite
def _span_systems(draw):
    """(rows, other, v, coeffs): rows and other of one width (either may be
    empty, zero and duplicate rows mixed in), v drawn afresh or a rational
    combination of rows, and the coefficients of a combination of rows."""
    ncols = draw(st.integers(1, 8))
    row = st.lists(_exact_entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.append([0] * ncols)
    rows = draw(st.permutations(rows))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    coeffs = draw(st.lists(coeff, min_size=len(rows), max_size=len(rows)))
    combination = [sum((c * Fraction(r[k]) for c, r in zip(coeffs, rows)), Fraction(0))
                   for k in range(ncols)]
    v = draw(st.one_of(row, st.just(combination)))
    other = draw(st.lists(st.one_of(row, st.just(combination)), max_size=3))
    return rows, other, v, coeffs


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_span_systems())
def test_integer_span_tests_and_kernels_equal_the_fraction_references(case):
    rows, other, v, coeffs = case
    pairs, v_pair = _pairs(rows), linalg.int_row(v)
    in_span = not any(_fraction_residual(rows, v))
    assert linalg.span_contains(pairs, v_pair) == in_span
    assert linalg.subspace_leq(_pairs(other), pairs) == all(
        not any(_fraction_residual(rows, w)) for w in other)
    assert linalg.subspace_eq(_pairs(other), pairs) == (
        _fraction_rref(other)[0] == _fraction_rref(rows)[0])
    kern = linalg.kernel_basis(pairs)
    assert kern == _fraction_kernel(rows)
    assert all(type(x) is Fraction for k in kern for x in k)
    if rows:
        # combine, on ints, is the Fraction combination as a row over its
        # least positive denominator
        comb = linalg.combine(pairs, coeffs)
        want = [sum((c * Fraction(r[k]) for c, r in zip(coeffs, rows)), Fraction(0))
                for k in range(len(rows[0]))]
        assert comb == linalg.int_row(want) and all(type(x) is int for x in comb[0])
        # a row combined alone is itself, with the same answers
        kept = [linalg.combine([r], [1]) for r in pairs]
        assert kept == pairs
        assert linalg.span_contains(kept, v_pair) == in_span
        assert linalg.kernel_basis(kept) == kern


def test_span_tests_on_small_cases():
    # an empty span holds the zero vector only
    assert linalg.span_contains([], ([0, 0], 1)) and not linalg.span_contains([], ([0, 1], 1))
    assert linalg.subspace_leq([], [([1, 2], 1)]) and linalg.subspace_leq([([0, 0], 1)], [])
    assert linalg.kernel_basis([]) == []
    assert linalg.kernel_basis([([0, 0], 1)]) == [[1, 0], [0, 1]]
    assert linalg.kernel_basis([([2, -4, 6], 1)]) == [[2, 1, 0], [-3, 0, 1]]
    assert linalg.span_contains([([1, 3], 3)], ([1, 3], 1))
    assert not linalg.span_contains([([1, 0], 1), ([2, 0], 1)], ([0, 1], 1))
    assert linalg.in_span(linalg.echelon_ints([([1, 1, 0], 1), ([0, 1, -1], 1)]), [2, 3, -1])
    row = linalg.combine([([2, 0, -3], 2), ([1, 10, 0], 2)], [Fraction(1, 2), 0])
    assert row == ([2, 0, -3], 4)
    # the common denominator is reduced away: 3 * (1/3, 2/3) = (1, 2)
    assert linalg.combine([([1, 2], 3)], [3]) == ([1, 2], 1)
    assert linalg.combine([([1, 2], 3)], [0]) == ([0, 0], 1)


@pytest.mark.parametrize("s", [
    "3", "-0", "+3", " 3", "3 ", "1_0", "3/-2", "-3/6", "12/08", "1/0", "0/5",
    "0.5", "1e3", "-", "--1", "3/", "/2", "-/2", "1/2/3", "\u0663", "\u0661/\u0662",
    "", "/", 7, -12, 0, 10**30, 0.1, -2.5, 1e-300])
def test_parse_rational_is_fraction_of_its_input(s):
    """parse_rational reads what Fraction reads, with Fraction's exception,
    but for a zero denominator, which is an input error (ValueError)."""
    def outcome(read):
        try:
            v = read(s)
        except Exception as e:  # the exception's type is compared
            return type(e)
        return v, type(v)
    want = outcome(Fraction)
    assert outcome(parse_rational) == (ValueError if want is ZeroDivisionError else want)


def test_parse_rational_rejects_what_is_not_a_rational():
    for bad in (None, [1], 1j, QQi(1)):
        with pytest.raises(TypeError):
            parse_rational(bad)


@pytest.mark.parametrize("bad", ["1/0", "-3/000", " 1/0", float("inf"), float("-inf"),
                                 float("nan"), True, False])
def test_parse_rational_raises_value_error_on_a_bad_scalar(bad):
    """A zero denominator, a float that is no rational and a bool (JSON
    true and false, which Python counts as ints) are input errors."""
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rational_shares_one_zero_and_reads_integers_exactly():
    zero = parse_rational("0")
    assert zero == 0 and type(zero) is Fraction
    assert parse_rational(0) is zero and parse_rational("0") is zero
    assert parse_rational("-12") == Fraction(-12) and parse_rational("7/14") == Fraction(1, 2)
    assert type(parse_rational("-12")) is Fraction


def test_int_row_clears_denominators_exactly():
    assert linalg.int_row([Fraction(1, 2), 3, 0.25, Fraction(-5, 6)]) == (
        [6, 36, 3, -10], 12)
    assert linalg.int_row([]) == ([], 1)
    assert linalg.int_row([0, 0]) == ([0, 0], 1)


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


def _dense_gram(rows, q):
    return [[sum(a[k] * q[k][m] * b[m] for k in range(len(q)) for m in range(len(q)))
             for b in rows] for a in rows]


def test_form_gram_is_w_q_wt():
    half = Fraction(1, 2)
    q = [[0, 0, 0, 0], [0, 1, 0, half], [0, 0, 0, 0], [0, half, 0, -3]]
    form = linalg.sparse_form(q)
    assert form == ((1, 3), ((0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, -6)), 2)
    rows = [[Fraction(1, 3), 2, 5, Fraction(-1, 4)], [0, 0, 7, 0], [0] * 4,
            [1, Fraction(5, 6), 0, Fraction(2, 9)]]
    gram = linalg.form_gram(_pairs(rows), form)
    assert gram == _dense_gram(rows, q)
    assert all(type(x) is Fraction for row in gram for x in row)
    assert linalg.form_gram([], form) == []
    # a form with empty support has a zero Gram of the right size
    zero = linalg.sparse_form([[0] * 4 for _ in range(4)])
    assert zero == ((), (), 1)
    assert linalg.form_gram(_pairs(rows), zero) == [[0] * 4 for _ in range(4)]


def test_is_definite():
    assert linalg.is_definite([[Fraction(1), Fraction(0)],
                               [Fraction(0), Fraction(2)]])
    assert not linalg.is_definite([[Fraction(1), Fraction(0)],
                                   [Fraction(0), Fraction(-2)]])
    assert not linalg.is_definite([[Fraction(0)]])
