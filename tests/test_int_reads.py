"""The classifier's int reads against their Fraction formulas.

nilclassify decides on the ints of each row (ints, den), the rational row
times its denominator, and on the int lambda (lr, li, ld) = lambda * ld.
Each int read must equal its Fraction formula of tests/references.py times
the documented positive factor, each kernel the reference kernel of the
rational value matrix, row for row, and each signature, taken on ints, the
Fraction elimination's, value for value.
"""

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from su2n import AlgebraElement, corpus, gallery, linalg, nilclassify
from su2n.nilclassify import (
    _Frame,
    _minor_forms,
    _minor_grams,
    _rows_key,
    _image_complex_line,
    _int_lambda,
    _lambda_of,
    _pencil_rank1_roots,
    _phi_conj_eta,
    _rank_xy,
    _wedge_parts,
    _x_minus_lam_y,
    classify,
    d_lambda,
)
from su2n.scalars import QQi

from references import (
    fraction_d_lambda,
    fraction_kernel_basis,
    fraction_lambda,
    fraction_pencil_roots,
    fraction_phi_conj_eta,
    fraction_rank_xy,
    fraction_signature,
    fraction_x_minus_lam_y,
    int_lambda,
    reference_kernel,
)

_SLOTS = ["phi", "x", "y", "eta", "xx", "yy"]
_lambdas = st.builds(QQi, st.fractions(min_value=-5, max_value=5, max_denominator=6),
                     st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def _rows(draw, min_size=1, max_size=4, combine=True):
    """(n, rows): coordinate rows at n with mixed denominators, about half
    their entries zero, whole slots zero at random, and (with `combine`) now
    and then a combination of the others appended."""
    n = draw(st.integers(3, 6))
    zero = draw(st.sets(st.sampled_from(_SLOTS)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cols = AlgebraElement.slot_columns(n)
    rows = []
    for _ in range(draw(st.integers(min_size, max_size))):
        row = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 12)))
               if rng.random() < 0.5 else Fraction(0) for _ in range(4 * n)]
        for name in zero:
            row[cols[name]] = [Fraction(0)] * len(row[cols[name]])
        rows.append(row)
    if combine and len(rows) > 1 and draw(st.booleans()):
        coeffs = [rng.randint(-2, 2) for _ in rows]
        if any(coeffs):
            rows.append([sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(4 * n)])
    return n, rows


def _frame(n):
    """The part of a frame that kernel, kernel_of and the slot reads use:
    no rows of h, and nothing solved yet."""
    frame = SimpleNamespace(n=n, cols=AlgebraElement.slot_columns(n), full=None, _solved={})
    frame._once = functools.partial(_Frame._once, frame)
    frame._key = functools.partial(_Frame._key, frame)
    frame.func_on = functools.partial(_Frame.func_on, frame)
    frame.funcs_on = functools.partial(_Frame.funcs_on, frame)
    frame.kernel_of = functools.partial(_Frame.kernel_of, frame)
    return frame


def _as_rows(rows):
    """The rational rows as (ints, den), as a frame holds them."""
    return [linalg.int_row(r) for r in rows]


def _check_rows(got, want):
    """The same rows, each over its least positive denominator."""
    assert got == want
    assert all(den > 0 and math.gcd(den, *ints) == 1 for ints, den in got)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_rows(), st.lists(st.sampled_from(_SLOTS), min_size=1, max_size=3, unique=True))
def test_slot_kernels_equal_the_reference_kernel(nrows, names):
    n, rows = nrows
    frame, within = _frame(n), _as_rows(rows)
    want = reference_kernel(lambda c: frame.funcs_on(names, c), within)
    _check_rows(_Frame.kernel(frame, names, within), want)
    _check_rows(_Frame.kernel_of(frame, lambda c: frame.funcs_on(names, c), within), want)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_rows(), _lambdas, st.integers(0, 3))
def test_int_value_kernels_equal_the_reference_kernel(nrows, lam, pick):
    """kernel_of on the int rows and the int lambda, z and v0 gives the
    kernel of the Fraction formulas on the rational rows."""
    n, rows = nrows
    frame, within = _frame(n), _as_rows(rows)
    z, (zi, _) = rows[pick % len(rows)], within[pick % len(rows)]
    v0 = frame.func_on("y", z)
    cases = [
        (lambda c: _x_minus_lam_y(frame, int_lambda(lam), c),
         lambda c: fraction_x_minus_lam_y(n, lam, c)),
        (lambda c: [d_lambda(n, c, int_lambda(lam))],
         lambda c: [fraction_d_lambda(n, c, lam)]),
        (lambda c: [_phi_conj_eta(frame, c, zi)[1]],
         lambda c: [fraction_phi_conj_eta(n, c, z)[1]]),
        (lambda c: _wedge_parts(frame.func_on("y", zi), frame.func_on("x", c)),
         lambda c: _wedge_parts(v0, frame.func_on("x", c))),
    ]
    for values, fraction_values in cases:
        _check_rows(_Frame.kernel_of(frame, values, within),
                    reference_kernel(fraction_values, within))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_rows(min_size=2, max_size=2, combine=False), _lambdas)
def test_int_slot_reads_equal_their_fraction_formulas(nrows, lam):
    """On a row's ints U = D u, and at the int lambda of a QQi lambda: the
    rank and lambda are those of u, x - lambda y and phi conj(eta) are
    their Fraction values times ld D and D_u D_z, D_lambda times ld^2 D."""
    n, (u, z) = nrows
    frame = _frame(n)
    (ui, du), (zi, dz) = linalg.int_row(u), linalg.int_row(z)
    lr, li, ld = int_lambda(lam)
    assert _rank_xy(n, (ui, du)) == fraction_rank_xy(n, u)
    assert _lambda_of(n, (ui, du)) == fraction_lambda(n, u)
    if _lambda_of(n, (ui, du)) is not None:
        assert int_lambda(_lambda_of(n, (ui, du))) == _int_lambda(n, (ui, du))
    assert _x_minus_lam_y(frame, (lr, li, ld), ui) == \
        [ld * du * v for v in fraction_x_minus_lam_y(n, lam, u)]
    assert d_lambda(n, ui, (lr, li, ld)) == ld * ld * du * fraction_d_lambda(n, u, lam)
    assert _phi_conj_eta(frame, ui, zi) == \
        tuple(du * dz * v for v in fraction_phi_conj_eta(n, u, z))
    v0 = _image_complex_line(frame, "y", [(ui, du), (zi, dz)])
    if v0 is None:
        ys = [frame.func_on("y", r) for r in (u, z)]
        first = next((y for y in ys if any(y)), None)
        assert first is None or any(any(_wedge_parts(first, y)) for y in ys)
    else:
        assert all(type(a) is int for a in v0)
        first = next(r for r in (u, z) if any(frame.func_on("y", r)))
        d = linalg.int_row(first)[1]
        assert v0 == [d * a for a in frame.func_on("y", first)]


@st.composite
def _pencils(draw):
    """(n, ci, cj), with ci + t0 cj a rank-one row at a rational t0 in
    about half the draws."""
    n, (ci, cj) = draw(_rows(min_size=2, max_size=2, combine=False))
    if draw(st.booleans()):
        lam = draw(_lambdas)
        y = [draw(_lambdas) for _ in range(n - 2)]
        r = AlgebraElement(n, phi=draw(_lambdas), x=[lam * v for v in y], y=y).coords()
        t0 = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
        ci = [a - t0 * b for a, b in zip(r, cj)]
    return n, ci, cj


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_pencils())
def test_rescaled_pencil_roots_equal_the_fraction_pencil(pencil):
    """The roots found on the rows' ints and rescaled by their denominators
    are the Fraction pencil's roots, in the same order."""
    n, ci, cj = pencil
    assert _pencil_rank1_roots(n, linalg.int_row(ci), linalg.int_row(cj)) == \
        fraction_pencil_roots(n, ci, cj)


def test_frame_kernels_solve_no_trivial_matrix(monkeypatch):
    """Over the seed-0 corpus and the nil gallery, classify never hands
    kernel_basis an all-zero value matrix or the values on a single row:
    those kernels are read off the matrix."""
    seen = []
    kernel_basis = linalg.kernel_basis

    def spy(rows):
        seen.append([list(ints) for ints, _ in rows])
        return kernel_basis(rows)

    monkeypatch.setattr(linalg, "kernel_basis", spy)
    specs = [h for _, h in corpus.random_corpus(count=120, seed=0)]
    specs += [e.spec() for e in gallery.entries() if e.kind == "nil"]
    for h in specs:
        classify(h)
    assert len(seen) > 100
    assert not [m for m in seen if not any(itertools.chain(*m))]
    assert not [m for m in seen if len(m[0]) == 1]


def _values(v):
    """The Fractions of a vector (ints, den), checked to be that form over
    its least positive denominator."""
    ints, den = v
    assert den > 0 and math.gcd(den, *ints) == 1
    return [Fraction(a, den) for a in ints]


def _check_signature(gram):
    """linalg.signature of `gram` is the Fraction elimination's: the same
    (p, n, z), diagonal values and congruence vectors, in order."""
    p, n, z, cert = linalg.signature(gram)
    want = fraction_signature(gram)
    assert (p, n, z) == want[:3], gram
    for key in ("positive", "negative"):
        assert [(d, _values(v)) for d, v in cert[key]] == want[3][key], (gram, key)
    assert [_values(v) for v in cert["radical"]] == want[3]["radical"], gram


_entries = st.one_of(st.just(0), st.integers(-9, 9),
                     st.fractions(min_value=-9, max_value=9, max_denominator=12))


@st.composite
def _symmetric(draw):
    """A symmetric rational matrix of size d <= 6: its diagonal zero now and
    then (the fold path), and now and then row and column b a copy of row
    and column a (singular)."""
    d = draw(st.integers(0, 6))
    zero_diagonal = draw(st.booleans())
    m = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            m[i][j] = m[j][i] = 0 if i == j and zero_diagonal else draw(_entries)
    if d > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(range(d)))[:2]
        for k in range(d):
            m[b][k] = m[a][k]
        for k in range(d):
            m[k][b] = m[k][a]
    return m


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_symmetric())
def test_signature_equals_the_fraction_signature(gram):
    _check_signature(gram)


def test_signature_of_every_corpus_gram_equals_the_fraction_signature(monkeypatch):
    """Every Gram (G, den) that classify builds over random_corpus(count=300)
    at seeds 0, 1 and 2 has the Fraction signature on G and on G / den."""
    grams = []
    form_gram = linalg.form_gram

    def spy(rows, form):
        gram = form_gram(rows, form)
        grams.append(gram)
        return gram

    monkeypatch.setattr(linalg, "form_gram", spy)
    for seed in range(3):
        for _, h in corpus.random_corpus(count=300, seed=seed):
            classify(h)
    distinct = {tuple(map(tuple, g)): (g, den) for g, den in grams}
    assert len(distinct) > 500
    for g, den in distinct.values():
        _check_signature(g)
        _check_signature([[Fraction(x, den) for x in row] for row in g])


def test_frame_kernels_are_the_reference_vectors_combined(monkeypatch):
    """Each kernel classify solves over the seed-0 corpus and the nil gallery
    is the rows of `within` combined by the Fraction kernel vectors of its
    value matrix."""
    solve_kernel, seen = nilclassify._solve_kernel, []

    def spy(values, within):
        got = solve_kernel(values, within)
        matrix = [r for r in values if any(r)] or [[0] * len(within)]
        # h's own rows hold their ints as tuples
        assert [(list(ints), den) for ints, den in got] == [
            linalg.combine(within, k) for k in fraction_kernel_basis([(r, 1) for r in matrix])]
        seen.append(len(matrix) > 1 or any(matrix[0]))
        return got

    monkeypatch.setattr(nilclassify, "_solve_kernel", spy)
    specs = [h for _, h in corpus.random_corpus(count=120, seed=0)]
    specs += [e.spec() for e in gallery.entries() if e.kind == "nil"]
    for h in specs:
        classify(h)
    assert sum(seen) > 100


def test_each_kernel_gram_and_signature_is_solved_once_per_frame(monkeypatch):
    """Over the seed-0 corpus and the nil gallery, each kernel (value matrix,
    within), fixed-form Gram, minor-part Grams and signature a frame is
    asked for is solved by one run of its solver (form_gram once per minor
    form), and some are asked for again; every kernel and signature is
    taken so, and each slot kernel (names, within) is asked for under one
    value matrix."""
    once = _Frame._once
    asked, solving, calls = [], [], Counter()

    def once_spy(self, what, key, solve):
        asked.append((self, what, key))

        def counted():
            solving.append((self, what, key))
            try:
                return solve()
            finally:
                solving.pop()
        return once(self, what, key, counted)

    def counting(name, fn):
        def spy(*args):
            calls[name, solving[-1] if solving else None] += 1
            return fn(*args)
        return spy

    kernel, names_of = _Frame.kernel, {}

    def kernel_spy(self, names, within=None):
        start = len(asked)
        got = kernel(self, names, within)
        if len(asked) > start:  # the one request kernel_of made, if within is not empty
            rows = self.full if within is None else within
            names_of.setdefault((self, tuple(names), _rows_key(rows)), set()).add(asked[start])
        return got

    monkeypatch.setattr(_Frame, "_once", once_spy)
    monkeypatch.setattr(_Frame, "kernel", kernel_spy)
    monkeypatch.setattr(nilclassify, "_solve_kernel",
                        counting("_solve_kernel", nilclassify._solve_kernel))
    monkeypatch.setattr(linalg, "form_gram", counting("form_gram", linalg.form_gram))
    monkeypatch.setattr(linalg, "signature", counting("signature", linalg.signature))
    specs = [h for _, h in corpus.random_corpus(count=120, seed=0)]
    specs += [e.spec() for e in gallery.entries() if e.kind == "nil"]
    for h in specs:
        classify(h)
    assert len(asked) > len(set(asked)) + 100
    solved = {request for _, request in calls if request is not None}
    assert len(solved) > 500 and solved <= set(asked)
    for (name, request), count in calls.items():
        if request is None:
            # the Grams of t_pair and pair_e at one z are not kept
            assert name == "form_gram"
            continue
        frame, what, _ = request
        assert count == (len(_minor_forms(frame.n)) if what is _minor_grams else 1), request
    assert len(names_of) > 500 and all(len(r) == 1 for r in names_of.values())
