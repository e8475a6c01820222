"""The classifier's int reads against their Fraction formulas.

nilclassify decides on the ints of each row (ints, den), the rational row
times its denominator, and on the int lambda (lr, li, ld) = lambda * ld.
Each int read must equal its Fraction formula of tests/references.py times
the documented positive factor, and each kernel the reference kernel of the
rational value matrix, row for row.
"""

import functools
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from su2n import AlgebraElement, corpus, gallery, linalg
from su2n.nilclassify import (
    _Frame,
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
    fraction_lambda,
    fraction_pencil_roots,
    fraction_phi_conj_eta,
    fraction_rank_xy,
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
    """The part of a frame that kernel, kernel_of and the slot reads use."""
    frame = SimpleNamespace(n=n, cols=AlgebraElement.slot_columns(n))
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
