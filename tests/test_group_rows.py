"""Exact group elements are their Gaussian-integer rows.

`exp_closed`, `GroupElement.identity`/`diagonal`, `weyl_matrix` and
`weyl.conjugate` build and read group elements on ints, with no QQi
in between; the QQi matrix is only the `.mat` view.  Conjugation on the rows
must equal the QQi route of tests/references.py, NotInAN entry included.
"""

import random
import sys
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from su2n import AlgebraElement, GroupElement, corpus, scalars
from su2n.elements import NotInAN, exp_closed, exp_series
from su2n.weyl import conjugate, weyl_matrix

from references import qqi_conjugate


def _fraction(rng):
    return Fraction(rng.randint(1, 9), rng.choice([1, 2, 7, 89]))


def _nilpotent(n, rng):
    return corpus.random_element(n, rng, max_slots=6).scale(_fraction(rng))


def _element(n, rng):
    """A random element of a+n: a scaled nilpotent one, half the time with an a-part."""
    u = _nilpotent(n, rng)
    if rng.random() < 0.5:
        u = u + AlgebraElement(n, t1=Fraction(rng.randint(-5, 5), 3),
                               t2=Fraction(rng.randint(-5, 5), 7))
    return u


def _base_conjugator(n, rng):
    kind = rng.choice(("exp_closed", "exp_series", "diagonal", "alpha", "beta"))
    if kind == "exp_closed":
        return exp_closed(_nilpotent(n, rng))
    if kind == "exp_series":
        return exp_series(_nilpotent(n, rng))
    if kind == "diagonal":
        return GroupElement.diagonal(n, _fraction(rng), _fraction(rng))
    return weyl_matrix(n, kind)


@st.composite
def _conjugations(draw):
    """(g, u): g a drawn conjugator, a product of up to three of them and
    now and then inverted, and u a random element of a+n."""
    n = draw(st.integers(3, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = _base_conjugator(n, rng)
    for _ in range(draw(st.integers(0, 2))):
        g = g @ _base_conjugator(n, rng)
    if draw(st.booleans()):
        g = g.inverse()
    return g, _element(n, rng), _nilpotent(n, rng)


def _outcome(conj, g, u):
    try:
        return conj(g, u)
    except NotInAN as err:
        return str(err)


@settings(max_examples=150, deadline=None)
@given(_conjugations())
def test_conjugation_on_rows_equals_the_qqi_route(case):
    g, u, w = case
    assert _outcome(conjugate, g, u) == _outcome(qqi_conjugate, g, u)
    # the closed form holds the rows and denominator of the series oracle
    a, b = exp_closed(w), exp_series(w)
    assert (a.rows, a.den) == (b.rows, b.den)


def test_the_qqi_route_reports_the_entry_it_breaks_at():
    # the reference names the first entry off the pattern, as conjugate does
    rng = random.Random(3)
    messages = set()
    for _ in range(40):
        n = rng.choice((3, 4))
        g, u = weyl_matrix(n, rng.choice(("alpha", "beta"))), _element(n, rng)
        got = _outcome(conjugate, g, u)
        assert got == _outcome(qqi_conjugate, g, u)
        if isinstance(got, str):
            messages.add(got)
    assert len(messages) >= 2


def _qqi_spy(monkeypatch):
    """A list that grows by one for every QQi built from here on."""
    built = []
    make, init = scalars._make, scalars.GaussianRational.__init__

    def counted_make(re, im):
        built.append(1)
        return make(re, im)

    def counted_init(self, *args):
        built.append(1)
        init(self, *args)
    for name, module in list(sys.modules.items()):
        if name.startswith("su2n") and getattr(module, "_make", None) is make:
            monkeypatch.setattr(module, "_make", counted_make)
    monkeypatch.setattr(scalars.GaussianRational, "__init__", counted_init)
    return built


def test_group_elements_are_built_and_conjugated_without_qqi(monkeypatch):
    specs = corpus.random_corpus(count=40, ns=(3, 4), seed=13, include_gallery=False)
    rng = random.Random(13)
    draws = [(h, _nilpotent(h.n, rng), _fraction(rng), _fraction(rng)) for _, h in specs]
    built = _qqi_spy(monkeypatch)
    read, broken = 0, 0
    for h, u, a1, a2 in draws:
        n = h.n
        for g in (exp_closed(u), GroupElement.identity(n), GroupElement.diagonal(n, a1, a2),
                  weyl_matrix(n, "alpha"), weyl_matrix(n, "beta")):
            for b in h.basis:
                read += 1
                broken += isinstance(_outcome(conjugate, g, b), str)
    assert built == []
    assert 0 < broken < read
    # the spy sees a QQi view being built
    GroupElement.identity(3).mat
    assert built
