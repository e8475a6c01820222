"""Random subalgebra corpus for the classifier double-entry gate.

Random sparse nilpotent elements are closed under brackets; structured
slot-locked families are mixed in so the rarer templates appear, and every
nilpotent gallery entry is included.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .elements import AlgebraElement
from .gallery import entries as gallery_entries
from .scalars import QQi
from .subalgebra import SubalgebraError, close_under_bracket

_SLOTS = ["phi", "x", "y", "eta", "xx", "yy"]


def random_element(n, rng, max_slots=3, coeff=3):
    kw = {}
    for s in rng.sample(_SLOTS, rng.randint(1, max_slots)):
        if s in ("xx", "yy"):
            kw[s] = Fraction(rng.randint(-coeff, coeff))
        elif s in ("phi", "eta"):
            kw[s] = QQi(rng.randint(-coeff, coeff), rng.randint(-coeff, coeff))
        else:
            kw[s] = [QQi(rng.randint(-2, 2), rng.randint(-2, 2))
                     for _ in range(n - 2)]
    return AlgebraElement(n, **kw)


def _structured(n, rng):
    """Slot-locked families that random saturation rarely produces."""
    kind = rng.randrange(6)
    if kind == 0:  # phi locked to yy
        c = rng.randint(1, 3)
        return [AlgebraElement(n, phi=QQi(c), yy=1)]
    if kind == 1:  # x locked to a multiple of y
        lam = QQi(rng.randint(-2, 2), rng.randint(-2, 2))
        y = [QQi(1 if i == 0 else 0) for i in range(n - 2)]
        x = [lam * v for v in y]
        els = [AlgebraElement(n, x=x, y=y, xx=rng.randint(0, 2),
                              yy=rng.randint(0, 2))]
        return els
    if kind == 2:  # central line
        return [AlgebraElement(n, eta=QQi(rng.randint(-2, 2), rng.randint(-2, 2)),
                               xx=rng.randint(-2, 2), yy=rng.randint(-2, 2))]
    if kind == 3:  # phi line plus central element
        return [AlgebraElement(n, phi=QQi(1, rng.randint(-1, 1)),
                               y=[QQi(rng.randint(0, 1))] + [QQi(0)] * (n - 3)),
                AlgebraElement(n, eta=QQi(rng.randint(-2, 2)),
                               xx=rng.randint(-2, 2))]
    if kind == 4:  # pure slot plane
        s = rng.choice(_SLOTS)
        kw1, kw2 = {}, {}
        if s in ("xx", "yy"):
            kw1[s] = 1
            return [AlgebraElement(n, **kw1)]
        if s in ("phi", "eta"):
            kw1[s], kw2[s] = QQi(1), QQi(0, 1)
        else:
            kw1[s] = [QQi(1)] + [QQi(0)] * (n - 3)
            kw2[s] = [QQi(0, 1)] + [QQi(0)] * (n - 3)
        return [AlgebraElement(n, **kw1), AlgebraElement(n, **kw2)]
    return [random_element(n, rng, max_slots=2, coeff=2)]


def random_corpus(count=500, ns=(3, 4, 5), seed=0, include_gallery=True):
    """At least `count` validated nontrivial subalgebras of n."""
    rng = random.Random(seed)
    out = []
    if include_gallery:
        for e in gallery_entries():
            if e.kind == "nil":
                out.append((e.id, e.spec()))
    i = 0
    while len(out) < count:
        i += 1
        n = rng.choice(list(ns))
        structured = rng.random() < 0.35
        try:
            if structured:
                seed_els = _structured(n, rng)
                if rng.random() < 0.4:
                    seed_els.append(random_element(n, rng, max_slots=2, coeff=2))
            else:
                seed_els = [random_element(n, rng)
                            for _ in range(rng.randint(1, 3))]
            h = close_under_bracket(seed_els)
        except SubalgebraError:
            continue
        if all(b.is_zero() for b in h.basis):
            continue
        out.append((f"random-{i}", h))
    return out
