"""Curated subgroup gallery.

Covers every non-CDS template at least once (several in both the
one-dimensional curve form and the higher-dimensional band form), the
maximal-dimension constructions behind the dimension table, CDS examples
exercising each witness route, and representative semidirect / graph /
one-parameter subgroups of AN.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import linalg
from .anclassify import Graph, OneParam, Semidirect, TorusLine
from .elements import AlgebraElement, bracket
from .scalars import QQi, abs2, herm
from .shapes import MuShape
from .subalgebra import Subalgebra


def _el(n, **kw):
    return AlgebraElement(n, **kw)


@dataclass(frozen=True)
class GalleryEntry:
    id: str
    n: int
    kind: str  # "nil" | "semidirect" | "graph" | "oneparam"
    build: Callable
    expected_verdict: str
    expected_type: Optional[int] = None
    expected_case: Optional[str] = None
    expected_shape: Optional[MuShape] = None
    expected_normalizer: Optional[str] = None
    expected_dim: Optional[int] = None
    note: str = ""

    def spec(self):
        return self.build()


def mixing_pair_family(n: int, y, ytilde, x=None, xtilde=None, eta=0) -> Subalgebra:
    """Three-dimensional family from two phi-carrying generators.

    Builds u (phi = 1) and u~ (phi = i) over the given slot data, solving the
    two linear constraints on (yy, yy~) that make v = [u, u~] central to the
    family ([v, u] = [v, u~] = 0), which needs |y|^2 = |y~|^2 = 3i y y~+ != 0.
    Such pairs need C-independent y, y~, hence n >= 4.
    """
    d = n - 2
    x = list(x) if x is not None else [0] * d
    xtilde = list(xtilde) if xtilde is not None else [0] * d
    yv = [QQi(v) if not isinstance(v, QQi) else v for v in y]
    yt = [QQi(v) if not isinstance(v, QQi) else v for v in ytilde]
    s = sum((abs2(v) for v in yv), Fraction(0))
    st = sum((abs2(v) for v in yt), Fraction(0))
    cross = herm(yv, yt)
    if s == 0 or s != st or QQi(0, 3) * cross != QQi(s):
        raise ValueError("need |y|^2 = |y~|^2 = 3i y y~+ != 0; "
                         "no such pair exists for n = 3")

    def make(yy, yyt):
        u = _el(n, phi=1, y=yv, x=x, eta=eta, yy=yy)
        ut = _el(n, phi=QQi(0, 1), y=yt, x=xtilde, yy=yyt)
        return u, ut

    def residual(yy, yyt):
        u, ut = make(yy, yyt)
        v = bracket(u, ut)
        bu, but = bracket(v, u), bracket(v, ut)
        if bu.eta or but.eta:
            raise ValueError("pairing obstruction did not cancel")
        return [bu.xx, but.xx]

    base = residual(Fraction(0), Fraction(0))
    r10 = residual(Fraction(1), Fraction(0))
    r01 = residual(Fraction(0), Fraction(1))
    rows = [[r10[i] - base[i], r01[i] - base[i]] for i in range(2)]
    sol = linalg.solve_linear(rows, [-base[0], -base[1]])
    if sol is None:
        raise ValueError("locking constraints are inconsistent")
    u, ut = make(sol[0], sol[1])
    v = bracket(u, ut)
    if not (bracket(v, u).is_zero() and bracket(v, ut).is_zero()):
        raise ValueError("family does not close")
    return Subalgebra([u, ut, v])


def maximal_band_family(n: int) -> Subalgebra:
    """The dimension-(n+1) family with the 3/2..2 band (n >= 4): x runs over
    a real n-2 space, y is locked to (i*xx, x_1, ..., x_{n-3}), the doubled
    beta slot to x_{n-2}, and eta is free."""
    if n < 4:
        raise ValueError("the n+1-dimensional family needs n >= 4")
    d = n - 2
    basis = []
    for k in range(d):
        x = [QQi(1 if j == k else 0) for j in range(d)]
        y = [QQi(0)] * d
        if k + 1 < d:
            y[k + 1] = QQi(1)
        yy = 1 if k == d - 1 else 0
        basis.append(_el(n, x=x, y=y, yy=yy))
    ysp = [QQi(0)] * d
    ysp[0] = QQi(0, 1)
    basis.append(_el(n, xx=1, y=ysp))
    basis.append(_el(n, eta=1))
    basis.append(_el(n, eta=QQi(0, 1)))
    return Subalgebra(basis)


def _lem_pair_default(n=4):
    return mixing_pair_family(n, y=[3, QQi(0, 3)],
                              ytilde=[QQi(2, 3), QQi(1, -2)])


def _entries():
    E = GalleryEntry
    out = []

    # ---- the eleven non-CDS templates -------------------------------------
    out += [
        E("notcds01-2beta-n3", 3, "nil", lambda: Subalgebra([_el(3, yy=1)]),
          "NotCDS", 1, expected_shape=MuShape.curve(1),
          expected_normalizer="A", expected_dim=1,
          note="doubled-beta axis; rho grows linearly"),
        E("notcds01-null-n3", 3, "nil",
          lambda: Subalgebra([_el(3, eta=1, xx=1, yy=1)]),
          "NotCDS", 1, expected_shape=MuShape.curve(1),
          expected_normalizer="ker(alpha)", expected_dim=1,
          note="isotropic central line"),
        E("notcds02-n4", 4, "nil",
          lambda: Subalgebra([_el(4, x=[1, 0], yy=1), _el(4, xx=1)]),
          "NotCDS", 2, expected_shape=MuShape.band(1, Fraction(3, 2)),
          expected_normalizer="ker(alpha-beta)", expected_dim=2),
        E("notcds02-dim1-n3", 3, "nil",
          lambda: Subalgebra([_el(3, x=[1], yy=1)]),
          "NotCDS", 2, expected_shape=MuShape.curve(Fraction(3, 2)),
          expected_normalizer="ker(alpha-beta)", expected_dim=1),
        E("notcds03a-n4", 4, "nil",
          lambda: Subalgebra([_el(4, y=[1, 0], x=[QQi(0, 1), 0], xx=1),
                              _el(4, eta=-1, xx=1, yy=1)]),
          "NotCDS", 3, expected_shape=MuShape.band(1, Fraction(3, 2)),
          expected_normalizer="trivial", expected_dim=2,
          note="x locked to i*y with a drift direction"),
        E("notcds03a-dim1-n4", 4, "nil",
          lambda: Subalgebra([_el(4, y=[1, 0], x=[QQi(0, 1), 0], xx=1)]),
          "NotCDS", 3, expected_shape=MuShape.curve(Fraction(3, 2)),
          expected_normalizer="trivial", expected_dim=1),
        E("notcds03b-n4", 4, "nil",
          lambda: Subalgebra([_el(4, y=[1, 0], x=[QQi(0, 1), 0],
                                  xx=-1, yy=1)]),
          "NotCDS", 3, expected_shape=MuShape.curve(1),
          expected_normalizer="trivial", expected_dim=1,
          note="locked slots with vanishing drift"),
        E("notcds03b-beta-n4", 4, "nil",
          lambda: Subalgebra([_el(4, y=[1, 0]), _el(4, y=[QQi(0, 1), 0]),
                              _el(4, y=[0, 1]), _el(4, y=[0, QQi(0, 1)]),
                              _el(4, yy=1)]),
          "NotCDS", 3, expected_shape=MuShape.curve(1),
          expected_normalizer="A", expected_dim=5,
          note="full beta space with its double"),
        E("notcds04-n4", 4, "nil",
          lambda: Subalgebra([_el(4, x=[1, 0]), _el(4, x=[QQi(0, 1), 0]),
                              _el(4, x=[0, 1]), _el(4, x=[0, QQi(0, 1)]),
                              _el(4, xx=1)]),
          "NotCDS", 4, expected_shape=MuShape.curve(1),
          expected_normalizer="A", expected_dim=5,
          note="full alpha+beta space with its double"),
        E("notcds04-max-n4", 4, "nil",
          lambda: Subalgebra([_el(4, x=[1, 0]), _el(4, x=[QQi(0, 1), 0]),
                              _el(4, x=[0, 1]), _el(4, x=[0, QQi(0, 1)]),
                              _el(4, xx=1), _el(4, phi=1, eta=1),
                              _el(4, phi=QQi(0, 1), eta=QQi(0, 1))]),
          "NotCDS", 4, expected_shape=MuShape.curve(1),
          expected_normalizer="ker(beta)", expected_dim=7,
          note="dimension 2n-1 realization of the linear-growth family"),
        E("notcds05-dim1-n3", 3, "nil",
          lambda: Subalgebra([_el(3, phi=1, yy=1)]),
          "NotCDS", 5, expected_shape=MuShape.curve(Fraction(4, 3)),
          expected_normalizer="ker(alpha-2beta)", expected_dim=1,
          note="phi locked to the doubled beta slot"),
        E("notcds05-n4", 4, "nil",
          lambda: Subalgebra([_el(4, phi=1, yy=1), _el(4, x=[1, 0])]),
          "NotCDS", 5, expected_shape=MuShape.band(1, Fraction(4, 3)),
          expected_normalizer="ker(alpha-2beta)", expected_dim=2),
        E("notcds06-pair-n4", 4, "nil",
          lambda: Subalgebra([_el(4, x=[1, 0], y=[0, 1])]),
          "NotCDS", 6, expected_shape=MuShape.curve(2),
          expected_normalizer="ker(alpha)", expected_dim=1,
          note="independent x, y on a line"),
        E("notcds06-eta-n3", 3, "nil",
          lambda: Subalgebra([_el(3, eta=1), _el(3, eta=QQi(0, 1))]),
          "NotCDS", 6, expected_shape=MuShape.curve(2),
          expected_normalizer="A", expected_dim=2,
          note="full eta plane"),
        E("notcds07-max-n4", 4, "nil", lambda: maximal_band_family(4),
          "NotCDS", 7, expected_shape=MuShape.band(Fraction(3, 2), 2),
          expected_normalizer="trivial", expected_dim=5,
          note="maximal 3/2..2 band family, dimension n+1"),
        E("notcds07-n3", 3, "nil",
          lambda: Subalgebra([_el(3, x=[1], yy=1), _el(3, eta=1),
                              _el(3, eta=QQi(0, 1))]),
          "NotCDS", 7, expected_shape=MuShape.band(Fraction(3, 2), 2),
          expected_normalizer="ker(alpha-beta)", expected_dim=3,
          note="maximal 3/2..2 band family at n = 3"),
        E("notcds08-pair-n4", 4, "nil", lambda: _lem_pair_default(4),
          "NotCDS", 8, expected_shape=MuShape.curve(Fraction(3, 2)),
          expected_normalizer="ker(alpha-beta)", expected_dim=3,
          note="three-dimensional locked family from a mixing pair"),
        E("notcds08-n3", 3, "nil",
          lambda: Subalgebra([_el(3, phi=1, y=[1]),
                              _el(3, x=[QQi(0, -1)], yy=1)]),
          "NotCDS", 8, expected_shape=MuShape.curve(Fraction(3, 2)),
          expected_normalizer="ker(alpha-beta)", expected_dim=2,
          note="maximal curve-3/2 family at n = 3"),
        E("notcds09-n3", 3, "nil",
          lambda: Subalgebra([_el(3, phi=1, y=[1]), _el(3, xx=1)]),
          "NotCDS", 9, expected_shape=MuShape.band(1, Fraction(3, 2)),
          expected_normalizer="ker(alpha-beta)", expected_dim=2),
        E("notcds10-n3", 3, "nil", lambda: Subalgebra([_el(3, phi=1)]),
          "NotCDS", 10, expected_shape=MuShape.curve(2),
          expected_normalizer="A", expected_dim=1,
          note="bare phi line"),
        E("notcds10-x-n4", 4, "nil",
          lambda: Subalgebra([_el(4, phi=1, x=[1, 0],
                                  eta=Fraction(-1, 2))]),
          "NotCDS", 10, expected_shape=MuShape.curve(2),
          expected_normalizer="ker(beta)", expected_dim=1,
          note="phi line with a null x/eta tail"),
        E("notcds11-n3", 3, "nil",
          lambda: Subalgebra([_el(3, phi=1, y=[1]), _el(3, eta=1, xx=1)]),
          "NotCDS", 11, expected_shape=MuShape.band(Fraction(5, 4), 2),
          expected_normalizer="trivial", expected_dim=2,
          note="the 5/4..2 band pair"),
    ]

    # ---- CDS examples ------------------------------------------------------
    out += [
        E("cds-squarelinear-n4", 4, "nil",
          lambda: Subalgebra([_el(4, x=[1, 0], y=[0, 1]),
                              _el(4, eta=1, xx=1, yy=1)]),
          "CDS", note="independent pair plus isotropic central line"),
        E("cds-fulln-n3", 3, "nil", lambda: _full_n(3), "CDS",
          expected_dim=10, note="all of the nilpotent algebra"),
        E("cds-real-pair-n3", 3, "nil",
          lambda: Subalgebra([_el(3, phi=1, y=[1]), _el(3, eta=1)]),
          "CDS", note="real mixed pair with vanishing pairing obstruction"),
    ]

    # ---- semidirect AN entries ---------------------------------------------
    out += [
        E("semi01b-n3", 3, "semidirect",
          lambda: Semidirect(TorusLine.of_kernel("alpha"),
                             Subalgebra([_el(3, eta=1, xx=1, yy=1)])),
          "CDS", expected_case="semidirect-1b"),
        E("semi01a-n3", 3, "semidirect",
          lambda: Semidirect(TorusLine.of_kernel("beta"),
                             Subalgebra([_el(3, yy=1)])),
          "NotCDS", expected_case="semidirect-1a",
          note="symbolic exponent; unverifiable here"),
        E("semi02-n4", 4, "semidirect",
          lambda: Semidirect(TorusLine.of_kernel("alpha-beta"),
                             Subalgebra([_el(4, x=[1, 0], yy=1),
                                         _el(4, xx=1)])),
          "NotCDS", expected_case="semidirect-2",
          expected_shape=MuShape.band(1, Fraction(3, 2))),
        E("semi04bii-n4", 4, "semidirect",
          lambda: Semidirect(TorusLine.of_kernel("2alpha+beta"),
                             Subalgebra([_el(4, y=[1, 0], xx=1)])),
          "NotCDS", expected_case="semidirect-4bii",
          expected_shape=MuShape.curve(Fraction(3, 2))),
        E("semi08x-n4", 4, "semidirect",
          lambda: Semidirect(TorusLine.of_kernel("alpha-beta"),
                             Subalgebra([_el(4, x=[1, 0], yy=1),
                                         _el(4, eta=1), _el(4, eta=QQi(0, 1))])),
          "NotCDS", expected_case="semidirect-8x",
          expected_shape=MuShape.band(Fraction(3, 2), 2),
          note="maximal semidirect band family, dimension 4"),
        E("semi11c-n3", 3, "semidirect",
          lambda: Semidirect(TorusLine.of_kernel("alpha+2beta"),
                             Subalgebra([_el(3, phi=1, xx=1)])),
          "NotCDS", expected_case="semidirect-11c",
          expected_shape=MuShape.curve(2)),
    ]

    # ---- graph AN entries ---------------------------------------------------
    out += [
        E("graph01-n4", 4, "graph",
          lambda: Graph("alpha", _el(4, phi=1), Subalgebra([_el(4, x=[1, 0])])),
          "NotCDS", expected_case="graph-1",
          expected_shape=MuShape.band(1, 2, log_hi=-1),
          note="upper envelope |h|^2 / log|h|"),
        E("graph02-n3", 3, "graph",
          lambda: Graph("alpha", _el(3, phi=1), Subalgebra([_el(3, eta=1)])),
          "NotCDS", expected_case="graph-2",
          expected_shape=MuShape.band(2, 2, log_lo=-2)),
        E("graph03-r1-n3", 3, "graph",
          lambda: Graph("beta", _el(3, yy=1), Subalgebra([_el(3, eta=1)])),
          "NotCDS", expected_case="graph-3",
          expected_shape=MuShape.band(1, 2, log_lo=Fraction(1, 2)),
          note="lower envelope |h| (log|h|)^{1/2}"),
        E("graph03-r2-n3", 3, "graph",
          lambda: Graph("beta", _el(3, y=[1]), Subalgebra([_el(3, eta=1)])),
          "NotCDS", expected_case="graph-3",
          expected_shape=MuShape.band(1, 2, log_lo=1)),
        E("graph04-r1-n4", 4, "graph",
          lambda: Graph("beta", _el(4, yy=1), Subalgebra([_el(4, x=[1, 0])])),
          "NotCDS", expected_case="graph-4",
          expected_shape=MuShape.band(1, 1, log_hi=1)),
        E("graph04-r2-n4", 4, "graph",
          lambda: Graph("beta", _el(4, y=[1, 0]), Subalgebra([_el(4, x=[0, 1])])),
          "NotCDS", expected_case="graph-4",
          expected_shape=MuShape.band(1, 1, log_hi=2),
          note="the orthogonal x-direction survives the beta-slot action"),
        E("graphcds-n3", 3, "graph",
          lambda: Graph("beta", _el(3, yy=1), Subalgebra([_el(3, y=[1])])),
          "CDS", expected_case="graph-cds"),
    ]

    # ---- one-parameter -------------------------------------------------------
    out += [
        E("oneparam-alpha-n3", 3, "oneparam",
          lambda: OneParam(_el(3, t1=1, t2=1, phi=1)),
          "NotCDS", expected_case="oneparam", expected_shape=MuShape.ray(None),
          note="ray with logarithmic drift; k fitted, expected near 1"),
    ]
    return out


def _full_n(n):
    basis = []
    d = n - 2
    for re_im in (1, QQi(0, 1)):
        basis.append(_el(n, phi=re_im))
        basis.append(_el(n, eta=re_im))
        for k in range(d):
            basis.append(_el(n, x=[re_im if j == k else 0 for j in range(d)]))
            basis.append(_el(n, y=[re_im if j == k else 0 for j in range(d)]))
    basis.append(_el(n, xx=1))
    basis.append(_el(n, yy=1))
    return Subalgebra(basis)


_ALL = None


def entries():
    global _ALL
    if _ALL is None:
        _ALL = _entries()
    return list(_ALL)


def get(entry_id: str) -> GalleryEntry:
    for e in entries():
        if e.id == entry_id:
            return e
    raise KeyError(f"no gallery entry {entry_id!r}")
