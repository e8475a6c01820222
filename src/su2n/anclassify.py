"""Subgroups of AN not contained in N.

Being a Cartan-decomposition subgroup does not change under conjugation, so
`classify_an` first conjugates a spec to its compatible form (`line_compatible`)
and classifies that.  A compatible subgroup is either a semidirect product
T x| U of a torus line with a unipotent part, the graph of a homomorphism
psi : ker(omega) -> U_omega U_{2omega} over a unipotent part, or a
one-parameter group; each spec's `line()` is its torus element, torus + psi,
or x.  Each case is matched against the corresponding list and returns the
asymptotic shape of its Cartan projection; cases quoted from the SO(2,n)
classification carry a symbolic exponent and are flagged unverifiable.  Both
case lists are data: `nilclassify.SEMIDIRECT_CASES`, and `_GRAPH_SHAPES` keyed
by (omega, sigma, r) for a simple omega.  `graph_case` reaches the other omega
by the simple reflection that makes it simple, applied to root names only,
and `lab` reads the same function for its extremal curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import linalg
from .elements import (
    AlgebraElement,
    ROOTS,
    ROOT_SLOT,
    REDUCED_ROOTS,
    exp_closed,
    int_bracket,
    kernel_line,
    primitive_line,
    root_value,
)
from .nilclassify import _frame_of, _slot_subspace, _span_in_slots, classify
from .shapes import MuShape
from .subalgebra import Subalgebra
from .weyl import conjugate


class AnError(ValueError):
    pass


class UNotNormalized(AnError):
    pass


class NoCaseMatched(AnError):
    pass


class SpecViolation(AnError):
    pass


@dataclass(frozen=True)
class TorusLine:
    p: int
    q: int

    def element(self, n):
        return AlgebraElement(n, t1=self.p, t2=self.q)

    @staticmethod
    def of_kernel(root: str) -> "TorusLine":
        p, q = kernel_line(root)
        return TorusLine(p, q)


@dataclass
class Semidirect:
    torus: TorusLine
    u: Subalgebra

    kind = "semidirect"

    @property
    def n(self):
        return self.u.n

    def line(self) -> AlgebraElement:
        return self.torus.element(self.n)


@dataclass
class Graph:
    omega: str
    psi_value: AlgebraElement
    u: Subalgebra

    kind = "graph"

    @property
    def n(self):
        return self.psi_value.n

    def torus(self) -> TorusLine:
        return TorusLine.of_kernel(self.omega)

    def line(self) -> AlgebraElement:
        return self.torus().element(self.n) + self.psi_value


@dataclass
class OneParam:
    x: AlgebraElement

    kind = "oneparam"

    @property
    def n(self):
        return self.x.n

    def line(self) -> AlgebraElement:
        return self.x


@dataclass
class AnResult:
    verdict: str  # "CDS" | "NotCDS"
    shape: MuShape
    case: str
    notes: str = ""
    r: Optional[int] = None
    nil_result: Optional[object] = None


# ---------------------------------------------------------------------------
# compatibility


def _normalized_by_element(w: AlgebraElement, u: Subalgebra) -> bool:
    """[w, b] in U for every basis element b of U, tested on the int
    brackets against the int echelon form U keeps."""
    return all(linalg.in_span(u.echelon, int_bracket(w, b)[0]) for b in u.basis)


def _commutes(X: AlgebraElement) -> bool:
    """[a-part, nilpotent part] = 0 for X: every root component of X sits on
    a root that the a-part of X kills."""
    return not any(int_bracket(X.a_part(), X)[0])


def _pair_slots(root: str) -> list:
    """Slots of U_root U_2root: the root's own, and its double's when the
    double is a root (beta adds yy, alpha+beta adds xx)."""
    c1, c2 = ROOTS[root]
    return [ROOT_SLOT[nm] for nm, v in ROOTS.items()
            if v in ((c1, c2), (2 * c1, 2 * c2))]


# ---------------------------------------------------------------------------
# semidirect products T x| U


def classify_semidirect(torus: TorusLine, u: Subalgebra, seed: int = 0) -> AnResult:
    """Match T x| U against the semidirect case list.

    T must be a nonzero torus line and U a nontrivial subgroup of N that T
    normalizes.  When U is a CDS so is H, which contains it.  Otherwise the
    case is the first row of the data table `nilclassify.SEMIDIRECT_CASES`
    that U's template and slot structure satisfy, which `classify` keeps in
    its result.  T lies in N_A(U), which `classify` checks is that row's
    line, so any generator of it, of either sign, gives the same case.
    """
    if torus.p == 0 and torus.q == 0:
        raise SpecViolation("T must be a nonzero torus line")
    if not u.is_nilpotent():
        raise SpecViolation("U must lie inside N")
    if not _normalized_by_element(torus.element(u.n), u):
        raise UNotNormalized(f"T = {torus} does not normalize U")
    nil = classify(u, seed=seed)
    if nil.is_cds:
        return AnResult("CDS", MuShape.full_chamber("semidirect-cds"),
                        "semidirect-cds", notes="H contains the CDS U",
                        nil_result=nil)
    row = nil.semidirect
    if row is None:
        raise NoCaseMatched(f"type-{nil.template.type_id} U fits no semidirect case")
    shape = row.shape_of(1 + u.dim)
    notes = "exponent quoted for SO(2,n); s symbolic" if shape.symbolic else ""
    return AnResult(row.verdict, shape, row.case, notes=notes, nil_result=nil)


# ---------------------------------------------------------------------------
# graphs of psi over U


# The graph cases for a simple omega, keyed by (omega, sigma, r); each is
# NotCDS with a band whose provenance names the case.
_GRAPH_SHAPES = {
    ("alpha", "alpha+beta", 2): MuShape.band(1, 2, log_hi=-1, provenance="graph-1"),
    ("alpha", "alpha+2beta", 2): MuShape.band(2, 2, log_lo=-2, provenance="graph-2"),
    ("beta", "alpha+2beta", 1): MuShape.band(1, 2, log_lo=Fraction(1, 2), provenance="graph-3"),
    ("beta", "alpha+2beta", 2): MuShape.band(1, 2, log_lo=1, provenance="graph-3"),
    ("beta", "alpha+beta", 1): MuShape.band(1, 1, log_hi=1, provenance="graph-4"),
    ("beta", "alpha+beta", 2): MuShape.band(1, 1, log_hi=2, provenance="graph-4"),
}

# the simple reflection that sends a non-simple reduced omega to a simple root
_SIMPLE_REFLECTION = {"alpha+beta": "alpha", "alpha+2beta": "beta"}


def _sigma_of(u: Subalgebra) -> Optional[str]:
    """The reduced root sigma whose pair U_sigma U_2sigma holds all of U."""
    frame = _frame_of(u)
    return next((sigma for sigma in REDUCED_ROOTS
                 if _span_in_slots(frame, frame.full, _pair_slots(sigma))), None)


def _reflected_root(name: str, simple: str) -> Optional[str]:
    """Image of a root under a simple reflection, or None for a negative
    image: s_alpha swaps t1 and t2, s_beta flips the sign of t2 (as actions
    on the functionals)."""
    c1, c2 = ROOTS[name]
    if simple == "alpha":
        c1, c2 = c2, c1
    else:
        c2 = -c2
    return next((nm for nm, v in ROOTS.items() if v == (c1, c2)), None)


def graph_case(spec: Graph):
    """(case, shape, r) of the listed graph case that spec's root names
    match, or None.

    The names are read after the simple reflection that makes omega simple,
    which maps root spaces to root spaces: U's pair sigma goes to the pair
    of its image, and psi's components on beta and 2beta are its components
    on their preimages (a reflection is its own inverse).  r, read before
    the lookup as it is part of the key, is 1 when psi lies in U_2beta alone
    and omega is beta after the reflection, else 2.
    """
    sigma = _sigma_of(spec.u)
    if sigma is None:
        return None
    simple = _SIMPLE_REFLECTION.get(spec.omega)

    def name(root):
        return _reflected_root(root, simple) if simple else root

    omega = name(spec.omega)
    psi = spec.psi_value
    r = (1 if omega == "beta" and psi.root_component(name("beta")).is_zero()
         and not psi.root_component(name("2beta")).is_zero() else 2)
    shape = _GRAPH_SHAPES.get((omega, name(sigma), r))
    return None if shape is None else (shape.provenance, shape, r)


def _classify_graph(spec: Graph, seed: int = 0) -> AnResult:
    """Match a compatible graph subgroup against the non-semidirect case list."""
    if not _normalized_by_element(spec.line(), spec.u):
        raise UNotNormalized("the graph line does not normalize U")
    # any intersection of U with the omega root spaces forces CDS
    if _slot_subspace(_frame_of(spec.u), _pair_slots(spec.omega)):
        return AnResult("CDS", MuShape.full_chamber("graph-omega-intersect"),
                        "graph-cds",
                        notes="U meets the omega root spaces")
    nil = classify(spec.u, seed=seed)
    if nil.is_cds:
        return AnResult("CDS", MuShape.full_chamber("graph-u-cds"), "graph-cds",
                        notes="H contains the CDS U", nil_result=nil)
    found = graph_case(spec)
    if found is None:
        sigma = _sigma_of(spec.u)
        raise NoCaseMatched("U is not supported in a single root pair"
                            if sigma is None else
                            f"unlisted pair omega={spec.omega}, sigma={sigma}")
    case, shape, r = found
    return AnResult("NotCDS", shape, case, r=r, nil_result=nil)


# ---------------------------------------------------------------------------
# one-parameter subgroups


def require_a_part(spec: OneParam):
    """Raise SpecViolation when X lies in n (no a-part): such a line is a
    nilpotent spec, for the nil classifier and its sampling."""
    if not (spec.x.t1 or spec.x.t2):
        raise SpecViolation("X lies in n; use the nil classifier")


def _one_param_shape(spec: OneParam) -> AnResult:
    """The ray-with-logarithmic-drift shape for a compatible one-parameter
    subgroup not of product form; the drift power k has no closed form and
    is left symbolic (the empirical lab fits it)."""
    require_a_part(spec)
    if spec.x.nilpotent_part().is_zero():
        raise SpecViolation("X lies in a; H = H ∩ A")
    return AnResult("NotCDS", MuShape.ray(None, provenance="oneparam"),
                    "oneparam", notes="drift power k fitted empirically")


# ---------------------------------------------------------------------------
# normalization to compatible form


def _sweep(X, U_basis):
    """Conjugate X, and U_basis with it, so that the a-part T of X commutes
    with its nilpotent part; returns the conjugated (X, U_basis).

    One pass over ROOTS, which runs in height order, is enough.  For Y in
    g_gamma, Ad(exp Y) T = T - gamma(T) Y, and Ad(exp Y) maps g_delta into
    the sum of the g_(delta + k gamma) with k >= 0.  So conjugating by
    exp(comp_gamma / gamma(T)) zeroes the gamma-component of X, changes only
    roots of greater height, and keeps the components already zeroed.
    """
    for nm in ROOTS:
        rv = root_value(nm, X.t1, X.t2)
        comp = X.root_component(nm)
        if rv != 0 and not comp.is_zero():
            g = exp_closed(comp.scale(Fraction(1, 1) / rv))
            X = conjugate(g, X)
            U_basis = [conjugate(g, b) for b in U_basis]
    return X, U_basis


def line_compatible(spec):
    """spec, or an exact conjugate of it whose line commutes with its a-part.

    A compatible line (spec.line()) has [a-part, nilpotent part] = 0, which
    is also what sampling needs to exponentiate it as diagonal x nilpotent.
    A Graph whose line fails that, or whose psi is not a nilpotent element
    outside U (so that H is no graph over U), is rebuilt by
    normalize_to_compatible; a OneParam is swept, and may end as a bare torus
    line.
    """
    if isinstance(spec, Graph):
        psi, X = spec.psi_value, spec.line()
        if (_commutes(X) and psi.is_nilpotent()
                and not spec.u.contains(psi)):
            return spec
        return normalize_to_compatible([X] + list(spec.u.basis))
    if isinstance(spec, OneParam) and not _commutes(spec.line()):
        return OneParam(_sweep(spec.line(), [])[0])
    return spec


def normalize_to_compatible(basis):
    """Conjugate a subalgebra of a+n (with nonzero a-part) into the
    compatible T * U * C_N(T) presentation.

    One pass of _sweep conjugates the torus-bearing element X to T + psi
    with psi on the roots that kill the torus line T, and U with it.  A
    double root kills the lines its half kills, so a nonzero psi sits on a
    reduced root omega that kills T, and omega is the only one: no two
    reduced roots kill the same line.  Returns a Semidirect, Graph, or
    OneParam spec, or the string "full-torus" when the a-projection is
    two-dimensional.
    """
    if not basis:
        raise SpecViolation("empty basis")
    a_rows = [[b.t1, b.t2] for b in basis]
    red, piv = linalg.rref(a_rows)
    if len(red) == 0:
        raise SpecViolation("subalgebra lies in n; use the nil classifier")
    if len(red) == 2:
        return "full-torus"
    p, q = primitive_line(red[0][0], red[0][1])
    # pick X with a-part exactly (p, q)
    xi = next(i for i, b in enumerate(basis) if (b.t1 or b.t2))
    scale = Fraction(p, 1) / basis[xi].t1 if basis[xi].t1 else Fraction(q, 1) / basis[xi].t2
    X = basis[xi].scale(scale)
    others = [b for i, b in enumerate(basis) if i != xi]
    # make the rest nilpotent by subtracting multiples of X
    U_basis = []
    for b in others:
        if b.t1 or b.t2:
            c = b.t1 / X.t1 if X.t1 else b.t2 / X.t2
            b = b - X.scale(c)
        if not b.is_zero():
            U_basis.append(b)
    X, U_basis = _sweep(X, U_basis)
    psi = X.nilpotent_part()
    torus = TorusLine(p, q)
    u_sub = Subalgebra(U_basis) if U_basis else None
    if psi.is_zero():
        if u_sub is None:
            raise SpecViolation("H = H ∩ A is a torus line")
        return Semidirect(torus, u_sub)
    if u_sub is None:
        return OneParam(X)
    # absorb psi into U when possible: then H is semidirect after all
    if u_sub.contains(psi):
        return Semidirect(torus, u_sub)
    omega = next(nm for nm in REDUCED_ROOTS if root_value(nm, p, q) == 0)
    return Graph(omega, psi, u_sub)


def classify_an(spec, seed: int = 0) -> AnResult:
    """Classify an AN spec on its compatible conjugate from line_compatible.

    Being a CDS, and the Cartan-projection shape, do not change under
    conjugation.  When the spec was conjugated, the notes name the kind and
    torus line of the subgroup that was classified.
    """
    work = line_compatible(spec)
    if isinstance(work, Semidirect):
        result = classify_semidirect(work.torus, work.u, seed=seed)
    elif isinstance(work, Graph):
        result = _classify_graph(work, seed=seed)
    elif isinstance(work, OneParam):
        result = _one_param_shape(work)
    else:
        raise TypeError("expected Semidirect, Graph, or OneParam")
    if work is not spec:
        x = work.line()
        p, q = primitive_line(x.t1, x.t2)
        conj = (f"classified the compatible conjugate: {work.kind} on the "
                f"torus line ({p}, {q})")
        result.notes = f"{result.notes}; {conj}" if result.notes else conj
    return result
