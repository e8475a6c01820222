"""Subgroups of AN not contained in N.

Such a subgroup (once compatible with A) is either a semidirect product
T x| U of a torus line with a unipotent part, the graph of a homomorphism
psi : ker(omega) -> U_omega U_{2omega} over a unipotent part, or a
one-parameter group.  Each case is matched against the corresponding list and
returns the asymptotic shape of its Cartan projection; cases quoted from the
SO(2,n) classification carry a symbolic exponent and are flagged
unverifiable.
"""

from __future__ import annotations

import random
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
    kernel_line,
    root_value,
)
from .nilclassify import (
    _Frame,
    _h_decomposes,
    _slot_subspace,
    _span_in_slots,
    _ad_diag,
    classify,
)
from .shapes import MuShape
from .subalgebra import Subalgebra
from .weyl import conjugate, weyl_matrix


class AnError(ValueError):
    pass


class UNotNormalized(AnError):
    pass


class UIsCds(AnError):
    pass


class NoCaseMatched(AnError):
    pass


class SpecViolation(AnError):
    pass


class NormalizationFailed(AnError):
    pass


@dataclass(frozen=True)
class TorusLine:
    p: int
    q: int

    def element(self, n):
        return AlgebraElement(n, t1=self.p, t2=self.q)

    def root_name(self) -> Optional[str]:
        from .elements import EXTENDED_FUNCTIONALS, root_functional
        for nm in list(ROOTS) + list(EXTENDED_FUNCTIONALS):
            c1, c2 = root_functional(nm)
            if c1 * self.p + c2 * self.q == 0:
                return nm
        return None

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

    def dim(self):
        return 1 + self.u.dim


@dataclass
class Graph:
    omega: str
    psi_value: AlgebraElement
    u: Subalgebra

    kind = "graph"

    @property
    def n(self):
        return self.psi_value.n

    def dim(self):
        return 1 + self.u.dim

    def torus(self) -> TorusLine:
        return TorusLine.of_kernel(self.omega)


@dataclass
class OneParam:
    x: AlgebraElement

    kind = "oneparam"

    @property
    def n(self):
        return self.x.n

    def dim(self):
        return 1


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


def _centralizer_slots(torus: TorusLine):
    return [ROOT_SLOT[nm] for nm in ROOTS
            if root_value(nm, torus.p, torus.q) == 0]


def _normalizes(torus: TorusLine, u: Subalgebra) -> bool:
    rows = u.coord_rows()
    t = torus
    return all(linalg.span_contains(rows, _ad_diag(b, t.p, t.q).coords())
               for b in u.basis)


def _normalized_by_element(w: AlgebraElement, u: Subalgebra) -> bool:
    from .elements import bracket
    rows = u.coord_rows()
    return all(linalg.span_contains(rows, bracket(w, b).coords())
               for b in u.basis)


def is_compatible(spec) -> bool:
    """H inside T * U * C_N(T) with T = A ∩ (HN) and U = H ∩ N.

    For a Semidirect this is the normalization of U by T; a Graph needs its
    psi value inside the root spaces killed by ker(omega) (automatic) plus
    the normalization clauses; a OneParam needs its unipotent part
    centralized by its torus part.
    """
    if isinstance(spec, Semidirect):
        return _normalizes(spec.torus, spec.u)
    if isinstance(spec, Graph):
        t = spec.torus()
        psi = spec.psi_value
        ok = _psi_supported(spec.omega, psi)
        ok = ok and _normalizes(t, spec.u)
        ok = ok and _normalized_by_element(psi, spec.u)
        ok = ok and not linalg.span_contains(spec.u.coord_rows(), psi.coords())
        return ok
    if isinstance(spec, OneParam):
        x = spec.x
        if not (x.t1 or x.t2):
            return False
        nil = x.nilpotent_part()
        for nm in ROOTS:
            if root_value(nm, x.t1, x.t2) != 0:
                comp = nil.root_component(nm)
                if not comp.is_zero():
                    return False
        return True
    raise TypeError("expected Semidirect, Graph, or OneParam")


def is_compatible_basis(basis) -> bool:
    """Raw check of h <= t + u + C_n(t) for a basis of a subalgebra of a+n."""
    if not basis:
        return False
    n = basis[0].n
    a_rows = [[b.t1, b.t2] for b in basis]
    red, piv = linalg.rref(a_rows)
    if len(red) == 0:
        return True  # inside n already
    if len(red) == 2:
        return True  # full torus
    t1, t2 = red[0]
    tl = _primitive(t1, t2)
    cslots = set(_centralizer_slots(TorusLine(*tl)))
    u_rows = [b.coords() for b in basis if not (b.t1 or b.t2)]
    for b in basis:
        nil = b.nilpotent_part()
        for nm in ROOTS:
            comp = nil.root_component(nm)
            if comp.is_zero() or ROOT_SLOT[nm] in cslots:
                continue
            # the non-centralized part must come from U = h ∩ n
            if not linalg.span_contains(u_rows, comp.coords()) and (b.t1 or b.t2):
                # allowed only if the whole nilpotent tail lies in U
                if not linalg.span_contains(u_rows, nil.coords()):
                    return False
    return True


def _primitive(t1: Fraction, t2: Fraction):
    from math import gcd
    den = t1.denominator * t2.denominator
    p, q = int(t1 * den), int(t2 * den)
    g = gcd(abs(p), abs(q)) or 1
    p, q = p // g, q // g
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return p, q


def _psi_supported(omega: str, psi: AlgebraElement) -> bool:
    if psi.is_zero() or not psi.is_nilpotent():
        return False
    allowed = {omega}
    if omega == "beta":
        allowed.add("2beta")
    if omega == "alpha+beta":
        allowed.add("2alpha+2beta")
    for nm in ROOTS:
        if nm not in allowed and not psi.root_component(nm).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# semidirect products T x| U


def classify_semidirect(torus: TorusLine, u: Subalgebra, seed: int = 0) -> AnResult:
    """Match T x| U against the semidirect case list.

    U must be a nontrivial non-CDS subgroup of N normalized by the line T;
    the case is located from U's template type and slot structure, and T is
    checked against the kernel the case requires.
    """
    if u.dim == 0 or all(b.is_zero() for b in u.basis):
        raise SpecViolation("U must be nontrivial")
    if not u.is_nilpotent():
        raise SpecViolation("U must lie inside N")
    if not _normalizes(torus, u):
        raise UNotNormalized(f"T = {torus} does not normalize U")
    nil = classify(u, seed=seed)
    if nil.is_cds:
        raise UIsCds("U is itself a Cartan-decomposition subgroup")
    tm = nil.template
    frame = _Frame(u, random.Random(seed + 17))
    dim_h = 1 + u.dim

    def need(root):
        if torus != TorusLine.of_kernel(root):
            raise NoCaseMatched(
                f"template {tm.type_id} requires T = ker({root}), got {torus}")

    def band_or_curve(s_hi, case):
        if dim_h == 2:
            return AnResult("NotCDS", MuShape.curve(s_hi, provenance=case),
                            case, nil_result=nil)
        return AnResult("NotCDS", MuShape.band(1, s_hi, provenance=case),
                        case, nil_result=nil)

    t = tm.type_id
    if t == 1:
        if _span_in_slots(frame, frame.full, ["yy"]) \
                or _span_in_slots(frame, frame.full, ["xx"]):
            shape = MuShape.band(1, None, provenance="semidirect-1a")
            return AnResult("NotCDS", shape, "semidirect-1a",
                            notes="exponent quoted for SO(2,n); s symbolic",
                            nil_result=nil)
        need("alpha")
        return AnResult("CDS", MuShape.full_chamber("semidirect-1b"),
                        "semidirect-1b", nil_result=nil)
    if t == 2:
        if not _h_decomposes(frame, [["x", "yy"], ["xx"]]):
            raise NoCaseMatched("type-2 U without the x/yy + xx split")
        need("alpha-beta")
        return band_or_curve(Fraction(3, 2), "semidirect-2")
    if t == 3 and tm.evidence.get("lambda"):
        if not _h_decomposes(frame, [["y", "x"], ["yy", "eta", "xx"]]):
            raise NoCaseMatched("type-3 U without the y/x + z split")
        need("alpha")
        return AnResult("CDS", MuShape.full_chamber("semidirect-3"),
                        "semidirect-3", nil_result=nil)
    if t == 3:
        # lambda = 0: U inside the y, yy slots plus possible eta/xx pieces
        if _h_decomposes(frame, [["y"], ["yy"]]):
            shape = MuShape.band(1, None, provenance="semidirect-4a")
            return AnResult("NotCDS", shape, "semidirect-4a",
                            notes="exponent quoted for SO(2,n); s symbolic",
                            nil_result=nil)
        if _h_decomposes(frame, [["y", "eta"], ["yy"]]):
            need("alpha+beta")
            return AnResult("NotCDS", MuShape.curve(1, provenance="semidirect-4bi"),
                            "semidirect-4bi", nil_result=nil)
        if _h_decomposes(frame, [["y", "xx"], ["yy"]]):
            need("2alpha+beta")
            return band_or_curve(Fraction(3, 2), "semidirect-4bii")
        if not frame.z_coeffs and _span_in_slots(frame, frame.full, ["y", "yy"]):
            need("beta")
            return AnResult("CDS", MuShape.full_chamber("semidirect-4biii"),
                            "semidirect-4biii", nil_result=nil)
        raise NoCaseMatched("type-3 (lambda = 0) U fits no semidirect subcase")
    if t == 4:
        if _h_decomposes(frame, [["x"], ["xx", "eta", "yy"]]):
            shape = MuShape.band(1, None, provenance="semidirect-5a")
            return AnResult("NotCDS", shape, "semidirect-5a",
                            notes="exponent quoted for SO(2,n); s symbolic",
                            nil_result=nil)
        if _span_in_slots(frame, frame.full, ["x", "xx"]):
            need("alpha+beta")
            return AnResult("CDS", MuShape.full_chamber("semidirect-5b"),
                            "semidirect-5b", nil_result=nil)
        if _h_decomposes(frame, [["phi", "x", "eta"], ["xx"]]):
            need("beta")
            return AnResult("NotCDS", MuShape.curve(1, provenance="semidirect-5c"),
                            "semidirect-5c", nil_result=nil)
        raise NoCaseMatched("type-4 U fits no semidirect subcase")
    if t == 5:
        if not _h_decomposes(frame, [["phi", "yy"], ["x"]]):
            raise NoCaseMatched("type-5 U without the phi/yy + x split")
        need("alpha-2beta")
        return band_or_curve(Fraction(4, 3), "semidirect-6")
    if t == 6:
        if _span_in_slots(frame, frame.full, ["eta"]):
            shape = MuShape.band(None, 2, provenance="semidirect-7a")
            return AnResult("NotCDS", shape, "semidirect-7a",
                            notes="exponent quoted for SO(2,n); s symbolic",
                            nil_result=nil)
        if _h_decomposes(frame, [["y", "x"], ["yy", "eta", "xx"]]):
            need("alpha")
            return AnResult("NotCDS", MuShape.curve(2, provenance="semidirect-7b"),
                            "semidirect-7b", nil_result=nil)
        raise NoCaseMatched("type-6 U fits no semidirect subcase")
    if t == 7:
        if _h_decomposes(frame, [["x", "yy"], ["eta"]]):
            need("alpha-beta")
            return AnResult("NotCDS",
                            MuShape.band(Fraction(3, 2), 2, provenance="semidirect-8x"),
                            "semidirect-8x", nil_result=nil)
        if _h_decomposes(frame, [["y", "xx"], ["eta"]]):
            need("2alpha+beta")
            return AnResult("NotCDS",
                            MuShape.band(Fraction(3, 2), 2, provenance="semidirect-8y"),
                            "semidirect-8y", nil_result=nil)
        raise NoCaseMatched("type-7 U fits no semidirect subcase")
    if t == 8:
        if not (_h_decomposes(frame, [["phi", "y"], ["x", "yy"]])
                and _slot_subspace(frame, ["phi", "y"])):
            raise NoCaseMatched("type-8 U without the phi/y + x/yy split")
        need("alpha-beta")
        return AnResult("NotCDS", MuShape.curve(Fraction(3, 2),
                                                provenance="semidirect-9"),
                        "semidirect-9", nil_result=nil)
    if t == 9:
        if not _h_decomposes(frame, [["phi", "y"], ["xx"]]):
            raise NoCaseMatched("type-9 U without the phi/y + xx split")
        need("alpha-beta")
        return AnResult("NotCDS", MuShape.band(1, Fraction(3, 2),
                                               provenance="semidirect-10"),
                        "semidirect-10", nil_result=nil)
    if t == 10:
        if _span_in_slots(frame, frame.full, ["phi"]):
            shape = MuShape.band(None, 2, provenance="semidirect-11a")
            return AnResult("NotCDS", shape, "semidirect-11a",
                            notes="exponent quoted for SO(2,n); s symbolic",
                            nil_result=nil)
        if _span_in_slots(frame, frame.full, ["phi", "x", "eta"]):
            need("beta")
            return AnResult("CDS", MuShape.full_chamber("semidirect-11b"),
                            "semidirect-11b", nil_result=nil)
        if _span_in_slots(frame, frame.full, ["phi", "xx"]):
            need("alpha+2beta")
            return AnResult("NotCDS", MuShape.curve(2, provenance="semidirect-11c"),
                            "semidirect-11c", nil_result=nil)
        raise NoCaseMatched("type-10 U fits no semidirect subcase")
    raise NoCaseMatched(f"type-{t} U admits no normalizing torus line")


# ---------------------------------------------------------------------------
# graphs of psi over U


_GRAPH_SHAPES = {
    ("alpha", "alpha+beta"): lambda r: ("NotCDS", MuShape.band(
        1, 2, log_hi=-1, provenance="graph-1"), "graph-1"),
    ("alpha", "alpha+2beta"): lambda r: ("NotCDS", MuShape.band(
        2, 2, log_lo=-2, provenance="graph-2"), "graph-2"),
    ("beta", "alpha+2beta"): lambda r: ("NotCDS", MuShape.band(
        1, 2, log_lo=Fraction(r, 2), provenance="graph-3"), "graph-3"),
    ("beta", "alpha+beta"): lambda r: ("NotCDS", MuShape.band(
        1, 1, log_hi=r, provenance="graph-4"), "graph-4"),
}


def _sigma_of(u: Subalgebra) -> Optional[str]:
    frame = _Frame(u, random.Random(3))
    for sigma in REDUCED_ROOTS:
        slots = [ROOT_SLOT[sigma]]
        if sigma == "beta":
            slots.append("yy")
        if sigma == "alpha+beta":
            slots.append("xx")
        if _span_in_slots(frame, frame.full, slots):
            return sigma
    return None


def _reflected_root(name: str, simple: str) -> str:
    """Image of a root under a simple reflection: s_alpha swaps t1 and t2,
    s_beta flips the sign of t2 (as actions on the functionals)."""
    c1, c2 = ROOTS[name]
    if simple == "alpha":
        c1, c2 = c2, c1
    else:
        c2 = -c2
    new_name = next((nm for nm, v in ROOTS.items() if v == (c1, c2)), None)
    if new_name is None:
        raise NoCaseMatched(f"reflection sends {name} to a negative root")
    return new_name


def classify_graph(spec: Graph, seed: int = 0) -> AnResult:
    """Match a graph subgroup against the non-semidirect case list."""
    if not is_compatible(spec):
        raise SpecViolation("graph spec violates the compatibility clauses")
    if spec.u.dim == 0:
        raise SpecViolation("graph classification needs dim H > 1")
    # any intersection of U with the omega root spaces forces CDS
    omega_slots = [ROOT_SLOT[spec.omega]]
    if spec.omega == "beta":
        omega_slots.append("yy")
    if spec.omega == "alpha+beta":
        omega_slots.append("xx")
    frame = _Frame(spec.u, random.Random(seed + 5))
    inter = _slot_subspace(frame, omega_slots)
    if inter:
        return AnResult("CDS", MuShape.full_chamber("graph-omega-intersect"),
                        "graph-cds",
                        notes="U meets the omega root spaces")
    nil = classify(spec.u, seed=seed)
    if nil.is_cds:
        return AnResult("CDS", MuShape.full_chamber("graph-u-cds"), "graph-cds",
                        notes="H contains the CDS U", nil_result=nil)
    # reduce omega to a simple root by the Weyl reflections from the proofs
    work = spec
    for _ in range(4):
        if work.omega in ("alpha", "beta"):
            break
        if work.omega == "alpha+beta":
            work = _reflect_graph_simple(work, "alpha")
        elif work.omega == "alpha+2beta":
            work = _reflect_graph_simple(work, "beta")
    sigma = _sigma_of(work.u)
    if sigma is None:
        raise NoCaseMatched("U is not supported in a single root pair")
    if work.omega == "alpha" and sigma == "beta":
        raise NoCaseMatched("sigma = beta cannot be normalized by psi(T)")
    if work.omega == "beta" and sigma == "alpha":
        raise NoCaseMatched("sigma = alpha cannot be normalized by psi(T)")
    # sigma = omega means U meets the omega spaces: handled above; a leftover
    # (alpha, alpha) or (beta, beta) here is an inconsistency
    if sigma == work.omega:
        return AnResult("CDS", MuShape.full_chamber("graph-omega-intersect"),
                        "graph-cds", notes="U meets the omega root spaces")
    if work.omega == "beta" and sigma == "alpha+beta":
        # conjugate sigma into alpha+2beta via the alpha reflection? the
        # listed pair (beta, alpha+beta) is case 4 directly
        pass
    r = 1 if _psi_in_2beta(work) else 2
    key = (work.omega, sigma)
    if key not in _GRAPH_SHAPES:
        raise NoCaseMatched(f"unlisted pair omega={work.omega}, sigma={sigma}")
    verdict, shape, case = _GRAPH_SHAPES[key](r)
    return AnResult(verdict, shape, case, r=r, nil_result=nil)


def _psi_in_2beta(spec: Graph) -> bool:
    psi = spec.psi_value
    return (spec.omega == "beta"
            and psi.root_component("beta").is_zero()
            and not psi.root_component("2beta").is_zero())


def _reflect_graph_simple(spec: Graph, root: str) -> Graph:
    from .elements import NotInAN

    w = weyl_matrix(spec.n, root)
    try:
        psi = conjugate(w, spec.psi_value)
        basis = [conjugate(w, b) for b in spec.u.basis]
    except NotInAN as e:
        raise NoCaseMatched(f"reflection by {root} leaves a+n: {e}")
    return Graph(_reflected_root(spec.omega, root), psi, Subalgebra(basis))


# ---------------------------------------------------------------------------
# one-parameter subgroups


def one_param_shape(spec: OneParam) -> AnResult:
    """The ray-with-logarithmic-drift shape for a compatible one-parameter
    subgroup not of product form; the drift power k has no closed form and
    is left symbolic (the empirical lab fits it)."""
    x = spec.x
    if not (x.t1 or x.t2):
        raise SpecViolation("X lies in n; use the nil classifier")
    if x.nilpotent_part().is_zero():
        raise SpecViolation("X lies in a; H = H ∩ A")
    if not is_compatible(spec):
        raise SpecViolation("X is not compatible with A (conjugate it first)")
    return AnResult("NotCDS", MuShape.ray(None, provenance="oneparam"),
                    "oneparam", notes="drift power k fitted empirically")


# ---------------------------------------------------------------------------
# normalization to compatible form


def normalize_to_compatible(basis, max_iter: int = 64):
    """Conjugate a subalgebra of a+n (with nonzero a-part) into the
    compatible T * U * C_N(T) presentation.

    The sweep conjugates by exponentials of root vectors in height order,
    cancelling every component of the torus-bearing element whose root does
    not kill the torus line.  Returns a Semidirect, Graph, or OneParam spec,
    or the string "full-torus" when the a-projection is two-dimensional.
    Raises NormalizationFailed when the sweep does not terminate (the
    existence result is nonconstructive; this search is best effort).
    """
    from .elements import bracket

    if not basis:
        raise NormalizationFailed("empty basis")
    n = basis[0].n
    a_rows = [[b.t1, b.t2] for b in basis]
    red, piv = linalg.rref(a_rows)
    if len(red) == 0:
        raise SpecViolation("subalgebra lies in n; use the nil classifier")
    if len(red) == 2:
        return "full-torus"
    p, q = _primitive(red[0][0], red[0][1])
    basis = [b for b in basis]
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
    height_order = ["alpha", "beta", "alpha+beta", "2beta", "alpha+2beta",
                    "2alpha+2beta"]
    for _ in range(max_iter):
        done = True
        for nm in height_order:
            rv = root_value(nm, X.t1, X.t2)
            comp = X.nilpotent_part().root_component(nm)
            if rv != 0 and not comp.is_zero():
                w = comp.scale(Fraction(1, 1) / rv)
                g = exp_closed(w)
                X = conjugate(g, X)
                U_basis = [conjugate(g, b) for b in U_basis]
                done = False
        if done:
            break
    else:
        raise NormalizationFailed("conjugation sweep did not stabilize")
    psi = X.nilpotent_part()
    torus = TorusLine(p, q)
    u_sub = Subalgebra(U_basis) if U_basis else None
    if psi.is_zero():
        if u_sub is None:
            raise SpecViolation("H = H ∩ A is a torus line")
        return Semidirect(torus, u_sub)
    # psi must live in the root spaces killed by the torus line
    omegas = [nm for nm in REDUCED_ROOTS if root_value(nm, p, q) == 0]
    if not omegas:
        raise NormalizationFailed("psi part survives on a generic torus line")
    omega = omegas[0]
    if u_sub is None:
        return OneParam(X)
    # absorb psi into U when possible: then H is semidirect after all
    if linalg.span_contains(u_sub.coord_rows(), psi.coords()):
        return Semidirect(torus, u_sub)
    return Graph(omega, psi, u_sub)


def classify_an(spec, seed: int = 0) -> AnResult:
    if isinstance(spec, Semidirect):
        return classify_semidirect(spec.torus, spec.u, seed=seed)
    if isinstance(spec, Graph):
        return classify_graph(spec, seed=seed)
    if isinstance(spec, OneParam):
        return one_param_shape(spec)
    raise TypeError("expected Semidirect, Graph, or OneParam")
