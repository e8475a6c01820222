"""JSON and CSV persistence.

Element encoding: {"t1": s, "t2": s, "phi": [s, s], "x": [[s, s], ...],
"y": [[s, s], ...], "eta": [s, s], "xx": s, "yy": s} where each s is an exact
"p/q" string, an integer, or a double read as its exact binary value.  The
reader builds an element's coords() row straight from those scalars
(scalars.parse_rational reads the "p/q" strings the writer emits as two
ints), with no Gaussian rational in between.  A subalgebra file wraps a
basis with its n and mode; AN-subgroup specs carry a "kind" of semidirect /
graph / oneparam; the line of a semidirect or graph spec must normalize its
U.  A semidirect "torus" [p, q] of exact scalars is
read as the line it spans, so [2, 2], [-1, -1] and ["1/2", "1/2"] load as
[1, 1], and [1.5, 1] as [3, 2]; [0, 0] is an error.  The
writer always emits "p/q" strings and "mode": "exact"; files marked
"mode": "float" are read the same way, then validated like any spec.
"""

from __future__ import annotations

import json

from .anclassify import Graph, OneParam, Semidirect, TorusLine, _normalized_by_element
from .elements import EXTENDED_FUNCTIONALS, ROOTS, AlgebraElement, primitive_line
from .scalars import format_rational, im, parse_rational, re
from .subalgebra import Subalgebra, SubalgebraError

def _cx_out(v):
    return [format_rational(re(v)), format_rational(im(v))]


def _scalar(v, field):
    """parse_rational of v; a value that is no scalar (a JSON null, list or
    object) is a ValueError naming `field`."""
    try:
        return parse_rational(v)
    except TypeError:
        raise ValueError(f"{field} must be a rational scalar, not {v!r}") from None


def _list(v, field):
    if type(v) is not list:
        raise ValueError(f"{field} must be a list, not {v!r}")
    return v


def _pair(v, field):
    """The two scalars of the pair v, an encoded complex entry or a torus;
    anything else is a ValueError naming `field`."""
    if type(v) is list and len(v) == 2:
        try:
            return parse_rational(v[0]), parse_rational(v[1])
        except TypeError:
            pass
    raise ValueError(f"{field} must be a pair of scalars, not {v!r}")


def _pairs(v, field):
    """The pairs of the list v, the x or y slot."""
    entry = f"an entry of {field}"
    return [_pair(p, entry) for p in _list(v, field)]


def _object(v, field):
    if not isinstance(v, dict):
        raise ValueError(f"{field} must be a JSON object, not {v!r}")
    return v


def element_to_json(e: AlgebraElement) -> dict:
    return {
        "t1": format_rational(e.t1), "t2": format_rational(e.t2),
        "phi": _cx_out(e.phi),
        "x": [_cx_out(v) for v in e.x],
        "y": [_cx_out(v) for v in e.y],
        "eta": _cx_out(e.eta),
        "xx": format_rational(e.xx), "yy": format_rational(e.yy),
    }


def element_from_json(d: dict, n: int) -> AlgebraElement:
    """The element of an encoding, its coords() row read straight from the
    scalars in the slot order, with the checks and messages of
    AlgebraElement(n, ...).  A slot of the wrong shape (a complex entry that
    is not a pair, x or y not a list, a scalar that is a list or null) is a
    ValueError that names it."""
    t = [_scalar(d.get("t1", 0), "t1"), _scalar(d.get("t2", 0), "t2")]
    phi = _pair(d.get("phi", [0, 0]), "phi")
    x = _pairs(d.get("x", [[0, 0]] * (n - 2)), "x")
    y = _pairs(d.get("y", [[0, 0]] * (n - 2)), "y")
    eta = _pair(d.get("eta", [0, 0]), "eta")
    tail = [_scalar(d.get("xx", 0), "xx"), _scalar(d.get("yy", 0), "yy")]
    if n < 3:
        raise ValueError("n must be >= 3")
    if len(x) != n - 2 or len(y) != n - 2:
        raise ValueError(f"x, y must have length n-2 = {n - 2}")
    return AlgebraElement.from_coords(
        n, [*t, *phi, *(a for z in x + y for a in z), *eta, *tail])


def _n_of(d: dict) -> int:
    """The spec's n, after checking its "mode" key."""
    mode = d.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    n = d.get("n")
    if type(n) is not int:
        raise ValueError(f"n must be an integer, not {n!r}")
    return n


def subalgebra_to_json(h: Subalgebra) -> dict:
    return {"n": h.n, "mode": "exact",
            "basis": [element_to_json(b) for b in h.basis]}


def subalgebra_from_json(d: dict) -> Subalgebra:
    n = _n_of(d)
    return Subalgebra([element_from_json(_object(e, f"basis[{i}]"), n)
                       for i, e in enumerate(_list(d.get("basis"), "basis"))])


def spec_to_json(spec) -> dict:
    if isinstance(spec, Subalgebra):
        out = subalgebra_to_json(spec)
        out["kind"] = "nil"
        return out
    if isinstance(spec, Semidirect):
        out = subalgebra_to_json(spec.u)
        out.update({"kind": "semidirect", "torus": [spec.torus.p, spec.torus.q]})
        return out
    if isinstance(spec, Graph):
        out = subalgebra_to_json(spec.u)
        out.update({"kind": "graph", "omega": spec.omega,
                    "psi": element_to_json(spec.psi_value)})
        return out
    if isinstance(spec, OneParam):
        return {"kind": "oneparam", "n": spec.n,
                "mode": "exact", "x": element_to_json(spec.x)}
    raise TypeError(f"cannot serialize {type(spec).__name__}")


def _line_normalizes(spec):
    """spec, once [line, U] lies in U, so that line + U is a subalgebra."""
    if not _normalized_by_element(spec.line(), spec.u):
        raise SubalgebraError(f"the {spec.kind} line does not normalize U: "
                              "line + U is not a subalgebra")
    return spec


def spec_from_json(d: dict):
    """The spec of a JSON object.  Every malformed field (a missing or
    non-integer n, a basis that is not a list of objects, an unknown graph
    omega, a bad scalar or slot) is a ValueError."""
    kind = _object(d, "a spec").get("kind", "nil")
    if kind == "nil":
        return subalgebra_from_json(d)
    if kind == "semidirect":
        u = subalgebra_from_json(d)
        p, q = _pair(d.get("torus"), "torus")
        if p == 0 and q == 0:
            raise ValueError("the semidirect torus [0, 0] spans no line")
        return _line_normalizes(Semidirect(TorusLine(*primitive_line(p, q)), u))
    if kind == "graph":
        u = subalgebra_from_json(d)
        omega = d.get("omega")
        if omega not in (*ROOTS, *EXTENDED_FUNCTIONALS):
            raise ValueError(f"unknown graph omega {omega!r}")
        psi = element_from_json(_object(d.get("psi"), "psi"), u.n)
        return _line_normalizes(Graph(omega, psi, u))
    if kind == "oneparam":
        return OneParam(element_from_json(_object(d.get("x"), "x"), _n_of(d)))
    raise ValueError(f"unknown spec kind {kind!r}")


def load_spec(path):
    with open(path) as f:
        return spec_from_json(json.load(f))


def dump_spec(spec, path):
    with open(path, "w") as f:
        json.dump(spec_to_json(spec), f, indent=1)
        f.write("\n")


def classification_report(result) -> dict:
    """Report dict for either a ClassificationResult or an AnResult."""
    from .anclassify import AnResult
    from .nilclassify import ClassificationResult

    if isinstance(result, ClassificationResult):
        wit = {w.side: {"condition": w.condition_id, "exact": w.exact}
               for w in (result.square, result.linear) if w}
        return {
            "verdict": result.verdict,
            "type": result.template.type_id if result.template else None,
            "shape": result.shape.to_json(),
            "witnesses": wit,
            "normalizer": str(result.normalizer),
            "seed": result.seed,
        }
    if isinstance(result, AnResult):
        out = {
            "verdict": result.verdict,
            "case": result.case,
            "shape": result.shape.to_json(),
            "notes": result.notes,
        }
        if result.r is not None:
            out["r"] = result.r
        if result.nil_result is not None:
            out["unipotent_part"] = classification_report(result.nil_result)
        return out
    raise TypeError(f"cannot report {type(result).__name__}")


def cloud_to_csv(cloud, out):
    """Write the cloud's rows as CSV to out, a path or an open text stream."""
    if not hasattr(out, "write"):
        with open(out, "w") as f:
            return cloud_to_csv(cloud, f)
    out.write("t,log10_norm,log10_rho,curve_id\n")
    for t, ln, lr, tag in cloud.to_rows():
        tv = "" if t is None else repr(float(t))
        out.write(f"{tv},{ln!r},{lr!r},{tag}\n")
