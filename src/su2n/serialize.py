"""JSON and CSV persistence.

Element encoding: {"t1": s, "t2": s, "phi": [s, s], "x": [[s, s], ...],
"y": [[s, s], ...], "eta": [s, s], "xx": s, "yy": s} where each s is an exact
"p/q" string, an integer, or a double read as its exact binary value.  A
subalgebra file wraps a basis with its n and mode; AN-subgroup specs carry a
"kind" of semidirect / graph / oneparam; the line of a semidirect or graph
spec must normalize its U.  A semidirect "torus" [p, q] of exact scalars is
read as the line it spans, so [2, 2], [-1, -1] and ["1/2", "1/2"] load as
[1, 1], and [1.5, 1] as [3, 2]; [0, 0] is an error.  The
writer always emits "p/q" strings and "mode": "exact"; files marked
"mode": "float" are read the same way, then validated like any spec.
"""

from __future__ import annotations

import json

from .anclassify import Graph, OneParam, Semidirect, TorusLine, _normalized_by_element
from .elements import AlgebraElement, primitive_line
from .scalars import QQi, format_rational, im, parse_rational, re
from .subalgebra import Subalgebra, SubalgebraError

def _cx_out(v):
    return [format_rational(re(v)), format_rational(im(v))]


def _cx_in(pair):
    return QQi(parse_rational(pair[0]), parse_rational(pair[1]))


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
    return AlgebraElement(
        n,
        t1=parse_rational(d.get("t1", 0)), t2=parse_rational(d.get("t2", 0)),
        phi=_cx_in(d.get("phi", [0, 0])),
        x=[_cx_in(p) for p in d.get("x", [[0, 0]] * (n - 2))],
        y=[_cx_in(p) for p in d.get("y", [[0, 0]] * (n - 2))],
        eta=_cx_in(d.get("eta", [0, 0])),
        xx=parse_rational(d.get("xx", 0)), yy=parse_rational(d.get("yy", 0)))


def _n_of(d: dict) -> int:
    """The spec's n, after checking its "mode" key."""
    mode = d.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    return int(d["n"])


def subalgebra_to_json(h: Subalgebra) -> dict:
    return {"n": h.n, "mode": "exact",
            "basis": [element_to_json(b) for b in h.basis]}


def subalgebra_from_json(d: dict) -> Subalgebra:
    n = _n_of(d)
    return Subalgebra([element_from_json(e, n) for e in d["basis"]])


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


def _line_normalizes(spec, line):
    """spec, once [line, U] lies in U, so that line + U is a subalgebra."""
    if not _normalized_by_element(line, spec.u):
        raise SubalgebraError(f"the {spec.kind} line does not normalize U: "
                              "line + U is not a subalgebra")
    return spec


def spec_from_json(d: dict):
    kind = d.get("kind", "nil")
    if kind == "nil":
        return subalgebra_from_json(d)
    if kind == "semidirect":
        u = subalgebra_from_json(d)
        p, q = (parse_rational(v) for v in d["torus"])
        if p == 0 and q == 0:
            raise ValueError("the semidirect torus [0, 0] spans no line")
        torus = TorusLine(*primitive_line(p, q))
        return _line_normalizes(Semidirect(torus, u), torus.element(u.n))
    if kind == "graph":
        u = subalgebra_from_json(d)
        psi = element_from_json(d["psi"], _n_of(d))
        spec = Graph(d["omega"], psi, u)
        return _line_normalizes(spec, spec.torus().element(u.n) + psi)
    if kind == "oneparam":
        return OneParam(element_from_json(d["x"], _n_of(d)))
    raise ValueError(f"unknown spec kind {kind!r}")


def load_spec(path):
    with open(path) as f:
        return spec_from_json(json.load(f))


def dump_spec(spec, path):
    with open(path, "w") as f:
        json.dump(spec_to_json(spec), f, indent=1)
        f.write("\n")


def classification_report(result, spec=None) -> dict:
    """Report dict for either a ClassificationResult or an AnResult."""
    from .anclassify import AnResult
    from .nilclassify import ClassificationResult

    if isinstance(result, ClassificationResult):
        wit = {}
        if result.square:
            wit["square"] = {"condition": result.square.condition_id,
                             "exact": result.square.exact}
        if result.linear:
            wit["linear"] = {"condition": result.linear.condition_id,
                             "exact": result.linear.exact}
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


def cloud_to_csv(cloud, path):
    rows = cloud.to_rows()
    with open(path, "w") as f:
        f.write("t,log10_norm,log10_rho,curve_id\n")
        for t, ln, lr, tag in rows:
            tv = "" if t is None else repr(float(t))
            f.write(f"{tv},{ln!r},{lr!r},{tag}\n")
