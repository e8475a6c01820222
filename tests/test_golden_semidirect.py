"""Every semidirect case of `classify_semidirect` stays as it is.

`tests/data/golden_semidirect.jsonl` holds one JSON line per (U, torus line)
pair: U is a NotCDS subgroup of N from the random corpus at seeds 0-5, and
the line is ker(r) for each of the nine names in `ROOTS` and
`EXTENDED_FUNCTIONALS`.  A line records U's template type and what
`classify_semidirect(TorusLine.of_kernel(r), U)` gives: its case, verdict,
shape and notes, or the class name of the exception it raises.  The file
keeps at most three pairs per (template type, outcome), which reaches all
21 semidirect cases.  The test recomputes every line from the U stored in it
and compares the text byte for byte.

Regenerate (only when an outcome is meant to change) with

    PYTHONPATH=src python tests/test_golden_semidirect.py
"""

import json
from pathlib import Path

from su2n import corpus
from su2n.anclassify import AnError, TorusLine, classify_semidirect
from su2n.elements import EXTENDED_FUNCTIONALS, ROOTS
from su2n.nilclassify import classify
from su2n.serialize import subalgebra_from_json, subalgebra_to_json

GOLDEN = Path(__file__).parent / "data" / "golden_semidirect.jsonl"
LINES = list(ROOTS) + list(EXTENDED_FUNCTIONALS)
PER_KEY = 3


def outcome(root, u):
    try:
        r = classify_semidirect(TorusLine.of_kernel(root), u, seed=0)
    except AnError as e:
        return {"error": type(e).__name__}
    return {"case": r.case, "verdict": r.verdict, "shape": r.shape.to_json(),
            "provenance": r.shape.provenance, "notes": r.notes}


def line(ident, type_id, root, u):
    row = {"id": ident, "type": type_id, "root": root,
           "u": subalgebra_to_json(u), "outcome": outcome(root, u)}
    return json.dumps(row, sort_keys=True) + "\n"


def _template_type(u):
    return classify(u, seed=0).template.type_id


def recomputed_lines(text):
    types = {}
    out = []
    for raw in text.splitlines():
        row = json.loads(raw)
        u = subalgebra_from_json(row["u"])
        if row["id"] not in types:
            types[row["id"]] = _template_type(u)
        out.append(line(row["id"], types[row["id"]], row["root"], u))
    return "".join(out)


def selected_lines():
    """Scan the seed 0-5 corpora, keeping PER_KEY pairs per (type, outcome)."""
    seen = {}
    out = []
    for seed in range(6):
        for ident, u in corpus.random_corpus(count=120, seed=seed,
                                            include_gallery=(seed == 0)):
            nil = classify(u, seed=0)
            if nil.is_cds:
                continue
            for root in LINES:
                res = outcome(root, u)
                key = (nil.template.type_id,
                       res.get("case") or res["error"])
                if seen.get(key, 0) < PER_KEY:
                    seen[key] = seen.get(key, 0) + 1
                    out.append(line(f"seed{seed}/{ident}",
                                    nil.template.type_id, root, u))
    return "".join(out)


def test_semidirect_outcomes_match_golden_file():
    text = GOLDEN.read_text()
    assert recomputed_lines(text) == text


def test_golden_file_reaches_every_semidirect_case():
    cases = {json.loads(raw)["outcome"].get("case")
             for raw in GOLDEN.read_text().splitlines()}
    assert len(cases - {None}) == 21


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(selected_lines())
