"""Classification reports over the seed-0 corpus and the gallery stay byte-identical.

`tests/data/golden_reports.jsonl` holds one JSON line per subgroup: the
120-entry seed-0 random corpus (which starts with the nilpotent gallery
entries), then every gallery entry.  Nilpotent specs go through
`classify(seed=0)`, AN specs through `classify_an(seed=0)`.  A refactor that
keeps verdicts, shapes, witness conditions and normalizers keeps this file.

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

from su2n import corpus, gallery
from su2n.anclassify import classify_an
from su2n.nilclassify import classify
from su2n.serialize import classification_report

GOLDEN = Path(__file__).parent / "data" / "golden_reports.jsonl"


def _specs():
    for ident, h in corpus.random_corpus(count=120, seed=0):
        yield ident, "nil", h
    for e in gallery.entries():
        yield e.id, e.kind, e.spec()


def report_lines():
    out = []
    for ident, kind, spec in _specs():
        result = classify(spec, seed=0) if kind == "nil" else classify_an(spec, seed=0)
        line = {"id": ident, "report": classification_report(result)}
        out.append(json.dumps(line, sort_keys=True) + "\n")
    return "".join(out)


def test_reports_match_golden_file():
    assert report_lines() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(report_lines())
