"""Shape-verification reports over the gallery stay identical.

`tests/data/golden_verify.jsonl` holds one JSON line per gallery entry and
sampler seed 0, 1 and 2: the entry id, the seed, the verdict of
`lab.verify_gallery_entry`, the `repr` of its fitted values and its log fits
(`log_fits`, keys sorted; a float is written as its shortest round-trip
repr, so equal lines mean equal bits).  A change to how clouds are sampled
or checked that keeps every verdict and every fitted value keeps this file.

Regenerate (only when a fit is meant to change) with

    PYTHONPATH=src python tests/test_golden_verify.py
"""

import json
from pathlib import Path

from su2n import gallery
from su2n.lab import verify_gallery_entry

GOLDEN = Path(__file__).parent / "data" / "golden_verify.jsonl"
SEEDS = (0, 1, 2)


def verify_lines():
    out = []
    for seed in SEEDS:
        for e in gallery.entries():
            rep = verify_gallery_entry(e, seed=seed)
            line = {"id": e.id, "seed": seed, "verdict": rep.verdict,
                    "fitted": repr(rep.fitted), "log_fits": rep.log_fits}
            out.append(json.dumps(line, sort_keys=True) + "\n")
    return "".join(out)


def test_verify_reports_match_golden_file():
    assert verify_lines() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(verify_lines())
