"""Sampling clouds over the gallery stay the same.

`tests/data/golden_clouds.jsonl` holds one JSON line per gallery entry: the
seed-0 cloud of `lab.sample_subgroup` (a nilpotent entry sampled with its
classification, so its witness and extremal curves are in the cloud).  Each
line gives the sample count, the discards by cause, `fit_exponents` rounded
to 9 places, and the sums of `log_norm` and `log_rho` rounded to 6 places.
A refactor of the sampling curves that keeps every sample keeps this file.

Regenerate (only when a cloud is meant to change) with

    PYTHONPATH=src python tests/test_golden_clouds.py
"""

import json
from pathlib import Path

from su2n import gallery, lab
from su2n.metrics import InsufficientRange, fit_exponents
from su2n.nilclassify import classify

GOLDEN = Path(__file__).parent / "data" / "golden_clouds.jsonl"


def cloud_lines():
    plan = lab.SamplingPlan(seed=0)
    out = []
    for e in gallery.entries():
        spec = e.spec()
        result = classify(spec, seed=0) if e.kind == "nil" else None
        cloud = lab.sample_subgroup(spec, plan, result=result)
        try:
            fit = [round(v, 9) for v in fit_exponents(cloud)]
        except InsufficientRange as err:
            fit = type(err).__name__
        line = {"id": e.id, "samples": len(cloud),
                "discards": cloud.meta["discards"], "fit_exponents": fit,
                "sum_log_norm": round(float(cloud.log_norm.sum()), 6),
                "sum_log_rho": round(float(cloud.log_rho.sum()), 6)}
        out.append(json.dumps(line, sort_keys=True) + "\n")
    return "".join(out)


def test_clouds_match_golden_file():
    assert cloud_lines() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(cloud_lines())
