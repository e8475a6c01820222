"""Sampling clouds over the gallery stay the same, bit for bit.

`tests/data/golden_cloud_digests.txt` holds one line per gallery entry and
sampler seed 0, 1 and 2: the entry id, the seed and the sha256 of the cloud
`lab.sample_subgroup` returns (a nilpotent entry sampled with its
classification at that seed).  The hash covers the full-precision bytes of
`log_norm`, `log_rho` and the t-values, the tags, the discards by cause and
the Cartan projections of a one-parameter cloud.  `golden_clouds.jsonl`
rounds its sums; this file does not, so a change to how the sampling curves
are evaluated must keep every sample to the last bit.

Regenerate (only when a cloud is meant to change) with

    PYTHONPATH=src python tests/test_golden_cloud_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from su2n import gallery, lab
from su2n.nilclassify import classify

GOLDEN = Path(__file__).parent / "data" / "golden_cloud_digests.txt"
SEEDS = (0, 1, 2)


def cloud_digest(cloud):
    """The sha256 of a cloud's samples, tags, t-values, discards and mu points."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(cloud.log_norm, dtype=float).tobytes())
    h.update(np.ascontiguousarray(cloud.log_rho, dtype=float).tobytes())
    h.update(np.asarray(cloud.meta["t_values"], dtype=float).tobytes())
    h.update(json.dumps(cloud.tags).encode())
    h.update(json.dumps(cloud.meta["discards"], sort_keys=True).encode())
    h.update(np.asarray(cloud.meta.get("mu_points", []), dtype=float).tobytes())
    return h.hexdigest()


def digest_lines():
    out = []
    for seed in SEEDS:
        plan = lab.SamplingPlan(seed=seed)
        for e in gallery.entries():
            spec = e.spec()
            result = classify(spec, seed=seed) if e.kind == "nil" else None
            cloud = lab.sample_subgroup(spec, plan, result=result)
            out.append(f"{e.id} {seed} {cloud_digest(cloud)}\n")
    return "".join(out)


def test_clouds_match_golden_digests():
    assert digest_lines() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(digest_lines())
