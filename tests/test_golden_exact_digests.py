"""Exact classification and conjugation stay the same, bit for bit.

`tests/data/golden_exact_digests.txt` holds one line per corpus seed 0, 1
and 2, and one for the AN gallery: a label and a sha256.  A corpus line
hashes, for each spec of `random_corpus(count=60, ns=(3, 4, 5), seed=s,
include_gallery=False)`:

- the spec's classification report (`classify(spec, seed=s)`);
- the coords() of every witness and template evidence element;
- the coords() of the spec's basis conjugated by a conjugator drawn at seed
  s (`exp_closed` of a random element, `GroupElement.diagonal` or a Weyl
  reflection), or the `NotInAN` message that names the first entry off the
  a+n pattern, and the report of that conjugate.

The gallery line hashes the `line_compatible` conjugate of every AN gallery
spec.  A change to how group elements are built, multiplied or read back
keeps every line.

Regenerate (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden_exact_digests.py
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from su2n import corpus, gallery
from su2n.anclassify import line_compatible
from su2n.elements import AlgebraElement, GroupElement, NotInAN, exp_closed
from su2n.nilclassify import classify
from su2n.serialize import classification_report, spec_to_json
from su2n.subalgebra import Subalgebra
from su2n.weyl import conjugate, weyl_matrix

GOLDEN = Path(__file__).parent / "data" / "golden_exact_digests.txt"
SEEDS = (0, 1, 2)


def _coords(u):
    return [str(v) for v in u.coords()]


def _named_values(named):
    """The coords() of each element of a witness or evidence dict, the repr
    of any other value, by sorted key."""
    return {k: _coords(v) if isinstance(v, AlgebraElement) else repr(v)
            for k, v in sorted(named.items())}


def _result_record(result):
    return {"report": classification_report(result),
            "witnesses": [_named_values(w.elements)
                          for w in (result.square, result.linear) if w],
            "evidence": _named_values(result.template.evidence) if result.template else None}


def _fraction(rng):
    return Fraction(rng.randint(1, 9), rng.choice([1, 2, 7, 89]))


def _conjugator(n, rng):
    kind = rng.choice(("exp_closed", "diagonal", "alpha", "beta"))
    if kind == "exp_closed":
        u = corpus.random_element(n, rng, max_slots=6)
        return kind, exp_closed(u.scale(_fraction(rng)))
    if kind == "diagonal":
        return kind, GroupElement.diagonal(n, _fraction(rng), _fraction(rng))
    return kind, weyl_matrix(n, kind)


def corpus_record(h, seed, rng):
    record = _result_record(classify(h, seed=seed))
    kind, g = _conjugator(h.n, rng)
    record["conjugator"] = kind
    try:
        basis = [conjugate(g, b) for b in h.basis]
    except NotInAN as err:
        record["conjugate"] = str(err)
        return record
    record["conjugate"] = [_coords(b) for b in basis]
    record["conjugate_result"] = _result_record(classify(Subalgebra(basis), seed=seed))
    return record


def digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def digest_lines():
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        specs = corpus.random_corpus(count=60, ns=(3, 4, 5), seed=seed, include_gallery=False)
        out.append(f"corpus-{seed} {digest(corpus_record(h, seed, rng) for _, h in specs)}\n")
    work = (line_compatible(e.spec()) for e in gallery.entries() if e.kind != "nil")
    out.append(f"an-gallery {digest(w if isinstance(w, str) else spec_to_json(w) for w in work)}\n")
    return "".join(out)


def test_exact_outputs_match_golden_digests():
    assert digest_lines() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(digest_lines())
