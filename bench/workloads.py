"""The three benchmark workloads: inputs, one operation, and its check.

Every call into su2n goes through a module attribute (``serialize.spec_from_json``,
not a name imported by value) so the traced run sees it.  Inputs are made from
the workload seed during set-up; an operation receives only those inputs.

A workload exposes:
  setup(seed)        build the inputs
  item(i)            the input of operation i (the sequence repeats)
  run(item)          one operation, the part that is timed
  check(item, out)   None when the output is right, else the cause
  digest_line(...)   one line of the behaviour digest
  warmup_indices()   operations run once during set-up
  digest_ops         how many leading operations the digest covers
  min_ops            fewest operations an untraced run makes
  trace_ops          how many leading operations the traced run measures
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from su2n import (anclassify, corpus, elements, gallery, lab, nilclassify,
                  serialize, subalgebra, weyl)

WRONG = "wrong:"


def _interleave(groups):
    """Merge lists so every prefix holds each group in proportion.

    Item k of a group of size m sits at fractional position (k + 1/2) / m,
    so conjugate k (of corpus spec 5k) always follows its source."""
    keyed = []
    for g, items in enumerate(groups):
        m = len(items)
        keyed += [((k + 0.5) / m, g, k, it) for k, it in enumerate(items)]
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def _stratified(specs, bands):
    """The first `count` specs of each (lo, hi, count) dimension band, in
    generation order; a band the pool cannot fill is topped up with the
    earliest unused specs."""
    chosen, short = [], 0
    for lo, hi, count in bands:
        fit = [h for h in specs if lo <= h.dim <= hi][:count]
        chosen += fit
        short += count - len(fit)
    taken = set(map(id, chosen))
    return chosen + [h for h in specs if id(h) not in taken][:short]


def _first_of_each_kind(kinds):
    seen = {}
    for i, k in enumerate(kinds):
        seen.setdefault(k, i)
    return sorted(seen.values())


class Classify:
    """`su2n classify` after the file is read: parse with closure validation,
    classify at seed 0, build the JSON report.

    Inputs: nilpotent specs drawn from the generated corpus at the workload
    seed, every gallery spec, and exact conjugates of every fifth corpus spec
    (larger rational coefficients through the same exact layers)."""

    name = "classify"
    ns = (3, 4, 5)
    # Specs per dimension band for each n, about the generator's own mix.
    # Cost grows steeply with n and dimension (under 20 ms at dimension 1,
    # several hundred at n = 5 and dimension 9), so a free draw lets the
    # share of large specs, and with it the 90th percentile, move by a third
    # between seeds; fixed counts per band keep it put.
    bands = ((1, 1, 15), (2, 2, 7), (3, 3, 5), (4, 4, 5), (5, 5, 3), (6, 6, 2),
             (7, 7, 2), (8, 10, 1))
    pool_per_n = 80
    trace_ops = 150

    def setup(self, seed):
        rng = random.Random(seed)
        plain = []
        for n in self.ns:
            pool = corpus.random_corpus(count=self.pool_per_n, ns=(n,),
                                        seed=seed * 10 + n, include_gallery=False)
            plain += _stratified([h for _, h in pool], self.bands)
        rng.shuffle(plain)
        corp = [("corpus", f"corpus-{j}", serialize.spec_to_json(h), None)
                for j, h in enumerate(plain)]
        gal = [("gallery", e.id, serialize.spec_to_json(e.spec()), e)
               for e in gallery.entries()]
        conj = []
        for j in range(0, len(plain), 5):
            h = plain[j]
            g = _random_conjugator(h.n, rng)
            try:
                h2 = subalgebra.Subalgebra([weyl.conjugate(g, b) for b in h.basis])
            except (elements.NotInAN, subalgebra.SubalgebraError):
                continue
            conj.append(("conjugate", f"conj-{j}", serialize.spec_to_json(h2),
                         f"corpus-{j}"))
        self.items = _interleave([corp, gal, conj])
        self.digest_ops = self.min_ops = len(self.items)
        self._source = {}

    def item(self, i):
        return self.items[i % len(self.items)]

    def warmup_indices(self):
        return _first_of_each_kind([it[0] for it in self.items])

    def run(self, item):
        spec = serialize.spec_from_json(item[2])
        if isinstance(spec, subalgebra.Subalgebra):
            result = nilclassify.classify(spec, seed=0)
        else:
            result = anclassify.classify_an(spec, seed=0)
        return result, serialize.classification_report(result)

    def check(self, item, out):
        kind, key, _, ref = item
        result, _ = out
        if kind == "corpus":
            self._source[key] = (result.verdict, result.shape)
            return None
        if kind == "conjugate":
            want = self._source.get(ref)
            if want is None:
                return WRONG + "source-unclassified"
            return None if (result.verdict, result.shape) == want else \
                WRONG + "conjugate-differs"
        e = ref
        if result.verdict != e.expected_verdict:
            return WRONG + "verdict"
        if e.kind == "nil":
            if e.expected_type is not None and (
                    result.template is None
                    or result.template.type_id != e.expected_type):
                return WRONG + "type"
        elif e.expected_case and result.case != e.expected_case:
            return WRONG + "case"
        if e.expected_shape is not None and result.shape != e.expected_shape:
            return WRONG + "shape"
        return None

    def digest_line(self, item, out):
        return json.dumps(out[1], sort_keys=True)


def _random_conjugator(n, rng):
    """An exact conjugator drawn as the conjugation suite draws one: a
    rational chamber point or the exponential of a small root element.  Kept
    here, not imported, so the inputs stay put when the program changes."""
    if rng.random() < 0.4:
        a1 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        a2 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        return elements.GroupElement.diagonal(n, a1, a2, mode="exact")
    w = corpus.random_element(n, rng, max_slots=2, coeff=2)
    return elements.exp_closed(w)


class ShapeVerify:
    """`lab.verify_gallery_entry` on each gallery entry in turn: classify,
    sample the subgroup in floating point, fit and compare with the predicted
    shape -- the path `su2n mu-scan` takes.  Round r over the gallery samples
    with a seed made from the workload seed and r."""

    name = "shape-verify"

    def setup(self, seed):
        self.seed = seed
        self.entries = gallery.entries()
        # one round over the gallery
        self.digest_ops = self.trace_ops = len(self.entries)
        # Four whole rounds: every entry weighs the same, and the 90th
        # percentile rests on 15 samples, not 10 -- with 100 operations it
        # moved by 15% between runs of one seed.
        self.min_ops = 4 * len(self.entries)

    def item(self, i):
        r, k = divmod(i, len(self.entries))
        return self.entries[k], self.seed * 10007 + r

    def warmup_indices(self):
        return _first_of_each_kind([e.kind for e in self.entries])

    def run(self, item):
        entry, s = item
        # verify_shape mutates the plan it is given, so each call gets its own
        return lab.verify_gallery_entry(entry, seed=s, plan=lab.SamplingPlan(seed=s))

    def check(self, item, out):
        entry, _ = item
        want = "unverifiable" if _symbolic(entry) else "pass"
        return None if out.verdict == want else WRONG + f"{out.verdict}-not-{want}"

    def digest_line(self, item, out):
        return f"{item[0].id} {out.verdict}"


def _symbolic(entry):
    """A non-CDS gallery entry whose shape the gallery does not pin to numbers."""
    shape = entry.expected_shape
    return entry.expected_verdict == "NotCDS" and (shape is None or shape.symbolic)


class ExactOracle:
    """The four exact checks the formula suite makes per random element:
    closed-form against series exponential, corner determinant against its
    formula, bracket against the matrix commutator, and Jacobi.  Elements are
    drawn as that suite draws them (w with at most four slots), with n cycling
    through 3, 4 and 6."""

    name = "exact-oracle"
    ns = (3, 4, 6)
    pool = 600
    digest_ops = min_ops = 100
    trace_ops = 150

    def setup(self, seed):
        rng = random.Random(seed)
        self.items = []
        for k in range(self.pool):
            n = self.ns[k % len(self.ns)]
            u = corpus.random_element(n, rng, max_slots=6)
            v = corpus.random_element(n, rng, max_slots=6)
            w = corpus.random_element(n, rng, max_slots=4)
            self.items.append((n, u, v, w))

    def item(self, i):
        return self.items[i % len(self.items)]

    def warmup_indices(self):
        return list(range(len(self.ns)))

    def run(self, item):
        n, u, v, w = item
        m = n + 2
        g1, g2 = elements.exp_closed(u), elements.exp_series(u)
        exp_ok = all(g1.mat[i][j] == g2.mat[i][j]
                     for i in range(m) for j in range(m))
        delta_ok = elements.delta(g1) == elements.delta_formula(u)
        gu = elements.GroupElement(n, elements.matrix_of(u))
        gv = elements.GroupElement(n, elements.matrix_of(v))
        uv, vu = (gu @ gv).mat, (gv @ gu).mat
        mb = elements.matrix_of(elements.bracket(u, v))
        comm_ok = all(uv[i][j] - vu[i][j] == mb[i][j]
                      for i in range(m) for j in range(m))
        br = elements.bracket
        jac = br(br(u, v), w) + br(br(v, w), u) + br(br(w, u), v)
        return (exp_ok, delta_ok, comm_ok, jac.is_zero()), g1

    def check(self, item, out):
        for ok, what in zip(out[0], ("exp", "delta", "commutator", "jacobi")):
            if not ok:
                return WRONG + what
        return None

    def digest_line(self, item, out):
        return repr(out[1].mat)


WORKLOADS = {w.name: w for w in (Classify, ShapeVerify, ExactOracle)}
