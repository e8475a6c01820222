import dataclasses
import random
from fractions import Fraction
from itertools import compress

import numpy as np
import pytest

from su2n import gallery, lab
from su2n.anclassify import OneParam, classify_an
from su2n.config import LOG_POWER_TOL
from su2n.corpus import random_corpus
from su2n.elements import AlgebraElement
from su2n.gallery import maximal_band_family, mixing_pair_family
from su2n.lab import (
    OverflowCeiling,
    SamplingPlan,
    check_dimension_table,
    fit_graph_log_power,
    fit_ray_drift,
    sample_subgroup,
    verify_gallery_entry,
    verify_shape,
)
from su2n.metrics import InsufficientRange, SampleCloud, fit_ray_power, shape_check
from su2n.nilclassify import classify
from su2n.scalars import QQi
from su2n.subalgebra import Subalgebra

# The tags of the proof-designed curves: witnesses, extremal recipes, rays,
# torus, graph and one-parameter lines.  Every other curve is a random
# product (prod*) or a line times one (mix*).
DESIGNED_PREFIXES = ("square-witness", "linear-witness", "extremal", "ray",
                     "u-ray", "torus", "graph-line", "line")


def designed_subcloud(cloud: SampleCloud) -> SampleCloud:
    """The samples of a cloud from proof-designed curves, in order (the whole
    cloud if it has none): the reference the designed-only cloud of
    sample_subgroup must equal."""
    keep = np.array([t.startswith(DESIGNED_PREFIXES) for t in cloud.tags], bool)
    if not keep.any():
        return cloud
    sub = SampleCloud(cloud.log_norm[keep], cloud.log_rho[keep],
                      list(compress(cloud.tags, keep)), dict(cloud.meta))
    for name in ("t_values", "mu_points"):
        if name in cloud.meta:
            sub.meta[name] = list(compress(cloud.meta[name], keep))
    return sub


def _nil_result(entry, spec, seed=0):
    return classify(spec, seed=seed) if entry.kind == "nil" else None


def _subalgebras_of_the_gallery_and_a_corpus():
    """The subalgebra of each gallery entry (the U of a graph or semidirect
    spec, the line of a one-parameter spec) and of random_corpus(count=60,
    seed=0)."""
    out = []
    for entry in gallery.entries():
        spec = entry.spec()
        out.append(spec if entry.kind == "nil" else
                   spec.u if hasattr(spec, "u") else Subalgebra([spec.x]))
    return out + [h for _, h in random_corpus(count=60, seed=0)]


def test_float_rows_are_the_floats_of_the_fraction_rows():
    """lab's float rows, a / den on each element's ints, are bit for bit the
    float arrays of the Fraction rows, on the gallery, a corpus and rows with
    large and repeating-decimal denominators."""
    def same_bits(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    rng = random.Random(3)
    scales = [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**25)) for _ in range(4)]
    for h in _subalgebras_of_the_gallery_and_a_corpus():
        assert same_bits(lab._vecs(h), np.array(h.coord_rows(), dtype=float))
        for b in h.basis:
            for u in [b] + [b.scale(c) for c in scales + [Fraction(1, 3), Fraction(-2, 7)]]:
                assert same_bits(lab._vec(u), np.array(u.coords(), dtype=float))


def test_gallery_covers_all_templates():
    seen = {e.expected_type for e in gallery.entries() if e.expected_type}
    assert seen == set(range(1, 12))
    assert len(gallery.entries()) >= 20
    kinds = {e.kind for e in gallery.entries()}
    assert kinds == {"nil", "semidirect", "graph", "oneparam"}


def test_gallery_classifications_match_expectations():
    for e in gallery.entries():
        spec = e.spec()
        if e.kind == "nil":
            r = classify(spec, seed=0)
            assert r.verdict == e.expected_verdict, e.id
            if e.expected_type is not None:
                assert r.template.type_id == e.expected_type, e.id
            if e.expected_shape is not None:
                assert r.shape == e.expected_shape, e.id
            if e.expected_normalizer is not None:
                assert str(r.normalizer) == e.expected_normalizer, e.id
            if e.expected_dim is not None:
                assert spec.dim == e.expected_dim, e.id
        else:
            r = classify_an(spec, seed=0)
            assert r.verdict == e.expected_verdict, e.id
            if e.expected_case:
                assert r.case == e.expected_case, e.id
            if e.expected_shape is not None:
                assert r.shape == e.expected_shape, e.id


def test_mixing_pair_family_solver():
    h = mixing_pair_family(4, y=[3, QQi(0, 3)], ytilde=[QQi(2, 3), QQi(1, -2)])
    assert h.dim == 3
    r = classify(h)
    assert r.template.type_id == 8
    # a variant with nonzero x-slots exercises the linear solve
    h2 = mixing_pair_family(4, y=[3, QQi(0, 3)], ytilde=[QQi(2, 3), QQi(1, -2)],
                            x=[1, 0], xtilde=[0, QQi(0, 1)], eta=QQi(1, 1))
    assert h2.dim == 3
    assert classify(h2).template.type_id == 8


def test_mixing_pair_rejects_bad_slots():
    with pytest.raises(ValueError):
        mixing_pair_family(3, y=[3], ytilde=[QQi(0, -1)])
    with pytest.raises(ValueError):
        mixing_pair_family(4, y=[1, 0], ytilde=[0, 1])  # wrong pairing


def test_maximal_band_family_dims():
    for n in (4, 5, 6):
        h = maximal_band_family(n)
        assert h.dim == n + 1
    with pytest.raises(ValueError):
        maximal_band_family(3)


def test_sampling_discard_fraction_and_size():
    for eid in ("notcds07-max-n4", "cds-fulln-n3", "semi02-n4"):
        e = gallery.get(eid)
        spec = e.spec()
        res = classify(spec) if e.kind == "nil" else None
        cloud = sample_subgroup(spec, SamplingPlan(seed=0), result=res)
        assert len(cloud) >= 32
        assert cloud.meta["discard_fraction"] < 0.5
        span = cloud.log_norm.max() - cloud.log_norm.min()
        assert span >= 3.0


def test_designed_subcloud_filters_products():
    e = gallery.get("notcds09-n3")
    h = e.spec()
    cloud = sample_subgroup(h, SamplingPlan(seed=0), result=classify(h))
    sub = designed_subcloud(cloud)
    assert 0 < len(sub) < len(cloud)
    assert all(not t.startswith("prod") for t in sub.tags)
    # the samples whose own tag starts with a designed prefix, in order
    keep = [i for i, t in enumerate(cloud.tags) if t.startswith(DESIGNED_PREFIXES)]
    assert sub.tags == [cloud.tags[i] for i in keep]
    assert sub.meta["t_values"] == [cloud.meta["t_values"][i] for i in keep]
    assert (sub.log_norm == cloud.log_norm[keep]).all()
    assert (sub.log_rho == cloud.log_rho[keep]).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_designed_only_cloud_is_the_designed_part_of_the_whole_cloud(seed):
    # bit for bit: the same curves on the same grids, with no product drawn
    for e in gallery.entries():
        spec = e.spec()
        result = _nil_result(e, spec, seed)
        plan = SamplingPlan(seed=seed)
        whole = sample_subgroup(spec, plan, result=result)
        alone = sample_subgroup(spec, plan, result=result, designed_only=True)
        want = designed_subcloud(whole)
        assert alone.log_norm.tobytes() == want.log_norm.tobytes(), (e.id, seed)
        assert alone.log_rho.tobytes() == want.log_rho.tobytes(), (e.id, seed)
        assert alone.tags == want.tags, (e.id, seed)
        assert alone.meta["t_values"] == want.meta["t_values"], (e.id, seed)
        assert not any(t.startswith(("prod", "mix")) for t in alone.tags), e.id
        if e.kind == "oneparam":
            assert alone.meta["mu_points"] == want.meta["mu_points"], e.id


def _spy_sampling(monkeypatch, fail_designed=False):
    """Record the designed_only flag of every sample_subgroup call that
    verify_shape makes; with fail_designed the designed-only call raises
    OverflowCeiling."""
    calls = []
    sample = lab.sample_subgroup

    def spy(spec, plan=None, result=None, designed_only=False):
        calls.append(designed_only)
        if designed_only and fail_designed:
            raise OverflowCeiling("designed curves failed on purpose")
        return sample(spec, plan, result, designed_only)
    monkeypatch.setattr(lab, "sample_subgroup", spy)
    return calls


def _whole_cloud_check(entry, seed=0):
    spec = entry.spec()
    cloud = sample_subgroup(spec, SamplingPlan(seed=seed), result=_nil_result(entry, spec, seed))
    return cloud, shape_check(cloud, classify(spec, seed=seed).shape)


def test_verify_shape_decides_on_the_designed_cloud_alone(monkeypatch):
    e = gallery.get("notcds11-n3")
    spec = e.spec()
    calls = _spy_sampling(monkeypatch)
    rep = verify_gallery_entry(e, seed=0)
    assert calls == [True] and rep.verdict == "pass"
    alone = sample_subgroup(spec, SamplingPlan(seed=0), result=classify(spec),
                            designed_only=True)
    assert rep.fitted == shape_check(alone, rep.predicted).fitted
    assert rep.notes == (f"designed cloud of {len(alone)} samples, discard fraction "
                         f"{alone.meta['discard_fraction']:.2f}")


def _miss_on_designed(monkeypatch):
    """shape_check reports a miss on any cloud without product samples."""
    def check(cloud, shape):
        report = shape_check(cloud, shape)
        if not any(t.startswith(("prod", "mix")) for t in cloud.tags):
            report = dataclasses.replace(report, verdict=False)
        return report
    monkeypatch.setattr(lab, "shape_check", check)


def test_a_full_chamber_miss_on_the_designed_cloud_samples_the_whole_cloud(monkeypatch):
    e = gallery.get("cds-fulln-n3")
    assert classify(e.spec()).shape.kind == "full_chamber"
    cloud, want = _whole_cloud_check(e)
    _miss_on_designed(monkeypatch)
    calls = _spy_sampling(monkeypatch)
    rep = verify_gallery_entry(e, seed=0)
    assert calls == [True, False]
    assert rep.verdict == "pass" and want.verdict
    assert rep.fitted == want.fitted and rep.log_fits == want.details
    assert rep.notes == (f"whole cloud of {len(cloud)} samples, discard fraction "
                         f"{cloud.meta['discard_fraction']:.2f}")


def test_a_thin_shape_miss_on_the_designed_cloud_is_final(monkeypatch):
    e = gallery.get("notcds11-n3")
    assert classify(e.spec()).shape.kind != "full_chamber"
    _miss_on_designed(monkeypatch)
    calls = _spy_sampling(monkeypatch)
    rep = verify_gallery_entry(e, seed=0)
    assert calls == [True] and rep.verdict == "fail"
    assert rep.notes.startswith("designed cloud of ")


def test_an_overflow_on_the_designed_curves_falls_back_to_the_whole_cloud(monkeypatch):
    e = gallery.get("notcds11-n3")
    cloud, want = _whole_cloud_check(e)
    calls = _spy_sampling(monkeypatch, fail_designed=True)
    rep = verify_gallery_entry(e, seed=0)
    assert calls == [True, False]
    assert rep.verdict == "pass" and rep.fitted == want.fitted
    assert rep.notes.startswith(f"whole cloud of {len(cloud)} samples")


def test_random_100_at_n8_is_decided_by_the_whole_cloud(monkeypatch):
    # the designed curves miss its full chamber, so the whole cloud decides
    # (and misses too: see the strict xfail below)
    specs = dict(random_corpus(count=200, ns=(8,), seed=1, include_gallery=False))
    calls = _spy_sampling(monkeypatch)
    report = verify_shape(specs["random-100"], seed=0)
    assert calls == [True, False]
    assert report.notes.startswith("whole cloud of ")


@pytest.mark.xfail(strict=True, reason=(
    "random-100 (n = 8, dim 2) is CDS with shape full_chamber 1..2, but its "
    "lower slope fits 1.205 against 1 +- 0.08: product curves lie below the "
    "linear witness ray up to |h| ~ 1e4-1e5, so the per-decade minima come "
    "from products in the low decades and from the witness in the high ones"))
def test_corpus_random_100_at_n8_shape_verifies():
    specs = dict(random_corpus(count=200, ns=(8,), seed=1, include_gallery=False))
    report = verify_shape(specs["random-100"], seed=0)
    assert report.verdict == "pass", report.fitted


def test_verify_shape_deterministic():
    e = gallery.get("notcds11-n3")
    r1 = verify_gallery_entry(e, seed=3)
    r2 = verify_gallery_entry(e, seed=3)
    assert r1.verdict == r2.verdict == "pass"
    assert r1.fitted == r2.fitted


def test_verify_symbolic_is_flagged():
    rep = verify_gallery_entry(gallery.get("semi01a-n3"), seed=0)
    assert rep.verdict == "unverifiable"
    rep = verify_gallery_entry(gallery.get("oneparam-alpha-n3"), seed=0)
    assert rep.verdict == "unverifiable"
    assert rep.fitted[0] is not None and rep.fitted[0] > 0


def test_graph_log_power_fits():
    s, c = fit_graph_log_power(gallery.get("graph01-n4").spec(),
                               SamplingPlan(seed=0))
    assert s == 2.0 and abs(c + 1.0) <= 0.3
    s, c = fit_graph_log_power(gallery.get("graph03-r2-n3").spec(),
                               SamplingPlan(seed=0))
    assert s == 1.0 and abs(c - 1.0) <= 0.3


def test_dimension_table_rows():
    rows = check_dimension_table(seed=0)
    assert all(r["ok"] for r in rows), [r for r in rows if not r["ok"]]
    names = " ".join(r["check"] for r in rows)
    assert "n=4" in names and "n=3" in names


def test_corpus_generator_reproducible():
    c1 = random_corpus(count=40, seed=5)
    c2 = random_corpus(count=40, seed=5)
    assert [cid for cid, _ in c1] == [cid for cid, _ in c2]
    assert all(h.dim >= 1 for _, h in c1)


def test_ray_sampling_leaves_the_callers_plan_alone():
    spec = gallery.get("oneparam-alpha-n3").spec()
    plan = SamplingPlan(seed=0)
    rep = verify_shape(spec, plan=plan, spec_id="oneparam-alpha-n3")
    assert rep.predicted.kind == "ray" and rep.fitted[0] is not None
    assert plan == SamplingPlan(seed=0)
    fit_ray_drift(spec, plan)
    assert plan == SamplingPlan(seed=0)


def test_a_ray_fit_reads_the_line_in_the_chamber():
    # (0, 1) + x and (0, 1) + xx are the Weyl images of (1, 0) + y and
    # (1, 0) + yy: the same mu points, so the same drift fit, near the exact
    # k of each (2 and 1)
    for raw, image, k in [(dict(t2=1, x=[1, 0]), dict(t1=1, y=[1, 0]), 2),
                          (dict(t2=1, xx=1), dict(t1=1, yy=1), 1)]:
        fit = fit_ray_drift(OneParam(AlgebraElement(4, **raw)))
        assert fit == pytest.approx(fit_ray_drift(OneParam(AlgebraElement(4, **image))),
                                    rel=1e-12)
        assert abs(fit - k) <= LOG_POWER_TOL


def test_a_ray_fit_without_the_line_raises():
    # the line's a-part is the only direction a ray fit reads
    cloud = sample_subgroup(OneParam(AlgebraElement(4, t1=1, y=[1, 0])))
    del cloud.meta["ray_direction"]
    with pytest.raises(InsufficientRange, match="ray_direction"):
        fit_ray_power(cloud)


def test_verify_gallery_entry_frames_each_subalgebra_once(monkeypatch):
    # classify_an and the graph curves read one frame of U; a Weyl-reflected
    # U is another subalgebra with a frame of its own
    from su2n import nilclassify

    framed = []
    init = nilclassify._Frame.__init__
    monkeypatch.setattr(nilclassify._Frame, "__init__",
                        lambda frame, h: framed.append(h) or init(frame, h))
    graphs = [e for e in gallery.entries() if e.kind == "graph"]
    assert graphs
    for entry in graphs:
        framed.clear()
        verify_gallery_entry(entry, seed=0)
        assert framed and len({id(h) for h in framed}) == len(framed), entry.id
