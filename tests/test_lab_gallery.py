import pytest

from su2n import gallery
from su2n.anclassify import classify_an
from su2n.corpus import random_corpus
from su2n.gallery import maximal_band_family, mixing_pair_family
from su2n.lab import (
    DESIGNED_PREFIXES,
    SamplingPlan,
    check_dimension_table,
    designed_subcloud,
    fit_graph_log_power,
    fit_ray_drift,
    sample_subgroup,
    verify_gallery_entry,
    verify_shape,
)
from su2n.nilclassify import classify
from su2n.scalars import QQi


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
