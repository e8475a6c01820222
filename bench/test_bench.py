"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import catalog  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from su2n import elements  # noqa: E402


def test_self_time_on_a_nested_span_tree():
    # root 0..100 with children 10..30 and 20..50 (overlapping: union 10..50)
    # and a child 90..120 that is clipped to 90..100; the first child has a
    # grandchild 12..18.
    spans = [(0, tracing.NO_PARENT, 0, 100), (1, 0, 10, 30), (2, 0, 20, 50),
             (3, 0, 90, 120), (4, 1, 12, 18)]
    st = tracing.self_times(spans)
    assert st == {0: 100 - 40 - 10, 1: 20 - 6, 2: 30, 3: 30, 4: 6}


def test_layer_table_sums_self_time_by_name():
    tr = tracing.Tracer()
    tr.names, tr.parents, tr.ops = ["op", "a", "b", "a"], [-1, 0, 1, 0], [0] * 4
    tr.starts, tr.ends = [0, 0, 10, 50], [100, 40, 20, 60]
    calls, self_s = tracing.layer_table(tr)
    assert calls == {"op": 1, "a": 2, "b": 1}
    assert self_s["a"] == pytest.approx(40e-9)
    assert self_s["op"] == pytest.approx(50e-9)
    _, scaled = tracing.layer_table(tr, scale=[0.5])
    assert scaled["a"] == pytest.approx(20e-9)


def test_p90_refused_below_100_operations():
    with pytest.raises(run.TooFewOps):
        run.latency_ms([0.01] * 99)
    p50, p90 = run.latency_ms([i / 1000 for i in range(1, 101)])
    assert p50 == pytest.approx(50.5)
    assert p90 == pytest.approx(90.9)


def test_times_are_scaled_by_the_probe_next_to_them(monkeypatch):
    probes = iter([2e-3, 4e-3, 4e-3])
    monkeypatch.setattr(run, "probe", lambda: next(probes))
    clock = iter([10.0, 10.5])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    out, scaled, raw, p = run.timed(lambda x: x + 1, 1)
    assert (out, raw, p) == (2, 0.5, 3e-3)
    assert scaled == pytest.approx(0.5 * run.PROBE_S / 3e-3)


def _oracle(seed=0):
    wl = workloads.ExactOracle()
    wl.pool = 6
    wl.setup(seed)
    return wl


def test_injected_wrong_answer_raises_fail_frac(monkeypatch):
    wl = _oracle()
    clean = run.measure(wl, count=6)
    assert clean.fail_frac == 0
    real = elements.delta_formula
    monkeypatch.setattr(elements, "delta_formula", lambda u: real(u) + 1)
    rec = run.measure(wl, count=6)
    assert rec.fail_frac == 1.0
    assert rec.causes == {"wrong:delta": 6}


def test_injected_exception_is_counted_by_type_and_the_run_continues(monkeypatch):
    wl = _oracle()

    def boom(u):
        raise ZeroDivisionError("injected")
    monkeypatch.setattr(elements, "exp_series", boom)
    rec = run.measure(wl, count=4)
    assert rec.attempted == 4
    assert rec.causes == {"ZeroDivisionError": 4}


def test_digest_repeats_at_one_seed_and_changes_with_it():
    a = run.measure(_oracle(0), count=3)
    b = run.measure(_oracle(0), count=3)
    c = run.measure(_oracle(1), count=3)
    assert a.sha.hexdigest() == b.sha.hexdigest() != c.sha.hexdigest()


def test_wrapper_returns_and_raises_the_same_objects():
    tr = tracing.Tracer()
    sentinel = object()
    err = KeyError("k")

    def ok(x, y=1):
        return sentinel

    def bad():
        raise err
    assert tr.wrap(ok, "t.ok")(1, y=2) is sentinel
    with pytest.raises(KeyError) as info:
        tr.wrap(bad, "t.bad")()
    assert info.value is err
    assert tr.names == ["t.ok", "t.bad"] and None not in tr.ends


def test_install_traces_values_imported_by_value_and_remove_restores():
    from su2n import anclassify, lab
    orig = elements.exp_closed
    wl = _oracle()
    plain = run.measure(wl, count=3)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert lab.exp_closed is elements.exp_closed is anclassify.exp_closed
        assert elements.exp_closed is not orig
        traced = run.measure(wl, count=3, call=tr.run_op)
    finally:
        tr.remove()
    assert elements.exp_closed is orig is lab.exp_closed is anclassify.exp_closed
    assert plain.sha.hexdigest() == traced.sha.hexdigest()
    assert not tr.missing
    calls, _ = tracing.layer_table(tr)
    assert calls["op"] == 3 and calls["elements.exp_closed.exact"] == 3
    assert tr.counts["scalars.QQi.mul"] > 0


def test_benchmark_json_matches_the_catalog():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert list(catalog.WORKLOADS) == run.NAMES
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == catalog.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [p[:3] for p in catalog.PER_LAYER]
