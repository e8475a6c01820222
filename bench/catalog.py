"""Names, units and expected effects of every metric the benchmark prints.

BENCHMARK.json lists the same names; `test_bench.py` checks the two agree.
The last field of each per-layer entry records which end-to-end metric it
should move on which workload, and where it should have no effect, so a later
performance change can state its claim against these names before it is
measured.  Self times and counts are per operation.
"""

WORKLOADS = {
    "classify": "exact classifier layers (nilclassify, linalg, subalgebra, "
                "scalars) on corpus, gallery and conjugated specs; barely "
                "touches float numerics",
    "shape-verify": "the sampling half, as mu-scan runs it: float exp_closed "
                    "and exp_series, sup_norm, rho_norm and the fits, with "
                    "classification about a fifth of it",
    "exact-oracle": "exact elements and scalars (dense QQi matrix products in "
                    "exp_series and the commutator); no linalg, nilclassify or "
                    "metrics",
}

# name, unit, better, bound (share of the parent's median).  Times are at
# reference host speed (see run.py).  The timing bounds are the widest
# allowed: the classify corpus changes with the seed, which alone moves its
# latency percentiles by about 12% between seeds.
END_TO_END = [
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p90", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

MODULES = ["subalgebra", "nilclassify", "anclassify", "linalg", "elements",
           "metrics", "lab", "serialize"]

_CLASSIFY_P50 = "latency_ms_p50 and ops_per_s on classify"
_NOT_ORACLE = "no effect on exact-oracle"

# name, unit, better, what it should move
PER_LAYER = [
    ("subalgebra.element.calls", "calls/op", "lower",
     f"{_CLASSIFY_P50}; shape-verify a little; {_NOT_ORACLE}"),
    ("subalgebra.element.self_s", "s/op", "lower",
     f"{_CLASSIFY_P50}; shape-verify a little; {_NOT_ORACLE}"),
    ("subalgebra.Subalgebra.self_s", "s/op", "lower",
     "latency_ms_p50 on classify, and setup_s"),
    ("nilclassify.check_square.self_s", "s/op", "lower",
     f"latency_ms_p50 and latency_ms_p90 on classify; {_NOT_ORACLE}"),
    ("nilclassify.check_linear.self_s", "s/op", "lower",
     f"latency_ms_p50 and latency_ms_p90 on classify; {_NOT_ORACLE}"),
    ("nilclassify.match_notcds.self_s", "s/op", "lower",
     f"latency_ms_p50 and latency_ms_p90 on classify; {_NOT_ORACLE}"),
    ("nilclassify.normalizer_in_A.self_s", "s/op", "lower",
     f"latency_ms_p50 and latency_ms_p90 on classify; {_NOT_ORACLE}"),
    ("nilclassify.attempts_per_classify", "count", "lower",
     "phase runs per classify call (1.0 means no retries); latency_ms_p50 "
     f"and latency_ms_p90 on classify; {_NOT_ORACLE}"),
    ("anclassify.classify_an.self_s", "s/op", "lower", "classify"),
    ("linalg.rref.self_s", "s/op", "lower",
     f"latency_ms_p90 on classify, mostly through the conjugated copies; "
     f"{_NOT_ORACLE}"),
    ("linalg.kernel_basis.calls", "calls/op", "lower",
     f"latency_ms_p90 on classify; {_NOT_ORACLE}"),
    ("linalg.signature.self_s", "s/op", "lower",
     f"latency_ms_p90 on classify; {_NOT_ORACLE}"),
    ("linalg.gram_from_quadratic.self_s", "s/op", "lower",
     f"latency_ms_p90 on classify; {_NOT_ORACLE}"),
    ("linalg.max_entry_bits", "bits", "lower",
     "largest numerator or denominator bit length reaching rref or "
     f"signature; latency_ms_p90 on classify; {_NOT_ORACLE}"),
    ("scalars.QQi.mul.calls", "calls/op", "lower",
     "exact-oracle and classify (counted, never timed)"),
    ("scalars.QQi.add.calls", "calls/op", "lower",
     "exact-oracle and classify (counted, never timed)"),
    ("elements.exp_series.exact.self_s", "s/op", "lower",
     "latency_ms_p50 and ops_per_s on exact-oracle; no effect on shape-verify"),
    ("elements.GroupElement.matmul.exact.self_s", "s/op", "lower",
     "latency_ms_p50 and ops_per_s on exact-oracle; no effect on shape-verify"),
    ("elements.exp_closed.exact.self_s", "s/op", "lower",
     "latency_ms_p50 and ops_per_s on exact-oracle; no effect on shape-verify"),
    ("elements.bracket.self_s", "s/op", "lower",
     "latency_ms_p50 and ops_per_s on exact-oracle; no effect on shape-verify"),
    ("elements.exp_closed.float.calls", "calls/op", "lower",
     "latency_ms_p50 on shape-verify; no effect on classify or exact-oracle"),
    ("elements.exp_closed.float.self_s", "s/op", "lower",
     "latency_ms_p50 on shape-verify; no effect on classify or exact-oracle"),
    ("elements.exp_series.float.self_s", "s/op", "lower",
     "latency_ms_p50 on shape-verify (the scipy expm path); no effect on "
     "classify or exact-oracle"),
    ("elements.GroupElement.matmul.float.self_s", "s/op", "lower",
     "latency_ms_p50 on shape-verify; no effect on classify or exact-oracle"),
    ("metrics.sup_norm.self_s", "s/op", "lower", "shape-verify"),
    ("metrics.rho_norm.calls", "calls/op", "lower", "shape-verify"),
    ("metrics.rho_norm.self_s", "s/op", "lower", "shape-verify"),
    ("metrics.mu.self_s", "s/op", "lower", "shape-verify"),
    ("metrics.fit_exponents.self_s", "s/op", "lower", "shape-verify"),
    ("metrics.shape_check.self_s", "s/op", "lower", "shape-verify"),
    ("lab.sample_subgroup.self_s", "s/op", "lower",
     "curve evaluation and grid search, wrapped children excluded; "
     "shape-verify"),
    ("lab.samples_attempted", "count/op", "lower", "shape-verify"),
    ("lab.samples_kept", "count/op", "higher", "shape-verify"),
    ("lab.keep_ratio", "ratio", "higher",
     "useful samples over attempted ones; shape-verify"),
    ("serialize.spec_from_json.self_s", "s/op", "lower",
     "classify: catches cost moved into loading"),
    ("serialize.classification_report.self_s", "s/op", "lower",
     "classify: catches cost moved into reporting"),
] + [
    (f"{m}.self_share", "ratio", "lower",
     "share of operation time spent in this module's own code")
    for m in MODULES
] + [
    ("trace.unattributed_share", "ratio", "lower",
     "operation time covered by no layer span; a missed wrapper shows here"),
    ("trace.overhead_ratio", "ratio", "lower",
     "traced over untraced latency_ms_p50 on the same operations"),
]
