"""The su2n benchmark.

    python3 bench/run.py --workload {classify,shape-verify,exact-oracle,all}
                         --seed N --seconds S --trace {0,1}

One process runs one workload: a closed loop with one caller and no extra
threads.  Inputs are made from --seed during set-up.  Every operation's
output is checked; failures are counted by cause and the run continues.

--trace 0: operations run back to back for at least S seconds and at least
100 operations (so the 90th percentile has ten samples beyond it); the last
line of output is a JSON object with the end-to-end metrics.
--trace 1: a fixed number of leading operations runs once untraced and once
with spans recorded at every layer boundary, so counts repeat exactly; the
JSON carries the per-layer metrics.  S is not used.
--workload all runs each workload in its own process.

Times are at reference host speed.  On a shared host the CPU speed changes
with the load of other tenants (on the 2-core host this was built on: two
speeds about 1.8x apart, in episodes of 2-40 s), which moved a run's median
latency by 30% and more.  A fixed pure-Python kernel, `probe`, is timed
before and after every operation and set-up; its time follows the host's
speed (an operation's time over the probe time next to it stayed within 2%
while the raw time moved 1.8x).  Each time is scaled by PROBE_S over the mean
of the probes around it: the time on a host where the probe takes PROBE_S.
The raw median latency and the host speed are printed beside the metrics.

Exit codes: 0 with a result printed, 1 when no result can be given, 2 when
the su2n sources are not found next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import catalog
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_OPS = 100          # fewest operations a latency_ms_p90 is given for
SETUP_REPEATS = 3      # setup_s is the median of this many set-ups
LOOP_DEADLINE_S = 150  # after process start; leaves time to report in 180 s
NAMES = ["classify", "shape-verify", "exact-oracle"]
PROBE_S = 1e-3         # the probe's time at reference speed


class TooFewOps(ValueError):
    pass


def latency_ms(times):
    """(p50, p90) in milliseconds; refused below MIN_OPS samples."""
    if len(times) < MIN_OPS:
        raise TooFewOps(f"{len(times)} operations, latency_ms_p90 needs {MIN_OPS}")
    return (statistics.median(times) * 1e3,
            statistics.quantiles(times, n=10)[8] * 1e3)


def probe():
    """Seconds a fixed Fraction kernel takes now; about PROBE_S at full speed
    on the host the benchmark was built on."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(500):
            acc += Fraction(k % 7 + 1, k % 5 + 2)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def timed(fn, *args):
    """(result, seconds at reference speed, raw seconds, probe seconds)."""
    before = probe()
    t0 = time.perf_counter()
    out = fn(*args)
    dt = time.perf_counter() - t0
    p = (before + probe()) / 2
    return out, dt * PROBE_S / p, dt, p


def _plain(i, fn, item):
    return fn(item)


class Record:
    """Per-operation times (at reference speed, and raw), failures by cause,
    and the behaviour digest."""

    def __init__(self):
        self.times = []
        self.raw = []
        self.probes = []
        self.causes = Counter()
        self.sha = hashlib.sha256()
        self.digested = 0

    @property
    def attempted(self):
        return len(self.times)

    @property
    def failed(self):
        return sum(self.causes.values())

    @property
    def fail_frac(self):
        return self.failed / self.attempted


def execute(wl, i, call=_plain):
    """Run and time operation i; (seconds, failure cause or None, output)."""
    item = wl.item(i)
    t0 = time.perf_counter()
    try:
        out = call(i, wl.run, item)
    except Exception as e:  # a failed operation is counted by cause, not fatal
        return time.perf_counter() - t0, type(e).__name__, None
    dt = time.perf_counter() - t0
    return dt, wl.check(item, out), out


def measure(wl, seconds=0.0, min_ops=0, deadline=float("inf"), count=None,
            call=_plain):
    """Run operations 0, 1, ... until `count` are done, or until at least
    `seconds` have passed and `min_ops` are done (or the deadline)."""
    rec = Record()
    start = time.perf_counter()
    before = probe()
    i = 0
    while True:
        dt, cause, out = execute(wl, i, call)
        after = probe()
        p = (before + after) / 2
        before = after
        rec.times.append(dt * PROBE_S / p)
        rec.raw.append(dt)
        rec.probes.append(p)
        if cause is not None:
            rec.causes[cause] += 1
        if i < wl.digest_ops:
            line = wl.digest_line(wl.item(i), out) if cause is None else \
                f"failed {cause}"
            rec.sha.update(line.encode() + b"\n")
            rec.digested += 1
        i += 1
        now = time.perf_counter()
        if count is not None:
            if i >= count:
                break
        elif (now - start >= seconds and i >= min_ops) or time.monotonic() > deadline:
            break
    return rec


def set_up(cls, seed):
    """A fresh workload with its inputs made and its warm-up run."""
    wl = cls()
    wl.setup(seed)
    for i in wl.warmup_indices():
        execute(wl, i)
    return wl


def _commit():
    """The checked-out commit, read from .git without starting a process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(args, ops):
    import numpy
    import scipy
    return (f"provenance: nproc={os.cpu_count()} python={platform.python_version()}"
            f" numpy={numpy.__version__} scipy={scipy.__version__}"
            f" commit={_commit()} workload={args.workload} seed={args.seed}"
            f" trace={args.trace} ops={ops}")


def _failures(rec):
    if not rec.causes:
        return "failures: none"
    return "failures: " + ", ".join(f"{c}={k}" for c, k in sorted(rec.causes.items()))


def _result(rec, metrics):
    return json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                       "failed": rec.failed, "metrics": metrics})


def run_untraced(args, cls, import_s, proc_start):
    setups = []
    for _ in range(SETUP_REPEATS):
        wl, setup_s, _, _ = timed(set_up, cls, args.seed)
        setups.append(setup_s)
    deadline = proc_start + LOOP_DEADLINE_S
    min_ops = max(MIN_OPS, wl.min_ops, wl.digest_ops)
    rec = measure(wl, args.seconds, min_ops, deadline)
    if rec.attempted < min_ops:
        raise TooFewOps(f"{rec.attempted} of {min_ops} operations ran before "
                        f"the deadline")
    p50, p90 = latency_ms(rec.times)
    values = {
        "latency_ms_p50": p50,
        "latency_ms_p90": p90,
        "ops_per_s": (rec.attempted - rec.failed) / sum(rec.times),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _, _ in catalog.END_TO_END}
    print(_provenance(args, rec.attempted))
    for name, m in metrics.items():
        print(f"  {name:16s} {m['value']:14.4f} {m['unit']}")
    print(f"  {'fail_frac':16s} {rec.fail_frac:14.4f} ({rec.failed} of {rec.attempted})")
    print(f"  raw latency p50 {statistics.median(rec.raw) * 1e3:.4f} ms; host speed "
          f"{PROBE_S / statistics.median(rec.probes):.3f} of reference")
    print(_failures(rec))
    print(f"digest: sha256 {rec.sha.hexdigest()} over the first {rec.digested} operations")
    print(_result(rec, metrics))


def run_traced(args, cls):
    wl = set_up(cls, args.seed)
    base = measure(wl, count=wl.trace_ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rec = measure(wl, count=wl.trace_ops, call=tracer.run_op)
    finally:
        tracer.remove()
    values, table = per_layer(tracer, rec.attempted,
                              [PROBE_S / p for p in rec.probes])
    values["trace.overhead_ratio"] = (statistics.median(rec.times)
                                      / statistics.median(base.times))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{wl.name}-seed{args.seed}.csv")
    tracer.write_spans(spans_path)

    print(_provenance(args, rec.attempted))
    print(f"{'span':44s} {'calls/op':>12s} {'self ms/op':>12s} {'share':>7s}")
    for name, calls, self_s, share in table:
        print(f"{name:44s} {calls:12.2f} {self_s * 1e3:12.4f} {share:7.3f}")
    shares = sorted(((values[f"{m}.self_share"], m) for m in catalog.MODULES),
                    reverse=True)
    print("module self shares: " + ", ".join(f"{m}={s:.3f}" for s, m in shares))
    print(f"unattributed share: {values['trace.unattributed_share']:.4f}")
    print(f"tracing overhead: traced/untraced latency p50 = "
          f"{values['trace.overhead_ratio']:.3f}")
    if tracer.missing:
        print("not traced (missing): " + ", ".join(tracer.missing))
    print(_failures(rec))
    print(f"spans: {len(tracer.names)} written to {os.path.relpath(spans_path, ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _, _ in catalog.PER_LAYER}
    print(_result(rec, metrics))


def per_layer(tracer, ops, scale):
    """Per-layer metric values, and the table rows (name, calls/op,
    self s/op, share of operation time) sorted by self time.  Self times are
    scaled to reference speed per operation, like the end-to-end times."""
    calls, self_s = tracing.layer_table(tracer, scale)
    total = sum(self_s.values())
    values = {}
    for name, _, _, _ in catalog.PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = self_s.get(span, 0.0) / ops
        elif stat == "calls":
            values[name] = (calls.get(span, 0) + tracer.counts.get(span, 0)) / ops
        elif stat == "self_share":
            own = sum(v for k, v in self_s.items() if k.startswith(span + "."))
            values[name] = own / total if total else 0.0
    values["trace.unattributed_share"] = self_s.get(tracing.ROOT, 0.0) / total \
        if total else 0.0
    square, runs = calls.get("nilclassify.check_square", 0), \
        calls.get("nilclassify.classify", 0)
    values["nilclassify.attempts_per_classify"] = square / runs if runs else 0.0
    values["linalg.max_entry_bits"] = tracer.max_entry_bits
    values["lab.samples_attempted"] = tracer.samples_attempted / ops
    values["lab.samples_kept"] = tracer.samples_kept / ops
    values["lab.keep_ratio"] = (tracer.samples_kept / tracer.samples_attempted
                                if tracer.samples_attempted else 0.0)
    table = sorted(((k, calls[k] / ops, v / ops, v / total if total else 0.0)
                    for k, v in self_s.items()), key=lambda r: -r[2])
    table += [(k, v / ops, 0.0, 0.0) for k, v in sorted(tracer.counts.items())]
    return values, table


def run_all(args):
    """Each workload in its own process, so set-up time and peak memory
    belong to that workload alone."""
    worst = 0
    for name in NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None):
    proc_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "su2n", "__init__.py")):
        print(f"error: su2n sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    workloads, import_s, _, _ = timed(importlib.import_module, "workloads")
    cls = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            run_traced(args, cls)
        else:
            run_untraced(args, cls, import_s, proc_start)
    except TooFewOps as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
