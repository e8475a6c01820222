"""In-memory span tracing installed by patching su2n's module attributes.

A span is recorded at each wrapped layer boundary with its name, start, end,
parent span and operation id.  Spans stay in memory until the run ends.  A
layer's self time is its span's duration minus the part of that interval its
child spans cover.

Patching replaces a function wherever it is bound: in its defining module and
in every su2n module that imported it by value (``lab`` binds ``exp_closed``,
``classify`` and the metrics functions, ``anclassify`` binds ``exp_closed``,
``subalgebra`` binds ``bracket``).  Wrappers return the wrapped function's
value and re-raise its exception unchanged, because ``lab`` branches on
exceptions while it searches parameter grids.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute path, span name, how the name is split by mode)
TIMED = [
    ("su2n.subalgebra", "Subalgebra.element", "subalgebra.element", None),
    ("su2n.subalgebra", "Subalgebra.__init__", "subalgebra.Subalgebra", None),
    ("su2n.nilclassify", "classify", "nilclassify.classify", None),
    ("su2n.nilclassify", "check_square", "nilclassify.check_square", None),
    ("su2n.nilclassify", "check_linear", "nilclassify.check_linear", None),
    ("su2n.nilclassify", "match_notcds", "nilclassify.match_notcds", None),
    ("su2n.nilclassify", "normalizer_in_A", "nilclassify.normalizer_in_A", None),
    ("su2n.anclassify", "classify_an", "anclassify.classify_an", None),
    ("su2n.linalg", "rref", "linalg.rref", None),
    ("su2n.linalg", "kernel_basis", "linalg.kernel_basis", None),
    ("su2n.linalg", "signature", "linalg.signature", None),
    ("su2n.linalg", "gram_from_quadratic", "linalg.gram_from_quadratic", None),
    ("su2n.elements", "exp_series", "elements.exp_series", "mode"),
    ("su2n.elements", "exp_closed", "elements.exp_closed", "mode"),
    ("su2n.elements", "GroupElement.__matmul__", "elements.GroupElement.matmul",
     "mode"),
    ("su2n.elements", "bracket", "elements.bracket", None),
    ("su2n.elements", "matrix_of", "elements.matrix_of", None),
    ("su2n.metrics", "sup_norm", "metrics.sup_norm", None),
    ("su2n.metrics", "rho_norm", "metrics.rho_norm", None),
    ("su2n.metrics", "mu", "metrics.mu", None),
    ("su2n.metrics", "fit_exponents", "metrics.fit_exponents", None),
    ("su2n.metrics", "shape_check", "metrics.shape_check", None),
    ("su2n.lab", "sample_subgroup", "lab.sample_subgroup", None),
    ("su2n.serialize", "spec_from_json", "serialize.spec_from_json", None),
    ("su2n.serialize", "classification_report",
     "serialize.classification_report", None),
]

# Scalar operations are counted, never timed: a timer around each one would
# cost more than the operation itself.
COUNTED = [
    ("su2n.scalars", "GaussianRational.__mul__", "scalars.QQi.mul"),
    ("su2n.scalars", "GaussianRational.__add__", "scalars.QQi.add"),
]

ROOT = "op"
NO_PARENT = -1


def _entry_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            if isinstance(x, Fraction):
                b = max(x.numerator.bit_length(), x.denominator.bit_length())
            elif isinstance(x, int):
                b = x.bit_length()
            else:
                continue
            if b > best:
                best = b
    return best


def _resolve(modname, path):
    """The object at `path` in a loaded module, or None."""
    obj = sys.modules.get(modname)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    """Spans and counters for one traced run; `install` patches, `remove`
    restores every binding it replaced."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.counts = defaultdict(int)
        self.max_entry_bits = 0
        self.samples_attempted = 0
        self.samples_kept = 0
        self.missing = []
        self._stack = [NO_PARENT]
        self._op = NO_PARENT
        self._patched = []
        # run on a span's arguments and return value after it closes
        self._after = {"linalg.rref": self._note_bits,
                       "linalg.signature": self._note_bits,
                       "lab.sample_subgroup": self._count_samples}

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(None)
        self.parents.append(self._stack[-1])
        self.ops.append(self._op)
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.ends[sid] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id, fn, *args):
        """Run one operation under a root span."""
        self._op = op_id
        sid = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self._op = NO_PARENT

    def wrap(self, fn, name, split=None):
        """A function that records a span around `fn` and is otherwise `fn`."""
        after = self._after.get(name)

        @functools.wraps(fn)
        def traced(*args, **kw):
            span = f"{name}.{args[0].mode}" if split == "mode" else name
            sid = self._open(span)
            try:
                out = fn(*args, **kw)
            finally:
                self._close(sid)
            if after is not None:
                after(args, out)
            return out
        return traced

    def count(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    def _note_bits(self, args, out):
        self.max_entry_bits = max(self.max_entry_bits, _entry_bits(args[0]))

    def _count_samples(self, args, cloud):
        kept = len(cloud)
        discard = cloud.meta.get("discard_fraction")
        if discard is None or discard >= 1.0:
            return
        self.samples_kept += kept
        self.samples_attempted += round(kept / (1.0 - discard))

    # -- patching -------------------------------------------------------------

    def install(self):
        for modname, path, name, split in TIMED:
            self._patch(modname, path, lambda f, n=name, s=split: self.wrap(f, n, s))
        for modname, path, name in COUNTED:
            self._patch(modname, path, lambda f, n=name: self.count(f, n))

    def _patch(self, modname, path, make):
        orig = _resolve(modname, path)
        if orig is None:
            self.missing.append(f"{modname}.{path}")
            return
        wrapper = make(orig)
        # Rebind every alias of the original: module globals imported by value
        # and class attributes such as __rmul__ = __mul__.
        for mod in [m for k, m in list(sys.modules.items())
                    if m is not None and (k == "su2n" or k.startswith("su2n."))]:
            holders = [mod] + [v for v in vars(mod).values()
                               if isinstance(v, type)
                               and getattr(v, "__module__", "") == mod.__name__]
            for holder in holders:
                for k, v in list(vars(holder).items()):
                    if v is orig:
                        setattr(holder, k, wrapper)
                        self._patched.append((holder, k, orig))

    def remove(self):
        for holder, k, orig in reversed(self._patched):
            setattr(holder, k, orig)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def spans(self):
        """(id, parent, op, name, start_ns, end_ns) for every closed span."""
        return [(i, self.parents[i], self.ops[i], self.names[i],
                 self.starts[i], self.ends[i])
                for i in range(len(self.names)) if self.ends[i] is not None]

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write("id,parent,op,name,start_ns,end_ns\n")
            for row in self.spans():
                f.write(",".join(str(v) for v in row) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus the union of its children's
    intervals clipped to it.  `spans` holds (id, parent, start, end) tuples."""
    children = defaultdict(list)
    bounds = {}
    for sid, parent, start, end in spans:
        bounds[sid] = (start, end)
        if parent != NO_PARENT:
            children[parent].append((start, end))
    out = {}
    for sid, (start, end) in bounds.items():
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def layer_table(tracer, scale=None):
    """Per span name: calls and total self time in seconds, each span's
    time multiplied by `scale[op]` of its operation when given."""
    rows = tracer.spans()
    selfs = self_times([(r[0], r[1], r[4], r[5]) for r in rows])
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for sid, _, op, name, _, _ in rows:
        calls[name] += 1
        self_s[name] += selfs[sid] * 1e-9 * (scale[op] if scale else 1.0)
    return calls, self_s
