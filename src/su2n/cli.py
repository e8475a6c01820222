"""Command-line entry points.

    su2n classify SPEC.json [--seed N]
    su2n mu-scan SPEC.json [--tmax T] [--samples K] [--seed N] [--out FILE]
    su2n verify --suite {formulas,cartan,classifier,shapes,dimensions,
                         log-corrections,conjugation,all} [--quick]
    su2n gallery (--list | --emit ID [--out FILE])

Exit codes: 0 success, 1 input/parse error, 2 internal inconsistency.
A reader that closes the output pipe early ends the command quietly with 0.
classify and mu-scan read a graph or one-parameter spec that is not in
compatible form on its exact compatible conjugate; classify's notes then name
the conjugate's kind and torus line, and a conjugate that is a bare torus line
exits 1.  mu-scan samples a nilpotent spec on the witness and extremal curves
of its classification, and exits as classify does when that fails.
SU2N_SEED overrides the default seed.  An SU2N_SEED that is not an integer,
a mu-scan --samples below 1 and a --tmax that is not positive and finite are
input errors.  Classification draws no random numbers: classify --seed is
only recorded in the report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Mapping

from .anclassify import AnError, classify_an
from .nilclassify import ClassificationError, InconsistentClassification, NotInN, classify
from .serialize import (
    classification_report,
    cloud_to_csv,
    dump_spec,
    load_spec,
    spec_to_json,
)
from .subalgebra import Subalgebra, SubalgebraError

# The sampling modules (lab, metrics, verify) import numpy; mu-scan and
# verify import them when they run, so classify and gallery never load it.


class _Suites(Mapping):
    """verify.SUITES by name, its names listed here so that the --suite
    choices need no import: verify is imported on the first suite read."""

    NAMES = ("formulas", "cartan", "classifier", "shapes", "dimensions",
             "log-corrections", "conjugation")

    def __iter__(self):
        return iter(self.NAMES)

    def __len__(self):
        return len(self.NAMES)

    def __getitem__(self, name):
        from .verify import SUITES as suites

        return suites[name]


SUITES = _Suites()


def _cmd_classify(args):
    try:
        spec = load_spec(args.spec)
    except (OSError, ValueError, KeyError, SubalgebraError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        if isinstance(spec, Subalgebra):
            result = classify(spec, seed=args.seed)
        else:
            result = classify_an(spec, seed=args.seed)
    except InconsistentClassification as e:
        print(f"inconsistent classification: {e}", file=sys.stderr)
        return 2
    except (AnError, ClassificationError, NotInN) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(classification_report(result), indent=1))
    return 0


def _cmd_mu_scan(args):
    from .lab import OverflowCeiling, SamplingPlan, sample_subgroup
    from .metrics import InsufficientRange, NonFinite, fit_exponents

    try:
        spec = load_spec(args.spec)
    except (OSError, ValueError, KeyError, SubalgebraError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.samples < 1:
        print(f"error: --samples must be at least 1, not {args.samples}", file=sys.stderr)
        return 1
    if args.tmax is not None and not (math.isfinite(args.tmax) and args.tmax > 0):
        print(f"error: --tmax must be positive and finite, not {args.tmax}",
              file=sys.stderr)
        return 1
    plan = SamplingPlan(seed=args.seed, per_curve=args.samples, t_cap=args.tmax)
    try:
        cloud = sample_subgroup(spec, plan)
        s_lo, s_hi, conf = fit_exponents(cloud)
    except InconsistentClassification as e:
        print(f"inconsistent classification: {e}", file=sys.stderr)
        return 2
    except (AnError, ClassificationError, NotInN,
            InsufficientRange, OverflowCeiling, NonFinite) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    cloud_to_csv(cloud, args.out or sys.stdout)
    print(json.dumps({"s_lo": s_lo, "s_hi": s_hi, "confidence": conf,
                      "samples": len(cloud),
                      "discard_fraction": cloud.meta.get("discard_fraction")}),
          file=sys.stderr)
    return 0


def _cmd_verify(args):
    kw = {}
    if args.quick:
        kw = {"classifier": {"count": 120},
              "formulas": {"trials_per_n": 60},
              "cartan": {"cases": 200},
              "conjugation": {"pairs": 25}}
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        rows = SUITES[name](**kw.get(name, {}))
        for r in rows:
            mark = "PASS" if r["ok"] else "FAIL"
            detail = f"  [{r['detail']}]" if r["detail"] else ""
            print(f"{mark}  {name}: {r['name']}{detail}")
            failed += 0 if r["ok"] else 1
    return 0 if failed == 0 else 2


def _cmd_gallery(args):
    from .gallery import entries, get

    if args.list:
        for e in entries():
            extra = f" — {e.note}" if e.note else ""
            expect = e.expected_case or (f"type {e.expected_type}"
                                         if e.expected_type else e.expected_verdict)
            print(f"{e.id:26s} n={e.n} [{e.kind}] {e.expected_verdict}"
                  f" ({expect}){extra}")
        return 0
    try:
        e = get(args.emit)
    except KeyError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    spec = e.spec()
    if args.out:
        dump_spec(spec, args.out)
    else:
        print(json.dumps(spec_to_json(spec), indent=1))
    return 0


def main(argv=None):
    env = os.environ.get("SU2N_SEED") or "0"
    try:
        seed = int(env)
    except ValueError:
        print(f"error: SU2N_SEED must be an integer, not {env!r}", file=sys.stderr)
        return 1
    ap = argparse.ArgumentParser(prog="su2n", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="classify a subgroup spec file")
    p.add_argument("spec")
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("mu-scan", help="sample a spec and fit envelope exponents")
    p.add_argument("spec")
    p.add_argument("--tmax", type=float, default=None,
                   help="cap on the curve parameter, positive and finite; "
                   "a cap below 4 samples to t = 4")
    p.add_argument("--samples", type=int, default=48, help="samples per curve")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(fn=_cmd_mu_scan)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p.add_argument("--quick", action="store_true",
                   help="reduced sample counts for a fast pass")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gallery", help="list or emit curated examples")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--list", action="store_true")
    g.add_argument("--emit", metavar="ID")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gallery)

    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (su2n classify g.json | head -1): stop
        # quietly, with stdout on devnull so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
