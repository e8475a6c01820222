"""Acceptance suite: one check per criterion, printed as a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
`su2n verify` drives the same suites from the command line.
"""

import time

import pytest

from su2n import gallery, verify
from su2n.config import ENVELOPE_TOL
from su2n.elements import NotInAN
from su2n.subalgebra import SubalgebraError
from su2n.verify import (
    cartan_suite,
    classifier_suite,
    conjugation_suite,
    dimensions_suite,
    formulas_suite,
    log_corrections_suite,
    shapes_suite,
)


def _report(criterion, rows, t0, budget):
    elapsed = time.perf_counter() - t0
    ok = all(r["ok"] for r in rows) and elapsed < budget
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion} ({elapsed:.1f}s / {budget:.0f}s budget)"
    print("\n" + line)
    for r in rows:
        if not r["ok"]:
            print(f"       failed: {r['name']}  {r['detail']}")
    assert ok, line
    return rows


def test_criterion_1_formula_suite():
    t0 = time.perf_counter()
    rows = formulas_suite(seed=0, trials_per_n=334, ns=(3, 4, 6))
    _report("criterion 1: exact formula suite (10^3 elements, n in {3,4,6})",
            rows, t0, 30.0)


def test_criterion_1_a_wrong_bracket_fails_the_commutator_row_at_its_n(monkeypatch):
    real = verify.bracket
    monkeypatch.setattr(verify, "bracket", lambda u, v: real(u, v).scale(2))
    rows = {r["name"]: r for r in formulas_suite(seed=0, trials_per_n=3, ns=(4, 3))}
    row = rows["bracket slots match the matrix commutator"]
    assert not row["ok"] and row["detail"] == "commutator mismatch at n=4"
    # twice the bracket still satisfies Jacobi
    assert rows["Jacobi identity holds exactly"]["ok"]


def test_criterion_2_cartan_suite():
    t0 = time.perf_counter()
    rows = cartan_suite(seed=0, cases=1000)
    _report("criterion 2: Cartan projection suite (10^3 cases)", rows, t0, 60.0)


def test_criterion_3_classifier_double_entry():
    t0 = time.perf_counter()
    rows = classifier_suite(count=500, seed=0, ns=(3, 4, 5))
    _report("criterion 3: double-entry on >= 500 subalgebras, seed 0",
            rows, t0, 600.0)


def test_criterion_4_exponent_reproduction():
    t0 = time.perf_counter()
    ids = [
        "notcds01-2beta-n3", "notcds01-null-n3",     # type 1: s = 1
        "notcds02-dim1-n3",                          # type 2 dim 1: s = 3/2
        "notcds04-n4", "notcds04-max-n4",            # type 4: s = 1
        "notcds05-dim1-n3",                          # type 5 dim 1: s = 4/3
        "notcds06-pair-n4", "notcds06-eta-n3",       # type 6: s = 2
        "notcds08-pair-n4", "notcds08-n3",           # type 8: s = 3/2
        "notcds10-n3", "notcds10-x-n4",              # type 10: s = 2
        "notcds11-n3",                               # type 11: band 5/4..2
    ]
    rows = shapes_suite(seed=0, only_ids=set(ids))
    assert len(rows) == len(ids)
    # the type-11 band check confirms both ends explicitly
    from su2n.lab import verify_gallery_entry
    rep = verify_gallery_entry(gallery.get("notcds11-n3"), seed=0)
    s_lo, s_hi = rep.fitted
    rows.append({"name": f"type-11 band ends fitted ({s_lo:.3f}, {s_hi:.3f})",
                 "ok": abs(s_lo - 1.25) <= ENVELOPE_TOL
                 and abs(s_hi - 2.0) <= ENVELOPE_TOL,
                 "detail": ""})
    _report("criterion 4: envelope exponents within +-0.08 at the 1e8 ceiling",
            rows, t0, 300.0)


def test_criterion_5_log_corrections():
    t0 = time.perf_counter()
    rows = log_corrections_suite(seed=0)
    _report("criterion 5: log-correction coefficients within +-0.3",
            rows, t0, 120.0)


def test_criterion_6_dimension_table():
    t0 = time.perf_counter()
    rows = dimensions_suite(seed=0)
    _report("criterion 6: maximal-dimension table rows", rows, t0, 30.0)


def test_criterion_7_conjugation_invariance():
    t0 = time.perf_counter()
    rows = conjugation_suite(pairs=100, seed=0)
    _report("criterion 7: shape invariance on 100 conjugation pairs",
            rows, t0, 120.0)


@pytest.mark.parametrize("error", [NotInAN, SubalgebraError])
def test_criterion_7_a_failed_conjugate_raises(monkeypatch, error):
    # a conjugate that leaves a+n or fails as a subalgebra is a bug, never a
    # skipped pair
    def broken(g, u):
        raise error("conjugate failed")
    monkeypatch.setattr(verify, "conjugate", broken)
    with pytest.raises(error):
        conjugation_suite(pairs=3, seed=0)
