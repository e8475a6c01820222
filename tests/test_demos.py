"""Each demo script runs to completion and prints its golden output.

`tests/data/demos/<demo>.txt` holds each demo's stdout, byte for byte; all
five demos are deterministic (fixed seeds, no timings printed).  Regenerate
(only when a demo's output is meant to change) with

    PYTHONPATH=src python tests/test_demos.py
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "data" / "demos"


@functools.cache
def _run(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=300)


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    p = _run(demo)
    assert p.returncode == 0, p.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_golden_output(demo):
    assert _run(demo).stdout == (GOLDEN / f"{demo.stem}.txt").read_text()


if __name__ == "__main__":
    for demo in DEMOS:
        p = _run(demo)
        if p.returncode:
            sys.exit(p.stderr)
        (GOLDEN / f"{demo.stem}.txt").write_text(p.stdout)
