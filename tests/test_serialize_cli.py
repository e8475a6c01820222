import json
import subprocess
import sys
from fractions import Fraction

import pytest

from su2n import AlgebraElement, Subalgebra, gallery
from su2n.anclassify import Graph, OneParam, Semidirect, TorusLine
from su2n.scalars import QQi
from su2n.serialize import (
    dump_spec,
    element_from_json,
    element_to_json,
    load_spec,
    spec_from_json,
    spec_to_json,
)
from su2n.shapes import MuShape


def test_element_roundtrip_exact(alg):
    u = alg(4, t1=Fraction(1, 3), phi=QQi(1, Fraction(-2, 5)),
            x=[QQi(1, 1), 0], y=[0, QQi(0, 7)], eta=QQi(2), xx=Fraction(3, 4),
            yy=-2)
    d = element_to_json(u)
    assert d["phi"] == ["1", "-2/5"]
    back = element_from_json(d, 4)
    assert back == u


def _float_and_exact_twin():
    """A float-mode spec with dyadic doubles, and the same spec in "p/q"."""
    floats = {"kind": "nil", "n": 3, "mode": "float", "basis": [
        {"phi": [1.5, 2.0], "x": [[0.0, 0.25]], "y": [[1.0, 0.0]],
         "eta": [-3.0, 0.0], "xx": 0.5, "yy": 0.0},
        {"xx": 0.25}]}
    exact = {"kind": "nil", "n": 3, "mode": "exact", "basis": [
        {"phi": ["3/2", "2"], "x": [["0", "1/4"]], "y": [["1", "0"]],
         "eta": ["-3", "0"], "xx": "1/2", "yy": "0"},
        {"xx": "1/4"}]}
    return floats, exact


def test_float_mode_file_loads_equal_to_its_exact_twin():
    floats, exact = _float_and_exact_twin()
    a, b = spec_from_json(floats), spec_from_json(exact)
    assert a.basis == b.basis
    # the writer emits the exact form whatever the input mode was
    assert spec_to_json(a) == spec_to_json(b)
    assert spec_to_json(a)["mode"] == "exact"
    assert spec_to_json(a)["basis"][0]["phi"] == ["3/2", "2"]
    # a double is read as its exact binary value, not as a nearby decimal
    assert element_from_json({"xx": 0.1}, 3).xx == Fraction(0.1) != Fraction(1, 10)
    with pytest.raises(ValueError):
        spec_from_json(dict(exact, mode="binary"))


def test_all_gallery_specs_roundtrip():
    for e in gallery.entries():
        spec = e.spec()
        d = spec_to_json(spec)
        back = spec_from_json(json.loads(json.dumps(d)))
        assert type(back) is type(spec), e.id
        if isinstance(spec, Subalgebra):
            assert all(a == b for a, b in zip(spec.basis, back.basis))
        elif isinstance(spec, Semidirect):
            assert back.torus == spec.torus
            assert all(a == b for a, b in zip(spec.u.basis, back.u.basis))
        elif isinstance(spec, Graph):
            assert back.omega == spec.omega
            assert back.psi_value == spec.psi_value
        else:
            assert back.x == spec.x


def test_shape_json_roundtrip():
    for s in (MuShape.full_chamber(), MuShape.curve(Fraction(4, 3)),
              MuShape.band(Fraction(5, 4), 2),
              MuShape.band(1, 2, log_lo=Fraction(1, 2)),
              MuShape.band(1, None), MuShape.ray(None)):
        assert MuShape.from_json(s.to_json()) == s


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "su2n", *args],
                          capture_output=True, text=True)


def test_cli_gallery_list():
    p = _cli("gallery", "--list")
    assert p.returncode == 0
    assert len(p.stdout.strip().splitlines()) >= 20
    assert "notcds11-n3" in p.stdout


def test_cli_classify_gallery_entry(tmp_path):
    spec_path = tmp_path / "t1.json"
    p = _cli("gallery", "--emit", "notcds01-2beta-n3", "--out", str(spec_path))
    assert p.returncode == 0
    p = _cli("classify", str(spec_path))
    assert p.returncode == 0
    rep = json.loads(p.stdout)
    assert rep["verdict"] == "NotCDS" and rep["type"] == 1
    assert rep["normalizer"] == "A"


def test_cli_classify_cds(tmp_path):
    spec_path = tmp_path / "cds.json"
    _cli("gallery", "--emit", "cds-squarelinear-n4", "--out", str(spec_path))
    p = _cli("classify", str(spec_path))
    rep = json.loads(p.stdout)
    assert rep["verdict"] == "CDS"
    assert rep["witnesses"]["square"]["condition"] == 1
    assert rep["witnesses"]["linear"]["condition"] == 1


def test_cli_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("nonsense")
    p = _cli("classify", str(bad))
    assert p.returncode == 1
    # non-closed basis
    notclosed = tmp_path / "notclosed.json"
    u = AlgebraElement(4, phi=1)
    v = AlgebraElement(4, y=[1, 0])
    notclosed.write_text(json.dumps({
        "kind": "nil", "n": 4, "mode": "exact",
        "basis": [json.loads(json.dumps(element_to_json(b))) for b in (u, v)]}))
    p = _cli("classify", str(notclosed))
    assert p.returncode == 1
    assert "span" in p.stderr or "NotClosed" in p.stderr or "error" in p.stderr


def test_cli_rejects_a_non_closed_float_mode_file(tmp_path):
    # float-mode files are validated like exact ones
    path = tmp_path / "notclosed-float.json"
    path.write_text(json.dumps({"kind": "nil", "n": 4, "mode": "float", "basis": [
        {"phi": [1.0, 0.0]}, {"y": [[1.0, 0.0], [0.0, 0.0]]}]}))
    p = _cli("classify", str(path))
    assert p.returncode == 1
    assert "[b0, b1] is not in the span of the basis" in p.stderr


def test_cli_mu_scan(tmp_path):
    spec_path = tmp_path / "p.json"
    _cli("gallery", "--emit", "notcds05-dim1-n3", "--out", str(spec_path))
    out = tmp_path / "cloud.csv"
    p = _cli("mu-scan", str(spec_path), "--samples", "40", "--out", str(out))
    assert p.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,log10_norm,log10_rho,curve_id"
    assert len(lines) > 40
    summary = json.loads(p.stderr.strip().splitlines()[-1])
    assert abs(summary["s_hi"] - 4 / 3) < 0.08


@pytest.mark.parametrize("spec", [
    # [T + y, x] = x + eta, outside the span of x
    Graph("alpha", AlgebraElement(4, y=[1, 0]), Subalgebra([AlgebraElement(4, x=[1, 0])])),
    # the (1, 1) torus scales x and eta by different weights
    Semidirect(TorusLine(1, 1), Subalgebra([AlgebraElement(4, x=[1, 0], eta=1)])),
], ids=["graph", "semidirect"])
def test_cli_rejects_a_line_that_does_not_normalize_u(tmp_path, spec):
    spec_path = tmp_path / "spec.json"
    dump_spec(spec, spec_path)
    for command in ("classify", "mu-scan"):
        p = _cli(command, str(spec_path))
        assert p.returncode == 1, p.stderr
        assert f"the {spec.kind} line does not normalize U" in p.stderr


@pytest.mark.parametrize("spec, s_lo, s_hi", [
    # psi in the beta slot, which the alpha-kernel torus does not centralize;
    # U = <x, eta> is normalized by T + y ([T + y, x] = x + eta, [T + y, eta] = 2 eta)
    (Graph("alpha", AlgebraElement(4, y=[1, 0]),
           Subalgebra([AlgebraElement(4, x=[1, 0]), AlgebraElement(4, eta=1)])), 1, 2),
    # phi on the torus line (1, 0): conjugates to the bare torus line
    (OneParam(AlgebraElement(3, t1=1, t2=0, phi=1)), 1, 1),
])
def test_cli_mu_scan_conjugates_a_non_compatible_spec(tmp_path, spec, s_lo, s_hi):
    spec_path = tmp_path / "spec.json"
    dump_spec(spec, spec_path)
    p = _cli("mu-scan", str(spec_path), "--out", str(tmp_path / "cloud.csv"))
    assert p.returncode == 0, p.stderr
    summary = json.loads(p.stderr.strip().splitlines()[-1])
    assert abs(summary["s_lo"] - s_lo) < 0.05
    assert abs(summary["s_hi"] - s_hi) < 0.05


def _semidirect_file(tmp_path, torus, u):
    """A semidirect spec file whose "torus" entry is written as given."""
    d = spec_to_json(Semidirect(TorusLine(1, 1), u))
    d["torus"] = torus
    path = tmp_path / ("semidirect_%s_%s.json" % tuple(str(v).replace("/", "over")
                                                       for v in torus))
    path.write_text(json.dumps(d))
    return path


@pytest.mark.parametrize("torus", [[2, 2], [-1, -1], ["1/2", "1/2"]])
def test_cli_reads_a_semidirect_torus_as_its_line(tmp_path, torus):
    u = Subalgebra([AlgebraElement(3, eta=1, xx=1, yy=1)])
    reports = []
    for t in ([1, 1], torus):
        p = _cli("classify", str(_semidirect_file(tmp_path, t, u)))
        assert p.returncode == 0, p.stderr
        reports.append(json.loads(p.stdout))
    assert reports[0]["case"] == "semidirect-1b"
    assert reports[1] == reports[0]


def test_cli_reads_a_fractional_semidirect_torus_exactly(tmp_path):
    # [1.5, 1] is the line [3, 2], which does not normalize U; truncating the
    # entries would give [1, 1], which does
    u = Subalgebra([AlgebraElement(3, eta=1, xx=1, yy=1)])
    p = _cli("classify", str(_semidirect_file(tmp_path, [1.5, 1], u)))
    assert p.returncode == 1, p.stdout
    assert "does not normalize U" in p.stderr


def test_cli_rejects_a_zero_semidirect_torus(tmp_path):
    path = _semidirect_file(tmp_path, [0, 0], Subalgebra([AlgebraElement(3, yy=1)]))
    for command in ("classify", "mu-scan"):
        p = _cli(command, str(path))
        assert p.returncode == 1, p.stderr
        assert "the semidirect torus [0, 0] spans no line" in p.stderr


def test_cli_seed_env(tmp_path, monkeypatch):
    spec_path = tmp_path / "p.json"
    _cli("gallery", "--emit", "notcds09-n3", "--out", str(spec_path))
    p1 = subprocess.run([sys.executable, "-m", "su2n", "mu-scan",
                         str(spec_path), "--samples", "24"],
                        capture_output=True, text=True,
                        env={"SU2N_SEED": "7", "PATH": "/usr/bin:/bin"})
    p2 = subprocess.run([sys.executable, "-m", "su2n", "mu-scan",
                         str(spec_path), "--samples", "24"],
                        capture_output=True, text=True,
                        env={"SU2N_SEED": "7", "PATH": "/usr/bin:/bin"})
    assert p1.stdout == p2.stdout


def test_load_dump_spec(tmp_path):
    spec = gallery.get("graph03-r1-n3").spec()
    path = tmp_path / "g.json"
    dump_spec(spec, path)
    back = load_spec(path)
    assert isinstance(back, Graph) and back.omega == "beta"


def test_cli_verify_dimensions_suite():
    p = _cli("verify", "--suite", "dimensions")
    assert p.returncode == 0
    lines = [l for l in p.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)
