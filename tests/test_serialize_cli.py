import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from su2n import AlgebraElement, Subalgebra, gallery
from su2n.anclassify import Graph, OneParam, Semidirect, TorusLine
from su2n.config import ENVELOPE_TOL
from su2n.scalars import QQi, parse_rational
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


def _read_through_the_constructor(d, n):
    """element_from_json as it read an encoding through AlgebraElement(n,
    ...) and Gaussian rationals: the reference for its values and errors."""
    def cx(pair):
        return QQi(parse_rational(pair[0]), parse_rational(pair[1]))
    return AlgebraElement(
        n,
        t1=parse_rational(d.get("t1", 0)), t2=parse_rational(d.get("t2", 0)),
        phi=cx(d.get("phi", [0, 0])),
        x=[cx(p) for p in d.get("x", [[0, 0]] * (n - 2))],
        y=[cx(p) for p in d.get("y", [[0, 0]] * (n - 2))],
        eta=cx(d.get("eta", [0, 0])),
        xx=parse_rational(d.get("xx", 0)), yy=parse_rational(d.get("yy", 0)))


@pytest.mark.parametrize("d,n", [
    ({"t1": "-1/3", "phi": ["2", "-7/4"], "x": [["1", "0"], [0.5, "3"]],
      "y": [["0", "0"], ["-2", "1/9"]], "eta": [1, "0"], "xx": "5", "yy": "-1/2"}, 4),
    ({"xx": "1/4"}, 3), ({}, 5), ({}, 2), ({"x": [["1", "0"]]}, 4),
    ({"y": [[0, 0], [0, 0], [0, 0]]}, 4), ({"x": [["1", "0"]], "t1": "1/0"}, 2),
    ({"phi": ["a", "0"]}, 3), ({"phi": ["1"]}, 3), ({"eta": [["1"], "0"]}, 3),
    ({"xx": None}, 3), ({"x": None}, 3), ({"yy": "٣"}, 3)])
def test_element_from_json_reads_as_the_constructor_did(d, n):
    def outcome(read):
        try:
            return read(d, n)
        except Exception as e:  # the exception's type and message are compared
            return type(e), str(e)
    got, want = outcome(element_from_json), outcome(_read_through_the_constructor)
    if isinstance(want, tuple) and want[0] in (TypeError, IndexError):
        # a slot of the wrong shape, which the constructor route trips over:
        # the reader names the slot (each such case has one key) in a ValueError
        assert got[0] is ValueError and got[1].startswith(next(iter(d)))
    else:
        assert got == want


@pytest.mark.parametrize("s", [
    0, 7, -12, 10**30, 0.5, -2.5, 0.1, 1e-300, "0", "-0", "3", "-12", "7/14", "-3/6",
    "12/08", "0/5", "10000000000000000000000000000001/3", "+3", " 3", "0.5", "1e3",
    "-1.25e-2"])
def test_element_from_json_reads_a_scalar_as_from_coords_does(s):
    """An int, a "p/q" or "-p" string and every other scalar parse_rational
    accepts give, in a real slot and in both parts of a complex one, the
    element from_coords builds from its parse_rational value."""
    v = parse_rational(s)
    d = {"t2": s, "phi": [s, 1], "x": [["1/2", s]], "eta": [s, s], "xx": s}
    assert element_from_json(d, 3) == AlgebraElement.from_coords(
        3, [0, v, v, 1, Fraction(1, 2), v, 0, 0, v, v, v, 0])


@pytest.mark.parametrize("d, message", [
    ({"xx": "1/0"}, "zero denominator in '1/0'"),
    ({"phi": ["1", "-3/000"]}, "zero denominator in '-3/000'"),
    ({"xx": True}, "not a rational: True"),
    ({"eta": [False, 0]}, "not a rational: False"),
    ({"xx": float("inf")}, "not a finite rational: inf"),
    ({"yy": float("nan")}, "not a finite rational: nan"),
    ({"xx": None}, "xx must be a rational scalar, not None"),
    ({"t1": [1]}, "t1 must be a rational scalar, not [1]"),
    ({"phi": [[1], 0]}, "phi must be a pair of scalars, not [[1], 0]"),
    ({"x": [[None, 0]]}, "an entry of x must be a pair of scalars, not [None, 0]"),
])
def test_element_from_json_rejects_a_bad_scalar_with_its_message(d, message):
    with pytest.raises(ValueError) as info:
        element_from_json(d, 3)
    assert str(info.value) == message


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


@pytest.mark.parametrize("command", ["classify", "mu-scan"])
def test_cli_ends_quietly_on_a_closed_pipe(tmp_path, command):
    # su2n classify g.json | head -1: the reader is gone before the first
    # write, which fails at once; no traceback and exit status 0
    spec_path = tmp_path / "g.json"
    _cli("gallery", "--emit", "notcds01-2beta-n3", "--out", str(spec_path))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        p = subprocess.run([sys.executable, "-m", "su2n", command, str(spec_path)],
                           stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert p.returncode == 0
    assert p.stderr == ""


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


def test_cli_mu_scan_rejects_a_one_param_line_in_n_as_classify_does(tmp_path, capsys):
    """X = x + y has t1 = t2 = 0: both commands exit 1 with classify's message,
    not mu-scan's empty cloud."""
    from su2n import cli
    spec_path = tmp_path / "oneparam.json"
    dump_spec(OneParam(AlgebraElement(4, x=[1, 0], y=[1, 0])), spec_path)
    errors = []
    for command in ("classify", "mu-scan"):
        assert cli.main([command, str(spec_path)]) == 1
        errors.append(capsys.readouterr().err)
    assert errors == ["error: X lies in n; use the nil classifier\n"] * 2


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
    # classify reads the same conjugate
    p = _cli("classify", str(spec_path))
    if isinstance(spec, OneParam):
        # the conjugate is a bare torus line, which is not classified
        assert p.returncode == 1, p.stdout
        assert "H = H ∩ A" in p.stderr
        return
    assert p.returncode == 0, p.stderr
    report = json.loads(p.stdout)
    assert report["verdict"] == "CDS"
    assert "compatible conjugate: semidirect on the torus line (1, 1)" in report["notes"]
    shape = MuShape.from_json(report["shape"])
    assert (shape.s_lo - ENVELOPE_TOL <= summary["s_lo"] <= summary["s_hi"]
            <= shape.s_hi + ENVELOPE_TOL)


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


def test_cli_verify_all_runs_the_registry_in_order(monkeypatch, capsys):
    from su2n import cli

    def suite(name):
        return lambda: [{"name": f"{name}-check", "ok": True, "detail": ""}]

    monkeypatch.setattr(cli, "SUITES", {"zeta": suite("zeta"), "alpha": suite("alpha")})
    assert cli.main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS  zeta: zeta-check", "PASS  alpha: alpha-check"]
    # the choices are the registry's names too
    assert cli.main(["verify", "--suite", "alpha"]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS  alpha: alpha-check"]
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "shapes"])


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_rejects_fewer_than_one_sample_per_curve(tmp_path, capsys, samples):
    from su2n import cli
    spec_path = tmp_path / "p.json"
    dump_spec(gallery.get("notcds09-n3").spec(), spec_path)
    assert cli.main(["mu-scan", str(spec_path), "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --samples must be at least 1, not {samples}\n"


@pytest.mark.parametrize("tmax", ["nan", "inf", "0", "-5"])
def test_cli_rejects_a_tmax_that_is_not_positive_and_finite(tmp_path, capsys, tmax):
    from su2n import cli
    spec_path = tmp_path / "p.json"
    dump_spec(gallery.get("notcds09-n3").spec(), spec_path)
    assert cli.main(["mu-scan", str(spec_path), "--tmax", tmax]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --tmax must be positive and finite, not {float(tmax)}\n"


def test_cli_mu_scan_prints_the_csv_it_writes_to_out(tmp_path, capsys):
    from su2n import cli
    spec_path, out = tmp_path / "p.json", tmp_path / "cloud.csv"
    dump_spec(gallery.get("graph01-n4").spec(), spec_path)
    assert cli.main(["mu-scan", str(spec_path), "--samples", "8"]) == 0
    printed = capsys.readouterr().out
    assert cli.main(["mu-scan", str(spec_path), "--samples", "8", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed.startswith("t,log10_norm,log10_rho,curve_id\n")
    assert printed.encode() == out.read_bytes()


@pytest.mark.parametrize("command", ["classify", "gallery"])
def test_cli_rejects_a_seed_that_is_not_an_integer(tmp_path, monkeypatch, capsys, command):
    from su2n import cli
    spec_path = tmp_path / "p.json"
    dump_spec(gallery.get("notcds09-n3").spec(), spec_path)
    argv = {"classify": ["classify", str(spec_path)], "gallery": ["gallery", "--list"]}
    monkeypatch.setenv("SU2N_SEED", "abc")
    assert cli.main(argv[command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SU2N_SEED must be an integer, not 'abc'\n"
    # an integer is the default seed, which classify records
    monkeypatch.setenv("SU2N_SEED", "12")
    assert cli.main(["classify", str(spec_path)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 12


def test_cli_classify_rejects_a_nil_spec_with_an_a_part(tmp_path, capsys):
    from su2n import cli
    spec_path = tmp_path / "a.json"
    dump_spec(Subalgebra([AlgebraElement(3, t1=1, phi=1)]), spec_path)
    assert cli.main(["classify", str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: subalgebra has a nonzero a-part\n"


@pytest.mark.parametrize("command, target, error", [
    ("classify", "classify", ValueError("a bug in the classifier")),
    ("mu-scan", "sample_subgroup", ZeroDivisionError("a bug in the sampler")),
])
def test_cli_lets_a_programming_error_propagate(tmp_path, monkeypatch, command, target, error):
    """Only the errors a spec or a cloud can cause exit 1: a bare ValueError
    out of classify or an ArithmeticError out of sampling is a bug.  mu-scan
    imports lab when it runs, so its sampler is patched there."""
    from su2n import cli

    def broken(*args, **kwargs):
        raise error
    spec_path = tmp_path / "p.json"
    dump_spec(gallery.get("notcds09-n3").spec(), spec_path)
    monkeypatch.setattr({"classify": "su2n.cli", "mu-scan": "su2n.lab"}[command] + "."
                        + target, broken)
    with pytest.raises(type(error), match=str(error)):
        cli.main([command, str(spec_path)])


@pytest.mark.parametrize("command", ["classify", "mu-scan"])
@pytest.mark.parametrize("key, value, message", [
    ("t1", "1/0", "zero denominator in '1/0'"),
    ("xx", float("inf"), "not a finite rational: inf"),
    ("yy", True, "not a rational: True"),
], ids=["zero-denominator", "infinity", "bool"])
def test_cli_reports_a_bad_scalar_as_an_input_error(tmp_path, capsys, command, key, value,
                                                    message):
    """A spec scalar "1/0", a JSON Infinity and a JSON true exit 1 with an
    error line, on both commands that read a spec."""
    from su2n import cli
    d = spec_to_json(gallery.get("notcds09-n3").spec())
    d["basis"][0][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert json.dumps(value) in path.read_text()  # "1/0", Infinity, true
    assert cli.main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _set(path, value):
    """A spec editor: set the entry at the key path `path` to value."""
    def edit(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value
    return edit


@pytest.mark.parametrize("command", ["classify", "mu-scan"])
@pytest.mark.parametrize("entry, edit, message", [
    ("notcds09-n3", _set(("basis", 0, "phi"), "34"), "phi must be a pair of scalars, not '34'"),
    ("notcds09-n3", _set(("basis", 0, "phi"), "1"), "phi must be a pair of scalars, not '1'"),
    ("notcds09-n3", _set(("basis", 0, "xx"), None), "xx must be a rational scalar, not None"),
    ("notcds09-n3", _set(("basis", 0, "eta", 1), [0]),
     "eta must be a pair of scalars, not ['0', [0]]"),
    ("notcds09-n3", _set(("basis", 0, "y", 0), "1"), "an entry of y must be a pair of scalars, not '1'"),
    ("notcds09-n3", _set(("basis", 0, "x"), None), "x must be a list, not None"),
    ("notcds09-n3", _set(("basis",), None), "basis must be a list, not None"),
    ("notcds09-n3", _set(("n",), None), "n must be an integer, not None"),
    ("notcds09-n3", _set(("basis",), [None]), "basis[0] must be a JSON object, not None"),
    ("graph01-n4", _set(("omega",), "gamma"), "unknown graph omega 'gamma'"),
    ("graph01-n4", _set(("omega",), None), "unknown graph omega None"),
], ids=["phi-digits", "phi-one-char", "null-scalar", "list-scalar", "y-entry", "null-x",
        "null-basis",
        "null-n", "null-element", "unknown-omega", "null-omega"])
def test_cli_reports_a_malformed_spec_as_an_input_error(tmp_path, capsys, command, entry,
                                                        edit, message):
    """A spec field of the wrong shape exits 1 with an error line that names
    it, and no traceback, on both commands that read a spec."""
    from su2n import cli
    d = spec_to_json(gallery.get(entry).spec())
    edit(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert cli.main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("entry", ["notcds11-n3", "cds-real-pair-n3"])
def test_cli_mu_scan_samples_the_designed_curves_of_a_nil_spec(tmp_path, capsys, entry):
    """mu-scan of a nilpotent spec samples the witness and extremal curves of
    its classification, which pin the lower envelope: s_lo fits the shape's."""
    from su2n import cli
    from su2n.nilclassify import classify
    spec = gallery.get(entry).spec()
    spec_path, out = tmp_path / "spec.json", tmp_path / "cloud.csv"
    dump_spec(spec, spec_path)
    assert cli.main(["mu-scan", str(spec_path), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert abs(summary["s_lo"] - float(classify(spec).shape.s_lo)) <= ENVELOPE_TOL
    tags = {line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]}
    assert any(tag.endswith("-witness") for tag in tags)


def test_cli_mu_scan_reports_a_nil_spec_that_classify_rejects(tmp_path, capsys, monkeypatch):
    """A nilpotent spec whose classification fails exits as classify does:
    1 for a spec outside n, 2 for an inconsistent classification."""
    from su2n import cli, lab
    from su2n.nilclassify import InconsistentClassification
    spec_path = tmp_path / "a.json"
    dump_spec(Subalgebra([AlgebraElement(3, t1=1, phi=1)]), spec_path)
    assert cli.main(["mu-scan", str(spec_path)]) == 1
    assert capsys.readouterr().err == "error: subalgebra has a nonzero a-part\n"

    def inconsistent(h, seed=0):
        raise InconsistentClassification("witnesses vs template")
    monkeypatch.setattr(lab, "classify", inconsistent)
    dump_spec(gallery.get("notcds09-n3").spec(), spec_path)
    assert cli.main(["mu-scan", str(spec_path)]) == 2
    assert capsys.readouterr().err == "inconsistent classification: witnesses vs template\n"


def test_cli_classify_does_not_import_numpy(tmp_path):
    """The package and classify load no sampling module: numpy is not
    imported by a classify run (in a fresh interpreter)."""
    spec_path = tmp_path / "g.json"
    dump_spec(gallery.get("graph04-r1-n4").spec(), spec_path)
    code = ("import sys\nfrom su2n import cli\n"
            f"assert cli.main(['classify', {str(spec_path)!r}]) == 0\n"
            "print(sorted(m for m in ('numpy', 'su2n.lab', 'su2n.metrics', 'su2n.verify')"
            " if m in sys.modules), file=sys.stderr)\n")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stderr == "[]\n"


def test_cli_suite_names_are_the_registry_of_verify():
    from su2n import cli, verify
    assert list(cli.SUITES) == list(verify.SUITES)
    assert all(cli.SUITES[name] is verify.SUITES[name] for name in verify.SUITES)
