"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from diskjet import cli, disk_order3_params, lambda_from_w1
from diskjet.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY,
                         fmt_complex, main, parse_complex)
from diskjet.verify import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("2i") == 2j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5-0.25i") == -0.5 - 0.25j
    assert parse_complex("1e-3+2e-4j") == 1e-3 + 2e-4j
    with pytest.raises(Exception):
        parse_complex("nope")


def test_fmt_complex_roundtrip():
    for z in (0.1 + 0.2j, -1.0 / 3.0 + 1e-17j, 7.0 - 2.0 / 7.0j):
        assert parse_complex(fmt_complex(z)) == z


def test_disk_order1(capsys):
    code, out, _ = run(capsys, "disk", "--order", "1", "--z0", "0.5", "--w0", "0.25")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {"center_re": 0.5, "center_im": 0.0, "radius": 0.5}


def test_disk_order2_requires_beta_or_w1(capsys):
    code, _, err = run(capsys, "disk", "--order", "2", "--z0", "0.5", "--w0", "0.2")
    assert code == EXIT_USAGE and "beta" in err


def test_disk_order3_params_path(capsys):
    code, out, _ = run(capsys, "disk", "--order", "3", "--z0", "0.5", "--w0", "0.25",
                       "--lambda", "0.3+0.2i", "--mu", "0.4-0.3i")
    assert code == EXIT_OK
    payload = json.loads(out)
    d = disk_order3_params(0.5, 0.25, 0.3 + 0.2j, 0.4 - 0.3j)
    assert payload["center_re"] == pytest.approx(d.center.real, abs=1e-15)
    assert payload["center_im"] == pytest.approx(d.center.imag, abs=1e-15)
    assert payload["radius"] == pytest.approx(d.radius, abs=1e-15)


def test_disk_order3_needs_w2_when_interior(capsys):
    code, _, err = run(capsys, "disk", "--order", "3", "--z0", "0.5", "--w0", "0.25",
                       "--w1", "0.55")
    assert code == EXIT_USAGE and "--w2" in err


def test_disk_extracts_lambda_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return lambda_from_w1(*args)

    monkeypatch.setattr("diskjet.dieudonne.lambda_from_w1", counted)
    for order, extra in (("3", ("--w2", "0.1+0.2i")), ("3", ()), ("2", ())):
        calls.clear()
        code, _, _ = run(capsys, "disk", "--order", order, "--z0", "0.5", "--w0", "0.25",
                         "--w1", "0.55", *extra)
        assert code == (EXIT_USAGE if order == "3" and not extra else EXIT_OK)
        assert len(calls) == 1, (order, extra)


def test_disk_w1_rejects_zero_base_point(capsys):
    # z0 is validated before lambda is extracted (w0 / z0 would divide by 0)
    for order in ("2", "3"):
        code, _, err = run(capsys, "disk", "--order", order, "--z0", "0", "--w0", "0",
                           "--w1", "1", "--w2", "0")
        assert code == EXIT_INFEASIBLE and "z0" in err


def test_disk_infeasible_exit(capsys):
    code, _, err = run(capsys, "disk", "--order", "1", "--z0", "0.4", "--w0", "0.5")
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


def test_disk_order2_clamped_beta(capsys):
    # this |beta| is within FEAS_TOL of 1, and clamping leaves it at 1 + 2^-52
    code, out, err = run(capsys, "disk", "--order", "2", "--z0", "0.5+0.1i", "--w0", "0.1-0.05i",
                         "--beta", "0.7018677484516391+0.7123072821160294i")
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["radius"] == 0.0


def test_usage_errors(capsys):
    assert run(capsys, "disk", "--order", "5", "--z0", "0.5", "--w0", "0.2")[0] == EXIT_USAGE
    assert run(capsys, "bogus")[0] == EXIT_USAGE
    assert run(capsys, "disk", "--order", "1", "--z0", "xyz", "--w0", "0")[0] == EXIT_USAGE
    assert run(capsys, "boundary", "--z0", "0.5", "--w0", "0.25", "--w1", "0.55",
               "--n", "8")[0] == EXIT_USAGE


def test_negative_complex_flag_values(capsys):
    # a value starting with "-" and a digit is a value, spaced or after "="
    for argv in (["extremal", "--z0", "0.3+0.4i", "--w0", "{}", "--lambda", "0.3-0.2i",
                  "--mu", "0.4+0.1i"],
                 ["disk", "--order", "1", "--z0", "0.5", "--w0", "{}"]):
        for w0 in ("-0.1+0.2i", "-0.1-0.2i", "-0.25", "-.25"):
            spaced = run(capsys, *(a.format(w0) for a in argv))
            joined = run(capsys, *" ".join(argv).replace("--w0 {}", "--w0=" + w0).split())
            assert spaced == joined and spaced[0] == EXIT_OK, (argv[0], w0)
    code, out, err = run(capsys, "disk", "--order", "1", "--z0", "0.5", "--w0")
    assert code == EXIT_USAGE and out == "" and "--w0" in err
    code, out, err = run(capsys, "disk", "--order", "1", "--w0", "--z0", "0.5")
    assert code == EXIT_USAGE and out == "" and "--w0" in err


def test_boundary_n_cap(capsys, monkeypatch):
    # above the cap the usage check fires before any trace is computed
    def trace(*args):
        raise AssertionError("traced an over-cap --n")
    monkeypatch.setattr("diskjet.boundary.sample_boundary", trace)
    code, _, err = run(capsys, "boundary", "--z0", "0.5", "--w0", "0.25", "--w1", "0.55",
                       "--n", str(cli.BOUNDARY_MAX_N + 1))
    assert code == EXIT_USAGE and str(cli.BOUNDARY_MAX_N) in err
    with pytest.raises(SystemExit):
        main(["boundary", "--help"])
    assert str(cli.BOUNDARY_MAX_N) in capsys.readouterr().out


def boundary_args(fmt="csv", n="64"):
    return ["boundary", "--z0", "0.5", "--w0", "0.25", "--w1", "0.55",
            "--n", n, "--format", fmt]


def test_boundary_csv(capsys):
    code, out, _ = run(capsys, *boundary_args())
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "theta,re,im,branch"
    assert len(lines) - 1 >= 64
    for row in lines[1:]:
        th, re, im, branch = row.split(",")
        assert -math.pi <= float(th) <= math.pi
        assert math.isfinite(float(re)) and math.isfinite(float(im))
        assert branch in ("arc", "cap")


def test_boundary_byte_deterministic(capsys):
    out1 = run(capsys, *boundary_args())[1]
    out2 = run(capsys, *boundary_args())[1]
    assert out1 == out2


def test_boundary_json(capsys):
    code, out, _ = run(capsys, *boundary_args("json"))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["regime"] in ("i", "ii", "iii")
    assert len(payload["points"]) >= 64
    p = payload["points"][0]
    assert set(p) == {"theta", "re", "im", "branch"}


def test_boundary_svg_strict_xml(capsys):
    code, out, _ = run(capsys, *boundary_args("svg"))
    assert code == EXIT_OK
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")
    tags = [child.tag.split("}")[-1] for child in root]
    assert "path" in tags and "circle" in tags


def test_boundary_formats_read_the_trace_arrays(capsys):
    # csv and json rows of a rotated regime-iii query are the curve's points
    from diskjet import boundary, dieudonne
    argv = ["--z0", "0.71-0.2i", "--w0", "0.33+0.31i", "--w1", "-0.61+0.53i", "--n", "17"]
    cfg = dieudonne.normalize(dieudonne.InterpolationData(
        *(parse_complex(v) for v in argv[1:6:2])))
    spec = boundary.region_spec(cfg.r, cfg.s, cfg.lam)
    assert spec.regime == "iii" and cfg.phi != 0.0
    points = boundary.denormalize(boundary.sample_boundary(spec, 17), cfg.phi, cfg.xi).points
    out = run(capsys, "boundary", *argv, "--format", "csv")[1]
    assert out.splitlines()[1:] == [
        f"{p.theta:.17g},{p.value.real:.17g},{p.value.imag:.17g},{p.branch}" for p in points]
    out = run(capsys, "boundary", *argv, "--format", "json")[1]
    assert json.loads(out)["points"] == [
        {"theta": p.theta, "re": p.value.real, "im": p.value.imag, "branch": p.branch}
        for p in points]


def test_boundary_degenerate_lambda(capsys):
    # w1 on the rim of the first-derivative disk: |lambda| = 1, no curve
    z0, w0 = 0.5, 0.25
    w1 = w0 / z0 + (z0 * z0 - w0 * w0) / (z0 * (1.0 - z0 * z0))
    code, _, err = run(capsys, "boundary", "--z0", "0.5", "--w0", "0.25",
                       "--w1", format(w1, ".17g"))
    assert code == EXIT_INFEASIBLE
    assert "lambda" in err


def test_extremal_command(capsys):
    code, out, _ = run(capsys, "extremal", "--z0", "0.5", "--w0", "0.25",
                       "--lambda", "0.3+0.2i", "--mu", "0.4-0.3i",
                       "--theta", "1.1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["depth"] == 3
    assert payload["boundary_angle_check"] < 1e-9
    assert parse_complex(payload["w0"]) == pytest.approx(0.25)
    d = disk_order3_params(0.5, 0.25, 0.3 + 0.2j, 0.4 - 0.3j)
    w3 = parse_complex(payload["w3"])
    assert abs(abs(w3 - d.center) - d.radius) < 1e-9 * (1.0 + d.radius)


def test_extremal_depths(capsys):
    code, out, _ = run(capsys, "extremal", "--z0", "0.5", "--w0", "0.25",
                       "--lambda", "1")
    assert code == EXIT_OK and json.loads(out)["depth"] == 1
    code, out, _ = run(capsys, "extremal", "--z0", "0.5", "--w0", "0.25",
                       "--lambda", "0.2", "--mu", "1")
    assert code == EXIT_OK and json.loads(out)["depth"] == 2
    code, _, err = run(capsys, "extremal", "--z0", "0.5", "--w0", "0.25",
                       "--lambda", "0.2")
    assert code == EXIT_USAGE and "--mu" in err


def test_extremal_rejects_nonfinite_theta(capsys):
    for theta in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "extremal", "--z0", "0.5", "--w0", "0.25",
                             "--lambda", "0.3+0.2i", "--mu", "0.4-0.3i",
                             "--theta", theta)
        assert code == EXIT_USAGE and out == "" and "--theta" in err


def test_verify_rejects_nonpositive_n(capsys):
    for n in ("-5", "0"):
        code, out, err = run(capsys, "verify", "--suite", "membership", "--n", n)
        assert code == EXIT_USAGE and out == "" and "--n" in err


def test_verify_rejects_negative_seed(capsys):
    for suite in ("all", "membership", "fd", "regime2", "extremal"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", "10", "--seed", "-1")
        assert code == EXIT_USAGE and out == "" and err.startswith("usage error:") and "--seed" in err


def test_verify_n_cap(capsys, monkeypatch):
    # above the cap the usage check fires before any audit runs
    def audit(*args):
        raise AssertionError("ran an over-cap --n")
    monkeypatch.setattr("diskjet.verify.run_suite", audit)
    for suite, cap in (("membership", cli.VERIFY_MAX_SAMPLES), ("fd", cli.VERIFY_MAX_SAMPLES),
                       ("all", cli.VERIFY_MAX_SAMPLES), ("regime2", cli.VERIFY_MAX_GRID),
                       ("extremal", cli.VERIFY_MAX_SAMPLES)):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", str(cap + 1))
        assert code == EXIT_USAGE and out == "" and str(cap) in err
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = capsys.readouterr().out
    assert str(cli.VERIFY_MAX_SAMPLES) in help_text and str(cli.VERIFY_MAX_GRID) in help_text
    assert "extremal" in help_text


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "membership", "--n", "50",
                       "--seed", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["samples"] == 50 and payload["violations"] == 0


def test_verify_failure_exit(capsys, monkeypatch):
    bad = VerificationReport(suite="membership", samples=1, violations=1)
    monkeypatch.setattr("diskjet.verify.run_suite", lambda *a: bad)
    code, out, _ = run(capsys, "verify", "--suite", "membership", "--n", "1")
    assert code == EXIT_VERIFY
    assert json.loads(out)["violations"] == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "disk.json"
    code, out, _ = run(capsys, "disk", "--order", "1", "--z0", "0.5",
                       "--w0", "0.25", "--out", str(target))
    assert code == EXIT_OK and out == ""
    assert json.loads(target.read_text())["radius"] == 0.5


def test_console_entry_point():
    assert callable(cli.main)
    parser = cli.build_parser()
    assert parser.prog == "diskjet"


#: public names of the package, pinned so lazy exports cannot drop one
PUBLIC_NAMES = [
    "BACKEND", "BlaschkeSpec", "BoundaryCurve", "BoundaryPoint", "ClosedDisk",
    "DegenerateCaseError", "DomainError", "EnvelopeConfig", "ExtremalSpec",
    "InfeasibleConstraintError", "InterpolationData", "Jet3", "NormalizedConfig",
    "PeschlTriple", "RegionSpec", "SupportPoint", "VerificationReport",
    "WrongRegimeError", "abstract_region", "blaschke_jet", "blaschke_value", "boundary",
    "circle_family", "classify_regime", "closed_form_cap", "closed_form_circle", "common",
    "contains", "critical_angles", "denormalize", "dieudonne", "disk_order1",
    "disk_order2", "disk_order3", "disk_order3_params", "envelope", "eval_extremal",
    "extremal_spec", "fd_audit", "fd_jet", "gamma", "jets", "lambda_from_w1",
    "membership_audit", "moebius_jet", "moebius_value", "mu_from_w2", "normalize",
    "peschl", "peschl_derivatives", "peschl_via_conjugation", "regime2_search",
    "region_spec", "sample_boundary", "sample_self_map", "schur_residual",
    "sharp_bound_lambda1", "support_point", "verify",
]

IMPORT_GUARD = """
import contextlib, io, sys
def loaded(pkg):
    return any(m.split(".")[0] == pkg for m in sys.modules)
import diskjet
assert not loaded("scipy"), "import diskjet loaded scipy"
import diskjet.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert diskjet.cli.main(["disk", "--order", "3", "--z0", "0.5", "--w0", "0.25",
                             "--lambda", "0.3+0.2i", "--mu", "0.4-0.3i"]) == 0
    assert diskjet.cli.main(["extremal", "--z0", "0.5", "--w0", "0.25",
                             "--lambda", "0.3+0.2i", "--mu", "0.4-0.3i"]) == 0
    # rejected boundary queries stop before the numpy-backed trace is imported
    assert diskjet.cli.main(["boundary", "--z0", "0.5", "--w0", "0.25", "--w1", "0.55",
                             "--n", "8"]) == 1
    assert diskjet.cli.main(["boundary", "--z0", "0.25", "--w0", "0.5", "--w1", "0.5"]) == 2
    # w1 = 1 gives lambda = 1 exactly: case 1, no curve
    assert diskjet.cli.main(["boundary", "--z0", "0.5", "--w0", "0.25", "--w1", "1"]) == 2
assert not loaded("numpy"), "disk / extremal / rejected boundary loaded numpy"
assert sorted(diskjet.__all__) == %r, sorted(diskjet.__all__)
diskjet.contains
assert loaded("numpy"), "diskjet.contains did not load numpy"
"""


def test_import_loads_no_scipy():
    # one fresh interpreter: import cost and lazy exports, not in-process state
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD % PUBLIC_NAMES],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
