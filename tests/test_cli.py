import json
import os
import subprocess
import sys

import numpy as np
import pytest

from srlab.cli import main
from srlab.grids import ScalarField2D


def run(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_config_command(tmp_path):
    out = tmp_path / "cfg"
    assert run(["config", "--theta-w", "60", "--out", str(out)]) == 0
    summary = read_json(out / "config_summary.json")
    assert summary["weak"]["rho2"] > 2.0
    assert summary["weak"]["supersonic_at_P0"] is True
    assert summary["strong"]["rho2"] > summary["weak"]["rho2"]
    assert summary["weak"]["residuals"]["rh"] < 1e-12
    assert "runconfig_digest" in summary
    # per-branch files round-trip through the configuration loader
    from srlab.reflection import ReflectionConfiguration

    cfg = ReflectionConfiguration.from_json((out / "config_weak.json").read_text())
    assert cfg.branch == "weak"


def test_config_rejects_bad_gas(tmp_path):
    assert run(["config", "--theta-w", "60", "--rho1", "0.5", "--out", str(tmp_path)]) == 2


def test_config_below_detachment_exit_2(tmp_path):
    assert run(["config", "--theta-w", "40", "--out", str(tmp_path)]) == 2


def test_solve_model_and_verify_regularity(tmp_path):
    out = tmp_path / "m"
    rc = run(["solve", "--mode", "model", "--grid", "65,65", "--grade", "0.95",
              "--perturb", "0.2", "--tol", "1e-10", "--out", str(out)])
    assert rc == 0
    field = ScalarField2D.load(out / "grid.srl")
    assert field.meta["final_residual"] <= 1e-10
    assert field.meta["runconfig_digest"]
    rc = run(["verify", "--what", "regularity", "--grid", str(out / "grid.srl"), "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "verify_regularity.json")
    assert rep["checks"]["sonic_second_derivative_limit"] is True
    assert rep["checks"]["boundary_exponent_quadratic"] is True


def test_solve_linear_mode(tmp_path):
    out = tmp_path / "lin"
    rc = run(["solve", "--mode", "linear", "--grid", "65,65", "--grade", "0.95",
              "--tol", "1e-10", "--out", str(out), "--format", "csv"])
    assert rc == 0
    assert (out / "grid.csv").exists()
    rc = run(["verify", "--what", "regularity", "--grid", str(out / "grid.srl"), "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "verify_regularity.json")
    assert rep["checks"]["boundary_exponent_three_halves"] is True


def test_solve_exit_3_on_no_convergence(tmp_path):
    rc = run(["solve", "--mode", "model", "--grid", "49,49", "--tol", "1e-14",
              "--max-iter", "3", "--out", str(tmp_path)])
    assert rc == 3


def test_verify_rh(tmp_path):
    out = tmp_path / "rh"
    run(["config", "--theta-w", "60", "--out", str(out)])
    rc = run(["verify", "--what", "rh", "--config", str(out / "config_weak.json"), "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "verify_rh.json")
    assert rep["checks"]["shock_condition_anchor_zero"] is True
    assert rep["checks"]["gradient_coefficient_forms_agree"] is True
    assert rep["checks"]["sonic_flux_function_unique_root"] is True
    assert (out / "shock_trace.csv").exists()


def test_verify_barriers(tmp_path):
    out = tmp_path / "bar"
    run(["solve", "--mode", "model", "--grid", "65,65", "--grade", "0.95",
         "--perturb", "0.2", "--tol", "1e-10", "--out", str(out)])
    rc = run(["verify", "--what", "barriers", "--grid", str(out / "grid.srl"), "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "verify_barriers.json")
    assert all(rep["checks"].values())


def test_sweep(tmp_path):
    out = tmp_path / "sw"
    rc = run(["sweep", "--theta-min", "55", "--theta-max", "65", "--theta-step", "5",
              "--out", str(out)])
    assert rc == 0
    text = (out / "sweep.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# runconfig_digest=")
    assert lines[1].startswith("# detachment_bracket_deg=")
    lo, hi = (float(v) for v in lines[1].split("=", 1)[1].split(","))
    assert 48.5 < lo <= hi < 49.5
    assert len(lines) == 6  # two comments, header, three angles


def test_outputs_deterministic_and_thread_invariant(tmp_path):
    args = ["solve", "--mode", "model", "--grid", "49,49", "--grade", "0.95",
            "--perturb", "0.2", "--tol", "1e-9"]
    outs = []
    for name, threads in (("r1", "1"), ("r2", "4")):
        out = tmp_path / name
        os.environ["SRL_THREADS"] = threads
        try:
            assert run(args + ["--out", str(out)]) == 0
        finally:
            os.environ.pop("SRL_THREADS", None)
        outs.append(out)
    b1 = (outs[0] / "grid.srl").read_bytes()
    b2 = (outs[1] / "grid.srl").read_bytes()
    assert b1 == b2
    assert (outs[0] / "grid.srl.json").read_text() == (outs[1] / "grid.srl.json").read_text()


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "srlab.cli", "config", "--theta-w", "60", "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "config_summary.json" in proc.stdout


def test_solve_reflection_and_verify(tmp_path):
    out = tmp_path / "refl"
    rc = run(["solve", "--mode", "reflection", "--grid", "81,41", "--theta-w", "60",
              "--tol", "1e-9", "--max-iter", "8000", "--out", str(out)])
    assert rc == 0
    field = ScalarField2D.load(out / "grid.srl")
    assert field.kind == "sonic_strip"
    assert field.meta["shock_residual"] <= 1e-9
    rc = run(["verify", "--what", "regularity", "--grid", str(out / "grid.srl"), "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "verify_regularity.json")
    assert rep["checks"]["sonic_second_derivative_limit"] is True
    assert any("two-family probe" in w for w in rep["warnings"])
    assert (out / "station_trace.csv").exists()


def test_solve_json_format(tmp_path):
    out = tmp_path / "jf"
    rc = run(["solve", "--mode", "model", "--grid", "33,33", "--tol", "1e-8", "--out", str(out),
              "--format", "json"])
    assert rc == 0
    d = read_json(out / "grid.full.json")
    assert len(d["xs"]) == 33 and len(d["psi"]) == 33


def test_import_srlab_loads_no_scipy():
    # scipy is imported inside the solvers, so `sweep` and `config` start without it
    code = "import srlab, sys; assert not [m for m in sys.modules if m.startswith('scipy')]"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("bad", [["--grid", "97"], ["--grid", "a,b"], ["--tol", "0"], ["--max-iter", "-1"]])
def test_solve_bad_input_exit_2(tmp_path, capsys, bad):
    assert run(["solve", "--mode", "model", *bad, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration failed:") and err.count("\n") == 1


@pytest.mark.parametrize("what", ["barriers", "rh", "regularity"])
def test_verify_without_input_exit_2(tmp_path, capsys, what):
    assert run(["verify", "--what", what, "--out", str(tmp_path / "v")]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    # a directory where a file is expected is an input error too
    flag = "--config" if what == "rh" else "--grid"
    assert run(["verify", "--what", what, flag, str(tmp_path), "--out", str(tmp_path / "v")]) == 2


@pytest.mark.parametrize("step", ["0", "-1"])
def test_sweep_nonpositive_step_exit_2(tmp_path, step):
    # a step that never advances theta would loop without end
    assert run(["sweep", "--theta-step", step, "--out", str(tmp_path / "sw")]) == 2
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("solve_args", [["--mode", "model", "--grid", "49,49", "--perturb", "0.2"],
                                        ["--mode", "reflection", "--grid", "81,41"]])
def test_verify_regularity_takes_one_derivative_pass(tmp_path, monkeypatch, solve_args):
    # the report, its edge-limit table, the two-family probe and the station
    # trace all read one derivative pass
    import srlab.cli
    import srlab.diagnostics

    out = tmp_path / "m"
    assert run(["solve", *solve_args, "--out", str(out)]) == 0
    calls = []
    counted = lambda f: (calls.append(1), srlab.solver.derivative_fields(f))[1]
    monkeypatch.setattr(srlab.cli, "derivative_fields", counted)
    monkeypatch.setattr(srlab.diagnostics, "derivative_fields", counted)
    assert run(["verify", "--what", "regularity", "--grid", str(out / "grid.srl"), "--out", str(out)]) == 0
    assert len(calls) == 1


def test_verify_regularity_on_an_unresolved_strip_reports_the_error(tmp_path):
    # too few graded columns for edge extrapolation: the report says so for
    # the sonic limits and skips the two-family probe instead of raising
    out = tmp_path / "coarse"
    assert run(["solve", "--mode", "reflection", "--grid", "21,11", "--grade", "1.0", "--out", str(out)]) == 0
    assert run(["verify", "--what", "regularity", "--grid", str(out / "grid.srl"), "--out", str(out)]) in (0, 4)
    rep = read_json(out / "verify_regularity.json")["report"]
    assert "error" in rep["sonic_limits"]
    assert rep["two_sequence"] == {}
