import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import srlab
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


def test_config_rejects_bad_gas(tmp_path, capsys):
    # an inadmissible shock, and gas data that is not finite (which used to
    # pass as "below the detachment angle")
    for bad in (["--rho1", "0.5"], ["--gamma", "nan"], ["--rho0", "nan"], ["--rho1", "nan"], ["--gamma", "inf"]):
        assert run(["config", "--theta-w", "60", *bad, "--out", str(tmp_path / "cfg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration failed:") and err.count("\n") == 1
        assert "detachment" not in err
        assert not (tmp_path / "cfg").exists()


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


@pytest.mark.parametrize("args", [["--perturb", "0.2", "--y-halfwidth", "0.5"], ["--perturb", "0.3"],
                                  ["--perturb", "0.3", "--grid", "193,97"]])
def test_solve_model_where_slopes_leave_the_window(tmp_path, args):
    # each solution's slope leaves the cutoff's window on a few nodes (about
    # 0.1-1%): Newton on the operator itself converges there, and the
    # barrier and regularity checks pass on it
    out = tmp_path / "m"
    assert run(["solve", "--mode", "model", *args, "--out", str(out)]) == 0
    meta = ScalarField2D.load(out / "grid.srl").meta
    assert 0.0 < meta["clamp_fraction"] < 0.2
    assert all(level["iterations"] <= 6 for level in meta["levels"])
    for what in ("barriers", "regularity"):
        assert run(["verify", "--what", what, "--grid", str(out / "grid.srl"), "--out", str(out)]) == 0


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


# the truncation depths, as fractions of c2, that verify --what rh tries
RH_EPS_FRACS = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3)


@pytest.mark.parametrize("gamma", [1.4, 2.0])
def test_verify_rh_verdicts_do_not_depend_on_the_density_unit(tmp_path, gamma):
    # rho0 = kappa, rho1 = 2 kappa is one flow in another density unit, so the
    # exit code, every check and the eps fraction agree at every kappa (an
    # anchor divided by a rho * speed scale read 8.7e-11 at gamma 2,
    # kappa 1e12, and exited 4).  So does the verdict on a state (2) with u2
    # moved by 1e-9 relative: its two gradient-coefficient forms differ by
    # 1.8e-10 (gamma 1.4) and 1.3e-10 (gamma 2) of (rho1 + rho2) U at every
    # kappa, which a gate of 1e-10 max(1, |psi_p1|) passed at kappa 1e-4
    verdicts, moved_verdicts = set(), set()
    for kappa in (1e-4, 1.0, 1e4, 1e12):
        out = tmp_path / f"k{kappa:g}"
        assert run(["config", "--gamma", repr(gamma), "--rho0", repr(kappa), "--rho1", repr(2.0 * kappa),
                    "--theta-w", "60", "--out", str(out)]) == 0
        rc = run(["verify", "--what", "rh", "--config", str(out / "config_weak.json"), "--out", str(out)])
        rep = read_json(out / "verify_rh.json")
        frac = rep["largest_eps_with_b1_margin"] / read_json(out / "config_weak.json")["c2"]
        candidate = min(RH_EPS_FRACS, key=lambda f: abs(f - frac))
        assert frac == pytest.approx(candidate, rel=1e-12)
        verdicts.add((rc, tuple(sorted(rep["checks"].items())), candidate))
        moved = read_json(out / "config_weak.json")
        moved["u2"] *= 1.0 + 1e-9
        (out / "moved.json").write_text(json.dumps(moved))
        assert run(["verify", "--what", "rh", "--config", str(out / "moved.json"), "--out", str(out / "m")]) == 4
        moved_verdicts.add(read_json(out / "m" / "verify_rh.json")["checks"]["gradient_coefficient_forms_agree"])
    assert len(verdicts) == 1
    assert verdicts.pop()[0] == 0
    assert moved_verdicts == {False}


@pytest.mark.parametrize("gamma", [1.4, 2.0])
def test_strip_solve_and_regularity_do_not_depend_on_the_density_unit(tmp_path, gamma):
    # rho0 = kappa, rho1 = 2 kappa is one flow in a density unit in which
    # every length and speed, c2 among them, scales by kappa^((gamma-1)/2):
    # the strip judges its residuals per c2, so the exit codes, verdicts,
    # Newton steps, GMRES iterations and factorisations agree at every kappa,
    # the first residual to 1e-12 relative and psi/c2^2, the jump and the
    # fitted exponent to 1e-10 (measured: 2.3e-13, 2.7e-13, 1.1e-11 and
    # 2.2e-13).  Per unit length the guard refused gamma 1.4 from kappa 1e10
    # and gamma 2 from kappa 1e4
    runs = []
    for kappa in (1e-4, 1.0, 1e4, 1e12):
        out = tmp_path / f"k{kappa:g}"
        rc = run(["solve", "--mode", "reflection", "--gamma", repr(gamma), "--rho0", repr(kappa),
                  "--rho1", repr(2.0 * kappa), "--out", str(out)])
        assert rc == 0, kappa
        rv = run(["verify", "--what", "regularity", "--grid", str(out / "grid.srl"), "--out", str(out)])
        f = ScalarField2D.load(out / "grid.srl")
        rep = read_json(out / "verify_regularity.json")
        m = f.meta
        runs.append(((rv, rep["checks"], m["iterations"], m["krylov_iterations"], len(m["lu_nnz"])),
                     m["residual_history"][0], f.values / json.loads(f.geometry["config_json"])["c2"] ** 2,
                     rep["report"]["jump"], rep["report"]["power_fits"][0]["p"]))
    (verdict, r0, v, jump, p), rest = runs[0], runs[1:]
    assert verdict[2] == 5
    for other, r0k, vk, jumpk, pk in rest:
        assert other == verdict
        assert r0k == pytest.approx(r0, rel=1e-12)
        assert np.max(np.abs(vk - v)) <= 1e-10 * np.max(np.abs(v))
        assert jumpk == pytest.approx(jump, rel=1e-10) and pk == pytest.approx(p, rel=1e-10)


@pytest.mark.parametrize("gamma,rho0,rho1,theta_w", [
    (1.4, 1e-4, 2e-4, 60), (1.4, 1e12, 2e12, 60), (2.0, 1e-4, 2e-4, 60), (2.0, 1e12, 2e12, 60),
    (3.0, 1.0, 1e10, 80),
])
def test_verify_rh_anchor_refuses_a_moved_state2(tmp_path, gamma, rho0, rho1, theta_w):
    # the solved state (2) meets the anchor gate 1e-12 (at gamma 3, rho1 1e10,
    # 80 deg a rho * speed scale and xi1 +- 1 read 9.95e-7); u2 moved by 1e-9
    # relative reads 1.4e-10 (gamma 1.4) and 8.8e-11 (gamma 2) at any rho0,
    # and 1.9e-11 at gamma 3, so the check still refuses a wrong state
    out = tmp_path / "cfg"
    assert run(["config", "--gamma", repr(gamma), "--rho0", repr(rho0), "--rho1", repr(rho1),
                "--theta-w", str(theta_w), "--out", str(out)]) == 0
    good = out / "config_weak.json"
    moved = json.loads(good.read_text())
    moved["u2"] *= 1.0 + 1e-9
    bad = tmp_path / "moved.json"
    bad.write_text(json.dumps(moved))
    for path, rc, passes in ((good, 0, True), (bad, 4, False)):
        assert run(["verify", "--what", "rh", "--config", str(path), "--out", str(tmp_path / path.stem)]) == rc
        assert read_json(tmp_path / path.stem / "verify_rh.json")["checks"]["shock_condition_anchor_zero"] is passes


def test_verify_barriers(tmp_path):
    out = tmp_path / "bar"
    run(["solve", "--mode", "model", "--grid", "65,65", "--grade", "0.95",
         "--perturb", "0.2", "--tol", "1e-10", "--out", str(out)])
    rc = run(["verify", "--what", "barriers", "--grid", str(out / "grid.srl"), "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "verify_barriers.json")
    assert all(rep["checks"].values())
    # boundary_ok is the one field that says the comparison principle applies
    assert all(c["boundary_ok"] and "applicable" not in c for c in rep["comparisons"].values())


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


def _solve_with_blas_threads(tmp_path, args):
    """grid.srl and its sidecar from `srlab solve args` in fresh processes with one and two BLAS threads."""
    src = str(Path(srlab.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-m", "srlab.cli", "solve", *args, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(((out / "grid.srl").read_bytes(), (out / "grid.srl.json").read_text()))
    return outs


def test_outputs_deterministic_and_thread_invariant(tmp_path):
    # the 49x49 model solve has 2,303 unknowns; the GMRES cycles take their
    # inner products as pairwise sums, so no BLAS thread count enters them
    (b1, j1), (b2, j2) = _solve_with_blas_threads(
        tmp_path, ["--mode", "model", "--grid", "49,49", "--grade", "0.95", "--perturb", "0.2", "--tol", "1e-9"])
    assert b1 == b2
    assert j1 == j2


def test_large_strip_solve_is_thread_invariant(tmp_path):
    # 140x81 = 11,340 unknowns, past the 10,000 entries at which OpenBLAS
    # splits a dot product across its threads
    (b1, j1), (b2, j2) = _solve_with_blas_threads(tmp_path, ["--mode", "reflection", "--grid", "141,81"])
    assert b1 == b2
    assert j1 == j2


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
    # a nested solve that factors and takes GMRES steps needs scipy.sparse
    # only: the prolongation is numpy
    code = ("import sys, numpy as np, srlab\n"
            "bc = srlab.BoundaryConditions(outer=lambda y: 0.05 * (1.0 + 0.2 * np.cos(np.pi * y)))\n"
            "prev = None\n"
            "for n in (9, 17):\n"
            "    prev = srlab.solve(srlab.model_coefficients(2.4, 0.78), bc, srlab.GridSpec(0.5, n, n),\n"
            "                       init_field=prev)\n"
            "assert prev.meta['lu_nnz'], 'the fine solve did not factor'\n"
            "assert any(prev.meta['krylov_iterations']), 'the fine solve took no GMRES step'\n"
            "heavy = ('scipy.interpolate', 'scipy.special', 'scipy.optimize')\n"
            "assert not [m for m in sys.modules if m.startswith(heavy)], sorted(sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("bad", [["--grid", "97"], ["--grid", "a,b"], ["--tol", "0"], ["--max-iter", "-1"],
                                 ["--tol", "nan"], ["--a", "nan"], ["--b", "nan"], ["--rhat", "nan"],
                                 ["--perturb", "nan"], ["--grid", "20000,3"],
                                 ["--mode", "reflection", "--grid", "1000000,3"], ["--rhat", "0"],
                                 ["--rhat", "inf"], ["--rhat", "-0.5"], ["--y-halfwidth", "0"],
                                 ["--y-halfwidth", "-1"], ["--y-halfwidth", "inf"]])
def test_solve_bad_input_exit_2(tmp_path, capsys, bad):
    # a grid too fine for its grade is refused before the axis is built, and a
    # bad rectangle extent by name, not as bad boundary data or axis order
    assert run(["solve", "--mode", "model", *bad, "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    field = {"--rhat": "rhat", "--y-halfwidth": "y_lo"}.get(bad[0], "")
    assert err.startswith(f"configuration failed: {field}") and err.count("\n") == 1
    assert not (tmp_path / "s").exists()


def test_solve_refuses_a_bad_grade_as_given(tmp_path, capsys):
    # the grade is squared once per coarser level; the refusal names the
    # grade given (not 1.2^4), before any level is solved
    assert run(["solve", "--mode", "model", "--grade", "1.2", "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration failed: grade_q") and "got 1.2\n" in err and err.count("\n") == 1
    assert not (tmp_path / "s").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [["--rhat", "1e200"], ["--rhat", "1e150"], ["--rhat", "1e-200"],
                                 ["--y-halfwidth", "1e-300"], ["--perturb", "1e200"], ["--a", "1e-320"],
                                 ["--mode", "linear", "--rhat", "1e250"]])
def test_solve_out_of_range_model_inputs_fail_by_exit_code(tmp_path, capsys, bad):
    # inputs whose arithmetic overflows or underflows end in an input refusal
    # (exit 2) or a solver failure (exit 3) on one line, never a traceback;
    # the warnings on the way are the arithmetic's, not checked here.  A
    # later --mode wins, so the last input is the linear mode's rhat**1.5
    rc = run(["solve", "--mode", "model", *bad, "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert rc in (2, 3) and err.startswith(("configuration failed:", "solver failed:")) and err.count("\n") == 1


@pytest.mark.parametrize("eps_frac", ["-0.1", "nan", "0"])
def test_solve_bad_strip_depth_exit_2(tmp_path, capsys, eps_frac):
    assert run(["solve", "--mode", "reflection", "--eps-frac", eps_frac, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration failed: eps=") and err.count("\n") == 1


@pytest.mark.parametrize("what", ["barriers", "rh", "regularity"])
def test_verify_without_input_exit_2(tmp_path, capsys, what):
    assert run(["verify", "--what", what, "--out", str(tmp_path / "v")]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    # a directory where a file is expected is an input error too
    flag = "--config" if what == "rh" else "--grid"
    assert run(["verify", "--what", what, flag, str(tmp_path), "--out", str(tmp_path / "v")]) == 2


_BAD_MODEL = {"model_a_negative": {"a": -1.0}, "model_b_zero": {"b": 0.0}, "model_a_nan": {"a": float("nan")},
              "model_a_string": {"a": "2.4"}}

# one key of a weak 60-degree configuration file, edited: an angle that is NaN
# or in radians past pi/2, an unknown branch (a middle root's old label among
# them), a non-numeric gas, a state (2) that is not finite
_BAD_CONFIG = {"config_theta_w_nan": {"theta_w": float("nan")}, "config_theta_w_3": {"theta_w": 3.0},
               "config_branch_3": {"branch": 3}, "config_branch_unlabeled": {"branch": "unlabeled"},
               "config_gamma_string": {"gamma": "x"},
               "config_k2_nan": {"k2": float("nan")}, "config_rho2_nan": {"rho2": float("nan")}}


def _weak60_file(tmp_path, **edits):
    """A weak 60-degree configuration file at gamma 1.4, with some keys edited."""
    weak = srlab.solve_state2(srlab.GasParameters(1.4, 1.0, 2.0), np.radians(60.0))["weak"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**json.loads(weak.to_json()), **edits}))
    return path


def _malformed(tmp_path, case):
    """(what, flag, path) of a verify input file that exists but does not parse."""
    grid = tmp_path / "grid.srl"
    ScalarField2D([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], np.zeros((3, 3))).save(grid)
    if case == "bad_magic":
        grid.write_bytes(b"NOTAGRID" + grid.read_bytes()[8:])
    elif case == "truncated_grid":
        grid.write_bytes(grid.read_bytes()[:-16])
    elif case == "truncated_header":
        grid.write_bytes(grid.read_bytes()[:12])
    elif case in ("huge_header", "empty_header"):
        nx, ny = (2**62, 3) if case == "huge_header" else (0, 0)
        data = grid.read_bytes()
        grid.write_bytes(data[:8] + struct.pack("<QQ", nx, ny) + data[24:])
    elif case in _BAD_MODEL:
        # the barrier recipes need the model closure's a > 0 and b > 0
        sidecar = tmp_path / "grid.srl.json"
        sidecar.write_text(json.dumps({**read_json(sidecar), "meta": {"coefficients": _BAD_MODEL[case]}}))
        return "barriers", "--grid", grid
    elif case in ("geometry_not_object", "meta_not_object", "sidecar_not_object"):
        sidecar = tmp_path / "grid.srl.json"
        d, key = read_json(sidecar), case.split("_")[0]
        sidecar.write_text(json.dumps([d] if key == "sidecar" else {**d, key: [d[key]]}))
    elif case in ("strip_without_g", "strip_short_fhat"):
        # a strip sidecar whose chain-rule data is missing or shorter than nx
        geometry = {"kind": "sonic_strip", "fhat": [1.0, 1.0, 1.0], "g": [0.0] * 3, "gp": [0.0] * 3}
        if case == "strip_without_g":
            del geometry["g"]
        else:
            geometry["fhat"] = [1.0, 1.0]
        sidecar = tmp_path / "grid.srl.json"
        sidecar.write_text(json.dumps({**read_json(sidecar), "geometry": geometry}))
    elif case in _BAD_CONFIG:
        return "rh", "--config", _weak60_file(tmp_path, **_BAD_CONFIG[case])
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json" if case == "config_not_json" else '{"gamma": 1.4}')
        return "rh", "--config", cfg
    return "regularity", "--grid", grid


@pytest.mark.parametrize("case", ["bad_magic", "truncated_grid", "truncated_header", "huge_header",
                                  "empty_header", "geometry_not_object", "meta_not_object",
                                  "sidecar_not_object", "strip_without_g", "strip_short_fhat",
                                  *_BAD_MODEL, "config_not_json", "config_missing_key", *_BAD_CONFIG])
def test_verify_malformed_input_exit_2(tmp_path, capsys, case):
    what, flag, path = _malformed(tmp_path, case)
    assert run(["verify", "--what", what, flag, str(path), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"malformed input {path}:") and err.count("\n") == 1
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("what", ["barriers", "regularity"])
@pytest.mark.parametrize("where", ["values", "xs", "ys"])
def test_verify_refuses_a_grid_that_is_not_finite(tmp_path, capsys, what, where):
    # NaN on two nodes of the 97x49 model grid (or inf on an axis) once passed
    # all six barrier checks with a NaN sigma_at_r0 and worst_margin, and
    # exited 4 on regularity with NaN written: an input refusal, nothing written
    out = tmp_path / "m"
    assert run(["solve", "--mode", "model", "--grid", "97,49", "--grade", "0.95", "--perturb", "0.2",
                "--out", str(out)]) == 0
    grid = out / "grid.srl"
    field = ScalarField2D.load(grid)
    if where == "values":
        field.values[60, 10] = field.values[70, 30] = np.nan
    else:
        getattr(field, where)[-1] = np.inf  # increasing still; NaN on an axis is refused as not increasing
    field.save(grid)
    capsys.readouterr()
    assert run(["verify", "--what", what, "--grid", str(grid), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"malformed input {grid}:") and "finite" in err and err.count("\n") == 1
    assert not (tmp_path / "v").exists()


def test_verify_barriers_on_reflection_grid_exit_2(tmp_path, capsys):
    # the barrier recipes are built for the model closure only: an input refusal
    grid = tmp_path / "refl" / "grid.srl"
    assert run(["solve", "--mode", "reflection", "--grid", "25,13", "--out", str(grid.parent)]) == 0
    capsys.readouterr()
    assert run(["verify", "--what", "barriers", "--grid", str(grid), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("barrier verification expects a model-closure grid") and err.count("\n") == 1
    assert not (tmp_path / "v").exists()


def test_verify_rh_without_shock_chart_exit_2(tmp_path, capsys):
    # the strong branch's shock at 60 degrees does not enter the sonic circle
    # at P1, so it has no sonic chart for the rh checks: an input refusal
    assert run(["config", "--theta-w", "60", "--out", str(tmp_path / "cfg")]) == 0
    capsys.readouterr()
    path = tmp_path / "cfg" / "config_strong.json"
    assert run(["verify", "--what", "rh", "--config", str(path), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"no shock chart for {path}:") and err.count("\n") == 1
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("step", ["0", "-1", "nan"])
def test_sweep_nonpositive_step_exit_2(tmp_path, step):
    # a step that never advances theta would loop without end
    assert run(["sweep", "--theta-step", step, "--out", str(tmp_path / "sw")]) == 2
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("bad", [["--rho1", "0.5"], ["--gamma", "0.5"],
                                 ["--theta-min", "95", "--theta-max", "96"], ["--theta-max", "inf"],
                                 ["--theta-min", "nan"], ["--theta-min", "80", "--theta-max", "70"],
                                 ["--theta-step", "1e-20"], ["--theta-step", "1e-9"]])
def test_sweep_bad_input_exit_2(tmp_path, capsys, bad):
    # an inadmissible shock, a bad exponent, angle ranges outside
    # 0 < min <= max < 90 degrees (an unbounded one would never end), a step
    # that does not advance theta (50.0 + 1e-20 == 50.0) and one asking for
    # more than 10,000 angles (1e-9 over 50..89 degrees: ~3.9e10) are input
    # errors: one line on stderr, and no output written
    assert run(["sweep", *bad, "--out", str(tmp_path / "sw")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration failed:") and err.count("\n") == 1
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
def test_sweep_rows_equal_the_config_path(tmp_path, gamma):
    # the sweep refines every angle's brackets in one lockstep pass, builds
    # every root in one lane pass and takes one residual call; each row is
    # still bit for bit the weak branch solve_state2 gives at its angle, in
    # every column
    import warnings

    from srlab import GasParameters, solve_state2
    from srlab.errors import NoRegularReflection, NotSupersonicAtP0

    out = tmp_path / "sw"
    assert run(["sweep", "--gamma", repr(gamma), "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "sweep.csv", delimiter=",", comments="#", skip_header=3)
    assert len(rows) == 40
    gas = GasParameters(gamma, 1.0, 2.0)
    for theta, u2, v2, rho2, c2, supersonic, rh in rows:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotSupersonicAtP0)
            if np.isnan(u2):
                with pytest.raises(NoRegularReflection):
                    solve_state2(gas, np.radians(theta))
                assert np.isnan([v2, rho2, c2, rh]).all() and supersonic == 0
                continue
            weak = solve_state2(gas, np.radians(theta))["weak"]
        assert (weak.u2, weak.v2, weak.rho2, weak.c2) == (u2, v2, rho2, c2)
        assert int(weak.supersonic_at_P0) == supersonic
        assert weak.residuals()["rh"] == rh
    assert np.isfinite(rows[:, 1]).sum() >= 28  # gamma = 3 detaches at 61.09 deg


@pytest.mark.parametrize("gamma,count", [(1.0, 42), (1.4, 43), (2.0, 42), (3.0, 41)])
def test_sweep_makes_few_residual_evaluations(tmp_path, monkeypatch, gamma, count):
    # one scan and one lockstep refinement serve all 40 angles, and the
    # detachment bisection runs on scans alone (5,393 evaluations at gamma 1.4
    # when each bracket and each detachment probe was refined on its own, 86
    # with a lockstep bisection); the exact count pins the algorithm: the
    # scan's 5 lane blocks of 8 angles, 9 Chandrupatla-then-bisection steps
    # (10 at gamma 1.4, 8 at gamma 3), 6 polish passes and 22 one-angle
    # detachment probes
    import srlab.reflection

    calls = []
    residual = srlab.reflection._flux_residual
    monkeypatch.setattr(srlab.reflection, "_flux_residual", lambda *a: (calls.append(1), residual(*a))[1])
    assert run(["sweep", "--gamma", repr(gamma), "--out", str(tmp_path / "sw")]) == 0
    assert len(calls) == count


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    import srlab.cli

    monkeypatch.setattr(srlab.cli, "_parser", None)
    built = []
    build = srlab.cli.build_parser
    monkeypatch.setattr(srlab.cli, "build_parser", lambda: (built.append(1), build())[1])
    for k in range(3):
        assert run(["config", "--theta-w", "60", "--out", str(tmp_path / f"c{k}")]) == 0
    assert len(built) == 1


def test_main_looks_the_command_up_at_call_time(tmp_path, monkeypatch):
    # a wrapper put over cmd_config after the parser exists is what runs (the
    # benchmark's tracer wraps the commands by name in this way)
    import srlab.cli

    monkeypatch.setattr(srlab.cli, "_parser", None)
    assert run(["config", "--theta-w", "60", "--out", str(tmp_path / "c")]) == 0
    seen = []
    monkeypatch.setattr(srlab.cli, "cmd_config", lambda args: (seen.append(args.theta_w), 0)[1])
    assert run(["config", "--theta-w", "61", "--out", str(tmp_path / "d")]) == 0
    assert seen == [61.0] and not (tmp_path / "d").exists()


def test_no_flag_leaks_into_the_next_call(tmp_path):
    # the parser is reused, so a second solve with the defaults must read
    # none of the first one's flags
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["solve", "--format", "csv", "--perturb", "0.2", "--out", str(first)]) == 0
    assert run(["solve", "--out", str(second)]) == 0
    assert (first / "grid.csv").exists() and sorted(p.name for p in second.iterdir()) == ["grid.srl", "grid.srl.json"]
    fresh = srlab.cli.build_parser().parse_args(["solve", "--out", str(second)])
    assert ScalarField2D.load(second / "grid.srl").meta["runconfig"] == {
        k: v for k, v in vars(fresh).items() if k not in ("command", "format", "out")}


def test_sweep_builds_and_checks_every_root_in_one_call(tmp_path, monkeypatch):
    # the configurations of all roots of all angles come from one lane-builder
    # call, and the rh_residual column from one residual call on the weak
    # branches: per-angle building or checking would show as more calls
    import srlab.cli
    import srlab.reflection

    calls = {"build": 0, "residual": 0}

    def counting(name, fn):
        def wrapped(*a):
            calls[name] += 1
            return fn(*a)
        return wrapped

    monkeypatch.setattr(srlab.reflection, "_configurations", counting("build", srlab.reflection._configurations))
    residual = counting("residual", srlab.reflection._shock_line_residuals)
    monkeypatch.setattr(srlab.reflection, "_shock_line_residuals", residual)
    monkeypatch.setattr(srlab.cli, "_shock_line_residuals", residual)
    assert run(["sweep", "--out", str(tmp_path / "sw")]) == 0
    assert calls == {"build": 1, "residual": 1}


def test_a_refused_strong_branch_keeps_the_weak_one(tmp_path):
    # at gamma 1.2, rho1 1.1, 89.5 degrees the strong shock (rho2 6.6e15)
    # misses the sonic arc above the wedge: config writes the weak branch
    # alone, and the sweep keeps the angle's row
    gas = ["--gamma", "1.2", "--rho1", "1.1"]
    out = tmp_path / "cfg"
    assert run(["config", *gas, "--theta-w", "89.5", "--out", str(out)]) == 0
    assert float.fromhex("0x1.d5374fce61a26p-17") == read_json(out / "config_weak.json")["u2"]
    assert not (out / "config_strong.json").exists()
    assert "strong" not in read_json(out / "config_summary.json")
    assert run(["sweep", *gas, "--theta-min", "89", "--theta-max", "89.5", "--theta-step", "0.5",
                "--out", str(tmp_path / "sw")]) == 0
    rows = np.genfromtxt(tmp_path / "sw" / "sweep.csv", delimiter=",", comments="#", skip_header=3)
    assert rows[-1, 0] == 89.5 and np.isfinite(rows[-1]).all() and rows[-1, 6] <= 1e-12


@pytest.mark.parametrize("gamma", ["1.0", "1.4", "2.0", "3.0"])
def test_sweep_builds_a_weak_and_a_strong_lane_per_angle(tmp_path, monkeypatch, gamma):
    # each angle with a root builds its weak and its strong configuration,
    # nothing else, in the one lane-builder call of its solve
    import srlab.reflection
    from srlab.errors import NoRegularReflection

    build, solve = srlab.reflection._configurations, srlab.reflection._solve_lanes
    labels, solved = [], []
    monkeypatch.setattr(srlab.reflection, "_configurations", lambda *a: (labels.append(list(a[-1])), build(*a))[1])
    monkeypatch.setattr(srlab.reflection, "_solve_lanes", lambda *a: (solved.append(solve(*a)), solved[-1])[1])
    assert run(["sweep", "--gamma", gamma, "--theta-min", "50", "--theta-max", "89", "--theta-step", "0.5",
                "--out", str(tmp_path / "sw")]) == 0
    assert len(solved) == 1
    k = sum(not isinstance(o, NoRegularReflection) for o in solved[0])
    assert k >= 56  # gamma = 3 detaches at 61.09 deg
    assert labels == [["weak", "strong"] * k]


@pytest.mark.parametrize("case", ["config_gamma", "config_rho1", "sweep", "solve", "verify_rh"])
def test_incident_shock_overflow_exit_2(tmp_path, capsys, case):
    # an incident shock whose powers overflow a float is an input refusal
    # that names the gas, with no traceback and no warning
    import warnings

    out = str(tmp_path / "o")
    argv = {"config_gamma": ["config", "--gamma", "1e6", "--theta-w", "60"],
            "config_rho1": ["config", "--rho1", "1e300", "--theta-w", "60"],
            "sweep": ["sweep", "--gamma", "1e6"],
            "solve": ["solve", "--mode", "reflection", "--gamma", "1e6"],
            "verify_rh": ["verify", "--what", "rh", "--config", str(_weak60_file(tmp_path, gamma=1e6))]}[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "incident shock out of floating-point range for gamma=" in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_verify_rh_anchor_is_one_array_call(tmp_path, monkeypatch):
    # the anchor evaluates F at its 20 samples in one call; the other calls
    # of F are Psi's, from the b-hat quadrature
    from srlab.shock import ShockBoundaryFns

    path = _weak60_file(tmp_path)
    F, Psi = ShockBoundaryFns.F, ShockBoundaryFns.Psi
    direct, in_psi = [], [0]

    def psi(self, *a):
        in_psi[0] += 1
        try:
            return Psi(self, *a)
        finally:
            in_psi[0] -= 1

    def f(self, *a):
        if not in_psi[0]:
            direct.append(np.shape(a[3]))
        return F(self, *a)

    monkeypatch.setattr(ShockBoundaryFns, "Psi", psi)
    monkeypatch.setattr(ShockBoundaryFns, "F", f)
    assert run(["verify", "--what", "rh", "--config", str(path), "--out", str(tmp_path / "v")]) == 0
    assert direct == [(20,)]


@pytest.mark.parametrize("solve_args", [["--mode", "model", "--grid", "97,49"],
                                        ["--mode", "reflection", "--grid", "81,41"]])
def test_verify_regularity_takes_one_derivative_pass(tmp_path, monkeypatch, solve_args):
    # the report's sonic limits, jump and parabolic norm, the two-family
    # probe and the station trace all read one derivative pass, which the
    # diagnostics take as an argument and cannot make themselves; both grids
    # resolve the edge table, so the report reaches its limits and jump
    import srlab.cli
    import srlab.diagnostics

    out = tmp_path / "m"
    assert run(["solve", *solve_args, "--out", str(out)]) == 0
    calls = []
    real = srlab.solver.derivative_fields
    counted = lambda f: (calls.append(1), real(f))[1]
    monkeypatch.setattr(srlab.cli, "derivative_fields", counted)
    monkeypatch.setattr(srlab.solver, "derivative_fields", counted)
    assert not hasattr(srlab.diagnostics, "derivative_fields")
    assert run(["verify", "--what", "regularity", "--grid", str(out / "grid.srl"), "--out", str(out)]) == 0
    assert len(calls) == 1
    rep = json.loads((out / "verify_regularity.json").read_text())["report"]
    assert "error" not in rep["sonic_limits"] and rep["jump"] is not None


@pytest.mark.parametrize("solve_args", [["--mode", "model", "--grid", "97,49"],
                                        ["--mode", "reflection", "--grid", "121,49"]])
def test_verify_regularity_fits_once(tmp_path, monkeypatch, solve_args):
    # one edge-limit table, one least-squares solve, serves the sonic limits,
    # the jump and both families of the two-family probe, and one power fit
    # serves the report and the station trace
    import srlab.diagnostics

    out = tmp_path / "m"
    assert run(["solve", *solve_args, "--out", str(out)]) == 0
    calls = {"sonic_limit_estimate": 0, "fit_power_law": 0, "limit_at_zero": 0}
    for name in calls:
        real = getattr(srlab.diagnostics, name)
        monkeypatch.setattr(srlab.diagnostics, name,
                            lambda *a, _n=name, _f=real, **kw: (calls.__setitem__(_n, calls[_n] + 1), _f(*a, **kw))[1])
    assert run(["verify", "--what", "regularity", "--grid", str(out / "grid.srl"), "--out", str(out)]) == 0
    assert calls == {"sonic_limit_estimate": 1, "fit_power_law": 1, "limit_at_zero": 1}


def _strict_json(path):
    def refuse(constant):
        pytest.fail(f"{path.name} holds {constant}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_verify_barriers_writes_null_for_an_empty_window(tmp_path):
    # on a uniform 25x13 grid the windows x <= r1 and x <= r2 hold fewer than
    # 3 nodes: their comparisons fail and have no worst margin
    out = tmp_path / "m"
    assert run(["solve", "--mode", "model", "--grid", "25,13", "--grade", "1.0", "--out", str(out)]) == 0
    assert run(["verify", "--what", "barriers", "--grid", str(out / "grid.srl"), "--out", str(out)]) == 4
    rep = _strict_json(out / "verify_barriers.json")
    for name in ("v", "u_minus"):
        assert rep["comparisons"][name]["worst_margin"] is None
    assert not rep["checks"]["deviation_below_v"] and not rep["checks"]["deviation_above_u_minus"]


def test_verify_regularity_on_a_three_row_strip_refuses_the_two_family_probe(tmp_path):
    # 3 rows leave no station at 70-93% of ny: the probe reports an error
    # instead of averaging an empty set of stations
    out = tmp_path / "s"
    assert run(["solve", "--mode", "reflection", "--grid", "121,3", "--out", str(out)]) == 0
    assert run(["verify", "--what", "regularity", "--grid", str(out / "grid.srl"), "--out", str(out)]) == 0
    rep = _strict_json(out / "verify_regularity.json")
    assert "error" in rep["report"]["two_sequence"]
    assert rep["warnings"] == []  # no two-family line


def test_verify_regularity_on_an_unresolved_strip_reports_the_error(tmp_path):
    # too few graded columns for edge extrapolation: the report says so for
    # the sonic limits and skips the two-family probe instead of raising
    out = tmp_path / "coarse"
    assert run(["solve", "--mode", "reflection", "--grid", "21,11", "--grade", "1.0", "--out", str(out)]) == 0
    # nor can the power fit run, so no check runs: exit 2, with the report written
    assert run(["verify", "--what", "regularity", "--grid", str(out / "grid.srl"), "--out", str(out)]) == 2
    rep = read_json(out / "verify_regularity.json")["report"]
    assert "error" in rep["sonic_limits"]
    assert rep["two_sequence"] == {}


def test_verify_regularity_without_a_check_exit_2(tmp_path, capsys):
    # too coarse for the power fit and the edge extrapolation: no check runs,
    # which is no pass
    out = tmp_path / "m"
    assert run(["solve", "--mode", "model", "--grid", "21,11", "--grade", "1.0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", "--what", "regularity", "--grid", str(out / "grid.srl"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert read_json(out / "verify_regularity.json")["checks"] == {}


@pytest.mark.parametrize("gas", [["--rho1", "1.01", "--theta-w", "60"],
                                 ["--gamma", "1.0", "--rho1", "1.1", "--theta-w", "60"],
                                 ["--rho1", "1.0000001", "--theta-w", "80"]])
def test_verify_rh_on_a_shallow_chart_exit_2(tmp_path, capsys, gas):
    # the rh checks read a shock trace at eps = c2/20; a weak incident shock's
    # chart is shallower (0.006 c2 at rho1 1.01): an input refusal that names
    # both depths, with no output written
    assert run(["config", *gas, "--out", str(tmp_path / "cfg")]) == 0
    capsys.readouterr()
    path = tmp_path / "cfg" / "config_weak.json"
    assert run(["verify", "--what", "rh", "--config", str(path), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"shock chart of {path} too shallow") and err.count("\n") == 1
    assert "exceeds the chart depth" in err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("command", ["verify_rh", "solve"])
def test_shock_line_through_the_sonic_center_exit_2(tmp_path, capsys, command):
    # at gamma 1, rho1 1e10, 80 degrees the weak shock line reaches the sonic
    # center in floating point: no chart, refused without a NaN depth or a
    # warning (warnings fail the suite)
    gas = ["--gamma", "1.0", "--rho1", "1e10", "--theta-w", "80"]
    if command == "solve":
        argv = ["solve", "--mode", "reflection", *gas]
    else:
        assert run(["config", *gas, "--out", str(tmp_path / "cfg")]) == 0
        capsys.readouterr()
        argv = ["verify", "--what", "rh", "--config", str(tmp_path / "cfg" / "config_weak.json")]
    assert run([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "shock line reaches the sonic center" in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["config", "solve"])
def test_shock_line_missing_the_sonic_arc_exit_2(tmp_path, capsys, command):
    # at gamma 1, rho1 1e100, 80 degrees the configuration builder finds no
    # sonic intersection above the wedge: a typed refusal, not a traceback
    argv = {"config": ["config"], "solve": ["solve", "--mode", "reflection"]}[command]
    assert run([*argv, "--gamma", "1.0", "--rho1", "1e100", "--theta-w", "80", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration failed:") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_no_traceback_on_the_probe_grid(tmp_path):
    # weak to strong incident shocks at two angles: every command ends in an
    # exit code, never in an exception (warnings fail the suite)
    for gamma in ("1.0", "1.4", "3.0"):
        for rho1 in ("1.01", "2", "1e10"):
            for theta in ("60", "80"):
                gas = ["--gamma", gamma, "--rho1", rho1, "--theta-w", theta]
                out = tmp_path / f"{gamma}_{rho1}_{theta}"
                codes = [run(["config", *gas, "--out", str(out)])]
                if codes[0] == 0:
                    codes += [run(["verify", "--what", "rh", "--config", str(out / f"config_{branch}.json"),
                                   "--out", str(out / branch)]) for branch in ("weak", "strong")]
                codes.append(run(["solve", "--mode", "reflection", *gas, "--grid", "25,13",
                                  "--out", str(out / "solve")]))
                assert set(codes) <= {0, 2, 3, 4}, (gas, codes)
