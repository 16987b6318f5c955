"""Acceptance suite: one test (or parametrized group) per gate criterion.

Each criterion prints a PASS/FAIL line with its measured numbers (visible
with ``pytest -s``); assertions carry the gate tolerances.  All runs are
deterministic, seed-free, and respect the stated runtime budgets.
"""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import srlab
from srlab import diagnostics as dg
from srlab.barriers import (
    choose_subsolution_params,
    scan_L1_sign,
    scan_L2_defect_sign,
    verify_comparison,
)
from srlab.errors import NotSupersonicAtP0
from srlab.shock import ShockBoundaryFns, check_g_unique

from conftest import richardson_triplet

_state = {}


def _report(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


def _warm_kernel():
    if "warm" in _state:
        return
    a, b = 2.4, 0.7765781059372254
    bc = srlab.BoundaryConditions(outer=lambda y: np.ones_like(y) * 0.05, y_lo=lambda x: 0.05 * (x / 0.5) ** 2, y_hi=lambda x: 0.05 * (x / 0.5) ** 2)
    srlab.solve(srlab.model_coefficients(a, b), bc, srlab.GridSpec(rhat=0.5, nx=17, ny=17, grade_q=1.0),
                srlab.SolverOptions(tolerance=1e-7, max_iterations=500))
    _state["warm"] = True


A_MODEL = 2.4
B_MODEL = 0.7765781059372254  # 1/c2 of the (1.4, 1, 2, 60 deg) weak configuration
RHAT = 0.5


def test_criterion_1_exact_solution_fixed_point():
    """Quadratic-profile data is reproduced at second order on a grid ladder."""
    _warm_kernel()
    coeffs = srlab.model_coefficients(A_MODEL, B_MODEL)
    exact = lambda x: x * x / (2 * A_MODEL)
    bc = srlab.BoundaryConditions(outer=lambda y: exact(RHAT) * np.ones_like(y), y_lo=exact, y_hi=exact)
    t0 = time.perf_counter()
    errs, prev = [], None
    for n in (65, 129, 257):
        grid = srlab.GridSpec(rhat=RHAT, nx=n, ny=n, y_lo=-1.0, y_hi=1.0, grade_q=1.0)
        f = srlab.solve(coeffs, bc, grid,
                        srlab.SolverOptions(tolerance=1e-9, max_iterations=8000),
                        init_power=1.5, init_field=prev)
        errs.append(float(np.max(np.abs(f.values - exact(f.xs)[:, None]))))
        prev = f
    elapsed = time.perf_counter() - t0
    hs = [RHAT / (n - 1) for n in (65, 129, 257)]
    bounds_ok = all(e <= 10 * h * h for e, h in zip(errs, hs))
    # the interior stencils are exact on quadratics, so the discrete solution
    # reproduces the profile to solver tolerance; when all errors sit at that
    # floor the convergence order is reported as inf (error below any C h^p)
    floor = 1e-10
    if max(errs) < floor:
        order = float("inf")
    else:
        order = float(np.log2(errs[0] / errs[-1]) / 2.0)
    ok = bounds_ok and order >= 1.9 and elapsed <= 30.0
    _report("1 exact-solution fixed point", ok,
            f"errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e} vs 10h^2, order {order}, {elapsed:.1f}s/30s")
    assert bounds_ok
    assert order >= 1.9
    assert elapsed <= 30.0


def test_criterion_2_sonic_second_derivative_constant():
    """Perturbed outer data still yields the universal edge curvature 1/a."""
    _warm_kernel()
    coeffs = srlab.model_coefficients(A_MODEL, B_MODEL)
    outer = lambda y: (RHAT**2 / (2 * A_MODEL)) * (1.0 + 0.2 * np.cos(np.pi * y))
    bc = srlab.BoundaryConditions(outer=outer)
    t0 = time.perf_counter()
    fields = []
    prev = None
    for nx in (49, 97, 193):
        # fixed grading depth across the ladder, deep enough that even the
        # coarse rung resolves four columns below rhat/100
        q = 0.90 ** (48.0 / (nx - 1))
        grid = srlab.GridSpec(rhat=RHAT, nx=nx, ny=65, y_lo=-1.0, y_hi=1.0, grade_q=q)
        f = srlab.solve(coeffs, bc, grid,
                        srlab.SolverOptions(tolerance=1e-10, max_iterations=9000),
                        init_field=prev)
        fields.append(f)
        prev = f
    ests = [dg.sonic_limit_estimate(f, srlab.derivative_fields(f)) for f in fields]
    stations = ests[0]["stations_index"]
    target = 1.0 / A_MODEL
    extrap = np.array([
        richardson_triplet(ests[0]["psi_xx"][k], ests[1]["psi_xx"][k], ests[2]["psi_xx"][k])[0]
        for k in range(len(stations))
    ])
    elapsed = time.perf_counter() - t0
    worst = float(np.max(np.abs(extrap - target))) / target
    pxy = float(np.max(np.abs(ests[-1]["psi_xy"])))
    pyy = float(np.max(np.abs(ests[-1]["psi_yy"])))
    ok = worst <= 0.02 and pxy <= 0.02 / A_MODEL and pyy <= 0.02 / A_MODEL and elapsed <= 120.0
    _report("2 edge curvature 1/a", ok,
            f"worst station error {100 * worst:.3f}% (gate 2%), |psi_xy|<={pxy:.2e}, "
            f"|psi_yy|<={pyy:.2e} (gate {0.02 / A_MODEL:.2e}), {elapsed:.1f}s/120s")
    _state["model_97"] = fields[1]
    assert worst <= 0.02
    assert pxy <= 0.02 / A_MODEL
    assert pyy <= 0.02 / A_MODEL
    assert elapsed <= 120.0


def test_criterion_3_linear_nonlinear_dichotomy():
    """Gradient nonlinearity selects x^2 profiles; without it x^{3/2} persists."""
    _warm_kernel()
    t0 = time.perf_counter()
    lin = srlab.linear_coefficients(B_MODEL)
    bc = srlab.BoundaryConditions(outer=lambda y: RHAT**1.5 * np.ones_like(y))
    pxx_channel = []
    p_lin = None
    for nx in (65, 129):
        grid = srlab.GridSpec(rhat=RHAT, nx=nx, ny=49, y_lo=-1.0, y_hi=1.0, grade_q=0.95)
        f = srlab.solve(lin, bc, grid, srlab.SolverOptions(tolerance=1e-10, max_iterations=9000))
        _, br = dg.parabolic_norm(f, srlab.derivative_fields(f))
        pxx_channel.append(br["pxx"])
        p_lin, _, _ = dg.fit_power_law(f, 0.0)
    if "model_97" in _state:
        f_nl = _state["model_97"]
    else:  # standalone run of this criterion
        outer = lambda y: (RHAT**2 / (2 * A_MODEL)) * (1.0 + 0.2 * np.cos(np.pi * y))
        f_nl = srlab.solve(srlab.model_coefficients(A_MODEL, B_MODEL),
                           srlab.BoundaryConditions(outer=outer),
                           srlab.GridSpec(rhat=RHAT, nx=97, ny=65, y_lo=-1.0, y_hi=1.0, grade_q=0.95 ** 0.5),
                           srlab.SolverOptions(tolerance=1e-10, max_iterations=9000))
    p_nl, _, _ = dg.fit_power_law(f_nl, 0.0)
    elapsed = time.perf_counter() - t0
    grows = pxx_channel[1] > pxx_channel[0]
    ok = abs(p_lin - 1.5) <= 0.05 and abs(p_nl - 2.0) <= 0.05 and grows and elapsed <= 60.0
    _report("3 linear/nonlinear dichotomy", ok,
            f"exponents {p_lin:.4f} (1.5+-0.05) / {p_nl:.4f} (2.0+-0.05), "
            f"curvature channel {pxx_channel[0]:.2f}->{pxx_channel[1]:.2f} grows={grows}, {elapsed:.1f}s/60s")
    assert abs(p_lin - 1.5) <= 0.05
    assert abs(p_nl - 2.0) <= 0.05
    assert grows
    assert elapsed <= 60.0


def test_criterion_4_barrier_suite():
    """Recipe barriers have strict signs on dense scans and bracket the field."""
    _warm_kernel()
    t0 = time.perf_counter()
    coeffs = srlab.model_coefficients(A_MODEL, B_MODEL)
    outer = lambda y: (RHAT**2 / (2 * A_MODEL)) * (1.0 + 0.2 * np.cos(np.pi * y))
    grid = srlab.GridSpec(rhat=RHAT, nx=65, ny=65, y_lo=-1.0, y_hi=1.0, grade_q=0.95)
    field = srlab.solve(coeffs, srlab.BoundaryConditions(outer=outer), grid,
                        srlab.SolverOptions(tolerance=1e-10, max_iterations=9000))

    def sigma(r):
        mask = field.xs >= r
        return float(np.min(field.values[mask, :]))

    recipe = choose_subsolution_params(A_MODEL, B_MODEL, N=0.0, rhat=RHAT, sigma=sigma)
    s_w = scan_L1_sign(recipe.w_barrier(), coeffs, recipe.r0)
    s_v = scan_L2_defect_sign(recipe.v_barrier(), coeffs, recipe.r1, want="negative")
    s_u = scan_L2_defect_sign(recipe.u_minus_barrier(), coeffs, recipe.r2, want="positive")
    rep_w = verify_comparison(field, recipe.w_barrier(), "below", recipe.r0)
    wfield = srlab.ScalarField2D(field.xs, field.ys, field.xs[:, None] ** 2 / (2 * A_MODEL) - field.values)
    rep_u = verify_comparison(wfield, recipe.u_minus_barrier(), "below", recipe.r2)
    # literal two-sided bracket w <= psi <= x^2/(2a) + |u_minus| on the window
    um = recipe.u_minus_barrier()
    isel = field.xs <= recipe.r2
    bx = field.xs[isel][:, None]
    upper = bx**2 / (2 * A_MODEL) + np.abs(um.value(bx, field.ys[None, :]))
    sandwiched = bool(np.all(field.values[isel, :] <= upper + 1e-13))
    elapsed = time.perf_counter() - t0
    ok = (s_w["positive"] and s_v["negative"] and s_u["positive"]
          and rep_w.ok() and rep_u.ok() and sandwiched and elapsed <= 30.0)
    _report("4 barrier suite", ok,
            f"min L1 w {s_w['min']:.3e}>0, max L2 v defect {s_v['max']:.3e}<0, "
            f"min L2 u- defect {s_u['min']:.3e}>0, comparisons {rep_w.violations}/{rep_u.violations} "
            f"violations, sandwich={sandwiched}, {elapsed:.1f}s/30s")
    assert s_w["positive"] and s_w["min"] > 0.0
    assert s_v["negative"] and s_v["max"] < 0.0
    assert s_u["positive"] and s_u["min"] > 0.0
    assert rep_w.ok() and rep_w.violations == 0
    assert rep_u.ok() and rep_u.violations == 0
    assert sandwiched
    assert elapsed <= 30.0


@pytest.mark.parametrize("deg", [50.0, 60.0, 75.0, 85.0])
def test_criterion_5_configuration_algebra(deg):
    """Root residuals, entropy, sonic intersection, and boundary identities."""
    gas = srlab.GasParameters(1.4, 1.0, 2.0)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotSupersonicAtP0)
        cfg = srlab.solve_state2(gas, np.radians(deg))["weak"]
    res = cfg.residuals()
    on_circle = abs(np.linalg.norm(np.asarray(cfg.P1) - cfg.center) - cfg.c2)
    fns = ShockBoundaryFns(cfg)
    scale = gas.rho1 * (1 + abs(cfg.u1)) + cfg.rho2 * (1 + abs(cfg.u2) + cfg.c2 + abs(cfg.xi1))
    anchor = max(abs(fns.F(0.0, 0.0, 0.0, xi)) for xi in np.linspace(cfg.xi1 - 1, cfg.xi1 + 1, 20)) / scale
    p1a, p1b = fns.psi_p1_at_P1(), fns.psi_p1_tau_form()
    elapsed = time.perf_counter() - t0
    ok = (res["rh"] <= 1e-12 and res["continuity"] <= 1e-12 and cfg.rho2 > gas.rho1
          and on_circle <= 1e-10 and anchor <= 1e-12 and p1a > 0 and abs(p1a - p1b) <= 1e-10)
    _report(f"5 configuration algebra ({deg:g} deg)", ok,
            f"residuals {res['rh']:.1e}/{res['continuity']:.1e}, rho2 {cfg.rho2:.4f}>2, "
            f"|P1-center|-c2 {on_circle:.1e}, anchor {anchor:.1e}, psi_p1 {p1a:.6f} "
            f"(forms agree to {abs(p1a - p1b):.1e}), {elapsed:.2f}s")
    assert res["rh"] <= 1e-12
    assert res["continuity"] <= 1e-12
    assert cfg.rho2 > gas.rho1
    assert on_circle <= 1e-10
    assert anchor <= 1e-12
    assert p1a > 0.0
    assert abs(p1a - p1b) <= 1e-10


@pytest.mark.parametrize("deg", [50.0, 60.0, 75.0, 85.0])
def test_criterion_5_supersonic_at_reflection_point(deg):
    """State (2) exceeds its sound speed at the reflection point.

    The supersonic regime for (gamma, rho0, rho1) = (1.4, 1, 2) starts at
    50.0112 degrees (40-digit bisection of |Dphi2(P0)| = c2 on the weak
    branch; detachment sits at 48.93 degrees).  At exactly 50 degrees the
    margin is -1.4351e-3, so this check fails there by construction of the
    gas data, not by solver error; see the decisions ledger.
    """
    gas = srlab.GasParameters(1.4, 1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotSupersonicAtP0)
        cfg = srlab.solve_state2(gas, np.radians(deg))["weak"]
    margin = float(np.linalg.norm(np.asarray(cfg.P0) - cfg.center) - cfg.c2)
    ok = margin > 0.0
    _report(f"5 supersonic at reflection point ({deg:g} deg)", ok, f"|Dphi2(P0)| - c2 = {margin:+.6f}")
    assert cfg.supersonic_at_P0 == (margin > 0.0)
    assert margin > 0.0, (
        f"weak branch is subsonic at P0 for theta_w={deg} deg (margin {margin:+.6f}); "
        "the supersonic regime starts at 50.0112 deg for this gas"
    )


@pytest.mark.parametrize("gamma", [1.1, 1.4, 2.0, 3.0])
def test_criterion_5_flux_function_unique_root(gamma):
    ok = check_g_unique(gamma)
    _report(f"5 sonic flux function unique root (gamma={gamma})", ok, "closed form: g(1) = 1, g' has the sign of s - 1")
    assert ok


@pytest.mark.parametrize("gamma,deg", [(1.4, 60.0), (2.0, 60.0), (1.0, 75.0)])
def test_criterion_6_sonic_jump(gamma, deg):
    """Radial curvature jump across the degenerate arc equals 1/(gamma+1)."""
    _warm_kernel()
    t0 = time.perf_counter()
    gas = srlab.GasParameters(gamma, 1.0, 2.0)
    cfg = srlab.solve_state2(gas, np.radians(deg))["weak"]
    field = srlab.solve_reflection_near_sonic(
        cfg, eps=cfg.c2 / 20.0, grid_nx=121, grid_ny=49,
        opts=srlab.SolverOptions(tolerance=1e-9, max_iterations=9000),
    )
    jump, det = dg.jump_estimate(field, dg.sonic_limit_estimate(field, srlab.derivative_fields(field)))
    target = 1.0 / (gamma + 1.0)
    rel = abs(jump - target) / target
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.02 and elapsed <= 300.0
    _report(f"6 sonic jump (gamma={gamma})", ok,
            f"jump {jump:.5f} vs {target:.5f} ({100 * rel:.2f}%, gate 2%), {elapsed:.1f}s/300s")
    if gamma == 1.4:
        _state["reflection_field"] = field
    assert rel <= 0.02
    assert elapsed <= 300.0


def test_criterion_7_two_family_probe():
    """Second-derivative families split at the shock/sonic corner (informational)."""
    _warm_kernel()
    gas = srlab.GasParameters(1.4, 1.0, 2.0)
    cfg = srlab.solve_state2(gas, np.radians(60.0))["weak"]
    coarse = srlab.solve_reflection_near_sonic(
        cfg, eps=cfg.c2 / 20.0, grid_nx=81, grid_ny=41,
        opts=srlab.SolverOptions(tolerance=1e-9, max_iterations=9000),
    )
    if "reflection_field" in _state:
        field = _state["reflection_field"]
    else:
        field = srlab.solve_reflection_near_sonic(
            cfg, eps=cfg.c2 / 20.0, grid_nx=121, grid_ny=49,
            opts=srlab.SolverOptions(tolerance=1e-9, max_iterations=9000),
        )
    def probe_of(f):
        return dg.two_sequence_probe(f, dg.sonic_limit_estimate(f, srlab.derivative_fields(f)))

    probe_c, probe = probe_of(coarse), probe_of(field)
    target = 1.0 / 2.4
    rel = abs(probe["sonic_adjacent_limit"] - target) / target
    lower = probe["shock_adjacent_limit"] < probe["sonic_adjacent_limit"]
    # informational refinement trend of the surrogate-boundary channel: the
    # shock-adjacent level and the psi_x/x trace both shrink under refinement
    trend_down = (abs(probe["shock_adjacent_limit"]) < abs(probe_c["shock_adjacent_limit"])
                  and abs(probe["psi_x_over_x_at_shock_limit"]) < abs(probe_c["psi_x_over_x_at_shock_limit"]))
    ok = rel <= 0.05 and lower and probe["channel_label"] == "surrogate-boundary"
    _report("7 two-family probe", ok,
            f"sonic-adjacent {probe['sonic_adjacent_limit']:.5f} vs {target:.5f} "
            f"({100 * rel:.2f}%, gate 5%); shock-adjacent {probe_c['shock_adjacent_limit']:.5f}"
            f"->{probe['shock_adjacent_limit']:.5f} under refinement "
            f"({probe['channel_label']}, informational, strictly below the sonic family, "
            f"trend decreasing: {trend_down}); "
            f"psi_x/x at shock {probe_c['psi_x_over_x_at_shock_limit']:.5f}"
            f"->{probe['psi_x_over_x_at_shock_limit']:.5f}")
    assert rel <= 0.05
    assert lower
    assert probe["channel_label"] == "surrogate-boundary"
    assert trend_down
    # the corner-limit non-existence statement is asymptotic and is
    # deliberately not asserted on a finite grid


def test_criterion_8_determinism_across_thread_settings(tmp_path):
    """Identical run configuration gives byte-identical outputs in fresh processes with 1 and 2 BLAS threads."""
    # the solver's inner products are pairwise sums, not BLAS calls, so the
    # thread count cannot reorder them; test_cli checks a strip solve past the
    # 10,000 entries at which OpenBLAS splits a dot product across its threads
    args = ["solve", "--mode", "model", "--grid", "49,49", "--grade", "0.95",
            "--perturb", "0.2", "--tol", "1e-9"]
    src = str(Path(srlab.__file__).resolve().parents[1])
    blobs = []
    for threads in ("1", "2"):
        out, cfg_out = tmp_path / f"t{threads}", tmp_path / f"t{threads}_cfg"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        for argv in (args + ["--out", str(out)], ["config", "--theta-w", "60", "--out", str(cfg_out)]):
            proc = subprocess.run([sys.executable, "-m", "srlab.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        blobs.append((
            (out / "grid.srl").read_bytes(),
            (out / "grid.srl.json").read_text(),
            (cfg_out / "config_summary.json").read_text(),
        ))
    ok = blobs[0] == blobs[1]
    _report("8 determinism", ok, "grid payload, sidecar, and config summary byte-identical for BLAS threads 1, 2")
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]
    assert blobs[0][2] == blobs[1][2]
