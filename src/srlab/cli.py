"""Batch front end: configuration runs, solves, verification, and sweeps.

Every command assembles a flat run-configuration record of its inputs; the
sha256 digest of that record is embedded in all output files so any artifact
can be traced to the exact invocation.  Outputs are deterministic: identical
run configurations produce byte-identical files (nothing is scheduled across
workers).

Exit codes: 0 ok, 2 configuration/input failure, 3 solver non-convergence,
4 failed verification check.
"""

import argparse
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import diagnostics
from .barriers import choose_subsolution_params, scan_L1_sign, scan_L2_defect_sign, verify_comparison
from .coefficients import linear_coefficients, model_coefficients
from .errors import (
    EllipticityLoss,
    InvalidShock,
    NoConvergence,
    NoRegularReflection,
    ShockConditionDiverged,
    SrlabError,
)
from .grids import ScalarField2D
from .reflection import ReflectionConfiguration, detachment_angle, solve_state2
from .shock import ShockBoundaryFns, check_g_unique, largest_valid_eps, synthetic_quadratic_trace, write_trace_csv
from .solver import (BoundaryConditions, GridSpec, SolverOptions, derivative_fields, solve,
                     solve_reflection_near_sonic)
from .states import GasParameters

# reference model-closure constants: a = gamma+1 and b = 1/c2 of the
# (gamma, rho0, rho1, theta_w) = (1.4, 1, 2, 60 deg) weak configuration
_DEFAULT_A = 2.4
_DEFAULT_B = 0.7765781059372254


def _digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=float)
        fh.write("\n")


def _gas(args) -> GasParameters:
    return GasParameters(args.gamma, args.rho0, args.rho1)


def _record(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys}


def cmd_config(args) -> int:
    record = _record(args, ("gamma", "rho0", "rho1", "theta_w", "branch"))
    digest = _digest(record)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        gas = _gas(args)
        both = solve_state2(gas, np.radians(args.theta_w))
    except (NoRegularReflection, InvalidShock, ValueError) as exc:
        print(f"configuration failed: {exc}", file=sys.stderr)
        return 2
    payload = {"runconfig": record, "runconfig_digest": digest}
    for name, cfg in both.items():
        payload[name] = json.loads(cfg.to_json())
        payload[name]["residuals"] = cfg.residuals()
        payload[name]["y1"] = cfg.y1
        (out / f"config_{name}.json").write_text(cfg.to_json() + "\n", encoding="ascii")
    (out / "config.json").write_text(both[args.branch].to_json() + "\n", encoding="ascii")
    _write_json(out / "config_summary.json", payload)
    print(f"wrote {out}/config_summary.json (digest {digest})")
    return 0


def cmd_sweep(args) -> int:
    if not args.theta_step > 0.0:
        print(f"sweep needs --theta-step > 0, got {args.theta_step}", file=sys.stderr)
        return 2
    record = _record(args, ("gamma", "rho0", "rho1", "theta_min", "theta_max", "theta_step"))
    digest = _digest(record)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gas = _gas(args)
    rows = []
    theta = args.theta_min
    while theta <= args.theta_max + 1e-12:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg = solve_state2(gas, np.radians(theta))["weak"]
            res = cfg.residuals()
            rows.append(
                (theta, cfg.u2, cfg.v2, cfg.rho2, cfg.c2, int(cfg.supersonic_at_P0), res["rh"])
            )
        except SrlabError:
            rows.append((theta, np.nan, np.nan, np.nan, np.nan, 0, np.nan))
        theta += args.theta_step
    lo, hi = detachment_angle(gas)
    with open(out / "sweep.csv", "w", encoding="ascii") as fh:
        fh.write(f"# runconfig_digest={digest}\n")
        fh.write(f"# detachment_bracket_deg={float(np.degrees(lo))!r},{float(np.degrees(hi))!r}\n")
        fh.write("theta_deg,u2,v2,rho2,c2,supersonic_at_P0,rh_residual\n")
        for r in rows:
            fh.write(",".join(repr(float(v)) for v in r) + "\n")
    print(f"wrote {out}/sweep.csv (digest {digest})")
    return 0


def _parse_grid(text: str):
    try:
        nx, ny = (int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--grid takes nx,ny, got {text!r}") from None
    return nx, ny


def cmd_solve(args) -> int:
    keys = ("mode", "grid", "grade", "tol", "max_iter", "rhat", "y_halfwidth",
            "perturb", "a", "b", "gamma", "rho0", "rho1", "theta_w", "eps_frac", "out_name")
    record = _record(args, keys)
    digest = _digest(record)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        nx, ny = _parse_grid(args.grid)
        opts = SolverOptions(tolerance=args.tol, max_iterations=args.max_iter)
        if args.mode == "reflection":
            gas = _gas(args)
            cfg = solve_state2(gas, np.radians(args.theta_w))["weak"]
            eps = cfg.c2 * args.eps_frac
            field = solve_reflection_near_sonic(
                cfg, eps, grid_nx=nx, grid_ny=ny, grade_q=args.grade, opts=opts
            )
        else:
            a, b = args.a, args.b
            coeffs = model_coefficients(a, b) if args.mode == "model" else linear_coefficients(b)
            rhat, amp = args.rhat, args.perturb
            if args.mode == "model":
                outer = lambda y: (rhat**2 / (2 * a)) * (1.0 + amp * np.cos(np.pi * y / args.y_halfwidth))
            else:
                outer = lambda y: rhat**1.5 * np.ones_like(y)
            bc = BoundaryConditions(outer=outer)
            grid = GridSpec(rhat=rhat, nx=nx, ny=ny, y_lo=-args.y_halfwidth,
                            y_hi=args.y_halfwidth, grade_q=args.grade)
            field = solve(coeffs, bc, grid, opts)
    except (NoConvergence, EllipticityLoss, ShockConditionDiverged) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 3
    except (NoRegularReflection, InvalidShock, ValueError) as exc:
        print(f"configuration failed: {exc}", file=sys.stderr)
        return 2
    field.meta["runconfig"] = record
    field.meta["runconfig_digest"] = digest
    stem = out / args.out_name
    field.save(stem)
    if args.format == "csv":
        field.export_csv(stem.with_suffix(".csv"), digest=digest)
    elif args.format == "json":
        _write_json(stem.with_suffix(".full.json"), {
            "runconfig_digest": digest,
            "xs": field.xs.tolist(),
            "ys": field.ys.tolist(),
            "psi": field.values.tolist(),
            "geometry": field.geometry,
        })
    print(f"wrote {stem} (digest {digest}, iterations {field.meta['iterations']})")
    return 0


def _verify_barriers(args, out, record, digest):
    field = ScalarField2D.load(args.grid)
    cm = field.meta.get("coefficients", {})
    a, b, N = cm.get("a", _DEFAULT_A), cm.get("b", _DEFAULT_B), cm.get("N", 0.0)
    coeffs = model_coefficients(a, b) if cm.get("label", "model") == "model" else None
    if coeffs is None:
        print("barrier verification expects a model-closure grid", file=sys.stderr)
        return 2

    def sigma(r):
        mask = field.xs >= r
        ys_ok = np.abs(field.ys) <= 1.0
        return float(np.min(field.values[np.ix_(mask, ys_ok)]))

    recipe = choose_subsolution_params(a, b, N, rhat=float(field.xs[-1]), sigma=sigma)
    w = recipe.w_barrier()
    v = recipe.v_barrier()
    um = recipe.u_minus_barrier(beta=0.5)
    s1 = scan_L1_sign(w, coeffs, recipe.r0)
    s2 = scan_L2_defect_sign(v, coeffs, recipe.r1, want="negative")
    s3 = scan_L2_defect_sign(um, coeffs, recipe.r2, want="positive")
    cmp_w = verify_comparison(field, w, "below", recipe.r0)
    wfield = field.copy()
    wfield.values = field.xs[:, None] ** 2 / (2 * a) - field.values
    cmp_v = verify_comparison(wfield, v, "above", recipe.r1)
    cmp_u = verify_comparison(wfield, um, "below", recipe.r2)
    checks = {
        "subsolution_sign_scan": s1["positive"],
        "supersolution_defect_sign_scan": s2["negative"],
        "lower_decay_defect_sign_scan": s3["positive"],
        "field_above_w": cmp_w.ok(),
        "deviation_below_v": cmp_v.ok(),
        "deviation_above_u_minus": cmp_u.ok(),
    }
    payload = {
        "runconfig": record, "runconfig_digest": digest,
        "recipe": recipe.describe(),
        "scans": {"L1_w": s1, "L2_v": s2, "L2_u_minus": s3},
        "comparisons": {
            "w": cmp_w.to_dict(), "v": cmp_v.to_dict(), "u_minus": cmp_u.to_dict(),
        },
        "checks": checks,
    }
    _write_json(out / "verify_barriers.json", payload)
    return checks


def _verify_rh(args, out, record, digest):
    cfg = ReflectionConfiguration.from_json(Path(args.config).read_text())
    fns = ShockBoundaryFns(cfg)
    xi_samples = np.linspace(cfg.xi1 - 1.0, cfg.xi1 + 1.0, 20)
    scale = cfg.gas.rho1 * (1.0 + abs(cfg.u1)) + cfg.rho2 * (1.0 + abs(cfg.u2) + cfg.c2 + abs(cfg.xi1))
    anchor = max(abs(fns.F(0.0, 0.0, 0.0, xi)) for xi in xi_samples) / scale
    p1a, p1b = fns.psi_p1_at_P1(), fns.psi_p1_tau_form()
    eps_grid = [cfg.c2 * fr for fr in (0.02, 0.05, 0.1, 0.15, 0.2, 0.3)]
    eps_ok = largest_valid_eps(cfg, eps_grid)
    trace = synthetic_quadratic_trace(cfg, cfg.c2 / 20.0, 48)
    b1, b2, b3 = fns.bhat(*trace)
    write_trace_csv(out / "shock_trace.csv", *trace, b1, b2, b3, digest=digest)
    checks = {
        "shock_condition_anchor_zero": bool(anchor < 1e-12),
        "gradient_coefficient_positive": bool(p1a > 0.0),
        "gradient_coefficient_forms_agree": bool(abs(p1a - p1b) < 1e-10 * max(1.0, abs(p1a))),
        "b1_above_lambda_on_quadratic_trace": bool(np.min(b1) >= 0.5 * p1a),
    }
    if cfg.gas.gamma > 1.0:
        checks["sonic_flux_function_unique_root"] = check_g_unique(cfg.gas.gamma)
    payload = {
        "runconfig": record, "runconfig_digest": digest,
        "anchor_residual": anchor,
        "psi_p1": {"explicit": p1a, "tangential_form": p1b},
        "largest_eps_with_b1_margin": eps_ok,
        "bhat_summary": {"min_b1": float(np.min(b1)), "max_abs_b2": float(np.max(np.abs(b2))),
                         "max_abs_b3": float(np.max(np.abs(b3))), "lambda": 0.5 * p1a},
        "checks": checks,
    }
    _write_json(out / "verify_rh.json", payload)
    return checks


def _verify_regularity(args, out, record, digest):
    field = ScalarField2D.load(args.grid)
    d = derivative_fields(field)  # one derivative pass serves the report and the station trace
    rep = diagnostics.full_report(field, d=d)
    cm = field.meta.get("coefficients", {})
    a = cm.get("a", _DEFAULT_A)
    checks = {}
    warnings_list = []
    if cm.get("label") == "linear":
        p = rep.power_fits[0].get("p", np.nan)
        checks["boundary_exponent_three_halves"] = bool(abs(p - 1.5) <= 0.05)
    elif rep.power_fits and "p" in rep.power_fits[0]:
        p = rep.power_fits[0]["p"]
        checks["boundary_exponent_quadratic"] = bool(abs(p - 2.0) <= 0.05)
    if rep.jump is not None and a > 0:
        checks["sonic_second_derivative_limit"] = bool(abs(rep.jump - 1.0 / a) <= 0.02 / a)
    if field.kind == "sonic_strip" and rep.two_sequence:
        ts = rep.two_sequence
        ok = abs(ts["sonic_adjacent_limit"] - 1.0 / a) <= 0.05 / a
        warnings_list.append(
            f"two-family probe (informational, {ts['channel_label']}): sonic-adjacent "
            f"{ts['sonic_adjacent_limit']:.5f} vs {1.0 / a:.5f} (within 5%: {ok}); "
            f"shock-adjacent {ts['shock_adjacent_limit']:.5f}"
        )
    payload = {
        "runconfig": record, "runconfig_digest": digest,
        "report": json.loads(rep.to_json()),
        "checks": checks,
        "warnings": warnings_list,
    }
    _write_json(out / "verify_regularity.json", payload)
    diagnostics.write_station_trace_csv(field, out / "station_trace.csv", digest=digest, d=d)
    return checks


def cmd_verify(args) -> int:
    need = "config" if args.what == "rh" else "grid"
    if not getattr(args, need):
        print(f"verify --what {args.what} needs --{need}", file=sys.stderr)
        return 2
    record = _record(args, ("what", "grid", "config"))
    digest = _digest(record)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runner = {"barriers": _verify_barriers, "rh": _verify_rh, "regularity": _verify_regularity}[args.what]
    try:
        checks = runner(args, out, record, digest)
    except OSError as exc:  # missing file, or a directory given as a file
        print(f"missing input: {exc}", file=sys.stderr)
        return 2
    if isinstance(checks, int):
        return checks
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(checks.values()) else 4


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="srlab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add_gas(q):
        q.add_argument("--gamma", type=float, default=1.4)
        q.add_argument("--rho0", type=float, default=1.0)
        q.add_argument("--rho1", type=float, default=2.0)

    q = sub.add_parser("config", help="solve the reflected-state algebra for one wedge angle")
    add_gas(q)
    q.add_argument("--theta-w", dest="theta_w", type=float, required=True, help="wedge angle in degrees")
    q.add_argument("--branch", choices=("weak", "strong"), default="weak")
    q.add_argument("--out", default="out")
    q.set_defaults(func=cmd_config)

    q = sub.add_parser("sweep", help="sweep wedge angles and bracket the detachment angle")
    add_gas(q)
    q.add_argument("--theta-min", dest="theta_min", type=float, default=50.0)
    q.add_argument("--theta-max", dest="theta_max", type=float, default=89.0)
    q.add_argument("--theta-step", dest="theta_step", type=float, default=1.0)
    q.add_argument("--out", default="out")
    q.set_defaults(func=cmd_sweep)

    q = sub.add_parser("solve", help="run the degenerate-boundary solver")
    q.add_argument("--mode", choices=("model", "linear", "reflection"), default="model")
    add_gas(q)
    q.add_argument("--theta-w", dest="theta_w", type=float, default=60.0)
    q.add_argument("--grid", default="97,49", help="nx,ny")
    q.add_argument("--grade", type=float, default=0.95, help="grading ratio toward x=0 (1 = uniform)")
    q.add_argument("--tol", type=float, default=1e-9)
    q.add_argument("--max-iter", dest="max_iter", type=int, default=6000)
    q.add_argument("--rhat", type=float, default=0.5)
    q.add_argument("--y-halfwidth", dest="y_halfwidth", type=float, default=1.0)
    q.add_argument("--perturb", type=float, default=0.0, help="cosine amplitude on the outer data")
    q.add_argument("--a", type=float, default=_DEFAULT_A)
    q.add_argument("--b", type=float, default=_DEFAULT_B)
    q.add_argument("--eps-frac", dest="eps_frac", type=float, default=0.05, help="eps as fraction of c2 (reflection mode)")
    q.add_argument("--out", default="out")
    q.add_argument("--out-name", dest="out_name", default="grid.srl")
    q.add_argument("--format", choices=("bin", "csv", "json"), default="bin")
    q.set_defaults(func=cmd_solve)

    q = sub.add_parser("verify", help="run verification checks against grids/configs")
    q.add_argument("--what", choices=("barriers", "rh", "regularity"), required=True)
    q.add_argument("--grid", default="")
    q.add_argument("--config", default="")
    q.add_argument("--out", default="out")
    q.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
