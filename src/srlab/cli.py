"""Batch front end: configuration runs, solves, verification, and sweeps.

Every command assembles a flat run-configuration record of its inputs; the
sha256 digest of that record is embedded in all output files so any artifact
can be traced to the exact invocation.  Outputs are deterministic: identical
run configurations produce byte-identical files (nothing is scheduled across
workers).

Exit codes: 0 ok, 2 configuration/input failure, 3 solver non-convergence,
4 failed verification check.  `main` alone maps a failure to its exit code
and its one line on stderr.
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
    CenterSingularity,
    EllipticityLoss,
    InvalidShock,
    NoConvergence,
    NoSonicIntersection,
    NotSupersonicAtP0,
    ShockConditionDiverged,
    SrlabError,
)
from .grids import ScalarField2D, _write_csv
from .reflection import (ReflectionConfiguration, _shock_line_residuals, detachment_angle, shock_depth_max,
                         solve_state2, solve_state2_many)
from .shock import ShockBoundaryFns, check_g_unique, largest_valid_eps, synthetic_quadratic_trace, write_trace_csv
from .solver import (BoundaryConditions, GridSpec, SolverOptions, derivative_fields, solve,
                     solve_reflection_near_sonic)
from .states import GasParameters

# reference model-closure constants: a = gamma+1 and b = 1/c2 of the
# (gamma, rho0, rho1, theta_w) = (1.4, 1, 2, 60 deg) weak configuration
_DEFAULT_A = 2.4
_DEFAULT_B = 0.7765781059372254

# most wedge angles one sweep may ask for
_MAX_SWEEP_ANGLES = 10_000


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
    both = solve_state2(_gas(args), np.radians(args.theta_w))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    """Weak reflected state at each wedge angle of a range, and the detachment bracket.

    The angles run from --theta-min by repeated `theta += step` up to
    --theta-max, one solve_state2_many call solves them all, and one
    residual call checks every weak branch.  An angle
    without a reflected state writes a NaN row; an input error (bad gas, a
    range outside 0 < min <= max < 90 degrees, a step below one ulp of the
    range's top or one asking for more than _MAX_SWEEP_ANGLES angles, no root
    below 89.9 degrees) exits 2 and writes nothing.
    """
    if not 0.0 < args.theta_min <= args.theta_max < 90.0:  # NaN fails too
        raise ValueError(f"sweep needs 0 < --theta-min <= --theta-max < 90, "
                         f"got {args.theta_min}, {args.theta_max}")
    # a step of at least one ulp advances every theta up to the loop's end;
    # a smaller one (or one <= 0, or NaN) may leave `theta += step` in place
    if not args.theta_step >= np.spacing(args.theta_max + 1e-12):
        raise ValueError(f"sweep needs a --theta-step that advances theta, got {args.theta_step}")
    count = (args.theta_max - args.theta_min) / args.theta_step + 1.0
    if count > _MAX_SWEEP_ANGLES:
        raise ValueError(f"sweep needs at most {_MAX_SWEEP_ANGLES} angles, "
                         f"--theta-step {args.theta_step} asks for {count:.3g}")
    record = _record(args, ("gamma", "rho0", "rho1", "theta_min", "theta_max", "theta_step"))
    digest = _digest(record)
    thetas = []
    theta = args.theta_min
    while theta <= args.theta_max + 1e-12:
        thetas.append(theta)
        theta += args.theta_step
    gas = _gas(args)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotSupersonicAtP0)
        solved = solve_state2_many(gas, np.radians(thetas))
    lo, hi = detachment_angle(gas)
    weak = [both["weak"] for both in solved if isinstance(both, dict)]
    rh = iter(_shock_line_residuals(weak)[0].tolist())
    rows = []
    for theta, both in zip(thetas, solved):
        if isinstance(both, SrlabError):
            rows.append((theta, np.nan, np.nan, np.nan, np.nan, 0, np.nan))
            continue
        cfg = both["weak"]
        rows.append((theta, cfg.u2, cfg.v2, cfg.rho2, cfg.c2, int(cfg.supersonic_at_P0), next(rh)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", ("theta_deg", "u2", "v2", "rho2", "c2", "supersonic_at_P0", "rh_residual"),
               zip(*rows), digest, [f"detachment_bracket_deg={float(np.degrees(lo))!r},{float(np.degrees(hi))!r}"])
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
    nx, ny = _parse_grid(args.grid)
    opts = SolverOptions(tolerance=args.tol, max_iterations=args.max_iter)
    if args.mode == "reflection":
        cfg = solve_state2(_gas(args), np.radians(args.theta_w))["weak"]
        eps = cfg.c2 * args.eps_frac
        field = solve_reflection_near_sonic(cfg, eps, grid_nx=nx, grid_ny=ny, grade_q=args.grade, opts=opts)
    else:
        a, b = args.a, args.b
        coeffs = model_coefficients(a, b) if args.mode == "model" else linear_coefficients(b)
        rhat, amp = args.rhat, args.perturb
        if args.mode == "model":
            outer = lambda y: (rhat * rhat / (2 * a)) * (1.0 + amp * np.cos(np.pi * y / args.y_halfwidth))
        else:
            outer = lambda y: rhat**1.5 * np.ones_like(y)
        bc = BoundaryConditions(outer=outer)
        grid = GridSpec(rhat=rhat, nx=nx, ny=ny, y_lo=-args.y_halfwidth,
                        y_hi=args.y_halfwidth, grade_q=args.grade)
        field = solve(coeffs, bc, grid, opts)
    field.meta["runconfig"] = record
    field.meta["runconfig_digest"] = digest
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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


def _verify_barriers(field, coeffs, out, record, digest):
    a, b, N = coeffs.a, coeffs.b, field.meta.get("coefficients", {}).get("N", 0.0)

    def sigma(r):
        mask = field.xs >= r
        ys_ok = np.abs(field.ys) <= 1.0
        return float(np.min(field.values[np.ix_(mask, ys_ok)]))

    recipe = choose_subsolution_params(a, b, N, rhat=float(field.xs[-1]), sigma=sigma)
    w = recipe.w_barrier()
    v = recipe.v_barrier()
    um = recipe.u_minus_barrier()
    s1 = scan_L1_sign(w, coeffs, recipe.r0)
    s2 = scan_L2_defect_sign(v, coeffs, recipe.r1, want="negative")
    s3 = scan_L2_defect_sign(um, coeffs, recipe.r2, want="positive")
    cmp_w = verify_comparison(field, w, "below", recipe.r0)
    wfield = ScalarField2D(field.xs, field.ys, field.xs[:, None] ** 2 / (2 * a) - field.values)
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


def _verify_rh(cfg, eps, out, record, digest):
    fns = ShockBoundaryFns(cfg)
    xi_samples = np.linspace(cfg.xi1 - 1.0, cfg.xi1 + 1.0, 20)
    scale = cfg.gas.rho1 * (1.0 + abs(cfg.u1)) + cfg.rho2 * (1.0 + abs(cfg.u2) + cfg.c2 + abs(cfg.xi1))
    anchor = float(np.max(np.abs(fns.F(0.0, 0.0, 0.0, xi_samples)))) / scale
    p1a, p1b = fns.psi_p1_at_P1(), fns.psi_p1_tau_form()
    eps_grid = [cfg.c2 * fr for fr in (0.02, 0.05, 0.1, 0.15, 0.2, 0.3)]
    eps_ok = largest_valid_eps(cfg, eps_grid)
    trace = synthetic_quadratic_trace(cfg, eps, 48)
    b1, b2, b3 = fns.bhat(*trace)
    write_trace_csv(out / "shock_trace.csv", *trace, b1, b2, b3, digest=digest)
    summary = fns.bhat_report(b1, b2, b3)
    checks = {
        "shock_condition_anchor_zero": bool(anchor < 1e-12),
        "gradient_coefficient_positive": bool(p1a > 0.0),
        "gradient_coefficient_forms_agree": bool(abs(p1a - p1b) < 1e-10 * max(1.0, abs(p1a))),
        "b1_above_lambda_on_quadratic_trace": summary["min_b1"] >= summary["lambda"],
    }
    if cfg.gas.gamma > 1.0:
        checks["sonic_flux_function_unique_root"] = check_g_unique(cfg.gas.gamma)
    payload = {
        "runconfig": record, "runconfig_digest": digest,
        "anchor_residual": anchor,
        "psi_p1": {"explicit": p1a, "tangential_form": p1b},
        "largest_eps_with_b1_margin": eps_ok,
        "bhat_summary": summary,
        "checks": checks,
    }
    _write_json(out / "verify_rh.json", payload)
    return checks


def _verify_regularity(field, out, record, digest):
    d = derivative_fields(field)  # one derivative pass serves the report and the station trace
    rep = diagnostics.full_report(field, d)
    fit, ts = rep["power_fits"][0], rep["two_sequence"]
    cm = field.meta.get("coefficients", {})
    a = cm.get("a", _DEFAULT_A)
    checks = {}
    warnings_list = []
    if cm.get("label") == "linear":
        checks["boundary_exponent_three_halves"] = bool(abs(fit.get("p", np.nan) - 1.5) <= 0.05)
    elif "p" in fit:
        checks["boundary_exponent_quadratic"] = bool(abs(fit["p"] - 2.0) <= 0.05)
    if rep["jump"] is not None and a > 0:
        checks["sonic_second_derivative_limit"] = bool(abs(rep["jump"] - 1.0 / a) <= 0.02 / a)
    if "sonic_adjacent_limit" in ts:
        ok = abs(ts["sonic_adjacent_limit"] - 1.0 / a) <= 0.05 / a
        warnings_list.append(
            f"two-family probe (informational, {ts['channel_label']}): sonic-adjacent "
            f"{ts['sonic_adjacent_limit']:.5f} vs {1.0 / a:.5f} (within 5%: {ok}); "
            f"shock-adjacent {ts['shock_adjacent_limit']:.5f}"
        )
    payload = {
        "runconfig": record, "runconfig_digest": digest,
        "report": rep,
        "checks": checks,
        "warnings": warnings_list,
    }
    _write_json(out / "verify_regularity.json", payload)
    diagnostics.write_station_trace_csv(field, out / "station_trace.csv", digest, d, fit)
    return checks


class _Refused(Exception):
    """A verify input refused in its own words: `main` exits 2 with the message as it is."""


def _verify_input(what, path):
    """The leading arguments of the `verify --what` runner, from the file at path.

    rh gets the config and its shock-trace depth, barriers the grid and its
    model closure.  Parse errors are generic (OSError, KeyError, TypeError),
    so they are caught here only, and refused with a message naming the file.
    """
    try:
        if what == "rh":
            cfg = ReflectionConfiguration.from_json(Path(path).read_text())
            depth, eps = shock_depth_max(cfg), cfg.c2 / 20.0  # the depth of the rh checks' shock trace
            if not eps <= depth:
                raise _Refused(f"shock chart of {path} too shallow for the rh trace: "
                               f"eps = c2/20 = {eps:.6g} exceeds the chart depth {depth:.6g}")
            return cfg, eps
        field = ScalarField2D.load(path)
        if not all(np.isfinite(v).all() for v in (field.xs, field.ys, field.values)):
            raise ValueError("the grid's axes and values must be finite")
        if what != "barriers":
            return (field,)
        cm = field.meta.get("coefficients", {})
        if cm.get("label", "model") != "model":
            raise _Refused("barrier verification expects a model-closure grid")
        # the barrier recipes need the closure's a > 0 and b > 0
        return field, model_coefficients(cm.get("a", _DEFAULT_A), cm.get("b", _DEFAULT_B))
    except OSError as exc:  # missing file, or a directory given as a file
        raise _Refused(f"missing input: {exc}")
    except (ValueError, KeyError, TypeError, InvalidShock) as exc:  # does not parse, or a value is bad or of the wrong type
        raise _Refused(f"malformed input {path}: {type(exc).__name__}: {exc}")
    except (NoSonicIntersection, CenterSingularity) as exc:  # a strong-branch shock, say
        raise _Refused(f"no shock chart for {path}: {exc}")


def cmd_verify(args) -> int:
    need = "config" if args.what == "rh" else "grid"
    path = getattr(args, need)
    if not path:
        raise ValueError(f"verify --what {args.what} needs --{need}")
    inputs = _verify_input(args.what, path)
    record = _record(args, ("what", "grid", "config"))
    digest = _digest(record)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runner = {"barriers": _verify_barriers, "rh": _verify_rh, "regularity": _verify_regularity}[args.what]
    checks = runner(*inputs, out, record, digest)
    if not checks:  # the report is written, but it assessed nothing
        print(f"verify --what {args.what}: no check could run on this input", file=sys.stderr)
        return 2
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

    q = sub.add_parser("sweep", help="sweep wedge angles and bracket the detachment angle")
    add_gas(q)
    q.add_argument("--theta-min", dest="theta_min", type=float, default=50.0)
    q.add_argument("--theta-max", dest="theta_max", type=float, default=89.0)
    q.add_argument("--theta-step", dest="theta_step", type=float, default=1.0)
    q.add_argument("--out", default="out")

    q = sub.add_parser("solve", help="run the degenerate-boundary solver")
    q.add_argument("--mode", choices=("model", "linear", "reflection"), default="model")
    add_gas(q)
    q.add_argument("--theta-w", dest="theta_w", type=float, default=60.0)
    q.add_argument("--grid", default="97,49", help="nx,ny")
    q.add_argument("--grade", type=float, default=0.95, help="grading ratio toward x=0 (1 = uniform)")
    q.add_argument("--tol", type=float, default=1e-9)
    q.add_argument("--max-iter", dest="max_iter", type=int, default=SolverOptions.max_iterations)
    q.add_argument("--rhat", type=float, default=0.5)
    q.add_argument("--y-halfwidth", dest="y_halfwidth", type=float, default=1.0)
    q.add_argument("--perturb", type=float, default=0.0, help="cosine amplitude on the outer data")
    q.add_argument("--a", type=float, default=_DEFAULT_A)
    q.add_argument("--b", type=float, default=_DEFAULT_B)
    q.add_argument("--eps-frac", dest="eps_frac", type=float, default=0.05, help="eps as fraction of c2 (reflection mode)")
    q.add_argument("--out", default="out")
    q.add_argument("--out-name", dest="out_name", default="grid.srl")
    q.add_argument("--format", choices=("bin", "csv", "json"), default="bin")

    q = sub.add_parser("verify", help="run verification checks against grids/configs")
    q.add_argument("--what", choices=("barriers", "rh", "regularity"), required=True)
    q.add_argument("--grid", default="")
    q.add_argument("--config", default="")
    q.add_argument("--out", default="out")
    return p


# main's parser, built on its first call: it is static, and building it
# takes about 1 ms, a tenth of a 40-angle sweep
_parser = None


def main(argv=None) -> int:
    """Run one command; the parser is built once per process.

    The command runs as cmd_<command>, looked up in this module at call time,
    so a wrapper installed over it after the first call is the one reached.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except _Refused as exc:
        message, code = str(exc), 2
    except (NoConvergence, EllipticityLoss, ShockConditionDiverged) as exc:
        message, code = f"solver failed: {exc}", 3
    except (SrlabError, ValueError) as exc:
        message, code = f"configuration failed: {exc}", 2
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
