"""Regularity measurements on converged fields.

Power-law fits of the boundary layer, extrapolation of second derivatives to
the degenerate edge, the parabolic-scaling norm, the sonic jump, and the
two-family probe at the shock/sonic meeting point.  One edge table
(sonic_limit_estimate), one least-squares solve over every station up to the
shock row, serves the sonic limits, the jump and both families of the probe.
"""

import numpy as np

from .errors import InsufficientResolution, NonpositiveSamples
from .grids import ScalarField2D, _write_csv
from .solver import _JET, _ORDERS, _strip_geometry

__all__ = [
    "fit_power_law",
    "limit_at_zero",
    "sonic_limit_estimate",
    "parabolic_norm",
    "jump_estimate",
    "two_sequence_probe",
    "write_station_trace_csv",
    "full_report",
]


def _ordinates(field):
    """Physical ordinate y at every node (s*fhat on the strip)."""
    if field.kind == "rect":
        return np.broadcast_to(field.ys[None, :], field.values.shape)
    fh, _, _, s = _strip_geometry(field)
    return s * fh


def fit_power_law(field: ScalarField2D, y_station: float):
    """Least-squares exponent of psi ~ c x^p along one y-station.

    The fit window is [4*x_1, rhat/4], x_1 the first node past the edge and
    rhat the last, clipping both graded extremes.
    Returns (p, c, rms of the log-log fit).
    """
    xs = field.xs
    j = int(np.argmin(np.abs(field.ys - y_station)))
    window = (4.0 * xs[1], xs[-1] / 4.0)
    mask = (xs >= window[0]) & (xs <= window[1]) & (xs > 0.0)
    if np.count_nonzero(mask) < 8:
        raise InsufficientResolution(
            f"power-law window [{window[0]:.3g}, {window[1]:.3g}] holds "
            f"{np.count_nonzero(mask)} nodes, need >= 8"
        )
    vals = field.values[mask, j]
    if np.any(vals <= 0.0):
        raise NonpositiveSamples("nonpositive field values in the fit window")
    lx, lv = np.log(xs[mask]), np.log(vals)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    sol, *_ = np.linalg.lstsq(A, lv, rcond=None)
    p, logc = sol
    rms = float(np.sqrt(np.mean((A @ sol - lv) ** 2)))
    return float(p), float(np.exp(logc)), rms


# edge fits: the _EDGE_SAMPLES smallest-x samples after skipping the
# _EDGE_SKIP noisiest first columns
_EDGE_SAMPLES, _EDGE_SKIP = 6, 1


def limit_at_zero(xs, vals):
    """Extrapolate column-sampled quantities to x = 0 by a linear fit in x.

    Uses the _EDGE_SAMPLES smallest-x samples after dropping the _EDGE_SKIP
    noisiest first columns.  vals is (n,) or (n, m); the m columns share one
    design matrix, so one least-squares solve fits them all.  Returns the
    limit: a scalar for 1-D vals, an (m,) array otherwise.
    """
    xs = np.asarray(xs, dtype=float)
    k, skip = _EDGE_SAMPLES, _EDGE_SKIP
    if xs.size < skip + k:
        raise InsufficientResolution(f"need {skip + k} near-edge samples, have {xs.size}")
    sl = slice(skip, skip + k)
    A = np.stack([np.ones(k), xs[sl]], axis=1)
    sol, *_ = np.linalg.lstsq(A, np.asarray(vals, dtype=float)[sl], rcond=None)
    return sol[0]


def sonic_limit_estimate(field: ScalarField2D, d) -> dict:
    """Edge limits of psi_xx, psi_xy, psi_yy, 2*psi/x^2 and psi_x/x per y-station.

    Second differences are taken at decreasing x and extrapolated to x = 0.
    The table holds stations 1..ny-1, so on the strip its last entry is the
    shock row; station j is entry j - 1 of each list.  Every station of
    every quantity goes through one least-squares solve.  The direct ratio
    2*psi/x^2 is an independent consistency channel for psi_xx.  d is the
    field's derivative pass (derivative_fields).
    """
    xs = field.xs
    if np.count_nonzero((xs > 0.0) & (xs < xs[-1] / 100.0)) < 4:
        raise InsufficientResolution(
            "need at least 4 graded columns below rhat/100 for edge extrapolation"
        )
    xs = xs[1:-1]
    x, sl = xs[:, None], np.s_[1:-1, 1:]
    cols = {"psi_xx": d["pxx"][sl], "psi_xy": d["pxy"][sl], "psi_yy": d["pyy"][sl],
            "ratio_2psi_x2": 2.0 * field.values[sl] / x ** 2, "psi_x_over_x": d["px"][sl] / x}
    lims = limit_at_zero(xs, np.concatenate(list(cols.values()), axis=1)).reshape(len(cols), -1)
    out = {"stations_index": list(range(1, field.ny)), "k": _EDGE_SAMPLES, "skip": _EDGE_SKIP,
           "stations_y": _ordinates(field)[0, 1:].tolist()}
    out.update(zip(cols, lims.tolist()))
    return out


def parabolic_norm(field: ScalarField2D, d):
    """Sum over derivative orders of sup x^(k+l/2-2) |D^(k,l) psi| on the interior.

    Every interior node counts; on the strip the cut column carries the
    surrogate's slope, so no boundary kink needs excluding.  d is the
    field's derivative pass.
    """
    x = field.xs[1:-1, None]
    breakdown = {name: float(np.max(x ** (kk + ll / 2.0 - 2.0) * np.abs(d[name][1:-1, 1:-1])))
                 for name, (kk, ll) in zip(_JET, _ORDERS)}
    return float(sum(breakdown.values())), breakdown


def jump_estimate(field: ScalarField2D, limits: dict):
    """Jump of the radial second derivative across the degenerate edge.

    The outer side is the uniform state (radial second derivative exactly -1),
    so the jump equals the extrapolated edge limit of psi_xx, averaged over
    the stations at 15-85% of ny.  limits is the field's edge-limit table
    (sonic_limit_estimate).  Returns (jump, details).
    """
    sl = slice(max(1, int(0.15 * field.ny)) - 1, max(2, int(0.85 * field.ny)) - 1)  # station j is entry j - 1
    vals = np.asarray(limits["psi_xx"][sl])
    return float(np.mean(vals)), {
        "per_station": limits["psi_xx"][sl],
        "spread": float(np.max(vals) - np.min(vals)),
        "stations_y": limits["stations_y"][sl],
        "consistency_2psi_x2": limits["ratio_2psi_x2"][sl],
    }


def two_sequence_probe(field: ScalarField2D, limits: dict) -> dict:
    """Second-derivative limits along two families approaching the shock/sonic corner.

    Both families are read from the field's edge-limit table `limits`
    (sonic_limit_estimate).  Family 1 stays near the degenerate edge at the
    stations at 70-93% of ny; family 2 is the shock row's own entry, the
    table's last, and psi_x/x is read from the same entry.  The shock row is
    the straight-shock surrogate, so that channel is labeled accordingly; it
    is informational, not a gate.
    """
    if field.kind != "sonic_strip":
        raise ValueError("two-sequence probe requires a shock-fitted strip field")
    ny = field.ny
    sonic_vals = limits["psi_xx"][int(0.70 * ny) - 1:int(0.93 * ny) - 1]  # station j is entry j - 1
    if not sonic_vals:
        raise InsufficientResolution(f"no station at 70-93% of ny = {ny} for the two-family probe")
    sonic_limit = float(np.mean(sonic_vals))
    shock_limit = limits["psi_xx"][-1]
    return {
        "sonic_adjacent_limit": sonic_limit,
        "sonic_adjacent_per_station": sonic_vals,
        "shock_adjacent_limit": shock_limit,
        "gap": sonic_limit - shock_limit,
        "psi_x_over_x_at_shock_limit": limits["psi_x_over_x"][-1],
        "channel_label": "surrogate-boundary",
    }


def write_station_trace_csv(field: ScalarField2D, path, digest: str, d, fit: dict) -> None:
    """Export (x, y, psi, psi_x, psi_xx, fitted) along the middle y-station.

    d is the field's derivative pass and fit the report's power fit at that
    station (full_report's power_fits[0]); a failed fit writes NaN.
    """
    j = field.ny // 2
    fitted = fit["c"] * field.xs ** fit["p"] if "p" in fit else np.full_like(field.xs, np.nan)
    cols = (field.xs, _ordinates(field)[:, j], field.values[:, j], d["px"][:, j], d["pxx"][:, j], fitted)
    _write_csv(path, ("x", "y", "psi", "psi_x", "psi_xx", "fitted"), cols, digest)


def full_report(field: ScalarField2D, d) -> dict:
    """Every regularity diagnostic of a field, as the dict verify writes.

    The power law is fitted once, at the middle y-station.  d is the field's
    derivative pass; one edge-limit table, stations 1..ny-1 in one fit,
    serves the sonic limits, the jump and the two-family probe.  A
    diagnostic the grid cannot resolve records {"error": ...} in place of
    its result.
    """
    rep = {
        "grid": {"nx": field.nx, "ny": field.ny, "kind": field.kind, "xmax": float(field.xs[-1])},
        "power_fits": [], "sonic_limits": {}, "parabolic_norm_value": None,
        "parabolic_breakdown": {}, "jump": None, "jump_details": {}, "two_sequence": {},
    }
    st = float(field.ys[field.ny // 2])
    try:
        p, c, rms = fit_power_law(field, st)
        rep["power_fits"].append({"station": st, "p": p, "c": c, "rms": rms})
    except (NonpositiveSamples, InsufficientResolution) as exc:
        rep["power_fits"].append({"station": st, "error": str(exc)})
    try:
        limits = rep["sonic_limits"] = sonic_limit_estimate(field, d)
    except InsufficientResolution as exc:
        rep["sonic_limits"] = {"error": str(exc)}
    else:
        rep["jump"], rep["jump_details"] = jump_estimate(field, limits)
        if field.kind == "sonic_strip":
            try:
                rep["two_sequence"] = two_sequence_probe(field, limits)
            except InsufficientResolution as exc:
                rep["two_sequence"] = {"error": str(exc)}
    rep["parabolic_norm_value"], rep["parabolic_breakdown"] = parabolic_norm(field, d)
    return rep
