"""Regularity measurements on converged fields.

Power-law fits of the boundary layer, extrapolation of second derivatives to
the degenerate edge, the parabolic-scaling norm, decay-ladder constants, the
sonic jump, and the two-family probe at the shock/sonic meeting point.
"""

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InsufficientResolution, NonpositiveSamples
from .grids import ScalarField2D
from .solver import derivative_fields

__all__ = [
    "fit_power_law",
    "limit_at_zero",
    "richardson_triplet",
    "sonic_limit_estimate",
    "parabolic_norm",
    "decay_bound_check",
    "jump_estimate",
    "two_sequence_probe",
    "RegularityReport",
]


def fit_power_law(field: ScalarField2D, y_station: float, window=None):
    """Least-squares exponent of psi ~ c x^p along one y-station.

    window defaults to [4*x_min, rhat/4], clipping both graded extremes.
    Returns (p, c, rms of the log-log fit).
    """
    xs = field.xs
    j = int(np.argmin(np.abs(field.ys - y_station)))
    if window is None:
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


def limit_at_zero(xs, vals, k: int = 6, skip: int = 1):
    """Extrapolate a column-sampled quantity to x = 0 by a linear fit in x.

    Uses the k smallest-x samples after dropping `skip` noisiest first
    columns.  Returns (limit, slope, rms).
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if xs.size < skip + k:
        raise InsufficientResolution(f"need {skip + k} near-edge samples, have {xs.size}")
    sl = slice(skip, skip + k)
    A = np.stack([np.ones(k), xs[sl]], axis=1)
    sol, *_ = np.linalg.lstsq(A, vals[sl], rcond=None)
    rms = float(np.sqrt(np.mean((A @ sol - vals[sl]) ** 2)))
    return float(sol[0]), float(sol[1]), rms


def richardson_triplet(coarse, mid, fine, ratio: float = 2.0):
    """Extrapolate a grid triplet; the order is measured, not assumed.

    Returns (extrapolated, measured_order).  Falls back to the finest value
    (order inf) when the differences sit at round-off.
    """
    d1, d2 = mid - coarse, fine - mid
    scale = max(abs(coarse), abs(mid), abs(fine), 1e-300)
    if abs(d2) < 1e-12 * scale or abs(d1) <= abs(d2):
        return float(fine), float("inf")
    p = np.log(abs(d1 / d2)) / np.log(ratio)
    extrap = fine + d2 / (ratio**p - 1.0)
    return float(extrap), float(p)


def _resolution_check(field):
    xs = field.xs
    if np.count_nonzero((xs > 0.0) & (xs < xs[-1] / 100.0)) < 4:
        raise InsufficientResolution(
            "need at least 4 graded columns below rhat/100 for edge extrapolation"
        )


def sonic_limit_estimate(field: ScalarField2D, stations=None, k: int = 6, skip: int = 1, d=None) -> dict:
    """Edge limits of psi_xx, psi_xy, psi_yy per y-station, plus 2*psi/x^2.

    Second differences are taken at decreasing x and extrapolated to x = 0
    station by station; the direct ratio 2*psi/x^2 is reported as an
    independent consistency channel.  d is the field's derivative pass
    (derivative_fields), computed here when not given.
    """
    _resolution_check(field)
    d = derivative_fields(field) if d is None else d
    ny = field.ny
    if stations is None:
        stations = np.arange(1, ny - 1)
    stations = np.asarray(stations, dtype=int)
    xs = field.xs[1:-1]
    out = {"stations_index": stations.tolist(), "k": k, "skip": skip}
    if field.kind == "rect":
        out["stations_y"] = [float(field.ys[j]) for j in stations]
    else:
        f0 = field.geometry["fhat"][0]
        out["stations_y"] = [float(field.ys[j] * f0) for j in stations]
    for name, arr in (("psi_xx", d["pxx"]), ("psi_xy", d["pxy"]), ("psi_yy", d["pyy"])):
        lims = [limit_at_zero(xs, arr[1:-1, j], k, skip)[0] for j in stations]
        out[name] = lims
    ratio = 2.0 * field.values[1:-1, :] / field.xs[1:-1, None] ** 2
    out["ratio_2psi_x2"] = [limit_at_zero(xs, ratio[:, j], k, skip)[0] for j in stations]
    return out


def _station_rows(table, stations, k, skip):
    """The rows of a sonic_limit_estimate table at the given stations, or None without a table."""
    if table is None:
        return None
    if (table["k"], table["skip"]) != (k, skip):
        raise ValueError("the edge-limit table was fitted with another k or skip")
    row = {j: n for n, j in enumerate(table["stations_index"])}
    return {key: [table[key][row[j]] for j in stations] for key in ("stations_y", "psi_xx", "ratio_2psi_x2")}


_PAR_TERMS = (
    ("psi", 0, 0), ("px", 1, 0), ("py", 0, 1),
    ("pxx", 2, 0), ("pxy", 1, 1), ("pyy", 0, 2),
)


def parabolic_norm(field: ScalarField2D, d=None):
    """Sum over derivative orders of sup x^(k+l/2-2) |D^(k,l) psi| on the interior.

    Every interior node counts; on the strip the cut column carries the
    surrogate's slope, so no boundary kink needs excluding.  d is the
    field's derivative pass, computed here when not given.
    """
    d = derivative_fields(field) if d is None else d
    x = field.xs[1:-1, None]
    breakdown = {}
    for name, kk, ll in _PAR_TERMS:
        w = x ** (kk + ll / 2.0 - 2.0)
        breakdown[name] = float(np.max(w * np.abs(d[name][1:-1, 1:-1])))
    return float(sum(breakdown.values())), breakdown


def decay_bound_check(wfield: ScalarField2D, alpha: float):
    """Smallest ladder constants C with |D^(i,j) W| <= C x^(2+alpha-i-j/2)."""
    d = derivative_fields(wfield)
    x = wfield.xs[1:-1, None]
    out = {}
    for name, i, j in _PAR_TERMS:
        w = x ** -(2.0 + alpha - i - j / 2.0)
        out[f"C{i}{j}"] = float(np.max(w * np.abs(d[name][1:-1, 1:-1])))
    return out


def jump_estimate(field: ScalarField2D, stations=None, k: int = 6, skip: int = 1, table=None):
    """Jump of the radial second derivative across the degenerate edge.

    The outer side is the uniform state (radial second derivative exactly -1),
    so the jump equals the extrapolated edge limit of psi_xx.  table, a
    sonic_limit_estimate of the field covering the stations, saves refitting
    them.  Returns (jump, details).
    """
    if stations is None:
        lo, hi = int(0.15 * field.ny), int(0.85 * field.ny)
        stations = np.arange(max(1, lo), max(2, hi))
    est = _station_rows(table, stations, k, skip) or sonic_limit_estimate(field, stations, k, skip)
    vals = np.asarray(est["psi_xx"])
    return float(np.mean(vals)), {
        "per_station": est["psi_xx"],
        "spread": float(np.max(vals) - np.min(vals)),
        "stations_y": est["stations_y"],
        "consistency_2psi_x2": est["ratio_2psi_x2"],
    }


def _bilinear(field_vals, xs, ys, xq, yq):
    i = np.clip(np.searchsorted(xs, xq) - 1, 0, xs.size - 2)
    j = np.clip(np.searchsorted(ys, yq) - 1, 0, ys.size - 2)
    tx = (xq - xs[i]) / (xs[i + 1] - xs[i])
    ty = (yq - ys[j]) / (ys[j + 1] - ys[j])
    return (
        field_vals[i, j] * (1 - tx) * (1 - ty)
        + field_vals[i + 1, j] * tx * (1 - ty)
        + field_vals[i, j + 1] * (1 - tx) * ty
        + field_vals[i + 1, j + 1] * tx * ty
    )


def two_sequence_probe(field: ScalarField2D, omega: float | None = None, k: int = 6, skip: int = 1,
                       d=None, table=None) -> dict:
    """Second-derivative limits along two families approaching the shock/sonic corner.

    Family 1 stays near the degenerate edge at stations close to the corner
    ordinate; family 2 follows the shock image at offset (omega/10)x.  The
    shock-adjacent channel rides the straight-shock surrogate and is labeled
    accordingly; it is informational, not a gate.  d (the derivative pass)
    and table (a sonic_limit_estimate covering the corner stations) are
    computed here when not given.
    """
    if field.kind != "sonic_strip":
        raise ValueError("two-sequence probe requires a shock-fitted strip field")
    _resolution_check(field)
    d = derivative_fields(field) if d is None else d
    fh = np.asarray(field.geometry["fhat"])
    g = np.asarray(field.geometry["g"])
    fhp = g * fh
    if omega is None:
        omega = float(np.min(fhp))
        if omega <= 0.0:
            raise ValueError("measured shock-image slope is not positive")

    ny = field.ny
    corners = np.arange(int(0.70 * ny), int(0.93 * ny))
    est = _station_rows(table, corners, k, skip) or sonic_limit_estimate(field, corners, k, skip, d)
    sonic_vals = np.asarray(est["psi_xx"])
    sonic_limit = float(np.mean(sonic_vals))

    # shock-adjacent family (x_m, fhat(x_m) - (omega/10) x_m)
    xs = field.xs
    sel = np.arange(2, xs.size - 1, max(1, xs.size // 24))
    xq = xs[sel]
    sq = 1.0 - (omega / 10.0) * xq / fh[sel]
    pxx_q = _bilinear(d["pxx"], xs, field.ys, xq, sq)
    order = np.argsort(xq)
    xq, pxx_q = xq[order], pxx_q[order]
    kk = min(k, xq.size - 1)
    shock_limit, slope, rms = limit_at_zero(xq, pxx_q, k=kk, skip=0)

    # psi_x / x along the shock row
    px_row = d["px"][1:-1, -1]
    ratio = px_row / xs[1:-1]
    ratio_limit, _, _ = limit_at_zero(xs[1:-1], ratio, k, skip=skip)

    return {
        "sonic_adjacent_limit": sonic_limit,
        "sonic_adjacent_per_station": sonic_vals.tolist(),
        "shock_adjacent_limit": float(shock_limit),
        "shock_adjacent_samples_x": xq.tolist(),
        "shock_adjacent_samples_pxx": pxx_q.tolist(),
        "gap": float(sonic_limit - shock_limit),
        "psi_x_over_x_at_shock_limit": float(ratio_limit),
        "omega": float(omega),
        "channel_label": "surrogate-boundary",
    }


@dataclass
class RegularityReport:
    """Aggregate of the diagnostics run on one field, JSON-serializable."""

    grid: dict
    power_fits: list = dc_field(default_factory=list)
    sonic_limits: dict = dc_field(default_factory=dict)
    parabolic_norm_value: float | None = None
    parabolic_breakdown: dict = dc_field(default_factory=dict)
    jump: float | None = None
    jump_details: dict = dc_field(default_factory=dict)
    two_sequence: dict = dc_field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=1, default=float)


def write_station_trace_csv(field: ScalarField2D, path, y_station: float | None = None,
                            digest: str | None = None, d=None) -> None:
    """Export (x, y, psi, psi_x, psi_xx, fitted) along one y-station; d is the derivative pass if known."""
    d = derivative_fields(field) if d is None else d
    j = field.ny // 2 if y_station is None else int(np.argmin(np.abs(field.ys - y_station)))
    try:
        p, c, _ = fit_power_law(field, field.ys[j])
        fitted = c * field.xs**p
    except (NonpositiveSamples, InsufficientResolution):
        fitted = np.full_like(field.xs, np.nan)
    if field.kind == "rect":
        yval = np.full_like(field.xs, field.ys[j])
    else:
        yval = field.ys[j] * np.asarray(field.geometry["fhat"])
    with open(path, "w", encoding="ascii") as fh:
        if digest is not None:
            fh.write(f"# runconfig_digest={digest}\n")
        fh.write("x,y,psi,psi_x,psi_xx,fitted\n")
        for i in range(field.nx):
            row = (field.xs[i], yval[i], field.values[i, j], d["px"][i, j], d["pxx"][i, j], fitted[i])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def full_report(field: ScalarField2D, fit_stations=None, d=None) -> RegularityReport:
    """Every regularity diagnostic of a field, on one derivative pass.

    d is the field's derivative pass, computed here when not given.  The
    jump and the sonic-adjacent limit are read from the one per-station
    edge-limit table of sonic_limit_estimate.
    """
    d = derivative_fields(field) if d is None else d
    rep = RegularityReport(
        grid={"nx": field.nx, "ny": field.ny, "kind": field.kind,
              "xmax": float(field.xs[-1])}
    )
    if fit_stations is None:
        fit_stations = [field.ys[field.ny // 2]]
    for st in fit_stations:
        try:
            p, c, rms = fit_power_law(field, st)
            rep.power_fits.append({"station": float(st), "p": p, "c": c, "rms": rms})
        except (NonpositiveSamples, InsufficientResolution) as exc:
            rep.power_fits.append({"station": float(st), "error": str(exc)})
    try:
        rep.sonic_limits = sonic_limit_estimate(field, d=d)
        rep.jump, rep.jump_details = jump_estimate(field, table=rep.sonic_limits)
    except InsufficientResolution as exc:
        rep.sonic_limits = {"error": str(exc)}
    val, br = parabolic_norm(field, d)
    rep.parabolic_norm_value = val
    rep.parabolic_breakdown = br
    if field.kind == "sonic_strip" and "error" not in rep.sonic_limits:  # same resolution check
        rep.two_sequence = two_sequence_probe(field, d=d, table=rep.sonic_limits)
    return rep
