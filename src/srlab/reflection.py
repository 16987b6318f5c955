"""Reflected-state algebra and the local geometry of the reflection.

Solves for the uniform state behind the straight reflected shock, locates the
sonic circle and the points where it meets the shock and the wedge, and
provides the sonic coordinate chart (x, y) = (c2 - r, theta - theta_w) used by
the near-boundary solver and diagnostics.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CenterSingularity,
    NoRegularReflection,
    NoSonicIntersection,
    NotSupersonicAtP0,
    OutOfRange,
    SrlabError,
)
from .states import GasParameters, UniformState, bernoulli_density, incident_shock, sound_speed

__all__ = [
    "WedgeGeometry",
    "ReflectionConfiguration",
    "solve_state2",
    "solve_state2_many",
    "to_sonic_coords",
    "shock_chart_table",
    "shock_depth_max",
    "detachment_angle",
]


@dataclass(frozen=True)
class WedgeGeometry:
    """Half-plane flow domain outside the wedge {eta > xi tan(theta_w), xi > 0}."""

    theta_w: float

    def __post_init__(self):
        if not 0.0 < self.theta_w < np.pi / 2:
            raise ValueError(f"theta_w must lie in (0, pi/2), got {self.theta_w}")


@dataclass(frozen=True)
class ReflectionConfiguration:
    """Converged reflected-state data for one branch of the algebra."""

    gas: GasParameters
    theta_w: float
    u1: float
    xi0: float
    state2: UniformState
    c2: float
    P0: tuple
    P1: tuple
    P4: tuple
    s1_direction: tuple
    branch: str
    supersonic_at_P0: bool

    @property
    def u2(self) -> float:
        return self.state2.u

    @property
    def v2(self) -> float:
        return self.state2.v

    @property
    def rho2(self) -> float:
        return self.state2.rho

    @property
    def center(self):
        return np.array([self.u2, self.v2])

    @property
    def xi1(self) -> float:
        return self.P1[0]

    @property
    def eta1(self) -> float:
        return self.P1[1]

    @property
    def y1(self) -> float:
        """Angular offset of P1 in the sonic chart."""
        return to_sonic_coords(self, self.P1)[1]

    def residuals(self) -> dict:
        """Normalized mass-flux and potential-continuity residuals at 7 points of the shock line."""
        rh, cont = _shock_line_residuals([self])
        return {"rh": float(rh[0]), "continuity": float(cont[0])}

    def to_json(self) -> str:
        d = {
            "gamma": self.gas.gamma,
            "rho0": self.gas.rho0,
            "rho1": self.gas.rho1,
            "theta_w": self.theta_w,
            "u1": self.u1,
            "xi0": self.xi0,
            "u2": self.state2.u,
            "v2": self.state2.v,
            "k2": self.state2.k,
            "rho2": self.state2.rho,
            "c2": self.c2,
            "P0_xi": self.P0[0],
            "P0_eta": self.P0[1],
            "P1_xi": self.P1[0],
            "P1_eta": self.P1[1],
            "P4_xi": self.P4[0],
            "P4_eta": self.P4[1],
            "s1_dir_xi": self.s1_direction[0],
            "s1_dir_eta": self.s1_direction[1],
            "branch": self.branch,
            "supersonic_at_P0": self.supersonic_at_P0,
        }
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ReflectionConfiguration":
        """The configuration of a to_json text, rebuilt from its gas, theta_w, state (2) and branch.

        The other keys (u1, xi0, c2, the points, ...) are derived, written for
        readers of the file; they are recomputed here, not read.
        """
        d = json.loads(text)
        gas = GasParameters(d["gamma"], d["rho0"], d["rho1"])
        theta_w = WedgeGeometry(d["theta_w"]).theta_w
        st2 = UniformState(d["u2"], d["v2"], d["k2"], d["rho2"])
        if d["branch"] not in ("weak", "strong", "unlabeled"):
            raise ValueError(f"branch must be weak, strong or unlabeled, got {d['branch']!r}")
        (cfg,) = _configurations(gas, *np.array([[theta_w], [st2.u], [st2.v], [st2.k], [st2.rho]]), [d["branch"]])
        if isinstance(cfg, SrlabError):
            raise cfg
        return cfg


def _state2_of_u2(gas, xi0, tanw, u2):
    """(v2, k2, rho2) of the uniform state (2) forced by the wedge slip condition
    and the shared Bernoulli constant, elementwise in tanw and u2; rho2 is NaN
    past the vacuum bound."""
    v2 = u2 * tanw
    k2 = -xi0 * u2 * (1.0 + tanw * tanw)
    rho2 = bernoulli_density(gas, gas.rho0, k2 + 0.5 * (u2 * u2 + v2 * v2))
    # under- or overflowed: past the vacuum bound in floating point
    return v2, k2, np.where((0.0 < rho2) & (rho2 < np.inf), rho2, np.nan)


def _u_vacuum(gas, xi0, tanw):
    """Largest u2 with a positive Bernoulli argument, elementwise in tanw.

    Isothermal densities stay positive; their scan stops at a fixed 4*xi0.
    """
    if gas.isothermal:
        return np.full(np.shape(tanw), 4.0 * xi0)
    g = gas.gamma
    s = 1.0 + tanw * tanw
    a = 0.5 * (g - 1.0) * s
    b = -(g - 1.0) * s * xi0
    c = -gas.rho0 ** (g - 1.0)
    return (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


def _flux_residual(gas, xi0, u1, tanw, u2):
    """Mass-flux mismatch across the line {phi1 = phi2}, evaluated at P0.

    The line's normal is proportional to (u1-u2, -v2) because both potentials
    share the quadratic part, and the mismatch is constant along the line, so
    one point decides.  Elementwise in the wedge slope tanw and in u2 > 0,
    which broadcast together; NaN past the vacuum bound.
    """
    v2, _, rho2 = _state2_of_u2(gas, xi0, tanw, u2)
    w0, w1 = u1 - u2, -v2
    # the (state-1, state-2) offsets from P0 dotted with w, each a written-out
    # two-term sum: it rounds the same on every BLAS build
    dot1 = (u1 - xi0) * w0 + (-xi0 * tanw) * w1
    dot2 = (u2 - xi0) * w0 + (v2 - xi0 * tanw) * w1
    return (gas.rho1 * dot1 - rho2 * dot2) / np.hypot(w0, w1)


# the u2 scan of every wedge angle, for solve_state2 and detachment_angle
# alike, as fractions of its top point u_hi: 1000 linear points and a 45-point
# geometric tail, sorted, read-only.  Sorted, not deduplicated: a repeated
# point holds no sign change, and a repeated zero collapses with the other
# near-duplicate roots.  Scaling by a positive u_hi keeps the order.
_SCAN = np.sort(np.concatenate([np.linspace(1.0 / 1000, 1.0, 1000), np.logspace(-14, -3, 45)]))
_SCAN.flags.writeable = False

# wedge angles per block of a u2 scan: an 8 x 1045 block keeps each of the
# scan's ~20 temporaries at 67 kB, inside a 2 MB L2 cache, where 79 angles
# at once make 660 kB ones (a 79-angle scan on a 2-core Xeon: 7.0 ms whole,
# 5.3 ms in blocks of 4, 4.1 ms in blocks of 8 or 16, 4.3 ms in blocks of 32)
_SCAN_LANES = 8

# grid offsets of a bracket's triple (c, a, b) from a
_BEFORE_AT_AFTER = np.array([[-1], [0], [1]])


def _brackets(gas, xi0, u1, tanw):
    """Sign-change brackets of the flux residual in u2, for each wedge slope in tanw.

    Each slope's u2 grid is _SCAN scaled by its u_hi, just below the vacuum
    bound: points linear between 0 and u_hi plus a geometric tail toward 0
    that captures the weak root for near-normal wedges.  Returns
    (u_hi, lane, x, fx): bracket k lies on slope lane[k], and the brackets of
    one slope come in ascending u2.
    x[:, k] holds three consecutive grid points (c, a, b), the bracket [a, b]
    and the point before it (a itself at the grid's first point), and fx the
    residual there; fb is NaN past the vacuum bound, and fa == 0 marks a grid
    point that is itself a root.  The slopes are scanned _SCAN_LANES at a
    time; the scan is elementwise per slope, so the blocks change no bracket.
    """
    u_hi = _u_vacuum(gas, xi0, tanw) * (1.0 - 1e-12)
    found = []
    for k in range(0, max(len(tanw), 1), _SCAN_LANES):  # no slope still makes one (empty) block
        grid = u_hi[k:k + _SCAN_LANES, None] * _SCAN
        # isothermal densities under- or overflow far along the scan at steep
        # wedges; those points lie past the vacuum bound and read NaN
        with np.errstate(over="ignore", under="ignore"):
            vals = _flux_residual(gas, xi0, u1, tanw[k:k + _SCAN_LANES, None], grid)
            va, vb = vals[:, :-1], vals[:, 1:]  # NaN (past the vacuum bound) compares false
            lane, i = np.nonzero(((va == 0.0) & ~np.isnan(vb)) | (va * vb < 0.0))
        cols = np.maximum(i + _BEFORE_AT_AFTER, 0)
        found.append((lane + k, grid[lane, cols], vals[lane, cols]))
    lane, x, fx = (np.concatenate(part, axis=-1) for part in zip(*found))
    return u_hi, lane, x, fx


_EPS = np.finfo(float).eps


def _refine(f, x, fx):
    """Roots of f in the brackets [a, b] of the triples x = (c, a, b), c <= a < b, one per lane.

    fx = f(x).  A point counts as the a side when its value has fa's sign, and
    as the b side otherwise: the other sign, zero, or NaN past the vacuum
    bound.  fa == 0 marks an a that is itself a root, and that lane returns a.
    f is elementwise and broadcasts against the lanes.

    Every lane takes the steps of a scalar refinement on its own bracket, in
    lockstep, and freezes at its own exit, so a root is bit-equal whether its
    bracket is refined alone or among others.  Chandrupatla's method (Adv.
    Eng. Software 28 (1997) 145-149) shrinks the bracket to a few ulps: its
    next point is the inverse quadratic interpolant of the two ends and the
    point the newest end replaced (at first the scan point c), where that
    triple is finite and the interpolant monotone, and the midpoint otherwise,
    kept at least tol inside the bracket.  Midpoints then take the bracket to
    adjacent floats, and a Newton polish with a relative finite-difference
    slope ends where a step is null or leaves the bracket.  The ends keep
    their sides, so the adjacent floats hold a sign change of the bracket's,
    and where that is its only one the root is the one plain bisection and
    the polish would give.  The polish moves a root by at most an ulp, and
    stays: at steep isothermal wedges (gamma = 1, rho2 above 1e16) one ulp
    of u2 decides whether the strong branch meets the sonic arc.
    """
    # x1 is the newest bracket end, x2 the other one, x3 the point x1 replaced
    x3, a, b = x
    f3, fa, fb = fx
    x1, f1, x2, f2 = a, fa, b, fb
    root_at_a = fa == 0.0
    live = ~root_at_a
    for _ in range(90):
        m = 0.5 * (a + b)
        live &= (m != a) & (m != b)
        if not live.any():
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            monotone = np.isfinite(f1) & np.isfinite(f2) & np.isfinite(f3) & (phi * phi < xi) & \
                ((1.0 - phi) ** 2 < 1.0 - xi)
            iqi = (f1 / (f1 - f2) * f3 / (f3 - f2)
                   - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3))
            # tol is at least 1.5 ulps of either end, so a step of tol leaves
            # x1; a bracket within 3 tol takes midpoints
            tol = 1.5 * _EPS * np.maximum(np.abs(a), np.abs(b))
            t = np.clip(np.where(monotone, iqi, 0.5), tol / (b - a), 1.0 - tol / (b - a))
            xt = np.where(b - a > 3.0 * tol, x1 + t * (x2 - x1), m)
        ft = f(xt)
        bside = ~(fa * ft > 0.0)
        # the end xt replaces becomes x3 (a frozen lane's x1, x2, x3 go unused)
        x3, f3 = np.where(bside, b, a), np.where(bside, fb, fa)
        x2, f2 = np.where(bside, a, b), np.where(bside, fa, fb)
        x1, f1 = xt, ft
        a, fa = np.where(live & ~bside, xt, a), np.where(live & ~bside, ft, fa)
        b, fb = np.where(live & bside, xt, b), np.where(live & bside, ft, fb)
    root = 0.5 * (a + b)
    live = ~root_at_a
    for _ in range(6):
        if not live.any():
            break
        h = 1e-7 * np.maximum(np.abs(root), 1e-8)
        fp, fmn, val = f(np.stack([root + h, root - h, root]))
        deriv = (fp - fmn) / (2.0 * h)
        live &= ~np.isnan(fp) & ~np.isnan(fmn) & (deriv != 0.0) & ~np.isnan(val)
        step = np.divide(val, deriv, out=np.full_like(root, np.nan), where=live)
        new = root - step
        live &= np.isfinite(step) & (new != root)
        live &= ((a <= new) & (new <= b)) | (np.abs(new - root) < 0.25 * (b - a))
        root = np.where(live, new, root)
    return np.where(root_at_a, a, root)


def _solve_lanes(gas, theta_ws):
    """solve_state2 for each angle, as its {"weak", "strong"} dict or its SrlabError."""
    theta_ws = [WedgeGeometry(float(t)).theta_w for t in np.atleast_1d(theta_ws)]
    tanw = np.tan(np.asarray(theta_ws))
    xi0, u1 = incident_shock(gas)

    u_hi, lane, x, fx = _brackets(gas, xi0, u1, tanw)
    f = lambda u2: _flux_residual(gas, xi0, u1, tanw[lane], u2)
    with np.errstate(over="ignore", under="ignore"):
        roots = _refine(f, x, fx)

    # collapse near-duplicates from the overlapping grids, per angle in ascending u2
    kept = [[] for _ in theta_ws]
    tol = (1e-9 * u_hi).tolist()
    order = np.lexsort((roots, lane))
    for k, r in zip(lane[order].tolist(), roots[order].tolist()):
        if not kept[k] or abs(r - kept[k][-1]) > tol[k]:
            kept[k].append(r)
    at = [k for k, rs in enumerate(kept) for _ in rs]
    u2 = np.array([r for rs in kept for r in rs])
    v2, k2, rho2 = _state2_of_u2(gas, xi0, tanw[at], u2)

    # branches by ascending rho2, ties in u2 order: weak is the first least,
    # strong the last largest; a lone root is both, so it takes two lanes,
    # and a middle root is built only for its refusal
    rhos = rho2.tolist()
    lanes, labels, widths, start = [], [], [], 0
    for rs in kept:
        group = range(start, start + len(rs))
        start += len(rs)
        weak = min(group, key=rhos.__getitem__, default=None)
        strong = max(reversed(group), key=rhos.__getitem__, default=None)
        width = len(lanes)
        for j in group:
            tags = [t for t, hit in (("weak", j == weak), ("strong", j == strong)) if hit] or ["unlabeled"]
            lanes += [j] * len(tags)
            labels += tags
        widths.append(len(lanes) - width)
    built = iter(_configurations(gas, np.asarray(theta_ws)[at][lanes], u2[lanes], v2[lanes], k2[lanes],
                                 rho2[lanes], labels))

    results = []
    for theta_w, width in zip(theta_ws, widths):
        if not width:
            results.append(NoRegularReflection(
                f"no reflected-state root for theta_w={np.degrees(theta_w):.4f} deg "
                f"(below the detachment angle for gamma={gas.gamma}, "
                f"rho0={gas.rho0}, rho1={gas.rho1})"
            ))
            continue
        # the angle's lanes run in ascending u2, so its first refusal is the one
        # a root-by-root build would meet
        mine = [next(built) for _ in range(width)]
        refusal = next((c for c in mine if isinstance(c, SrlabError)), None)
        results.append(refusal if refusal is not None else
                       {c.branch: c for c in mine if c.branch != "unlabeled"})
    return results


def _warn_if_subsonic(weak, stacklevel):
    if not weak.supersonic_at_P0:
        warnings.warn(
            f"weak branch at theta_w={np.degrees(weak.theta_w):.4f} deg is subsonic at P0 "
            f"(margin {math.sqrt(_squared_distance(weak.P0, weak.center)) - weak.c2:.3e}); "
            "outside the supersonic regular-reflection regime",
            NotSupersonicAtP0,
            stacklevel=stacklevel + 1,
        )


def solve_state2_many(gas: GasParameters, theta_ws) -> list:
    """solve_state2 at every wedge angle in theta_ws, in one pass.

    Returns, per angle, the {"weak", "strong"} dict or the SrlabError that
    solve_state2 would raise there, and warns NotSupersonicAtP0 for each
    angle whose weak branch is subsonic at P0.  Input errors (an angle
    outside (0, pi/2), an inadmissible incident shock) raise.  One scan
    evaluates every angle's u2 grid, _SCAN_LANES angles at a time, and one
    lockstep refinement (Chandrupatla's method, bisection to adjacent floats,
    a Newton polish; see _refine) takes every bracket to its root; a root is
    bit-equal to the one its bracket gives when refined alone.
    """
    results = _solve_lanes(gas, theta_ws)
    for both in results:
        if isinstance(both, dict):
            _warn_if_subsonic(both["weak"], stacklevel=2)
    return results


def solve_state2(gas: GasParameters, theta_w: float) -> dict:
    """Both branches of the reflected-state algebra for a wedge angle.

    Scans u2 between 0 and the vacuum bound (linear grid plus a geometric
    tail toward 0 that captures the weak root for near-normal wedges), then
    refines each bracketed root by Chandrupatla's method, bisection to
    adjacent floats and a Newton polish, the brackets as lanes of one array.
    Branches are labeled weak/strong by ascending rho2.
    The one-angle case of solve_state2_many: raises what that returns, and
    warns NotSupersonicAtP0 when the weak branch is subsonic at P0.
    """
    (both,) = _solve_lanes(gas, [theta_w])
    if isinstance(both, SrlabError):
        raise both
    _warn_if_subsonic(both["weak"], stacklevel=2)
    return both


# refusal margin of the intersection, in units of eps |P0 - C|^2 (see _configurations)
_ROUNDING = 4.0 * np.finfo(float).eps


def _squared_distance(p, q):
    """|p - q|^2 of two points, as a written-out two-term sum."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    return dx * dx + dy * dy


def _configurations(gas, theta_w, u2, v2, k2, rho2, branch) -> list:
    """The ReflectionConfiguration of each lane of state-(2) data, or the SrlabError that refuses it.

    theta_w, u2, v2, k2 and rho2 are 1-D arrays over the lanes, branch a label
    per lane.  c2, P0, the shock direction oriented from P0 toward the sonic
    center C = (u2, v2), the supersonic flag, P1 and P4 are computed
    elementwise, every dot product and norm a written-out two-term sum, so
    they round the same on every BLAS build and for any number of lanes.

    P1 is where the shock line P0 + t tau, t > 0, meets the sonic circle above
    the wedge: t = -b -+ sqrt(disc), with b = (P0 - C).tau <= 0 and
    disc = b^2 - |P0 - C|^2 + c2^2 = (c2 - d)(c2 + d), d = |(P0 - C) x tau|
    the line's distance from C.  The product form, and the near root taken as
    (|P0 - C|^2 - c2^2)/(-b + sqrt(disc)), are free of cancellation (b^2 and
    |P0 - C|^2 - c2^2 are about 6989 at gamma 1.4, 89 deg, where disc is 0.9).
    The margins allow disc, and the chart gap c2^2 - beta0^2 = d^2 that
    _chart_params reads at P1, an absolute error of eps |P0 - C|^2.  That
    error moves t by about eps |P0 - C|^2 / (2 sqrt(disc)) >= eps |P0 - C|^2 / (2 c2),
    and so P1's angle about C by about eps |P0 - C|^2 / c2^2.  Inside that
    rounding the last bit of the data picks the side, so a candidate no
    further above the wedge than _ROUNDING |P0 - C|^2 / c2^2 counts as below it
    (NoSonicIntersection), and _chart_params refuses a gap no larger than
    _ROUNDING |P0 - C|^2 (CenterSingularity).
    """
    xi0, u1 = incident_shock(gas)
    c2 = sound_speed(rho2, gas)
    x0, y0 = xi0, xi0 * np.tan(theta_w)
    m0, m1 = x0 - u2, y0 - v2  # P0 - C
    m2 = m0 * m0 + m1 * m1
    supersonic = np.sqrt(m2) > c2

    # shock-line direction tau, normal to (u1 - u2, -v2) and oriented from P0
    # toward C: of the unit normals +-e, e = (v2, u1 - u2) / |e|, the one with
    # (P0 - C).tau <= 0; a sign flip is exact, so that product is -|(P0 - C).e|
    w = u1 - u2
    norm = np.sqrt(w * w + v2 * v2)
    e0, e1 = v2 / norm, w / norm
    b = m0 * e0 + m1 * e1
    side = np.copysign(1.0, -b)  # -1 where b >= 0 (a -0.0 b, two -0.0 products, reads as negative)
    t0, t1, nb = side * e0, side * e1, np.abs(b)

    c2sq = c2 * c2
    d = np.abs(m0 * e1 - m1 * e0)
    disc = (c2 - d) * (c2 + d)
    sq = np.sqrt(np.maximum(disc, 0.0))  # NaN stays NaN: a lane past the vacuum bound
    far = nb + sq  # rows of t: the near candidate |b| - sqrt(disc) (0 where both terms are) and the far one
    t = np.stack([np.divide(m2 - c2sq, far, out=nb - sq, where=far > 0.0), far])
    px, py = x0 + t * t0, y0 + t * t1
    above = (t > 0.0) & (np.arctan2(py - v2, px - u2) - theta_w > _ROUNDING * m2 / c2sq)
    P4x, P4y = u2 + c2 * np.cos(theta_w), v2 + c2 * np.sin(theta_w)

    out = []
    lanes = zip(branch, *(a.tolist() for a in (theta_w, u2, v2, k2, rho2, c2, y0, t0, t1, supersonic, disc, P4x, P4y)),
                *px.tolist(), *py.tolist(), *above.tolist())
    for label, theta, u, v, k, rho, c, eta0, s0, s1, sup, d, *P4, x_near, x_far, y_near, y_far, near, far in lanes:
        st2 = UniformState(u=u, v=v, k=k, rho=rho)
        if d < 0.0:
            out.append(NoSonicIntersection(f"shock line misses the sonic circle (discriminant {d:.3e})"))
        elif not (near or far):
            out.append(NoSonicIntersection("no intersection of the shock line with the sonic arc above the wedge"))
        else:
            out.append(ReflectionConfiguration(
                gas=gas, theta_w=theta, u1=u1, xi0=xi0, state2=st2, c2=c, P0=(xi0, eta0),
                P1=(x_near, y_near) if near else (x_far, y_far), P4=tuple(P4), s1_direction=(s0, s1),
                branch=label, supersonic_at_P0=sup,
            ))
    return out


# arclength offsets from P0 of the shock-line samples that residuals() checks
_SHOCK_SAMPLES = np.linspace(-1.0, 1.0, 7)


def _shock_line_residuals(configs):
    """(rh, continuity) arrays of ReflectionConfiguration.residuals over the configurations.

    Each configuration is one lane of 7 samples of its shock line through P0;
    every dot product and norm is a written-out two-term sum, so the residuals
    round the same on every BLAS build and for any number of lanes.
    """
    lanes = np.array([(c.gas.rho1, c.u1, -c.u1 * c.xi0, c.rho2, c.u2, c.v2, c.state2.k, *c.P0, *c.s1_direction)
                      for c in configs], dtype=float).reshape(-1, 11)
    rho1, u1, k1, rho2, u2, v2, k2, x0, y0, t0, t1 = lanes.T[:, :, None]
    px, py = x0 + _SHOCK_SAMPLES * t0, y0 + _SHOCK_SAMPLES * t1
    # the offsets of state (1), (u1, 0), and of state (2), (d1x, d1y) and (d2x, d2y)
    d1x, d1y = u1 - px, -py
    d2x, d2y = u2 - px, v2 - py
    rh = rho1 * (d1x * t1 - d1y * t0) - rho2 * (d2x * t1 - d2y * t0)
    n1 = np.sqrt(d1x * d1x + d1y * d1y)
    n2 = np.sqrt(d2x * d2x + d2y * d2y)
    scale = (rho1 * (1.0 + n1) + rho2 * (1.0 + n2)).max(axis=1)
    # both states' potentials -(xi^2 + eta^2)/2 + u xi + v eta + k (state 1's v-term is a zero)
    quad = -0.5 * (px * px + py * py)
    phi1 = quad + u1 * px + k1
    phi2 = quad + u2 * px + v2 * py + k2
    cont = np.abs(phi1 - phi2) / np.maximum(1.0, np.abs(phi1))
    return np.abs(rh).max(axis=1) / scale, cont.max(axis=1)


def to_sonic_coords(config: ReflectionConfiguration, point):
    """(x, y) = (c2 - r, theta - theta_w) about the sonic center."""
    p = np.asarray(point, dtype=float)
    d = p - config.center
    r = np.hypot(d[0], d[1])
    if r == 0.0:
        raise CenterSingularity("sonic chart undefined at the circle center")
    return float(config.c2 - r), float(np.arctan2(d[1], d[0]) - config.theta_w)


def _chart_params(config):
    center = config.center
    P1 = np.asarray(config.P1)
    tau = np.asarray(config.s1_direction)
    beta0 = (P1[0] - center[0]) * tau[0] + (P1[1] - center[1]) * tau[1]  # negative: moving along tau decreases r
    if beta0 >= 0.0:
        raise NoSonicIntersection("shock direction does not enter the sonic circle at P1")
    # |P1 - C| = c2, so the line passes at distance sqrt(c2^2 - beta0^2) from the
    # center; a gap inside the intersection's rounding (see _configurations) has
    # no sign the data decide
    gap = config.c2**2 - beta0**2
    if not gap > _ROUNDING * _squared_distance(config.P0, center):
        raise CenterSingularity(f"shock line reaches the sonic center (c2^2 - beta0^2 = {gap:.3e}), "
                                f"so it has no sonic chart")
    return center, P1, tau, beta0


def shock_depth_max(config: ReflectionConfiguration) -> float:
    """Largest chart depth x reached by the straight shock (at the chord midpoint)."""
    center, P1, tau, beta0 = _chart_params(config)
    return float(config.c2 - np.sqrt(config.c2**2 - beta0**2))


def shock_chart_table(config: ReflectionConfiguration, xs):
    """Chart image of the straight reflected shock: y, dy/dx, d2y/dx2 at depths xs.

    The line is parametrized by arclength t from P1.  Because |P1 - C| = c2,
    the depth x = c2 - |P1 + t tau - C| solves t^2 + 2 beta0 t + x(2 c2 - x) = 0,
    whose root in [0, -beta0] is taken in the form free of cancellation
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 1.8).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    center, P1, tau, beta0 = _chart_params(config)
    c2 = config.c2
    xmax = shock_depth_max(config)
    if np.any(xs < -1e-15) or np.any(xs > xmax * (1.0 + 1e-12)):
        raise OutOfRange(
            f"shock-chart depth outside [0, {xmax:.6g}] "
            f"(requested up to {np.max(xs):.6g})"
        )
    q = xs * (2.0 * c2 - xs)
    t = q / (-beta0 + np.sqrt(np.maximum(beta0 * beta0 - q, 0.0)))
    # dx/dt vanishes at the chord midpoint t = -beta0, where y' and y'' blow up
    t = np.clip(t, 0.0, -beta0 * (1.0 - 1e-15))
    r = np.sqrt(c2 * c2 + 2.0 * t * beta0 + t * t)
    p = P1[None, :] + t[:, None] * tau[None, :]
    d = p - center[None, :]
    theta = np.arctan2(d[:, 1], d[:, 0])
    y = theta - config.theta_w

    drdt = (beta0 + t) / r
    dxdt = -drdt
    cross = d[:, 0] * tau[1] - d[:, 1] * tau[0]
    dthdt = cross / (r * r)
    d2rdt2 = (1.0 - drdt * drdt) / r
    d2xdt2 = -d2rdt2
    d2thdt2 = -2.0 * drdt * dthdt / r
    yp = dthdt / dxdt
    ypp = (d2thdt2 * dxdt - dthdt * d2xdt2) / dxdt**3
    return y, yp, ypp


_DETACH_LO_DEG, _DETACH_HI_DEG, _DETACH_TOL_DEG = 5.0, 89.9, 1e-4


def detachment_angle(gas: GasParameters):
    """Bracket [lo, hi] (radians) for the smallest wedge angle with a reflected-state root.

    Purely empirical bisection on root existence over 5 to 89.9 degrees, to a
    bracket of 1e-4 degrees; reported, not asserted against any closed form.
    An angle has a root exactly when solve_state2's u2 scan brackets one, so
    each test is that scan alone (_brackets on _SCAN): no refinement, no
    configuration.
    """
    xi0, u1 = incident_shock(gas)

    def exists(deg):
        return _brackets(gas, xi0, u1, np.tan(np.radians([deg])))[1].size > 0

    lo, hi = _DETACH_LO_DEG, _DETACH_HI_DEG
    if exists(lo):
        return np.radians(lo), np.radians(lo)
    if not exists(hi):
        raise NoRegularReflection(f"no root up to {hi} degrees")
    while hi - lo > _DETACH_TOL_DEG:
        mid = 0.5 * (lo + hi)
        if exists(mid):
            hi = mid
        else:
            lo = mid
    return np.radians(lo), np.radians(hi)
