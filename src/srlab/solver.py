"""Damped-Picard solver for the degenerate near-boundary equation.

The nonlinear diffusion coefficient is frozen each outer iteration (with the
slope cutoff and an x-proportional ellipticity floor), and the frozen linear
problem is assembled as one sparse 9-point operator.  Each outer step is a
chord step: the residual of the frozen problem is solved with the last
sparse LU factorisation (fixed column ordering), which is refactored only
when the residual stops contracting by a fixed ratio.  The refactoring
policy reads only the residual history, so every run is deterministic.

Two domains share that one outer loop and that one factorisation: a
rectangle (0, rhat) x (y_lo, y_hi), and the shock-fitted strip
{0 < x < eps, 0 < y < fhat(x)} mapped onto (x, s) with s = y/fhat(x), whose
shock row carries the Newton linearisation of the jump condition in the
same sparse system.
"""

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coefficients import CoefficientModel, apply_operator, o_bound_audit, reflection_coefficients, zeta
from .errors import EllipticityLoss, NoConvergence, ShockConditionDiverged, VacuumState
from .grids import ScalarField2D, geometric_axis, uniform_axis
from .reflection import ReflectionConfiguration, shock_chart_table, shock_depth_max
from .shock import ShockBoundaryFns

__all__ = [
    "GridSpec",
    "BoundaryConditions",
    "SolverOptions",
    "residual",
    "solve",
    "solve_reflection_near_sonic",
    "derivative_fields",
]

_log = logging.getLogger(__name__)

# a chord step keeps the last LU while it contracts the residual by at least
# this ratio; on the criterion-6 strips 0.5 refactors about twice as often,
# and 0.9 doubles the outer steps without saving factorisations
_REFACTOR_RATIO = 0.7


@dataclass(frozen=True)
class GridSpec:
    """Rectangle (0, rhat) x (y_lo, y_hi); grade_q < 1 refines toward x = 0."""

    rhat: float
    nx: int
    ny: int
    y_lo: float = -1.0
    y_hi: float = 1.0
    grade_q: float = 1.0

    def axes(self):
        return geometric_axis(self.rhat, self.nx, self.grade_q), uniform_axis(self.y_lo, self.y_hi, self.ny)


@dataclass(frozen=True)
class BoundaryConditions:
    """x=0 is always homogeneous Dirichlet; the other sides are configurable.

    outer: Dirichlet data psi(rhat, y) as a callable of y.
    y_lo/y_hi: "neumann" (psi_y = 0) or a callable of x giving Dirichlet data.
    """

    outer: Callable
    y_lo: object = "neumann"
    y_hi: object = "neumann"

    def describe(self) -> dict:
        side = lambda s: "neumann" if s == "neumann" else "dirichlet"
        return {"x0": "dirichlet:0", "outer": "dirichlet", "y_lo": side(self.y_lo), "y_hi": side(self.y_hi)}


@dataclass(frozen=True)
class SolverOptions:
    tolerance: float = 1e-9
    max_iterations: int = 3000
    damping: float = 1.0
    beta: float = 0.5
    M: float = 2.0
    eps_ell: float = 0.1
    omega_sor: float = 1.0  # no effect: the frozen problem is solved directly
    clamp_fail_fraction: float = 0.2

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not 0.0 < self.eps_ell < self.beta < 1.0:
            raise ValueError("need 0 < eps_ell < beta < 1")
        if self.M < 0.0:
            raise ValueError("M must be nonnegative")
        if not 0.0 < self.omega_sor < 2.0:
            raise ValueError("omega_sor must lie in (0, 2)")

    def describe(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "max_iterations": self.max_iterations,
            "damping": self.damping,
            "beta": self.beta,
            "M": self.M,
            "eps_ell": self.eps_ell,
        }


# -- finite-difference weights ----------------------------------------------


def _first_weights(xs):
    """Interior 3-point first-derivative weights, exact on quadratics."""
    hm = xs[1:-1] - xs[:-2]
    hp = xs[2:] - xs[1:-1]
    wm = -hp / (hm * (hm + hp))
    wp = hm / (hp * (hm + hp))
    w0 = -(wm + wp)
    return wm, w0, wp


def _second_weights(xs):
    hm = xs[1:-1] - xs[:-2]
    hp = xs[2:] - xs[1:-1]
    vm = 2.0 / (hm * (hm + hp))
    vp = 2.0 / (hp * (hm + hp))
    v0 = -(vm + vp)
    return vm, v0, vp


def _d1_axis(vals, xs, axis):
    vals = np.moveaxis(vals, axis, 0)
    out = np.empty_like(vals)
    wm, w0, wp = _first_weights(xs)
    sh = (-1,) + (1,) * (vals.ndim - 1)
    out[1:-1] = wm.reshape(sh) * vals[:-2] + w0.reshape(sh) * vals[1:-1] + wp.reshape(sh) * vals[2:]
    # one-sided second-order ends
    for idx, (i0, i1, i2) in ((0, (0, 1, 2)), (-1, (-1, -2, -3))):
        x0, x1, x2 = xs[i0], xs[i1], xs[i2]
        c0 = (2 * x0 - x1 - x2) / ((x0 - x1) * (x0 - x2))
        c1 = (x0 - x2) / ((x1 - x0) * (x1 - x2))
        c2 = (x0 - x1) / ((x2 - x0) * (x2 - x1))
        out[idx] = c0 * vals[i0] + c1 * vals[i1] + c2 * vals[i2]
    return np.moveaxis(out, 0, axis)


def _d2_axis(vals, xs, axis):
    vals = np.moveaxis(vals, axis, 0)
    out = np.empty_like(vals)
    vm, v0, vp = _second_weights(xs)
    sh = (-1,) + (1,) * (vals.ndim - 1)
    out[1:-1] = vm.reshape(sh) * vals[:-2] + v0.reshape(sh) * vals[1:-1] + vp.reshape(sh) * vals[2:]
    # a 3-point second difference is constant over its triple
    out[0] = out[1]
    out[-1] = out[-2]
    return np.moveaxis(out, 0, axis)


def _strip_geometry(field):
    """fhat, g = fhat'/fhat and g' as columns, and s = y/fhat as a row, of a strip field."""
    geo = field.geometry
    fh, g, gp = (np.asarray(geo[key])[:, None] for key in ("fhat", "g", "gp"))
    return fh, g, gp, field.ys[None, :]


def _ordinates(field):
    """Physical ordinate y at every node (s*fhat on the strip)."""
    if field.kind == "rect":
        return np.broadcast_to(field.ys[None, :], field.values.shape)
    fh, _, _, s = _strip_geometry(field)
    return s * fh


def derivative_fields(field: ScalarField2D) -> dict:
    """Physical-coordinate derivative arrays psi_x..psi_yy at all nodes.

    Interior values use the 3-point interior stencils; edge values use
    one-sided differences and are only display-grade.  For sonic-strip fields
    the chain rule through y = s*fhat(x) is applied.
    """
    u = field.values
    xs, ys = field.xs, field.ys
    ux = _d1_axis(u, xs, 0)
    uy = _d1_axis(u, ys, 1)
    uxx = _d2_axis(u, xs, 0)
    uyy = _d2_axis(u, ys, 1)
    uxy = _d1_axis(uy, xs, 0)
    if field.kind == "rect":
        return {"psi": u, "px": ux, "py": uy, "pxx": uxx, "pxy": uxy, "pyy": uyy}
    fh, g, gp, s = _strip_geometry(field)
    px = ux - s * g * uy
    py = uy / fh
    pyy = uyy / fh**2
    pxy = (uxy - g * uy - s * g * uyy) / fh
    pxx = uxx - 2.0 * s * g * uxy + (s * g) ** 2 * uyy + (s * g * g - s * gp) * uy
    return {"psi": u, "px": px, "py": py, "pxx": pxx, "pxy": pxy, "pyy": pyy}


def _operator_value(field, coeffs, d):
    jet = tuple(d[key] for key in ("psi", "px", "py", "pxx", "pxy", "pyy"))
    return apply_operator(coeffs, field.xs[:, None], _ordinates(field), jet)


def residual(field: ScalarField2D, coeffs: CoefficientModel):
    """Max |L1 psi| over interior nodes, plus the residual field."""
    if field.nx < 3 or field.ny < 3:
        raise ValueError("need at least 3 nodes per axis")
    d = derivative_fields(field)
    res = _operator_value(field, coeffs, d)
    interior = res[1:-1, 1:-1]
    return float(np.max(np.abs(interior))), res


# -- frozen-coefficient assembly ----------------------------------------------


class _FrozenOperator:
    """Coefficient arrays of the frozen linear problem on the current iterate."""

    def __init__(self, field, coeffs, opts, d):
        x2d = field.xs[:, None]
        O1, O2, O3, O4, O5 = coeffs.evaluate(x2d, _ordinates(field), d["psi"], d["px"], d["py"])
        a = coeffs.a
        if a > 0.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = np.where(x2d > 0.0, (x2d / a - d["px"]) / np.where(x2d > 0.0, x2d, 1.0), 0.0)
            zs = zeta(slope, a, opts.beta, opts.M)
            self.cutoff_active = np.abs(zs - slope) > 0.0
            Axx_raw = x2d * (1.0 + a * zs) + O1
        else:
            self.cutoff_active = np.zeros(field.values.shape, dtype=bool)
            Axx_raw = 2.0 * x2d + O1
        floor = opts.eps_ell * x2d
        self.floor_active = Axx_raw < floor
        Axx = np.maximum(Axx_raw, floor)
        Axx = np.broadcast_to(Axx, field.values.shape).copy()
        Axy = np.broadcast_to(O2, field.values.shape)
        Ayy = np.broadcast_to(coeffs.b + O3, field.values.shape)
        Ax = np.broadcast_to(1.0 + O4, field.values.shape)
        Ay = np.broadcast_to(O5, field.values.shape)
        self.Bxx = Axx
        self.Cx = -Ax
        if field.kind == "rect":
            self.Bxs, self.Bss, self.Cs = Axy, Ayy, Ay
        else:
            # transpose of the strip chain rule in derivative_fields
            fh, g, gp, s = _strip_geometry(field)
            self.Bxs = -2.0 * s * g * Axx + Axy / fh
            self.Bss = (s * g) ** 2 * Axx - s * g * Axy / fh + Ayy / fh**2
            self.Cs = (s * g * g - s * gp) * Axx - g * Axy / fh + s * g * Ax + Ay / fh

    @property
    def clamp_fraction(self):
        act = self.cutoff_active | self.floor_active
        inner = act[1:-1, 1:-1]
        return float(np.mean(inner)) if inner.size else 0.0


def _frozen_system(field, op, neumann, shock=None):
    """Assemble the frozen linear problem A(u) psi = rhs on the current iterate.

    The unknowns are the interior columns of the interior rows and of each
    row flagged in neumann = (y_lo, y_hi); every other node is Dirichlet data.
    Matrix rows are numbered over the unknowns and columns over all nodes in
    C order, so rhs - A(u) u is the step's residual over the unknowns with
    the Dirichlet data included.  A Neumann row mirrors its ghost neighbour
    onto the first interior row, where its psi_y and psi_xy entries cancel.

    shock = (L1, L2, L3, rhs, dcut) makes the strip's top row and its cut
    column x = eps unknown too.  The top row takes the linearised jump
    condition L1 psi_x + L2 psi_y + L3 psi = rhs as its rows: psi_x = u_x -
    g u_s and psi_y = u_s/fhat, u_x from the tangential 3-point weights and
    u_s = (3u_J - 4u_{J-1} + u_{J-2})/(2 ds).  These are the stencils of the
    jump residual G, so on the shock rows rhs - A(u) u = -G(u).  The cut
    column, the shock corner included, takes the slope rows
    u[nx-1, j] - u[nx-2, j] = dcut.

    Returns A, rhs and the block of field.values that holds the unknowns.
    """
    from scipy.sparse import csc_matrix

    nx, ny = field.values.shape
    j0, j1 = (0 if neumann[0] else 1), (ny if neumann[1] else ny - 1)
    J = np.arange(j0, j1)
    jm, jp = J - 1, J + 1
    if neumann[0]:
        jm[0] = 1
    if neumann[1]:
        jp[-1] = ny - 2
    I = np.arange(1, nx - 1)[:, None]
    hy = field.ys[1] - field.ys[0]
    Bxx, Cx, Bss, Bxs, Cs = (c[1:-1, j0:j1] for c in (op.Bxx, op.Cx, op.Bss, op.Bxs, op.Cs))
    ju = j1 + (shock is not None)  # the shock row is unknown too
    ni = nx - 2 + (shock is not None)  # and so is the cut column
    nu = ju - j0  # unknowns per interior column
    row = (I - 1) * nu + (J - j0)
    # (matrix row, node column, coefficient) per stencil point; psi_xy = d1_x(d1_y psi)
    terms = [(row, I * ny + jm, Bss / hy**2 - Cs / (2.0 * hy)),
             (row, I * ny + J, -2.0 * Bss / hy**2),
             (row, I * ny + jp, Bss / hy**2 + Cs / (2.0 * hy))]
    wx = [w[:, None] for w in _first_weights(field.xs)]
    for k, (w, v) in enumerate(zip(wx, _second_weights(field.xs))):
        v, col = v[:, None], (I + k - 1) * ny
        terms += [(row, col + J, Bxx * v + Cx * w),
                  (row, col + jm, -Bxs * w / (2.0 * hy)),
                  (row, col + jp, Bxs * w / (2.0 * hy))]
    rhs = np.zeros(nu * ni)
    if shock is not None:
        L1, L2, L3, shock_rhs = (c[:, None] for c in shock[:4])
        fh, g, _, _ = _strip_geometry(field)
        # u_s enters psi_x with weight -g and psi_y with 1/fhat
        cs = (L2 / fh[1:-1] - L1 * g[1:-1]) / (2.0 * hy)
        srow, top = (I - 1) * nu + nu - 1, I * ny + ny - 1
        terms += [(srow, top + (k - 1) * ny, L1 * w) for k, w in enumerate(wx)]
        terms += [(srow, top, 3.0 * cs + L3), (srow, top - 1, -4.0 * cs), (srow, top - 2, cs)]
        rhs[srow.ravel()] = shock_rhs.ravel()
        crow, cut = (nx - 2) * nu + np.arange(nu), (nx - 1) * ny + np.arange(j0, ju)
        terms += [(crow, cut, np.ones(nu)), (crow, cut - ny, -np.ones(nu))]
        rhs[crow] = shock[4]
    rows, cols, vals = (np.concatenate([t[k].ravel() for t in terms]) for k in range(3))
    A = csc_matrix((vals, (rows, cols)), shape=(nu * ni, nx * ny))
    A.eliminate_zeros()  # closures without mixed or first-order y terms
    return A, rhs, (slice(1, 1 + ni), slice(j0, ju))


def _factor(A, shape, block, coupled):
    """Sparse LU of A restricted to the columns of the unknown block.

    The shock row's central tangential difference leaves a near-zero
    diagonal; a small pivot threshold keeps the fill-reducing order's pivots.
    An exactly singular coupled system raises ShockConditionDiverged.
    """
    from scipy.sparse.linalg import splu

    unknown = np.arange(A.shape[1]).reshape(shape)[block].ravel()
    try:
        return splu(A[:, unknown], permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01)
    except RuntimeError as exc:  # exactly singular
        if not coupled:
            raise
        raise ShockConditionDiverged(f"singular linearized jump-condition system: {exc}") from exc


# -- rectangle solve -----------------------------------------------------------


def solve(
    coeffs: CoefficientModel,
    bc: BoundaryConditions,
    grid: GridSpec,
    opts: SolverOptions = SolverOptions(),
    init_power: Optional[float] = None,
    init_field: Optional[ScalarField2D] = None,
) -> ScalarField2D:
    """Solve the near-boundary equation on a rectangle.

    Dirichlet psi = 0 on x = 0; bc.outer on x = rhat; each y-side either
    reflective (psi_y = 0) or Dirichlet.  Each damped Picard step freezes the
    coefficients on the current iterate and takes a chord step on the frozen
    linear problem (_picard); the first step is an exact frozen solve, so a
    linear closure converges in one step.
    init_field seeds the iteration from
    a coarser converged solve (nested iteration), carried over by a direct
    not-a-knot cubic spline fit along x and then y (bilinear below 4 nodes);
    being exact on polynomials up to cubic in each variable, it keeps an
    exact coarse solution exact, where SciPy's iterative tensor-spline fit
    would leave an error for the fine solve to remove.  Otherwise the
    start is the outer data times a power profile.  Raises NoConvergence past
    the iteration budget and EllipticityLoss if the cutoff/floor is active on
    more than the configured fraction of nodes at convergence.
    """
    xs, ys = grid.axes()
    outer = np.asarray(bc.outer(ys), dtype=float) * np.ones_like(ys)
    if init_field is not None:
        from scipy.interpolate import make_interp_spline

        k = 3 if min(init_field.nx, init_field.ny) >= 4 else 1
        u = make_interp_spline(init_field.xs, init_field.values, k=k, axis=0)(xs)
        u = make_interp_spline(init_field.ys, u, k=k, axis=1)(ys)
    else:
        if init_power is None:
            init_power = 2.0 if coeffs.a > 0.0 else 1.5
        u = outer[None, :] * (xs[:, None] / grid.rhat) ** init_power
    u[-1, :] = outer
    y_lo_neumann = bc.y_lo == "neumann"
    y_hi_neumann = bc.y_hi == "neumann"
    if not y_lo_neumann:
        u[:, 0] = np.asarray(bc.y_lo(xs), dtype=float)
    if not y_hi_neumann:
        u[:, -1] = np.asarray(bc.y_hi(xs), dtype=float)
    u[0, :] = 0.0

    field = ScalarField2D(xs, ys, u, {"kind": "rect"}, {})
    return _picard(field, coeffs, opts, (y_lo_neumann, y_hi_neumann), bc)


def _picard(field, coeffs, opts, neumann, bc, shock_row=None):
    """Damped chord iteration on field in place; returns field with its metadata.

    Each step freezes the coefficients on the current iterate, assembles the
    frozen problem A(u) psi = rhs (_frozen_system) and steps
    u += damping * LU^-1 (rhs - A(u) u) with the last sparse LU.  The LU is
    refactored on A(u) at the first step and whenever the previous step
    contracted the residual by less than _REFACTOR_RATIO; a refactored step
    is the exact frozen solve, and every fixed point has rhs = A(u) u, so the
    chord steps change the cost, not the solution.  Convergence is judged on
    the operator residual max |L psi| over all interior nodes and, on the
    strip, on the scaled jump-condition residual that shock_row(values)
    returns together with the Newton and cut rows of the next step.
    """
    history = []
    clamp_fraction = 0.0
    shock_res, shock = 0.0, None
    lu, factorizations = None, 0
    for it in range(opts.max_iterations + 1):
        # one derivative pass serves both the residual of the current iterate
        # and the frozen coefficients of the next step
        d = derivative_fields(field)
        res_field = _operator_value(field, coeffs, d)
        res = float(np.max(np.abs(res_field[1:-1, 1:-1])))
        if shock_row is not None:
            shock_res, shock = shock_row(field.values)
        history.append(max(res, shock_res))
        refactor = lu is None or history[-1] > _REFACTOR_RATIO * history[-2]
        _log.debug("iteration %d: residual %.3e, shock %.3e, refactor %s", it, res, shock_res, refactor)
        if history[-1] <= opts.tolerance:
            break
        if it == opts.max_iterations:
            raise NoConvergence(opts.max_iterations, history[-1])
        op = _FrozenOperator(field, coeffs, opts, d)
        clamp_fraction = op.clamp_fraction
        A, rhs, block = _frozen_system(field, op, neumann, shock)
        if refactor:
            lu = _factor(A, field.values.shape, block, shock is not None)
            factorizations += 1
        # written through the 2-D view: field.values need not be C-contiguous
        step = lu.solve(rhs - A @ field.values.ravel())
        field.values[block] += opts.damping * step.reshape(field.values[block].shape)

    _finalize_meta(field, coeffs, opts, bc, history, factorizations, clamp_fraction, d)
    if shock_row is not None:
        field.meta["outer_data"] = "synthetic slope surrogate psi_x = x/a at x=eps"
        field.meta["shock_residual"] = shock_res
    if clamp_fraction > opts.clamp_fail_fraction:
        raise EllipticityLoss(clamp_fraction, field)
    return field


def _finalize_meta(field, coeffs, opts, bc, history, factorizations, clamp_fraction, d):
    """Sidecar metadata of a converged field; d is its derivative pass."""
    x2d = field.xs[:, None]
    y2d = _ordinates(field)
    audit = o_bound_audit(coeffs, np.broadcast_to(x2d, field.values.shape)[1:-1, 1:-1],
                          y2d[1:-1, 1:-1], d["psi"][1:-1, 1:-1],
                          d["px"][1:-1, 1:-1], d["py"][1:-1, 1:-1])
    interior = field.values[1:-1, 1:-1]
    xin = np.broadcast_to(x2d, field.values.shape)[1:-1, 1:-1]
    positivity = bool(np.all(interior > 0.0))
    if coeffs.a > 0.0:
        bound = (2.0 - opts.beta) / (2.0 * coeffs.a) * xin**2
        quad_ok = bool(np.all(interior <= bound * (1.0 + 1e-12) + 1e-30))
    else:
        quad_ok = None
    field.meta.update(
        {
            "coefficients": coeffs.describe(),
            "options": opts.describe(),
            "bc": bc.describe() if bc is not None else {"kind": "sonic_strip"},
            "iterations": len(history),
            "factorizations": factorizations,
            "residual_history": [float(r) for r in history],
            "final_residual": float(history[-1]),
            "clamp_fraction": clamp_fraction,
            "o_bound_audit": audit,
            "positivity_ok": positivity,
            "quadratic_bound_ok": quad_ok,
        }
    )


# -- shock-fitted strip solve --------------------------------------------------


def solve_reflection_near_sonic(
    config: ReflectionConfiguration,
    eps: float,
    grid_nx: int = 97,
    grid_ny: int = 49,
    grade_q: float = 0.95,
    opts: SolverOptions = SolverOptions(tolerance=1e-8),
) -> ScalarField2D:
    """Solve the reflection closure on the strip between wedge, shock, and cut.

    Boundary data: psi = 0 on the sonic segment x = 0, reflective wedge side,
    the combined jump condition enforced pointwise on the shock image, and
    the slope of the synthetic surrogate x^2/(2a) on the outer cut (flagged
    in metadata), taken in increment form u[nx-1] - u[nx-2] = (x_{nx-1}^2 -
    x_{nx-2}^2)/(2a).  The shock-row and cut values are unknowns of the same
    sparse system as the interior: each outer step is a chord step on the
    frozen interior problem together with one Newton linearisation of the
    jump condition, whose tangential derivative couples neighbouring row values
    (a column-by-column explicit Newton amplifies row roughness through the
    1/h tangential weights and diverges).  The shock corner (eps, fhat(eps))
    takes the cut row, so no boundary datum contradicts the jump condition
    there and convergence is judged on every interior node.
    """
    xmax = shock_depth_max(config)
    if eps >= xmax:
        raise ValueError(f"eps={eps:.6g} exceeds the shock chart depth {xmax:.6g}")
    coeffs = reflection_coefficients(config, eps)
    a = coeffs.a
    xs = geometric_axis(eps, grid_nx, grade_q)
    ss = uniform_axis(0.0, 1.0, grid_ny)
    fh, fhp, fhpp = shock_chart_table(config, xs)
    g = fhp / fh
    gp = fhpp / fh - (fhp / fh) ** 2
    geometry = {
        "kind": "sonic_strip",
        "eps": eps,
        "fhat": [float(v) for v in fh],
        "g": [float(v) for v in g],
        "gp": [float(v) for v in gp],
        "config_json": config.to_json(),
    }

    u = (xs[:, None] ** 2 / (2.0 * a)) * np.ones_like(ss)[None, :]
    u[0, :] = 0.0
    field = ScalarField2D(xs, ss, u, geometry, {})
    fns = ShockBoundaryFns(config)
    lam_scale = abs(fns.psi_p1_at_P1())
    ds = ss[1] - ss[0]
    wx_m, wx_0, wx_p = _first_weights(xs)
    i = np.arange(1, grid_nx - 1)
    dcut = (xs[-1] ** 2 - xs[-2] ** 2) / (2.0 * a)
    x_i, fh_i, g_i = xs[i], fh[i], g[i]  # fh_i is also the shock ordinate y

    def shock_row(vals):
        """Scaled jump-condition residual, the Newton rows (L1, L2, L3, rhs) and the cut increment."""
        uJ = vals[i, -1]
        us = (3.0 * uJ - 4.0 * vals[i, -2] + vals[i, -3]) / (2.0 * ds)
        ux = wx_m * vals[i - 1, -1] + wx_0 * uJ + wx_p * vals[i + 1, -1]
        px, py = ux - g_i * us, us / fh_i
        try:
            G = fns.Psi(px, py, uJ, x_i, fh_i)
            L1, L2, L3 = fns.psi_gradient(px, py, uJ, x_i, fh_i)
        except VacuumState as exc:
            raise ShockConditionDiverged(f"shock-row iterate left the admissible ball: {exc}") from exc
        if not (np.all(np.isfinite(G)) and all(np.all(np.isfinite(L)) for L in (L1, L2, L3))):
            raise ShockConditionDiverged("nonfinite linearized jump condition on the shock row")
        res = float(np.max(np.abs(G))) / lam_scale
        if res > 1.0:
            # the row has left the small-perturbation regime (converging solves
            # stay below 0.03); the isothermal closure has no vacuum bound to
            # stop a divergence, and the LU fill of its iterates grows without bound
            raise ShockConditionDiverged(f"jump-condition residual {res:.3g} exceeds its gradient scale")
        return res, (L1, L2, L3, L1 * px + L2 * py + L3 * uJ - G, dcut)

    return _picard(field, coeffs, opts, (True, False), None, shock_row)
