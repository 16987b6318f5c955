"""Damped-Picard solver for the degenerate near-boundary equation.

The finite differences are defined once, as per-node 3-point stencil
tables along each axis, and the strip's chain rule once, as a linear map on
a jet; the derivative pass applies both to values.  The nonlinear diffusion
coefficient is frozen each outer iteration (with the slope cutoff and an
x-proportional ellipticity floor), and the frozen linear problem is one
sparse 9-point operator whose rows combine the same stencils' weights, built
once per solve, with the frozen coefficients.  Each outer step is a
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
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if not 0.0 < self.omega_sor < 2.0:
            raise ValueError("omega_sor must lie in (0, 2)")

    def describe(self) -> dict:
        keys = ("tolerance", "max_iterations", "damping", "beta", "M", "eps_ell")
        return {key: getattr(self, key) for key in keys}


# -- stencils and the strip chain rule ------------------------------------------

# the jet (psi, psi_x, psi_y, psi_xx, psi_xy, psi_yy) and its (x, y) derivative orders
_JET = ("psi", "px", "py", "pxx", "pxy", "pyy")
_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


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


def _stencil_table(xs, reflect=(False, False)):
    """Each node's 3-node block and its value, first- and second-difference weights.

    Returns cols (n, 3), the ascending node indices of each block, and
    w (3, n, 3), the value/first/second weights on them.  An interior node
    takes its centred block; an end takes its neighbour's block, with the
    slope of the neighbour's quadratic at the end and its second difference.
    A reflective end (reflect = (lo, hi)) mirrors its ghost node onto the
    neighbour: no first difference, and the second difference 2(u_n - u_e)/h^2.
    """
    n = xs.size
    cols = np.arange(n)[:, None] + np.arange(-1, 2)
    w = np.zeros((3, n, 3))
    w[0, :, 1] = 1.0
    w[1, 1:-1] = np.transpose(_first_weights(xs))
    w[2, 1:-1] = np.transpose(_second_weights(xs))
    for side, (e, s) in enumerate(((0, 1), (n - 1, -1))):
        h = xs[e] - xs[e + s]
        cols[e], w[0, e] = cols[e + s], np.eye(3)[1 - s]
        if reflect[side]:
            w[2, e] = np.array([-2.0, 2.0, 0.0])[::s] / h**2
        else:
            w[1:, e] = w[1, e + s] + h * w[2, e + s], w[2, e + s]
    return cols, w


def _along(table, vals, axis, orders=(1, 2)):
    """Differences of the given orders of vals along axis, from a stencil table."""
    cols, w = table
    sh = (-1,) + (1,) * (vals.ndim - 1 - axis)
    nb = [np.take(vals, cols[:, c], axis=axis) for c in range(3)]
    return [sum(w[k, :, c].reshape(sh) * nb[c] for c in range(3)) for k in orders]


def _strip_geometry(field):
    """fhat, g = fhat'/fhat and g' as columns, and s = y/fhat as a row, of a strip field."""
    geo = field.geometry
    fh, g, gp = (np.asarray(geo[key])[:, None] for key in ("fhat", "g", "gp"))
    return fh, g, gp, field.ys[None, :]


def _chain(field, jet):
    """The strip chain rule through y = s*fhat(x), as a linear map on a jet.

    Maps the computational jet (u, u_x, u_s, u_xx, u_xs, u_ss) to the
    physical jet (psi, psi_x, ..., psi_yy) at every node.  Being linear, it
    maps derivative values and stencil weights alike: the entries end in the
    two node axes, and any leading axes broadcast.
    """
    fh, g, gp, s = _strip_geometry(field)
    sg = s * g
    u, ux, us, uxx, uxs, uss = jet
    return (u, ux - sg * us, us / fh, uxx - 2.0 * sg * uxs + sg**2 * uss + (sg * g - s * gp) * us,
            (uxs - g * us - sg * uss) / fh, uss / fh**2)


def _ordinates(field):
    """Physical ordinate y at every node (s*fhat on the strip)."""
    if field.kind == "rect":
        return np.broadcast_to(field.ys[None, :], field.values.shape)
    fh, _, _, s = _strip_geometry(field)
    return s * fh


def derivative_fields(field: ScalarField2D) -> dict:
    """Physical-coordinate derivative arrays psi_x..psi_yy at all nodes.

    The stencil tables of each axis are applied along it, psi_xy as the
    x-difference of the y-difference; edge values come from the end blocks
    and are only display-grade.  For sonic-strip fields the chain rule
    through y = s*fhat(x) follows.
    """
    u = field.values
    tx = _stencil_table(field.xs)
    (ux, uxx), (uy, uyy) = _along(tx, u, 0), _along(_stencil_table(field.ys), u, 1)
    (uxy,) = _along(tx, uy, 0, (1,))
    jet = (u, ux, uy, uxx, uxy, uyy)
    return dict(zip(_JET, jet if field.kind == "rect" else _chain(field, jet)))


def _operator_value(field, coeffs, d):
    jet = tuple(d[key] for key in _JET)
    return apply_operator(coeffs, field.xs[:, None], _ordinates(field), jet)


def residual(field: ScalarField2D, coeffs: CoefficientModel):
    """Max |L1 psi| over interior nodes, plus the residual field."""
    if field.nx < 3 or field.ny < 3:
        raise ValueError("need at least 3 nodes per axis")
    res = _operator_value(field, coeffs, derivative_fields(field))
    return float(np.max(np.abs(res[1:-1, 1:-1]))), res


# -- frozen-coefficient assembly ----------------------------------------------


def _frozen_coefficients(field, coeffs, opts, d):
    """Frozen coefficients of psi_x, psi_y, psi_xx, psi_xy, psi_yy on the current iterate.

    Also returns the fraction of interior nodes where the slope cutoff or
    the ellipticity floor acts.
    """
    x2d = field.xs[:, None]
    O1, O2, O3, O4, O5 = coeffs.evaluate(x2d, _ordinates(field), d["psi"], d["px"], d["py"])
    a = coeffs.a
    if a > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(x2d > 0.0, (x2d / a - d["px"]) / np.where(x2d > 0.0, x2d, 1.0), 0.0)
        zs = zeta(slope, a, opts.beta, opts.M)
        clamped = np.abs(zs - slope) > 0.0
        Axx = x2d * (1.0 + a * zs) + O1
    else:
        clamped = False
        Axx = 2.0 * x2d + O1
    floor = opts.eps_ell * x2d
    jet = (-1.0 - O4, O5, np.maximum(Axx, floor), O2, coeffs.b + O3)
    fraction = float(np.mean(np.broadcast_to(clamped | (Axx < floor), field.values.shape)[1:-1, 1:-1]))
    return tuple(np.broadcast_to(c, field.values.shape) for c in jet), fraction


def _stencil_blocks(field, neumann, coupled):
    """The unknown block of field.values, each unknown node's 3x3 block of nodes and the jet weights on it.

    The unknowns are the interior columns of the interior rows and of each
    row flagged in neumann = (y_lo, y_hi) and, when coupled, the strip's
    shock row and its cut column x = eps.  A node's block is the outer
    product of the two axes' stencil tables (the y-table reflective at the
    Neumann rows); on the strip the chain rule maps its weights to physical
    ones.  The weights are (3, 3) + block-shaped, node axes last as in a
    derivative pass; the node indices are flat in C order, nine per unknown
    in the C order of the unknowns, ascending within each block.
    """
    nx, ny = field.values.shape
    j0, ju = (0 if neumann[0] else 1), (ny if neumann[1] else ny - 1) + coupled
    block = (slice(1, nx - 1 + coupled), slice(j0, ju))
    (cx, wx), (cy, wy) = _stencil_table(field.xs), _stencil_table(field.ys, neumann)
    jet = tuple(wx[kx].T[:, None, :, None] * wy[ky].T[None, :, None, :] for kx, ky in _ORDERS)
    jet = jet if field.kind == "rect" else _chain(field, jet)
    nodes = (cx[block[0], None, :, None] * ny + cy[None, block[1], None, :]).ravel()
    return block, nodes, tuple(np.ascontiguousarray(w[..., block[0], block[1]]) for w in jet)


def _frozen_system(blocks, coefficients, shock=None):
    """Assemble the frozen linear problem A(u) psi = rhs on the current iterate.

    Each unknown node's row combines the jet weights of its block
    (_stencil_blocks): with the frozen coefficients on interior and Neumann
    rows, so those rows apply the operator whose residual the derivative pass
    measures.  shock = (L1, L2, L3, rhs, dcut) gives the strip's top row the
    linearised jump condition L1 psi_x + L2 psi_y + L3 psi = rhs on the same
    weights, so there rhs - A(u) u = -G(u), and gives the cut column, the
    shock corner included, the slope rows psi[nx-1, j] - psi[nx-2, j] = dcut.

    Returns A as CSR with rows over the unknowns and columns over all nodes,
    both in C order, so rhs - A(u) u is the step's residual with the
    Dirichlet data included, and rhs.
    """
    from scipy.sparse import csr_matrix

    block, nodes, W = blocks
    vals = sum(c[block] * w for c, w in zip(coefficients, W[1:]))
    rhs = np.zeros(vals.shape[2:])
    if shock is not None:
        L1, L2, L3, rhs[:-1, -1], rhs[-1] = shock
        vals[..., :-1, -1] = sum(L * w[..., :-1, -1] for L, w in zip((L3, L1, L2), W))
        vals[..., -1, :] = W[0][..., -1, :] - W[0][..., -2, :]  # nodes nx-1 and nx-2 share their x-block
    data = np.moveaxis(vals, (0, 1), (2, 3)).ravel()  # nine entries per row
    shape = (rhs.size, coefficients[0].size)  # the coefficient arrays cover every node
    # eliminate_zeros compacts the indices in place, so it gets a copy of the cached ones
    A = csr_matrix((data, nodes.copy(), np.arange(0, data.size + 1, 9)), shape=shape)
    A.eliminate_zeros()  # reflective rows, closures without mixed or first-order y terms
    return A, rhs.ravel()


def _factor(A, shape, block, coupled):
    """Sparse LU of A restricted to the columns of the unknown block.

    The shock row's central tangential difference leaves a near-zero
    diagonal; a small pivot threshold keeps the fill-reducing order's pivots.
    An exactly singular coupled system raises ShockConditionDiverged.
    """
    from scipy.sparse.linalg import splu

    unknown = np.arange(A.shape[1]).reshape(shape)[block].ravel()
    try:
        return splu(A[:, unknown].tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01)
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
    frozen problem A(u) psi = rhs (_frozen_system, on stencil blocks built
    at the first step) and steps u += damping * LU^-1 (rhs - A(u) u) with the
    last sparse LU.  The LU is refactored on A(u) at the first step and
    whenever the previous step contracted the residual by less than
    _REFACTOR_RATIO; a refactored step is the exact frozen solve, and every
    fixed point has rhs = A(u) u, so the chord steps change the cost, not the
    solution.  Convergence is judged on the operator residual max |L psi|
    over all interior nodes and, on the strip, on the scaled jump-condition
    residual that shock_row(d) returns from the step's derivative pass d,
    together with the Newton and cut rows of the next step.
    """
    history = []
    clamp_fraction = 0.0
    shock_res, shock = 0.0, None
    lu, factorizations, blocks = None, 0, None
    for it in range(opts.max_iterations + 1):
        # one derivative pass serves both the residual of the current iterate
        # and the frozen coefficients of the next step
        d = derivative_fields(field)
        res_field = _operator_value(field, coeffs, d)
        res = float(np.max(np.abs(res_field[1:-1, 1:-1])))
        if shock_row is not None:
            shock_res, shock = shock_row(d)
        history.append(max(res, shock_res))
        refactor = lu is None or history[-1] > _REFACTOR_RATIO * history[-2]
        _log.debug("iteration %d: residual %.3e, shock %.3e, refactor %s", it, res, shock_res, refactor)
        if history[-1] <= opts.tolerance:
            break
        if it == opts.max_iterations:
            raise NoConvergence(opts.max_iterations, history[-1])
        coefficients, clamp_fraction = _frozen_coefficients(field, coeffs, opts, d)
        blocks = blocks or _stencil_blocks(field, neumann, shock is not None)
        A, rhs = _frozen_system(blocks, coefficients, shock)
        block = blocks[0]
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
    geometry = {"kind": "sonic_strip", "eps": eps, "fhat": fh.tolist(), "g": g.tolist(), "gp": gp.tolist(),
                "config_json": config.to_json()}

    u = (xs[:, None] ** 2 / (2.0 * a)) * np.ones_like(ss)[None, :]
    u[0, :] = 0.0
    field = ScalarField2D(xs, ss, u, geometry, {})
    fns = ShockBoundaryFns(config)
    lam_scale = abs(fns.psi_p1_at_P1())
    i = np.arange(1, grid_nx - 1)
    dcut = (xs[-1] ** 2 - xs[-2] ** 2) / (2.0 * a)
    x_i, fh_i = xs[i], fh[i]  # fh_i is also the shock ordinate y

    def shock_row(d):
        """Scaled jump-condition residual, the Newton rows (L1, L2, L3, rhs) and the cut increment."""
        uJ, px, py = (d[key][i, -1] for key in ("psi", "px", "py"))
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
