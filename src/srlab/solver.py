"""Newton solver for the degenerate near-boundary equation.

The finite differences are defined once, as per-node 3-point stencil
tables along each axis, and the strip's chain rule once, as a linear map on
a jet; the derivative pass applies both to values.  Each outer iteration
evaluates the operator's coefficients and its residual L(u) once; -L(u) is
the right side of its Newton step, one sparse 9-point system on the unknowns
alone, whose weight table and CSR skeleton are built once per solve.  Its
Jacobian adds the operator's one sum (apply_coefficients) on the
coefficients' partials in (psi, psi_x, psi_y), exact in real arithmetic from
the closure's per-monomial table (built once per level, like the stencil
tables), so it is the exact Jacobian of the residual judged.
The first step factors its Jacobian by one sparse LU (fixed column
ordering, supernodes one column wide for the narrow fronts of a 2-D
stencil: Demmel, Eisenstat, Gilbert, Li and Liu, SIAM J. Matrix Anal. Appl.
20, 1999); every later step solves its own Jacobian by one restarted-GMRES
cycle preconditioned by that factor, solved only as accurately as Newton can
use (a forcing term from the last step's contraction), and only a cycle that
misses its target factors again (an inexact Newton method), so a solve
usually factors once and every run is deterministic.

Two domains share that one outer loop: a rectangle (0, rhat) x (y_lo, y_hi),
and the shock-fitted strip {0 < x < eps, 0 < y < fhat(x)} mapped onto (x, s)
with s = y/fhat(x), whose shock and cut rows are jet rows of the same system:
the jump condition G's gradient and -G, and the slope psi_x = x/a.
"""

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .coefficients import CoefficientModel, apply_coefficients, o_bound_audit, reflection_coefficients, zeta
from .errors import EllipticityLoss, NoConvergence, ShockConditionDiverged, VacuumState
from .grids import ScalarField2D, geometric_axis, uniform_axis
from .reflection import ReflectionConfiguration, shock_chart_table, shock_depth_max
from .shock import ShockBoundaryFns

__all__ = [
    "GridSpec",
    "BoundaryConditions",
    "SolverOptions",
    "solve",
    "solve_reflection_near_sonic",
    "derivative_fields",
]

_log = logging.getLogger(__name__)

# slope window (-(1 - beta)/a, M + 1/a), floor eps_ell * x, and the share of
# interior nodes of a converged iterate that may leave them before EllipticityLoss
_BETA, _M, _EPS_ELL, _CLAMP_FAIL_FRACTION = 0.5, 2.0, 0.1, 0.2
# a Newton step on an earlier factor is one GMRES cycle of at most _RESTART
# iterations, accepted once its preconditioned residual falls to the step's
# relative target, the inexact-Newton forcing term (Dembo, Eisenstat and
# Steihaug, SIAM J. Numer. Anal. 19, 1982; Eisenstat and Walker, SIAM J. Sci.
# Comput. 17, 1996): _FORCING times the last contraction r_k / r_{k-1},
# capped at _KRYLOV_CAP while the residual falls slowly or rises, and never
# below the floor _KRYLOV_TOL
_RESTART, _KRYLOV_TOL, _KRYLOV_CAP, _FORCING = 25, 1e-8, 1e-4, 1e-3
# SuperLU's supernode sizes (Demmel, Eisenstat, Gilbert, Li and Liu, SIAM J.
# Matrix Anal. Appl. 20, 1999): the largest relaxed supernode and the columns
# per panel update, both 1 for the narrow fronts that a minimum-degree order
# leaves on a 2-D 9-point Jacobian (see _factor)
_RELAX, _PANEL_SIZE = 1, 1


@dataclass(frozen=True)
class GridSpec:
    """Rectangle (0, rhat) x (y_lo, y_hi); grade_q < 1 refines toward x = 0."""

    rhat: float
    nx: int
    ny: int
    y_lo: float = -1.0
    y_hi: float = 1.0
    grade_q: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.rhat < np.inf:  # NaN fails too
            raise ValueError(f"rhat must be finite and positive, got {self.rhat}")
        if not -np.inf < self.y_lo < self.y_hi < np.inf:
            raise ValueError(f"y_lo and y_hi must be finite with y_lo < y_hi, got {self.y_lo} and {self.y_hi}")
        if not 0.0 < self.grade_q <= 1.0:  # before solve squares it for each coarser level
            raise ValueError(f"grade_q must lie in (0, 1], got {self.grade_q}")

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
    """The outer iteration's stopping rule; the slope window, floor and loss share are module constants."""

    tolerance: float = 1e-9
    max_iterations: int = 50
    omega_sor: float = 1.0  # no effect: each Newton step is solved directly

    def __post_init__(self):
        if not 0.0 < self.tolerance < np.inf:  # NaN fails too
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if not 0.0 < self.omega_sor < 2.0:
            raise ValueError("omega_sor must lie in (0, 2)")

    def describe(self) -> dict:
        return {"tolerance": self.tolerance, "max_iterations": self.max_iterations}


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
    w (3, 3, n), the value/first/second weights on them.  An interior node
    takes its centred block; an end takes its neighbour's block, with the
    slope of the neighbour's quadratic at the end and its second difference.
    A reflective end (reflect = (lo, hi)) mirrors its ghost node onto the
    neighbour: no first difference, and the second difference 2(u_n - u_e)/h^2.
    """
    n = xs.size
    cols = np.arange(n)[:, None] + np.arange(-1, 2)
    w = np.zeros((3, 3, n))
    w[0, 1] = 1.0
    w[1, :, 1:-1] = _first_weights(xs)
    w[2, :, 1:-1] = _second_weights(xs)
    for side, (e, s) in enumerate(((0, 1), (n - 1, -1))):
        h = xs[e] - xs[e + s]
        cols[e], w[0, :, e] = cols[e + s], np.eye(3)[1 - s]
        if reflect[side]:
            w[2, :, e] = np.array([-2.0, 2.0, 0.0])[::s] / h**2
        else:
            w[1:, :, e] = w[1, :, e + s] + h * w[2, :, e + s], w[2, :, e + s]
    return cols, w


def _along(table, vals, axis, orders=(1, 2)):
    """Differences of the given orders of vals along axis, from a stencil table."""
    cols, w = table
    sh = (-1,) + (1,) * (vals.ndim - 1 - axis)
    nb = [np.take(vals, cols[:, c], axis=axis) for c in range(3)]
    return [sum(w[k, c].reshape(sh) * nb[c] for c in range(3)) for k in orders]


def _strip_geometry(field, block=np.s_[:, :]):
    """fhat, g = fhat'/fhat and g' as columns, and s = y/fhat as a row, of a strip field on a block of its nodes."""
    geo = field.geometry
    fh, g, gp = (np.asarray(geo[key])[block[0], None] for key in ("fhat", "g", "gp"))
    return fh, g, gp, field.ys[None, block[1]]


def _chain(field, jet, block=np.s_[:, :]):
    """The strip chain rule through y = s*fhat(x), as a linear map on a jet.

    Maps the computational jet (u, u_x, u_s, u_xx, u_xs, u_ss) to the
    physical jet (psi, psi_x, ..., psi_yy) at every node of block (slices of
    the two node axes).  Being linear, it maps derivative values and stencil
    weights alike: the entries end in the two node axes, and any leading
    axes broadcast.
    """
    fh, g, gp, s = _strip_geometry(field, block)
    sg = s * g
    u, ux, us, uxx, uxs, uss = jet
    return (u, ux - sg * us, us / fh, uxx - 2.0 * sg * uxs + sg**2 * uss + (sg * g - s * gp) * us,
            (uxs - g * us - sg * uss) / fh, uss / fh**2)


def _derivative_pass(field, tables):
    """The physical jet at all nodes, keyed by _JET, from the stencil tables (x, y) of its axes.

    The stencil tables of each axis are applied along it, psi_xy as the
    x-difference of the y-difference (psi_y is 0 on a reflective end); on a
    sonic strip the chain rule through y = s*fhat(x) follows.
    """
    u = field.values
    tx, ty = tables
    (ux, uxx), (uy, uyy) = _along(tx, u, 0), _along(ty, u, 1)
    (uxy,) = _along(tx, uy, 0, (1,))
    jet = (u, ux, uy, uxx, uxy, uyy)
    return dict(zip(_JET, jet if field.kind == "rect" else _chain(field, jet)))


def derivative_fields(field: ScalarField2D) -> dict:
    """Physical-coordinate derivative arrays psi_x..psi_yy at all nodes; edge values are only display-grade."""
    return _derivative_pass(field, (_stencil_table(field.xs), _stencil_table(field.ys)))


# -- Newton system assembly ----------------------------------------------------


def _operator_rows(shape, neumann):
    """The nodes whose Newton rows are the operator's: interior x-columns on the interior and Neumann y-rows."""
    nx, ny = shape
    return np.s_[1:nx - 1, (0 if neumann[0] else 1):(ny if neumann[1] else ny - 1)]


def _stencil_blocks(field, tables, neumann, coupled):
    """The unknown block of field.values, the jet weights of each unknown's row and J's CSR skeleton, once per solve.

    The unknowns are the operator rows (_operator_rows: the interior columns
    of the interior rows and of each row flagged in neumann = (y_lo, y_hi))
    and, when coupled, the strip's shock row and its cut column x = eps.  A
    row sits on its node's 3x3 block, the outer product of the two axes'
    stencil tables (the y-table reflective at the Neumann rows), mapped by
    the chain rule on the strip.
    The weights are one table, six (9,) + block-shaped arrays, one per jet
    entry, on the block's nine nodes ascending in C order.  The skeleton is
    J's pattern over the unknowns in C order: the column of each entry whose
    node is an unknown, that mask over (rows, 9), and indptr.
    """
    block = tuple(slice(s.start, s.stop + coupled) for s in _operator_rows(field.values.shape, neumann))
    (cx, wx), (cy, wy) = tables
    W = tuple(wx[kx][:, None, block[0], None] * wy[ky][None, :, None, block[1]] for kx, ky in _ORDERS)
    W = W if field.kind == "rect" else _chain(field, W, block)
    index = np.full(field.values.shape, -1, dtype=np.int32)  # the index type scipy takes for J
    index[block] = np.arange(index[block].size).reshape(index[block].shape)
    cols = index.ravel()[cx[block[0], None, :, None] * field.ny + cy[None, block[1], None, :]].reshape(-1, 9)
    known = cols >= 0
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(known, axis=1)))).astype(np.int32)
    return block, tuple(w.reshape((9,) + w.shape[2:]) for w in W), (cols[known], known, indptr)


def _newton_system(blocks, coefficients, partials, jet, residual, edge=None):
    """Assemble the Newton step J du = -R(u) on the iterate whose derivative pass is jet.

    residual is L(u), the operator with the coefficients on the pass, as
    _newton judged it; its interior and Neumann rows are R's.  Every row of J
    sums its jet weights (_stencil_blocks) in one fixed order times the row's
    jet coefficients.  Those of an operator row are (dL_psi, c_x + dL_px,
    c_y + dL_py, c_xx, c_xy, c_yy), where dL_v is the operator with the
    coefficients' partials in v (the closure table's, three tuples of five)
    on the row's own jet: the Jacobian of L.  edge = (at, rows, rhs) gives
    the boundary rows, at the nodes of the mask at in C order, jet
    coefficients rows (6, n) and right sides rhs: on the strip the shock
    rows (L3, L1, L2, 0, 0, 0) with -G(u), the cut rows (0, 1, 0, 0, 0, 0)
    with x/a - psi_x.  The jet must come from the pass with the solve's
    Neumann flags, whose rows then read psi_y = 0 as their reflective
    stencil does.

    Returns J as square CSR over the unknowns in C order, and -R(u): -L(u)
    on the operator rows and rhs on the boundary rows.
    """
    from scipy.sparse import csr_matrix

    block, W, (cols, known, indptr) = blocks
    dL = [apply_coefficients(dv, jet) for dv in partials]
    c_x, c_y, *second = coefficients  # they broadcast to the nodes (an O-free closure's are partly scalars)
    r = np.array([np.broadcast_to(f, jet[0].shape)[block] for f in (dL[0], c_x + dL[1], c_y + dL[2], *second)])
    step_rhs = -residual[block]
    if edge is not None:
        at, rows, rhs = edge
        r[:, at[block]], step_rhs[at[block]] = rows, rhs
    data = sum(rk * w for rk, w in zip(r, W))
    # eliminate_zeros compacts the skeleton in place, so it gets a copy of the cached one
    J = csr_matrix((data.reshape(9, -1).T[known], cols.copy(), indptr.copy()), shape=(indptr.size - 1,) * 2)
    J.eliminate_zeros()  # reflective rows, closures without mixed or first-order y terms
    return J, step_rhs.ravel()


def _factor(A, coupled, it, residual, shape):
    """Sparse LU of A, a Newton Jacobian on the unknowns.

    The pivot threshold 1e-4 keeps the fill-reducing order's diagonal pivots
    (SuperLU's threshold pivoting, X. S. Li, ACM TOMS 31, 2005) and falls back
    to partial pivoting only on a truly tiny diagonal, such as the shock row's
    central tangential difference.  Supernodes are taken column by column
    (_RELAX, _PANEL_SIZE; SuperLU's defaults suit the wide fronts of 3-D
    problems, Demmel et al., SIAM J. Matrix Anal. Appl. 20, 1999): on these
    Jacobians relaxed amalgamation only stores explicit zeros, and panel
    blocking costs more in its symbolic pass than its dense updates save, so
    both the fill and the factor time drop.  This is srlab's one
    factorisation.  An exactly singular system raises
    ShockConditionDiverged if coupled, else NoConvergence(it, residual, shape).
    """
    from scipy.sparse.linalg import splu

    try:
        return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-4, relax=_RELAX,
                    panel_size=_PANEL_SIZE)
    except RuntimeError as exc:  # exactly singular
        if coupled:
            raise ShockConditionDiverged(f"singular linearized jump-condition system: {exc}") from exc
        raise NoConvergence(it, residual, shape) from exc


def _dot(u, v):
    """u . v by numpy's pairwise sum: no BLAS, so no dependence on its thread count."""
    return float(np.add.reduce(u * v))


def _krylov_step(A, rhs, lu, rtol):
    """Solve A du = rhs by one GMRES cycle preconditioned by lu, the LU of an earlier Jacobian.

    GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) from du = 0
    on the left-preconditioned system lu.solve(A du) = lu.solve(rhs): one
    lu.solve per iteration, modified Gram-Schmidt, Givens rotations on Python
    floats.  The cycle stops once the preconditioned residual, the one GMRES
    minimises, falls to rtol of |lu.solve(rhs)|, or at a breakdown, where the
    Krylov space holds the solution.  Returns (du, iterations), du None on a
    miss: the cycle took all _RESTART iterations, or a norm it divides by is
    zero or not finite.  Every inner product is a pairwise sum (_dot) and du
    sums the basis in a fixed order, so the step is the same for any BLAS
    thread count.
    """
    r0 = lu.solve(rhs)
    beta = math.sqrt(_dot(r0, r0))
    if not 0.0 < beta < math.inf:  # nothing to rotate, or no norm to scale by: a miss
        return None, 0
    basis, columns, rotations, g = [r0 / beta], [], [], [beta]
    for k in range(1, _RESTART + 1):
        w = lu.solve(A @ basis[-1])
        h0 = math.sqrt(_dot(w, w))
        h = []
        for v in basis:
            h.append(_dot(v, w))
            w -= h[-1] * v
        h1 = math.sqrt(_dot(w, w))
        if h1 <= np.finfo(float).eps * h0:  # a breakdown: its rotation zeroes the residual
            h1 = 0.0
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        r = math.hypot(h[-1], h1)
        if not 0.0 < r < math.inf:
            return None, k
        c, s = h[-1] / r, h1 / r
        rotations.append((c, s))
        h[-1] = r
        columns.append(h)
        g.append(-s * g[-1])
        g[-2] *= c
        if abs(g[-1]) <= rtol * beta:
            break
        basis.append(w / h1)
    if k == _RESTART:
        return None, k
    y = g[:k]  # back substitution on the rotated Hessenberg matrix, column j = columns[j]
    for i in reversed(range(k)):
        y[i] = (y[i] - sum(columns[j][i] * y[j] for j in range(i + 1, k))) / columns[i][i]
    du = y[0] * basis[0]
    for yi, v in zip(y[1:], basis[1:]):
        du += yi * v
    return du, k


# -- rectangle solve -----------------------------------------------------------


def _prolong(x, v, t, points):
    """Values at t of the Lagrange interpolant of v along axis 0, on nodes x.

    Each target takes the `points` nodes around the interval of x that holds
    it, the end ones past either end of x.  Exact on polynomials of degree
    below `points`; at a target equal to a node it returns that node's data
    bit for bit, since the other weights are exact zeros.
    """
    start = np.clip(np.searchsorted(x, t, side="right") - points // 2, 0, x.size - points)
    nodes = start[:, None] + np.arange(points)
    xn = x[nodes]
    eye = np.eye(points, dtype=bool)
    num = np.where(eye, 1.0, t[:, None, None] - xn[:, None, :])
    den = np.where(eye, 1.0, xn[:, :, None] - xn[:, None, :])
    w = np.prod(num / den, axis=2)
    return np.einsum("mp,mp...->m...", w, v[nodes])


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
    reflective (psi_y = 0) or Dirichlet.  Each outer step is a Newton step
    (_newton) on the operator's residual; the Jacobian of a linear closure
    is its own operator, so it converges in one step.
    init_field seeds the iteration from a coarser converged solve (nested
    iteration), carried over by local Lagrange interpolation along x and then
    y (_prolong: cubic, linear below 4 nodes); exact on polynomials up to
    cubic in each variable, it keeps an exact coarse solution exact, and it
    solves no system.  Without init_field the solve nests itself: while both
    axes have at least 17 nodes it coarsens, n -> (n + 1)//2 per axis and
    grade_q -> grade_q**2 (so odd sizes nest exactly), the outer data times
    a power profile starts the coarsest level, and each finer level starts
    from the prolonged solution of the one below.  max_iterations is a
    budget per level; meta["levels"] gives each level's shape, iterations,
    factorisations and residual history, coarse to fine, and
    meta["iterations"] is the finest level's.  Raises ValueError on boundary
    data that is not finite, NoConvergence past a level's budget and
    EllipticityLoss if more than _CLAMP_FAIL_FRACTION of the interior nodes
    of a level's converged iterate leave the slope window or the floor
    (_clamp_fraction); either names that level's grid.
    """
    field, record = init_field, []
    for level in ([grid] if init_field is not None else _levels(grid)):
        field = _solve_level(coeffs, bc, level, opts, init_power, field)
        m = field.meta
        record.append({"shape": [level.nx, level.ny], "iterations": m["iterations"],
                       "factorizations": len(m["lu_nnz"]), "residual_history": m["residual_history"]})
    field.meta["levels"] = record
    return field


def _levels(grid):
    """grid and its coarsenings, coarse to fine: halved while both axes keep at least 9 nodes."""
    levels = [grid]
    while min(levels[0].nx, levels[0].ny) >= 17:
        g = levels[0]
        levels.insert(0, replace(g, nx=(g.nx + 1) // 2, ny=(g.ny + 1) // 2, grade_q=g.grade_q**2))
    return levels


def _solve_level(coeffs, bc, grid, opts, init_power, init_field):
    """One level of solve: boundary data (refused unless finite), start (init_field or power profile), _newton."""
    xs, ys = grid.axes()
    y_lo_neumann, y_hi_neumann = bc.y_lo == "neumann", bc.y_hi == "neumann"
    u = np.zeros((xs.size, ys.size))
    u[-1, :] = np.asarray(bc.outer(ys), dtype=float)
    if not y_lo_neumann:
        u[:, 0] = np.asarray(bc.y_lo(xs), dtype=float)
    if not y_hi_neumann:
        u[:, -1] = np.asarray(bc.y_hi(xs), dtype=float)
    u[0, :] = 0.0
    if not (np.all(np.isfinite(u[-1])) and np.all(np.isfinite(u[:, [0, -1]]))):
        raise ValueError("boundary data must be finite")
    if init_field is not None:
        points = 4 if min(init_field.nx, init_field.ny) >= 4 else 2
        start = _prolong(init_field.xs, init_field.values, xs, points)
        start = _prolong(init_field.ys, start.T, ys, points).T
    else:
        if init_power is None:
            init_power = 2.0 if coeffs.a > 0.0 else 1.5
        start = u[-1] * (xs[:, None] / grid.rhat) ** init_power
    unknown = np.s_[1:-1, int(not y_lo_neumann):ys.size - int(not y_hi_neumann)]
    u[unknown] = start[unknown]

    field = ScalarField2D(xs, ys, u, {"kind": "rect"}, {})
    return _newton(field, coeffs, opts, (y_lo_neumann, y_hi_neumann), bc)


def _newton(field, coeffs, opts, neumann, bc, edge_rows=None, unit=1.0):
    """Newton iteration on field in place; returns field with its metadata.

    Each step makes one derivative pass on the current iterate
    (_derivative_pass, reflective at the Neumann rows) and evaluates on it,
    from the closure's table of columns over x (built once per level, like
    the stencil tables), the O-terms (for the converged field's audit), the
    operator's coefficients, the residual L(u) (judged, and negated for the
    step's right side) and the coefficients' partials, for J (_newton_system,
    on that pass's jet and the weight table and skeleton of the first step),
    and steps u += du with J du = -R(u) over the unknowns, J the exact
    Jacobian of the residual R.  The first
    step solves it on a sparse LU of its J; each later step by one GMRES
    cycle preconditioned by that LU (_krylov_step), and a cycle that misses
    its target factors the current J, which the next steps then reuse.  Each cycle is solved only
    as accurately as Newton can use: its relative target follows the last
    step's contraction, read from the residual history alone, so a traced
    run takes the same targets.  Every fixed point solves the equation that
    is reported.  The converged iterate's clamp fraction (_clamp_fraction)
    is measured once, after the loop, and decides EllipticityLoss.
    Convergence is judged on the operator residual max |L psi| over every
    operator row the step solves (_operator_rows: the Neumann rows with the
    interior), divided by unit, and, on the strip, on the scaled jump
    residual that edge_rows(d) returns from the step's derivative pass d
    with the next step's boundary rows (_newton_system's edge); the larger
    of the two is the history entry r_k.  Each iteration logs its residuals,
    and the GMRES iterations and target (both 0 on a fresh LU) and norm
    max |du| of the step that led to it, at DEBUG.
    """
    history, lu_nnz, krylov, du, inner, rtol = [], [], [], 0.0, 0, 0.0
    shock_res, edge, blocks, lu = 0.0, None, None, None
    x = field.xs[:, None]
    tables = _stencil_table(field.xs), _stencil_table(field.ys, neumann)  # one pair per level
    judged = _operator_rows(field.values.shape, neumann)
    table = coeffs.table(x)  # and one closure table
    for it in range(opts.max_iterations + 1):
        # one derivative pass and one evaluation of the table serve the residual
        # of the current iterate, the system and Jacobian of the next step and the audit
        d = _derivative_pass(field, tables)
        jet = [d[key] for key in _JET]
        o_terms = coeffs.evaluate(x, *jet[:3], table)
        coefficients = table.coefficients(*jet[:3], o_terms)
        residual = apply_coefficients(coefficients, jet)
        res = float(np.max(np.abs(residual[judged]))) / unit
        if edge_rows is not None:
            shock_res, edge = edge_rows(d)
        history.append(max(res, shock_res))
        _log.debug("%dx%d grid, iteration %d: residual %.3e, shock %.3e, krylov %d, rtol %.3e, step max|du| %.3e",
                   field.nx, field.ny, it, res, shock_res, inner, rtol, du)
        if history[-1] <= opts.tolerance:
            break
        if it == opts.max_iterations:
            raise NoConvergence(opts.max_iterations, history[-1], field.values.shape)
        if blocks is None:
            blocks = _stencil_blocks(field, tables, neumann, edge is not None)
        J, rhs = _newton_system(blocks, coefficients, table.partials(*jet[:3]), jet, residual, edge)
        if lu is None:
            step, inner = None, 0
        else:
            rtol = min(_KRYLOV_CAP, max(_KRYLOV_TOL, _FORCING * history[-1] / history[-2]))
            step, inner = _krylov_step(J, rhs, lu, rtol)
        if step is None:  # the first step, or a cycle that missed its target
            lu, inner, rtol = _factor(J, edge is not None, it, history[-1], field.values.shape), 0, 0.0
            lu_nnz.append(int(lu.nnz))
            step = lu.solve(rhs)
        krylov.append(inner)
        du = float(np.max(np.abs(step)))
        # written through the 2-D view: field.values need not be C-contiguous
        field.values[blocks[0]] += step.reshape(field.values[blocks[0]].shape)

    clamp_fraction = _clamp_fraction(x, coeffs.a, coefficients[2], d["px"])
    _finalize_meta(field, coeffs, opts, bc, history, lu_nnz, krylov, clamp_fraction, o_terms)
    if edge_rows is not None:
        field.meta["outer_data"] = "synthetic slope surrogate psi_x = x/a at x=eps"
        field.meta["shock_residual"] = shock_res
    if clamp_fraction > _CLAMP_FAIL_FRACTION:
        raise EllipticityLoss(clamp_fraction, field)
    return field


def _clamp_fraction(x, a, lead, px):
    """The share of interior nodes whose slope leaves zeta's window or whose lead is below the floor.

    x is the column of node abscissae.  The lead 2x - a psi_x + O1 =
    x(1 + a*slope) + O1, slope = (x/a - psi_x)/x; the floor is _EPS_ELL * x.
    A measurement of an iterate: nothing alters the operator with it.
    """
    outside = False
    if a > 0.0:
        slope = (x / a - px) / np.where(x > 0.0, x, 1.0)  # the x = 0 column is Dirichlet data
        outside = zeta(slope, a, _BETA, _M) != slope
    return float(np.mean((outside | (lead < _EPS_ELL * x))[1:-1, 1:-1]))


def _finalize_meta(field, coeffs, opts, bc, history, lu_nnz, krylov, clamp_fraction, o_terms):
    """Sidecar metadata of a converged field.

    o_terms are the closure's O-terms on it, from the last iteration's one
    evaluation, lu_nnz the L+U fill of each LU in the order factored, and
    krylov each step's GMRES iterations, 0 for a step solved on a fresh LU.
    """
    inner = np.s_[1:-1, 1:-1]
    xin = field.xs[1:-1, None]
    audit = o_bound_audit(coeffs, xin, [np.broadcast_to(o, field.values.shape)[inner] if np.ndim(o) else o
                                        for o in o_terms])  # a scalar O-term is audited unbroadcast
    interior = field.values[inner]
    positivity = bool(np.all(interior > 0.0))
    if coeffs.a > 0.0:
        bound = (2.0 - _BETA) / (2.0 * coeffs.a) * xin**2
        quad_ok = bool(np.all(interior <= bound * (1.0 + 1e-12) + 1e-30))
    else:
        quad_ok = None
    field.meta.update(
        {
            "coefficients": coeffs.describe(),
            "options": opts.describe(),
            "bc": bc.describe() if bc is not None else {"kind": "sonic_strip"},
            "iterations": len(history),
            "lu_nnz": lu_nnz,
            "krylov_iterations": krylov,
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
    the combined jump condition G enforced pointwise on the shock image, and
    the slope psi_x = x/a of the synthetic surrogate x^2/(2a) on the outer
    cut (flagged in metadata).  The shock-row and cut values are unknowns of
    the same sparse system as the interior, with jet rows built once per
    step (edge_rows): (L3, L1, L2, 0, 0, 0), G's gradient from the one
    complex step that gives G, and -G on the shock; (0, 1, 0, 0, 0, 0) and
    x/a - psi_x on the cut.  Each outer step is one Newton step on the
    operator and G together (a column-by-column explicit Newton amplifies
    row roughness through G's 1/h tangential weights and diverges).  The
    shock corner takes the cut row, so no datum contradicts G there.  Both
    judged residuals, the operator's on every row the step solves (the wedge
    row's included) and G's, are per c2, which scales like every length and
    speed with the density unit, so no verdict or step depends on that unit.
    """
    xmax = shock_depth_max(config)
    if not 0.0 < eps < xmax:  # NaN fails too
        raise ValueError(f"eps={eps:.6g} must lie in (0, {xmax:.6g}), the shock chart depth")
    coeffs = reflection_coefficients(config, eps)
    a = coeffs.a
    xs = geometric_axis(eps, grid_nx, grade_q)
    ss = uniform_axis(0.0, 1.0, grid_ny)
    fh, fhp, fhpp = shock_chart_table(config, xs)
    g = fhp / fh
    gp = fhpp / fh - (fhp / fh) ** 2
    geometry = {"kind": "sonic_strip", "eps": eps, "fhat": fh.tolist(), "g": g.tolist(), "gp": gp.tolist(),
                "config_json": config.to_json()}

    u = (xs[:, None] ** 2 / (2.0 * a)) * np.ones_like(ss)[None, :]  # 0 on the sonic segment, xs[0] = 0
    field = ScalarField2D(xs, ss, u, geometry, {})
    fns = ShockBoundaryFns(config)
    lam_scale = abs(fns.psi_p1_at_P1()) * config.c2
    i = np.arange(1, grid_nx - 1)
    x_i, fh_i = xs[i], fh[i]  # fh_i is also the shock ordinate y
    at = np.zeros(u.shape, dtype=bool)
    at[i, -1] = at[-1, :] = True  # in C order the shock rows, then the cut column with the shock corner

    def edge_rows(d):
        """Scaled jump-condition residual, and the boundary's jet rows (at, coefficients, right sides)."""
        uJ, px, py = (d[key][i, -1] for key in ("psi", "px", "py"))
        try:
            G, (L1, L2, L3) = fns.psi_gradient(px, py, uJ, x_i, fh_i)
        except VacuumState as exc:
            raise ShockConditionDiverged(f"shock-row iterate left the admissible ball: {exc}") from exc
        if not np.isfinite((G, L1, L2, L3)).all():
            raise ShockConditionDiverged("nonfinite linearized jump condition on the shock row")
        res = float(np.max(np.abs(G))) / lam_scale
        if res > 1.0:
            # the row has left the small-perturbation regime (converging solves
            # stay below 0.03); the isothermal closure has no vacuum bound to
            # stop a divergence, and the LU fill of its iterates grows without bound
            raise ShockConditionDiverged(f"jump-condition residual {res:.3g} exceeds its gradient scale")
        rows = np.zeros((6, i.size + grid_ny))
        rows[:3, :i.size], rows[1, i.size:] = (L3, L1, L2), 1.0  # the cut's psi_x
        return res, (at, rows, np.concatenate((-G, xs[-1] / a - d["px"][-1])))

    return _newton(field, coeffs, opts, (True, False), None, edge_rows, config.c2)
