import numpy as np
import pytest

import srlab
from srlab.coefficients import o_bound_audit, zeta
from srlab.errors import EllipticityLoss, NoConvergence, ShockConditionDiverged
from srlab.grids import ScalarField2D, geometric_axis, uniform_axis
from srlab.solver import _levels, _prolong, derivative_fields

from conftest import residual


def make_field(fn, rhat=0.5, n=49, q=1.0, ylim=1.0):
    xs = geometric_axis(rhat, n, q)
    ys = uniform_axis(-ylim, ylim, n)
    return ScalarField2D(xs, ys, fn(xs[:, None], ys[None, :]))


def test_residual_zero_field(model_ab):
    a, b = model_ab
    f = make_field(lambda x, y: 0.0 * x * y)
    r, _ = residual(f, srlab.model_coefficients(a, b))
    assert r == 0.0


def test_residual_exact_quadratic(model_ab):
    # psi = x^2/(2a) solves the leading-term equation identically and the
    # stencils are exact on quadratics, so the residual is round-off only
    a, b = model_ab
    for q in (1.0, 0.95):
        f = make_field(lambda x, y: x * x / (2 * a) + 0.0 * y, q=q)
        r, _ = residual(f, srlab.model_coefficients(a, b))
        assert r < 1e-11


def test_residual_three_halves_linear_mode(model_ab):
    # c x^{3/2} solves the linear-contrast equation; the discrete residual is
    # pure truncation, h^{1/2}-scaled near the edge and h^2-scaled away
    _, b = model_ab
    coeffs = srlab.linear_coefficients(b)
    rs = {}
    for n in (49, 97, 193):
        f = make_field(lambda x, y: x**1.5 + 0.0 * y, n=n)
        rmax, rf = residual(f, coeffs)
        h = 0.5 / (n - 1)
        rs[n] = (rmax, h)
        interior = np.abs(rf[1:-1, 1:-1])
        assert np.argmax(interior.max(axis=1)) == 0  # worst at the first column
        # away from the edge: second-order truncation
        far = interior[n // 2 :, :].max()
        assert far < 20.0 * h**2
    r49, h49 = rs[49]
    r193, h193 = rs[193]
    order = np.log(r49 / r193) / np.log(h49 / h193)
    assert 0.3 < order < 0.8  # h^{1/2} edge scaling


def test_derivative_fields_exact_on_quadratics():
    xs = geometric_axis(0.4, 33, 0.93)
    ys = uniform_axis(-1.0, 1.0, 21)
    f = ScalarField2D(xs, ys, 0.5 * xs[:, None] ** 2 + xs[:, None] * ys[None, :] + 2.0 * ys[None, :] ** 2)
    d = derivative_fields(f)
    assert np.allclose(d["px"][1:-1, 1:-1], xs[1:-1, None] + ys[None, 1:-1], atol=1e-12)
    assert np.allclose(d["py"][1:-1, 1:-1], xs[1:-1, None] + 4.0 * ys[None, 1:-1], atol=1e-12)
    assert np.allclose(d["pxx"][1:-1, 1:-1], 1.0, atol=1e-9)
    assert np.allclose(d["pxy"][1:-1, 1:-1], 1.0, atol=1e-10)
    assert np.allclose(d["pyy"][1:-1, 1:-1], 4.0, atol=1e-9)


def test_zeta_identity_window_and_clamp():
    a, beta, M = 2.4, 0.5, 2.0
    s = np.linspace(-(1 - beta) / a + 1e-9, M + 1 / a - 1e-9, 101)
    assert np.array_equal(zeta(s, a, beta, M), s)
    assert zeta(-10.0, a, beta, M) == -(1 - beta) / a
    assert zeta(+10.0, a, beta, M) == M + 1 / a


def test_solver_options_validation():
    for tol in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            srlab.SolverOptions(tolerance=tol)
    with pytest.raises(ValueError):
        srlab.SolverOptions(omega_sor=2.5)
    with pytest.raises(ValueError):
        srlab.SolverOptions(max_iterations=-1)


@pytest.mark.parametrize("q", [1.2, -0.5, 0.0, np.nan])
def test_grid_spec_refuses_a_grade_outside_0_1(q):
    # solve squares the grade once per coarser level, so a bad one is refused
    # as given, before any level is built or solved
    with pytest.raises(ValueError, match=f"grade_q must lie in \\(0, 1\\], got {q}"):
        srlab.GridSpec(rhat=0.5, nx=97, ny=49, grade_q=q)


def test_exact_solution_reproduced(model_ab):
    a, b = model_ab
    rhat = 0.5
    exact = lambda x: x * x / (2 * a)
    grid = srlab.GridSpec(rhat=rhat, nx=65, ny=65, y_lo=-1, y_hi=1, grade_q=1.0)
    bc = srlab.BoundaryConditions(outer=lambda y: exact(rhat) * np.ones_like(y), y_lo=exact, y_hi=exact)
    f = srlab.solve(srlab.model_coefficients(a, b), bc, grid,
                    srlab.SolverOptions(tolerance=1e-10, max_iterations=4000),
                    init_power=1.5)
    err = np.max(np.abs(f.values - exact(f.xs)[:, None]))
    h = rhat / 64
    assert err <= 10 * h * h
    assert f.meta["clamp_fraction"] == 0.0
    assert f.meta["positivity_ok"]
    assert f.meta["quadratic_bound_ok"]


def test_linear_mode_three_halves(model_ab):
    _, b = model_ab
    rhat = 0.5
    grid = srlab.GridSpec(rhat=rhat, nx=65, ny=65, y_lo=-1, y_hi=1, grade_q=1.0)
    bc = srlab.BoundaryConditions(outer=lambda y: rhat**1.5 * np.ones_like(y))
    f = srlab.solve(srlab.linear_coefficients(b), bc, grid,
                    srlab.SolverOptions(tolerance=1e-10, max_iterations=6000))
    # the linear closure's Jacobian is the operator itself, so one Newton
    # step converges
    assert f.meta["iterations"] == 2
    assert len(f.meta["lu_nnz"]) == f.meta["iterations"] - 1
    err = np.max(np.abs(f.values - (f.xs**1.5)[:, None]))
    h = rhat / 64
    assert err <= 10 * h**1.5


def test_perturbed_fixture_properties(model_field, model_ab):
    a, b = model_ab
    assert model_field.meta["final_residual"] <= 1e-10
    assert model_field.meta["positivity_ok"]
    assert model_field.meta["quadratic_bound_ok"]
    assert model_field.meta["clamp_fraction"] == 0.0  # every slope inside the window
    # stored boundary conditions hold on the converged field; the one-sided
    # probe of the mirrored Neumann rows carries its own O(h^2) truncation
    d = derivative_fields(model_field)
    hy = model_field.ys[1] - model_field.ys[0]
    scale = np.max(np.abs(d["py"]))
    assert np.max(np.abs(d["py"][1:-1, 0])) < 10 * hy**2 * scale
    assert np.max(np.abs(d["py"][1:-1, -1])) < 10 * hy**2 * scale
    assert np.allclose(model_field.values[0, :], 0.0)


def test_monotone_residual(model_ab):
    a, b = model_ab
    rhat = 0.5
    outer = lambda y: (rhat**2 / (2 * a)) * (1.0 + 0.2 * np.cos(np.pi * y))
    grid = srlab.GridSpec(rhat=rhat, nx=49, ny=49, y_lo=-1, y_hi=1, grade_q=0.95)
    f = srlab.solve(srlab.model_coefficients(a, b), srlab.BoundaryConditions(outer=outer), grid,
                    srlab.SolverOptions(tolerance=1e-9, max_iterations=6000))
    # nonincreasing on every level, the 13x13 one that starts from the
    # artificial profile included, with no startup transient to skip; each
    # level's history spans at least seven decades of residual
    assert [lv["shape"] for lv in f.meta["levels"]] == [[13, 13], [25, 25], [49, 49]]
    for level in f.meta["levels"]:
        hist = np.asarray(level["residual_history"])
        assert hist[0] >= 1e7 * hist[-1]
        assert np.all(np.diff(hist) <= 1e-13)


def test_no_convergence_raises(model_ab):
    a, b = model_ab
    grid = srlab.GridSpec(rhat=0.5, nx=49, ny=49, grade_q=1.0)
    outer = lambda y: (0.25 / (2 * a)) * (1.0 + 0.2 * np.cos(np.pi * y))
    with pytest.raises(NoConvergence) as exc:
        srlab.solve(srlab.model_coefficients(a, b), srlab.BoundaryConditions(outer=outer), grid,
                    srlab.SolverOptions(tolerance=1e-12, max_iterations=3))
    assert exc.value.iterations == 3
    assert exc.value.residual > 0.0
    # the budget is per level, so the coarsest level, 13x13, exhausts it first
    assert "on the 13x13 grid" in str(exc.value)


def test_ellipticity_loss_reads_the_converged_iterate(model_ab):
    # u = 2x^2/a has the slope (x/a - psi_x)/x = -3/a, below the slope
    # window -(1 - 0.5)/a on every node; a start that converges at once
    # must report that, not the fraction of an earlier iterate.  The 33x17
    # grid nests a 17x9 level, which converges at once and raises
    a, b = model_ab
    rhat = 0.5
    grid = srlab.GridSpec(rhat=rhat, nx=33, ny=17, grade_q=1.0)
    bc = srlab.BoundaryConditions(outer=lambda y: 2.0 * rhat**2 / a * np.ones_like(y))
    with pytest.raises(EllipticityLoss) as exc:
        srlab.solve(srlab.model_coefficients(a, b), bc, grid,
                    srlab.SolverOptions(tolerance=1e3, max_iterations=0), init_power=2.0)
    assert exc.value.fraction == 1.0
    assert exc.value.field.meta["clamp_fraction"] == 1.0
    assert exc.value.field.values.shape == (17, 9) and "of the 17x9 grid" in str(exc.value)


def test_nested_start_exact_on_quadratic(model_ab):
    # nested iteration must carry an exact profile over exactly: seeded with
    # x^2/(2a) on a 33^2 grid, the 65^2 solve is converged before any sweep
    a, b = model_ab
    rhat = 0.5
    exact = lambda x: x * x / (2 * a)
    bc = srlab.BoundaryConditions(outer=lambda y: exact(rhat) * np.ones_like(y), y_lo=exact, y_hi=exact)
    opts = srlab.SolverOptions(tolerance=1e-9, max_iterations=0)
    for q in (1.0, 0.95):
        coarse = make_field(lambda x, y: exact(x) + 0.0 * y, rhat=rhat, n=33, q=q)
        grid = srlab.GridSpec(rhat=rhat, nx=65, ny=65, y_lo=-1, y_hi=1, grade_q=q)
        f = srlab.solve(srlab.model_coefficients(a, b), bc, grid, opts, init_field=coarse)
        assert f.meta["iterations"] == 1
        assert f.meta["final_residual"] <= 1e-9


def test_power_start_steps_do_not_depend_on_the_mesh(model_ab):
    # the power profile starts only the coarsest level and each finer one
    # starts from the prolonged solution below it, so on the criterion-1 data
    # the fine level converges at once on every rung; from the power start on
    # the fine grid itself, 129^2 ran out of 50 steps at residual 4.5e10
    a, b = model_ab
    rhat = 0.5
    exact = lambda x: x * x / (2 * a)
    bc = srlab.BoundaryConditions(outer=lambda y: exact(rhat) * np.ones_like(y), y_lo=exact, y_hi=exact)
    opts = srlab.SolverOptions(tolerance=1e-9, max_iterations=50)
    for n in (65, 129, 257):
        f = srlab.solve(srlab.model_coefficients(a, b), bc, srlab.GridSpec(rhat=rhat, nx=n, ny=n), opts,
                        init_power=1.5)
        assert f.meta["iterations"] <= 2
        assert f.meta["levels"][-1]["iterations"] == f.meta["iterations"]
        assert np.max(np.abs(f.values - exact(f.xs)[:, None])) <= 10 * (rhat / (n - 1)) ** 2


@pytest.mark.parametrize("q", [1.0, 0.95])
def test_levels_nest_exactly(q):
    # odd sizes halve to (n + 1)//2 nodes at the squared grade, so each
    # coarse node is every other fine node, to a few ulps of the axis extent
    for n in (17, 33, 65, 97, 257):
        levels = _levels(srlab.GridSpec(rhat=0.5, nx=n, ny=n, grade_q=q))
        assert levels[-1].nx == n and min(levels[0].nx, levels[0].ny) >= 9 > (levels[0].nx + 1) // 2
        for coarse, fine in zip(levels, levels[1:]):
            for xc, xf in zip(coarse.axes(), fine.axes()):
                assert np.max(np.abs(xc - xf[::2])) <= 4 * np.spacing(np.max(np.abs(xf)))
    assert _levels(srlab.GridSpec(rhat=0.5, nx=97, ny=16)) == [srlab.GridSpec(rhat=0.5, nx=97, ny=16)]


def test_prolong_exact_on_cubics_along_each_axis():
    # graded, non-nested axes: the 65 fine nodes are not a refinement of the 33
    xc, yc = geometric_axis(0.5, 33, 0.95), uniform_axis(-1.0, 1.0, 33)
    xf, yf = geometric_axis(0.5, 65, 0.95), uniform_axis(-1.0, 1.0, 65) ** 3
    cubic = lambda x, y: (1.0 - 2.0 * x + 3.0 * x**2 - 5.0 * x**3) * (0.5 + y - y**2 + 2.0 * y**3)
    u = _prolong(xc, cubic(xc[:, None], yc[None, :]), xf, 4)
    assert np.max(np.abs(u - cubic(xf[:, None], yc[None, :]))) <= 1e-13
    u = _prolong(yc, u.T, yf, 4).T
    assert np.max(np.abs(u - cubic(xf[:, None], yf[None, :]))) <= 1e-13


def test_prolong_keeps_coincident_data_and_is_linear_on_two_points():
    rng = np.random.default_rng(7)
    x = geometric_axis(0.5, 33, 0.95)
    t = np.sort(np.concatenate([x, 0.5 * (x[1:] + x[:-1])]))
    v = rng.standard_normal((33, 5))
    for points in (2, 4):
        assert np.array_equal(_prolong(x, v, t, points)[::2], v)  # bit for bit
    # two points: the piecewise-linear interpolant, as on an axis of fewer than 4 nodes
    x3, t3 = np.array([0.0, 1.0, 2.0]), np.linspace(0.0, 2.0, 9)
    assert np.allclose(_prolong(x3, x3**2, t3, 2), np.interp(t3, x3, x3**2), rtol=0.0, atol=1e-15)


def test_solve_deterministic(model_ab):
    a, b = model_ab
    grid = srlab.GridSpec(rhat=0.5, nx=33, ny=33, grade_q=0.95)
    outer = lambda y: (0.25 / (2 * a)) * (1.0 + 0.2 * np.cos(np.pi * y))
    opts = srlab.SolverOptions(tolerance=1e-9, max_iterations=4000)
    f1 = srlab.solve(srlab.model_coefficients(a, b), srlab.BoundaryConditions(outer=outer), grid, opts)
    f2 = srlab.solve(srlab.model_coefficients(a, b), srlab.BoundaryConditions(outer=outer), grid, opts)
    assert np.array_equal(f1.values, f2.values)  # bit-identical


def test_reflection_field_basics(reflection_field, weak60):
    f = reflection_field
    assert f.kind == "sonic_strip"
    assert f.meta["positivity_ok"]
    assert f.meta["quadratic_bound_ok"]
    assert f.meta["final_residual"] <= 1e-9
    assert f.meta["shock_residual"] <= 1e-9
    assert "synthetic" in f.meta["outer_data"]
    aud = f.meta["o_bound_audit"]
    assert aud["o1_over_x2"] <= aud["nominal_N"]
    assert aud["ok_over_x"] <= aud["nominal_N"]


def test_reflection_field_converges_in_few_iterations(reflection_field):
    # the jump-condition rows are solved with the interior, so the outer
    # count is set by the nonlinearity, not by an interior/shock-row alternation
    assert reflection_field.meta["iterations"] <= 40


def test_reflection_field_takes_newton_steps(reflection_field):
    # the first step factors the exact Jacobian, every later step solves its
    # own by GMRES on that factor, and a few steps converge
    meta = reflection_field.meta
    assert meta["iterations"] <= 8
    assert len(meta["lu_nnz"]) == 1
    krylov = meta["krylov_iterations"]
    assert len(krylov) == meta["iterations"] - 1
    assert krylov[0] == 0 and all(k > 0 for k in krylov[1:])


def test_near_supersonic_strip_factors_once(weak60):
    # at 50.5 deg Newton still converges in a few steps on the first step's
    # factor, and the pivot threshold keeps the fill-reducing order's pivots:
    # fill as at 60 deg (0.01 doubled it)
    opts = srlab.SolverOptions(tolerance=1e-9, max_iterations=40)
    cfg = srlab.solve_state2(srlab.GasParameters(1.4, 1.0, 2.0), np.radians(50.5))["weak"]
    f = srlab.solve_reflection_near_sonic(cfg, cfg.c2 / 20.0, grid_nx=121, grid_ny=49, grade_q=0.95, opts=opts)
    assert f.meta["iterations"] <= 8
    assert len(f.meta["lu_nnz"]) == 1
    f60 = srlab.solve_reflection_near_sonic(weak60, weak60.c2 / 20.0, grid_nx=121, grid_ny=49, grade_q=0.95, opts=opts)
    assert f.meta["lu_nnz"][0] <= 1.1 * f60.meta["lu_nnz"][0]


def test_factor_keeps_diagonal_pivots_with_column_supernodes(weak60, monkeypatch):
    # every factor of the 60 and 50.5 deg strips and of the CLI model solve's
    # levels keeps the fill-reducing order's diagonal pivots, and supernodes
    # one column wide fill less than SuperLU's defaults did (310,111 on the
    # 121x49 strip, 144,912 on the 97x49 model level)
    from srlab import solver

    factors, factor = [], solver._factor

    def spy(A, *args):
        lu = factor(A, *args)
        factors.append((A.shape[0], lu))
        return lu

    monkeypatch.setattr(solver, "_factor", spy)
    opts = srlab.SolverOptions(tolerance=1e-9, max_iterations=40)
    cfg = srlab.solve_state2(srlab.GasParameters(1.4, 1.0, 2.0), np.radians(50.5))["weak"]
    for c in (weak60, cfg):
        srlab.solve_reflection_near_sonic(c, c.c2 / 20.0, grid_nx=121, grid_ny=49, grade_q=0.95, opts=opts)
    strips = [lu.nnz for _, lu in factors]
    a = 2.4
    bc = srlab.BoundaryConditions(outer=lambda y: (0.125 / a) * (1.0 + 0.2 * np.cos(np.pi * y)))
    f = srlab.solve(srlab.model_coefficients(a, 0.7765781059372254), bc, srlab.GridSpec(0.5, 97, 49, grade_q=0.95))
    model = factors[len(strips):]
    assert [n for n, _ in model] == [(nx - 2) * ny for nx, ny in (lv["shape"] for lv in f.meta["levels"])]
    assert len(strips) == 2 and max(strips) < 310_111 and model[-1][1].nnz < 144_912
    assert all(np.array_equal(lu.perm_r, lu.perm_c) for _, lu in factors)


def _nonsymmetric_system():
    # a convection-diffusion tridiagonal B plus a sparse random part; the LU
    # of B preconditions A = B + R, which GMRES then needs 10-20 iterations for
    from scipy.sparse import diags, random as sparse_random
    from scipy.sparse.linalg import splu

    rng = np.random.default_rng(0)
    B = diags([-1.3, 2.2, -0.7], [-1, 0, 1], shape=(60, 60), format="csc")
    A = (B + 0.3 * sparse_random(60, 60, density=0.05, random_state=rng, format="csc")).tocsr()
    return A, rng.standard_normal(60), splu(B)


@pytest.mark.parametrize("rtol", [1e-4, 1e-8])
def test_krylov_cycle_takes_scipys_iterations(rtol):
    # scipy's gmres is the oracle: one cycle of the same restart, the same
    # left-preconditioned stopping rule, the same iteration count and solution
    from scipy.sparse.linalg import LinearOperator, gmres
    from srlab.solver import _RESTART, _krylov_step

    A, rhs, lu = _nonsymmetric_system()
    norms = []
    x, _ = gmres(A, rhs, rtol=rtol, restart=_RESTART, maxiter=1, M=LinearOperator(A.shape, lu.solve, dtype=float),
                 callback=norms.append, callback_type="pr_norm")
    du, iterations = _krylov_step(A, rhs, lu, rtol)
    assert 1 < iterations == len(norms) < _RESTART
    assert np.max(np.abs(du - x)) <= 1e-12 * np.max(np.abs(x))
    pre = lu.solve(rhs)
    assert np.linalg.norm(lu.solve(rhs - A @ du)) <= rtol * np.linalg.norm(pre)


def test_krylov_cycle_misses_an_unreachable_target():
    from srlab.solver import _RESTART, _krylov_step

    A, rhs, lu = _nonsymmetric_system()
    assert _krylov_step(A, rhs, lu, 1e-30) == (None, _RESTART)


def test_krylov_cycle_on_its_own_factor_takes_one_iteration():
    from scipy.sparse.linalg import splu
    from srlab.solver import _krylov_step

    A, rhs, _ = _nonsymmetric_system()
    du, iterations = _krylov_step(A, rhs, splu(A.tocsc()), 1e-8)
    x = np.linalg.solve(A.toarray(), rhs)
    assert iterations == 1
    assert np.max(np.abs(du - x)) <= 1e-13 * np.max(np.abs(x))


def test_missed_krylov_cycle_refactors(reflection_field, weak60, monkeypatch):
    # a GMRES cycle that cannot reach its target refactors at the current
    # Jacobian and solves on that factor: same steps, same field.  The target
    # lies between the floor and the cap, so both go to 1e-30 to force a miss
    from srlab import solver

    monkeypatch.setattr(solver, "_KRYLOV_TOL", 1e-30)
    monkeypatch.setattr(solver, "_KRYLOV_CAP", 1e-30)
    f = srlab.solve_reflection_near_sonic(weak60, eps=weak60.c2 / 20.0, grid_nx=97, grid_ny=49,
                                          opts=srlab.SolverOptions(tolerance=1e-9, max_iterations=6000))
    steps = reflection_field.meta["iterations"] - 1
    assert f.meta["iterations"] == steps + 1
    assert len(f.meta["lu_nnz"]) == steps
    assert f.meta["krylov_iterations"] == [0] * steps
    ref = reflection_field.values
    assert np.max(np.abs(f.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_forcing_term_saves_krylov_iterations(weak60, model_ab, monkeypatch):
    # each GMRES cycle stops at the target the last Newton contraction asks
    # for: the same steps on one LU, at most 7 iterations per cycle (a fixed
    # 1e-8 target takes 8-10), and the field of the solve held to 1e-8.
    # Cases: the gamma=1.4 criterion-6 strip (5 iterations) and the CLI's
    # 97x49 model solve (3 on its fine level, each of its levels on one LU)
    from srlab import solver

    a, b = model_ab
    outer = lambda y: (0.25 / (2 * a)) * (1.0 + 0.2 * np.cos(np.pi * y))
    model = (srlab.model_coefficients(a, b), srlab.BoundaryConditions(outer=outer),
             srlab.GridSpec(rhat=0.5, nx=97, ny=49, grade_q=0.95))
    opts = srlab.SolverOptions(tolerance=1e-9, max_iterations=40)
    runs = ((5, lambda: srlab.solve_reflection_near_sonic(weak60, weak60.c2 / 20.0, grid_nx=121, grid_ny=49,
                                                          opts=opts)),
            (3, lambda: srlab.solve(*model, opts)))
    for iterations, run in runs:
        f = run()
        assert f.meta["iterations"] == iterations and len(f.meta["lu_nnz"]) == 1
        assert all(level["factorizations"] == 1 for level in f.meta.get("levels", []))
        assert f.meta["krylov_iterations"][0] == 0 and 0 < max(f.meta["krylov_iterations"]) <= 7
        with monkeypatch.context() as m:
            m.setattr(solver, "_KRYLOV_CAP", 1e-8)
            ref = run().values
        assert np.max(np.abs(f.values - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_debug_log_gives_each_step_norm(model_ab, caplog):
    # one DEBUG line per iteration on each level, naming the level's grid,
    # with the norm of the step that led to it
    import logging

    from srlab.solver import _FORCING, _KRYLOV_CAP, _KRYLOV_TOL

    a, b = model_ab
    outer = lambda y: (0.25 / (2 * a)) * (1.0 + 0.2 * np.cos(np.pi * y))
    with caplog.at_level(logging.DEBUG, logger="srlab.solver"):
        f = srlab.solve(srlab.model_coefficients(a, b), srlab.BoundaryConditions(outer=outer),
                        srlab.GridSpec(rhat=0.5, nx=33, ny=33, grade_q=0.95), srlab.SolverOptions(tolerance=1e-9))
    lines = [r.getMessage() for r in caplog.records if "step max|du|" in r.getMessage()]
    levels = f.meta["levels"]
    assert [lv["shape"] for lv in levels] == [[9, 9], [17, 17], [33, 33]]
    order = ["{}x{}".format(*lv["shape"]) for lv in levels for _ in range(lv["iterations"])]
    assert [m.split(" grid,", 1)[0] for m in lines] == order
    for level in levels:
        grid = "{}x{} grid,".format(*level["shape"])
        own = [m for m in lines if m.startswith(grid)]
        steps = [float(m.rsplit(" ", 1)[1]) for m in own]
        assert len(steps) == level["iterations"] >= 3
        # and the GMRES iterations of that step, as in the sidecar on the fine level
        krylov = [int(m.split("krylov ", 1)[1].split(",", 1)[0]) for m in own]
        if level is levels[-1]:
            assert krylov == [0] + f.meta["krylov_iterations"]
        # and its GMRES target, 0 on a fresh LU, else the forcing term of the
        # level's residuals logged before it (to their printed digits)
        rtol = [float(m.split("rtol ", 1)[1].split(",", 1)[0]) for m in own]
        r = [max(float(m.split("residual ", 1)[1].split(",", 1)[0]), float(m.split("shock ", 1)[1].split(",", 1)[0]))
             for m in own]
        assert rtol[:2] == [0.0, 0.0] and len(rtol) > 2
        for k in range(2, len(own)):
            expected = min(_KRYLOV_CAP, max(_KRYLOV_TOL, _FORCING * r[k - 1] / r[k - 2])) if krylov[k] else 0.0
            assert rtol[k] == pytest.approx(expected, rel=2e-3)
        assert steps[0] == 0.0 and steps[1] > 0.0
        # the steps from the power start, on the coarsest level, fall by three decades
        assert level is not levels[0] or steps[-1] < 1e-3 * steps[1]


def test_reflection_strip_steps_do_not_depend_on_the_mesh(weak60):
    # Newton's step count stays put when the strip is refined twice over
    opts = srlab.SolverOptions(tolerance=1e-9, max_iterations=40)
    steps = [srlab.solve_reflection_near_sonic(weak60, weak60.c2 / 20.0, grid_nx=nx, grid_ny=ny,
                                               grade_q=0.95, opts=opts).meta["iterations"]
             for nx, ny in ((121, 61), (241, 121))]
    assert max(steps) <= 8
    assert abs(steps[0] - steps[1]) <= 1


def test_reflection_field_shock_condition_pointwise(reflection_field, weak60):
    # the converged boundary row satisfies the nonlinear jump condition
    from srlab.shock import ShockBoundaryFns
    from srlab.solver import _first_weights

    f = reflection_field
    fns = ShockBoundaryFns(weak60)
    fh = np.asarray(f.geometry["fhat"])
    g = np.asarray(f.geometry["g"])
    ds = f.ys[1] - f.ys[0]
    wm, w0, wp = _first_weights(f.xs)
    i = np.arange(1, f.nx - 1)
    vals = f.values
    uJ = vals[i, -1]
    us = (3 * uJ - 4 * vals[i, -2] + vals[i, -3]) / (2 * ds)
    ux = wm * vals[i - 1, -1] + w0 * uJ + wp * vals[i + 1, -1]
    G = fns.Psi(ux - g[i] * us, us / fh[i], uJ, f.xs[i], fh[i])
    assert np.max(np.abs(G)) <= 1e-8 * abs(fns.psi_p1_at_P1())


def test_reflection_divergence_stops_early_and_typed(monkeypatch):
    # no natural strip input is known to diverge once the cut carries the
    # surrogate's slope, so the start is constructed: shrinking the gradient
    # scale puts the scaled jump residual of the first iterate far above 1.
    # The isothermal closure has no vacuum bound to trip, so that residual
    # must stop the run before the LU fill of a diverging iterate grows
    # without bound
    from srlab.shock import ShockBoundaryFns

    scale = ShockBoundaryFns.psi_p1_at_P1
    monkeypatch.setattr(ShockBoundaryFns, "psi_p1_at_P1", lambda self: 1e-6 * scale(self))
    cfg = srlab.solve_state2(srlab.GasParameters(1.0, 1.0, 2.0), np.radians(60.0))["weak"]
    with pytest.raises(ShockConditionDiverged, match="gradient scale"):
        srlab.solve_reflection_near_sonic(cfg, cfg.c2 / 20.0, grid_nx=61, grid_ny=31,
                                          opts=srlab.SolverOptions(tolerance=1e-9, max_iterations=40))


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
def test_reflection_strip_ladder_converges(gamma):
    # with the cut column a slope row of the sparse system the strip solve
    # converges on a refinement ladder, judged on every interior node
    cfg = srlab.solve_state2(srlab.GasParameters(gamma, 1.0, 2.0), np.radians(60.0))["weak"]
    opts = srlab.SolverOptions(tolerance=1e-9, max_iterations=40)
    for nx, ny in ((61, 31), (121, 61)):
        f = srlab.solve_reflection_near_sonic(cfg, cfg.c2 / 20.0, grid_nx=nx, grid_ny=ny, opts=opts)
        assert f.meta["iterations"] <= 40
        assert f.meta["final_residual"] <= opts.tolerance


def test_reflection_solve_deterministic(weak60):
    opts = srlab.SolverOptions(tolerance=1e-7, max_iterations=3000)
    f1 = srlab.solve_reflection_near_sonic(weak60, weak60.c2 / 20, grid_nx=49, grid_ny=25, opts=opts)
    f2 = srlab.solve_reflection_near_sonic(weak60, weak60.c2 / 20, grid_nx=49, grid_ny=25, opts=opts)
    assert np.array_equal(f1.values, f2.values)


def test_reflection_eps_bound(weak60):
    from srlab.reflection import shock_depth_max

    for eps in (shock_depth_max(weak60) * 1.01, 0.0, -0.1 * weak60.c2, np.nan):
        with pytest.raises(ValueError):
            srlab.solve_reflection_near_sonic(weak60, eps)


def test_o_bound_audit_model_is_zero(model_field, model_ab):
    a, b = model_ab
    d = derivative_fields(model_field)
    x2d = np.broadcast_to(model_field.xs[:, None], model_field.values.shape)
    coeffs = srlab.model_coefficients(a, b)
    x = x2d[1:-1, 1:-1]
    audit = o_bound_audit(coeffs, x, coeffs.evaluate(x, *(d[key][1:-1, 1:-1] for key in ("psi", "px", "py"))))
    assert audit["o1_over_x2"] == 0.0
    assert audit["ok_over_x"] == 0.0


def test_audit_takes_the_last_iterations_o_terms(reflection_field, weak60, monkeypatch):
    # each Newton iteration evaluates the O-terms once on real data, and the
    # sidecar's audit reuses the last iteration's: no evaluation after the
    # loop, and the audit of a fresh evaluation on the interior nodes of the
    # converged field
    from srlab.coefficients import CoefficientModel

    real, evaluate = [], CoefficientModel.evaluate

    def spy(self, x, psi, px, py, table=None):
        if not np.iscomplexobj(psi):
            real.append(1)
        return evaluate(self, x, psi, px, py, table)

    monkeypatch.setattr(CoefficientModel, "evaluate", spy)
    f = srlab.solve_reflection_near_sonic(weak60, eps=weak60.c2 / 20.0, grid_nx=97, grid_ny=49,
                                          opts=srlab.SolverOptions(tolerance=1e-9, max_iterations=6000))
    assert len(real) == f.meta["iterations"] == reflection_field.meta["iterations"]
    monkeypatch.undo()
    coeffs = srlab.reflection_coefficients(weak60, f.geometry["eps"])
    d, inner = derivative_fields(f), np.s_[1:-1, 1:-1]
    x = np.broadcast_to(f.xs[:, None], f.values.shape)[inner]
    o_terms = coeffs.evaluate(x, *(d[key][inner] for key in ("psi", "px", "py")))
    assert f.meta["o_bound_audit"] == o_bound_audit(coeffs, x, o_terms) == reflection_field.meta["o_bound_audit"]


def _edge_rows(field, fns):
    """The jump residual G on the strip's shock row, and the strip's boundary rows (at, jet rows, right sides).

    In C order over the mask at: the shock rows (L3, L1, L2, 0, 0, 0) with
    -G, then the cut column's (0, 1, 0, 0, 0, 0) with x/a - psi_x.
    """
    d = derivative_fields(field)
    i = np.arange(1, field.nx - 1)
    uJ, px, py = (d[key][i, -1] for key in ("psi", "px", "py"))
    y = np.asarray(field.geometry["fhat"])[i]
    G = fns.Psi(px, py, uJ, field.xs[i], y)
    _, (L1, L2, L3) = fns.psi_gradient(px, py, uJ, field.xs[i], y)
    at = np.zeros(field.values.shape, dtype=bool)
    at[i, -1] = at[-1, :] = True
    z, cut = np.zeros(i.size), np.zeros((6, field.ny))
    cut[1] = 1.0
    rhs = np.concatenate((-G, field.xs[-1] / (fns.config.gas.gamma + 1.0) - d["px"][-1]))
    return G, (at, np.concatenate(([L3, L1, L2, z, z, z], cut), axis=1), rhs)


class _Built(Exception):
    """Stops a solve once it has built its first Newton system."""


def _system(field, coeffs, neumann, fns=None):
    """The solver's Newton system on field: J and -R(u) over the unknown block, the clamp fraction and the block.

    The solver's own loop (_newton) takes field as its iterate and stops
    once it has built the system, before any step; neumann gives the solve
    its reflective y-sides, and fns the strip its shock row.  The clamp
    fraction is the solver's measurement on field's derivative pass.
    """
    from srlab import solver

    newton_system = solver._newton_system

    def build(blocks, coefficients, partials, jet, residual, edge):
        J, r = newton_system(blocks, coefficients, partials, jet, residual, edge)
        clamp = solver._clamp_fraction(field.xs[:, None], coeffs.a, coefficients[2], jet[1])
        raise _Built(J, r.reshape(field.values[blocks[0]].shape), clamp, blocks[0])

    edge = None if fns is None else _edge_rows(field, fns)[1]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_newton_system", build)
        with pytest.raises(_Built) as built:
            solver._newton(field, coeffs, srlab.SolverOptions(tolerance=1e-300, max_iterations=1), neumann, None,
                           None if edge is None else lambda d: (0.0, edge))
    return built.value.args


def _perturbed(field):
    """A non-converged iterate near a converged field, whose slopes stay in the window."""
    x, y = field.xs[:, None], field.ys[None, :]
    return ScalarField2D(field.xs, field.ys, field.values + 1e-3 * x**2 * np.cos(2.0 * y + 0.3), field.geometry)


def test_newton_system_is_the_residual_operator_on_a_rectangle(model_field, model_ab):
    # the matrix the solver inverts applies the operator whose residual is
    # measured: on a perturbed iterate, -R(u) = -L(u) on every interior row
    f = _perturbed(model_field)
    coeffs = srlab.model_coefficients(*model_ab)
    _, r, clamp, _ = _system(f, coeffs, (True, True))
    _, L = residual(f, coeffs)
    assert clamp == 0.0
    scale = np.max(np.abs(L[1:-1, 1:-1]))
    assert scale > 1e-6
    assert np.array_equal(r[:, 1:-1], -L[1:-1, 1:-1])


def test_newton_system_is_the_residual_operator_on_the_strip(reflection_field, weak60):
    # on the strip the same holds through the chain rule, the shock rows
    # give exactly -G(u), the jump condition on the stencils of the derivative
    # pass, and the cut rows x/a - psi_x on the physical slope of that pass
    from srlab.shock import ShockBoundaryFns

    f = _perturbed(reflection_field)
    coeffs = srlab.reflection_coefficients(weak60, f.geometry["eps"])
    fns = ShockBoundaryFns(weak60)
    G, _ = _edge_rows(f, fns)
    _, r, clamp, _ = _system(f, coeffs, (True, False), fns)
    _, L = residual(f, coeffs)
    assert clamp == 0.0
    scale, gscale = np.max(np.abs(L[1:-1, 1:-1])), np.max(np.abs(G))
    assert scale > 1e-6 and gscale > 1e-6
    assert np.array_equal(r[:-1, 1:-1], -L[1:-1, 1:-1])
    assert np.array_equal(r[:-1, -1], -G)
    cut = f.xs[-1] / coeffs.a - derivative_fields(f)["px"][-1]
    assert np.max(np.abs(cut)) > 1e-6 and np.array_equal(r[-1], cut)


def _check_jacobian(field, coeffs, neumann, rows, fns=None):
    """J v against the central difference of R(u) along v, on each group of rows; returns field's clamp fraction.

    rows maps a group's name to its rows and its bound, relative to the group's max |J v|.
    """
    J, r, clamp, block = _system(field, coeffs, neumann, fns)
    assert J.shape == (r.size, r.size)
    # a direction that scales like the field at the degenerate edge; it moves
    # only the unknowns, the columns of J
    v = np.zeros(field.values.shape)
    v[block] = (field.xs[:, None] ** 2 * np.random.default_rng(7).standard_normal(field.values.shape))[block]
    t = 1e-5
    Jv = (J @ v[block].ravel()).reshape(r.shape)
    sides = []
    for sign in (1.0, -1.0):
        g = ScalarField2D(field.xs, field.ys, field.values + sign * t * v, field.geometry)
        sides.append(-_system(g, coeffs, neumann, fns)[1])
    fd = (sides[0] - sides[1]) / (2.0 * t)
    for name, (row, bound) in rows.items():
        scale = np.max(np.abs(Jv[row]))
        assert scale > 0.0, name
        assert np.max(np.abs(Jv[row] - fd[row])) <= bound * scale, name
    return clamp


def test_jacobian_on_a_rectangle(model_field, model_ab):
    # the Newton rows are the exact derivative of the step residual, Neumann rows included
    coeffs = srlab.model_coefficients(*model_ab)
    assert _check_jacobian(_perturbed(model_field), coeffs, (True, True),
                           {"interior": (np.s_[:, 1:-1], 1e-6), "neumann": (np.s_[:, [0, -1]], 1e-6)}) == 0.0


def test_jacobian_on_the_strip(reflection_field, weak60):
    # on the strip through the chain rule, the shock rows included
    from srlab.shock import ShockBoundaryFns

    f = _perturbed(reflection_field)
    coeffs = srlab.reflection_coefficients(weak60, f.geometry["eps"])
    fns = ShockBoundaryFns(weak60)
    assert _check_jacobian(f, coeffs, (True, False),
                           {"interior": (np.s_[:-1, 1:-1], 1e-6), "neumann": (np.s_[:-1, 0], 1e-6),
                            "shock": (np.s_[:-1, -1], 1e-6), "cut": (np.s_[-1, :], 1e-6)}, fns) == 0.0
    # an iterate with a slope at the wedge, psi_s = 0.03 x^2 at s = 0: the wedge
    # rows' coefficients read psi_y = 0 from the reflective pass, as their
    # stencil does, so J is exact there too (a one-sided psi_y, which the
    # stencil does not weight, leaves J about 1e-7 off on those rows)
    x, s = f.xs[:, None], f.ys[None, :]
    f = ScalarField2D(f.xs, f.ys, reflection_field.values + 0.03 * x**2 * np.sin(s), f.geometry)
    _check_jacobian(f, coeffs, (True, False), {"neumann": (np.s_[:-1, 0], 1e-8)}, fns)


def test_newton_step_takes_the_residual_it_judged(weak60, monkeypatch):
    # _newton evaluates the operator residual once per iteration, judges
    # convergence on it over every operator row the step solves and hands
    # that very array to _newton_system, whose right side is its negation on
    # the operator rows bit for bit, and the strip's own on its boundary rows
    import sys

    from srlab import solver

    judged, systems = [], []
    apply, newton_system = solver.apply_coefficients, solver._newton_system

    def spy_apply(coefficients, jet):
        out = apply(coefficients, jet)
        if sys._getframe(1).f_code.co_name == "_newton":  # not the partial terms of _newton_system
            judged.append(out)
        return out

    def spy_system(blocks, coefficients, partials, jet, residual, edge=None):
        J, rhs = newton_system(blocks, coefficients, partials, jet, residual, edge)
        on_edge = None if edge is None else edge[0][blocks[0]]
        systems.append((residual is judged[-1], -residual[blocks[0]], rhs.reshape(jet[0][blocks[0]].shape), edge,
                        on_edge))
        return J, rhs

    monkeypatch.setattr(solver, "apply_coefficients", spy_apply)
    monkeypatch.setattr(solver, "_newton_system", spy_system)
    a = 2.4
    bc = srlab.BoundaryConditions(outer=lambda y: (0.125 / a) * (1.0 + 0.2 * np.cos(np.pi * y)))
    f = srlab.solve(srlab.model_coefficients(a, 0.7765781059372254), bc, srlab.GridSpec(rhat=0.5, nx=49, ny=25))
    history = [r for level in f.meta["levels"] for r in level["residual_history"]]
    assert [float(np.max(np.abs(r[1:-1, :]))) for r in judged] == history  # both y-sides are Neumann rows
    assert len(systems) == len(history) - len(f.meta["levels"]) > 0
    assert all(same and np.array_equal(rhs, minus) for same, minus, rhs, _, _ in systems)
    judged.clear()
    systems.clear()
    f = srlab.solve_reflection_near_sonic(weak60, eps=weak60.c2 / 20.0, grid_nx=49, grid_ny=25)
    assert len(judged) == f.meta["iterations"] == len(systems) + 1
    for same, minus, rhs, edge, on_edge in systems:
        assert same and np.array_equal(rhs[:-1, :-1], minus[:-1, :-1])
        assert on_edge[:-1, -1].all() and on_edge[-1].all() and not on_edge[:-1, :-1].any()  # shock rows, cut
        assert np.array_equal(rhs[on_edge], edge[2])


def test_convergence_is_judged_on_every_solved_row():
    # the step solves the reflective Neumann rows with the interior, and the
    # judged residual covers them: on the CLI model solve's coarsest level
    # (25x13, grade 0.95^4) a Neumann row leads at the converged iterate, and
    # the reported final residual bounds L psi there too
    from srlab import solver
    from srlab.coefficients import apply_operator

    a = 2.4
    coeffs = srlab.model_coefficients(a, 0.7765781059372254)
    bc = srlab.BoundaryConditions(outer=lambda y: (0.125 / a) * (1.0 + 0.2 * np.cos(np.pi * y)))
    f = srlab.solve(coeffs, bc, srlab.GridSpec(rhat=0.5, nx=25, ny=13, grade_q=0.95**4))
    assert len(f.meta["levels"]) == 1
    d = solver._derivative_pass(f, (solver._stencil_table(f.xs), solver._stencil_table(f.ys, (True, True))))
    L = np.abs(apply_operator(coeffs, f.xs[:, None], [d[key] for key in solver._JET]))
    assert np.max(L[1:-1, [0, -1]]) > np.max(L[1:-1, 1:-1])
    assert np.max(L[1:-1, :]) <= f.meta["final_residual"] <= 1e-9


def test_newton_system_is_square_on_the_unknowns(weak60, tmp_path, monkeypatch):
    # each Newton system is built on the unknowns alone, with no Dirichlet
    # column to slice away: the nine-point pattern less the Dirichlet nodes and
    # the exact zeros, on every level of the criterion-1 ladder's first rung
    # and of the CLI's 97x49 model solve, and on a criterion-6 strip.  The
    # rung's 17^2, 33^2 and 65^2 levels start converged and build none
    from srlab import solver
    from srlab.cli import main

    systems, newton_system = [], solver._newton_system

    def spy(*args):
        J, rhs = newton_system(*args)
        systems.append((J.shape, J.nnz))
        return J, rhs

    monkeypatch.setattr(solver, "_newton_system", spy)
    a = 2.4
    exact = lambda x: x * x / (2 * a)
    bc = srlab.BoundaryConditions(outer=lambda y: exact(0.5) * np.ones_like(y), y_lo=exact, y_hi=exact)
    srlab.solve(srlab.model_coefficients(a, 0.7765781059372254), bc, srlab.GridSpec(rhat=0.5, nx=65, ny=65),
                srlab.SolverOptions(tolerance=1e-9), init_power=1.5)
    assert main(["solve", "--mode", "model", "--grid", "97,49", "--grade", "0.95", "--perturb", "0.2",
                 "--out", str(tmp_path)]) == 0
    srlab.solve_reflection_near_sonic(weak60, eps=weak60.c2 / 20.0, grid_nx=121, grid_ny=49)
    # interior x; all y on Neumann sides, and the strip's cut column x = eps,
    # whose rows weigh the physical psi_x of the chain rule.
    # The first system of the model solve's 25x13 level has two more exact
    # zeros: at the power start the first interior column's coupling to the
    # second cancels exactly at y = +-1/2
    n = [7 * 7, 23 * 13, 23 * 13, 47 * 25, 95 * 49, 120 * 49]
    nnz = (217, 1_421, 1_423, 5_731, 22_987, 51_508)
    steps = [4, 1, 2, 2, 2, 4]
    assert systems == [((k, k), z) for k, z, m in zip(n, nnz, steps) for _ in range(m)]


def test_newton_system_is_exact_where_the_slope_leaves_its_window(reflection_field, weak60):
    # psi = (1 + s) x^2/(2a) has the slope (x/a - psi_x)/x ~ -s/a, which
    # leaves the window's lower end -(1 - 0.5)/a on the half of the strip
    # s > 1/2, and the lead x(1 - s) + O1 falls below 0.1x near s = 1.  The
    # Newton system is the operator's there too: -R(u) = -L(u) on every
    # interior row, and J is the exact Jacobian of R on every group of rows.
    # The clamp fraction measures the window and alters nothing
    from srlab.shock import ShockBoundaryFns

    f = reflection_field
    coeffs = srlab.reflection_coefficients(weak60, f.geometry["eps"])
    fns = ShockBoundaryFns(weak60)
    a = coeffs.a
    x, s = f.xs[:, None], f.ys[None, :]
    f = ScalarField2D(f.xs, f.ys, (1.0 + s) * x**2 / (2.0 * a), f.geometry)
    _, r, _, _ = _system(f, coeffs, (True, False), fns)
    _, L = residual(f, coeffs)
    scale = np.max(np.abs(L[1:-1, 1:-1]))
    assert scale > 1e-6
    assert np.max(np.abs(r[:-1, 1:-1] + L[1:-1, 1:-1])) <= 1e-10 * scale
    clamp = _check_jacobian(f, coeffs, (True, False),
                            {"interior": (np.s_[:-1, 1:-1], 1e-6), "neumann": (np.s_[:-1, 0], 1e-6),
                             "shock": (np.s_[:-1, -1], 1e-6), "cut": (np.s_[-1, :], 1e-6)}, fns)
    inner = np.s_[1:-1, 1:-1]  # x > 0
    x = x[1:-1]
    slope = (x / a - derivative_fields(f)["px"][inner]) / x
    acts = zeta(slope, a, 0.5, 2.0) != slope
    assert 0.3 < np.mean(acts) < 0.7
    assert clamp == np.mean(acts)


def test_cut_slope_probes_converge_or_fail_typed(weak60, monkeypatch):
    # the cut slope x/a scaled x2 at 121x49 gives a solution whose slope
    # leaves the window on about 1% of the nodes: Newton on the operator
    # converges in a few steps.  Scaled x3, the jump residual passes its
    # guard within a few steps: a typed failure, not a budget spent
    from srlab import solver

    newton_system, systems = solver._newton_system, []
    eps = weak60.c2 / 20.0
    a = weak60.gas.gamma + 1.0

    def run(k):
        def scaled(blocks, coefficients, partials, jet, residual, edge):
            systems.append(1)
            at, rows, rhs = edge
            rhs = rhs.copy()
            rhs[-49:] += (k - 1.0) * eps / a  # the cut column's rows come last: k x/a - psi_x
            return newton_system(blocks, coefficients, partials, jet, residual, (at, rows, rhs))

        systems.clear()
        with monkeypatch.context() as m:
            m.setattr(solver, "_newton_system", scaled)
            return srlab.solve_reflection_near_sonic(weak60, eps, grid_nx=121, grid_ny=49)

    f = run(2.0)
    assert f.meta["iterations"] <= 10
    assert 0.0 < f.meta["clamp_fraction"] < 0.2
    with pytest.raises(ShockConditionDiverged):
        run(3.0)
    assert len(systems) <= 10


def test_cut_column_has_the_stated_slope(reflection_field, weak60):
    # the cut rows impose the slope the sidecar states, psi_x = x/a at x = eps,
    # on the physical psi_x of the derivative pass (the chain rule's
    # u_x - s g u_s): a step on a fresh factor meets it to rounding, and a
    # GMRES step to within its relative target of the slope
    f = reflection_field
    assert f.meta["outer_data"] == "synthetic slope surrogate psi_x = x/a at x=eps"
    h = f.meta["residual_history"]
    assert f.meta["krylov_iterations"][-1] > 0
    rtol = min(1e-4, max(1e-8, 1e-3 * h[-2] / h[-3]))  # the last step's target, as _newton sets it
    slope = f.xs[-1] / (weak60.gas.gamma + 1.0)
    assert np.max(np.abs(derivative_fields(f)["px"][-1] - slope)) <= rtol * slope


def test_jump_condition_is_evaluated_once_per_iteration(weak60, monkeypatch):
    # each strip Newton iteration evaluates Psi once: the shock rows' -G is
    # the real part of the complex step that gives their gradient
    from srlab.shock import ShockBoundaryFns

    calls, psi = [], ShockBoundaryFns.Psi

    def spy(self, *args):
        calls.append(np.shape(args[0]))
        return psi(self, *args)

    monkeypatch.setattr(ShockBoundaryFns, "Psi", spy)
    f = srlab.solve_reflection_near_sonic(weak60, weak60.c2 / 20.0, grid_nx=49, grid_ny=25)
    assert f.meta["iterations"] > 2
    assert calls == [(3, 47)] * f.meta["iterations"]  # the three stepped slots on the 47 shock rows


def _zero_o_columns(x):
    """O1..O5 of the model closure spelled as zero columns over x on every monomial of (psi, psi_x, psi_y)."""
    z = np.zeros(np.shape(x))
    return ({name: z for name in ("1", "psi", "px", "py", "px2", "py2", "pxpy")},) * 5


def test_o_free_closure_matches_explicit_zero_arrays(model_ab):
    # the model closure's O-terms are the scalar 0.0, which every consumer
    # broadcasts; spelled as zero columns instead, which give zero arrays on
    # the nodes, the nested solve, its sidecar (the O-term audit included)
    # and the barrier scans are the same bit for bit
    from srlab.barriers import choose_subsolution_params, scan_L1_sign, scan_L2_defect_sign
    from srlab.coefficients import CoefficientModel

    a, b = model_ab
    free = srlab.model_coefficients(a, b)
    arrays = CoefficientModel(a=a, b=b, N=0.0, label="model", o_columns=_zero_o_columns)
    x = np.linspace(0.0, 0.5, 5)[:, None]
    o_terms = free.evaluate(x, x * x, x, 0.0 * x)
    assert o_terms == (0.0,) * 5 and all(type(o) is float for o in o_terms)
    assert srlab.linear_coefficients(b).evaluate(x, x, x, x) == (0.0,) * 5

    grid = srlab.GridSpec(rhat=0.5, nx=49, ny=25, grade_q=0.95)
    bc = srlab.BoundaryConditions(outer=lambda y: (0.25 / (2 * a)) * (1.0 + 0.2 * np.cos(np.pi * y)))
    fields = [srlab.solve(c, bc, grid) for c in (free, arrays)]
    assert len(fields[0].meta["levels"]) == 2 and fields[0].meta["iterations"] > 1
    assert np.array_equal(fields[0].values, fields[1].values)
    assert fields[0].meta == fields[1].meta
    assert fields[0].meta["o_bound_audit"] == {"o1_over_x2": 0.0, "ok_over_x": 0.0, "nominal_N": 0.0}

    f = fields[0]
    sigma = lambda r: float(np.min(f.values[f.xs >= r]))
    recipe = choose_subsolution_params(a, b, 0.0, rhat=0.5, sigma=sigma)
    scans = [(scan_L1_sign(recipe.w_barrier(), c, recipe.r0),
              scan_L2_defect_sign(recipe.v_barrier(), c, recipe.r1, want="negative"),
              scan_L2_defect_sign(recipe.u_minus_barrier(), c, recipe.r2, want="positive"))
             for c in (free, arrays)]
    assert scans[0] == scans[1]
    assert scans[0][0]["positive"] and scans[0][1]["negative"] and scans[0][2]["positive"]
