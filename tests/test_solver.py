import numpy as np
import pytest

import srlab
from srlab.coefficients import o_bound_audit, zeta
from srlab.errors import NoConvergence, ShockConditionDiverged
from srlab.grids import ScalarField2D, geometric_axis, uniform_axis
from srlab.solver import derivative_fields, residual


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
    with pytest.raises(ValueError):
        srlab.SolverOptions(tolerance=-1.0)
    with pytest.raises(ValueError):
        srlab.SolverOptions(damping=1.5)
    with pytest.raises(ValueError):
        srlab.SolverOptions(eps_ell=0.7, beta=0.5)
    with pytest.raises(ValueError):
        srlab.SolverOptions(omega_sor=2.5)
    with pytest.raises(ValueError):
        srlab.SolverOptions(max_iterations=-1)


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
    # the linear closure's frozen operator is the operator itself, so one
    # exact frozen solve converges
    assert f.meta["iterations"] == 2
    assert f.meta["factorizations"] == 1
    err = np.max(np.abs(f.values - (f.xs**1.5)[:, None]))
    h = rhat / 64
    assert err <= 10 * h**1.5


def test_perturbed_fixture_properties(model_field, model_ab):
    a, b = model_ab
    assert model_field.meta["final_residual"] <= 1e-10
    assert model_field.meta["positivity_ok"]
    assert model_field.meta["quadratic_bound_ok"]
    assert model_field.meta["clamp_fraction"] == 0.0  # cutoff acts as identity
    # stored boundary conditions hold on the converged field; the one-sided
    # probe of the mirrored Neumann rows carries its own O(h^2) truncation
    d = derivative_fields(model_field)
    hy = model_field.ys[1] - model_field.ys[0]
    scale = np.max(np.abs(d["py"]))
    assert np.max(np.abs(d["py"][1:-1, 0])) < 10 * hy**2 * scale
    assert np.max(np.abs(d["py"][1:-1, -1])) < 10 * hy**2 * scale
    assert np.allclose(model_field.values[0, :], 0.0)


def test_monotone_residual_with_half_damping(model_ab):
    a, b = model_ab
    rhat = 0.5
    outer = lambda y: (rhat**2 / (2 * a)) * (1.0 + 0.2 * np.cos(np.pi * y))
    grid = srlab.GridSpec(rhat=rhat, nx=49, ny=49, y_lo=-1, y_hi=1, grade_q=0.95)
    f = srlab.solve(srlab.model_coefficients(a, b), srlab.BoundaryConditions(outer=outer), grid,
                    srlab.SolverOptions(tolerance=1e-9, max_iterations=6000, damping=0.5))
    # nonincreasing after the startup transient of the artificial profile
    hist = np.asarray(f.meta["residual_history"])[3:]
    # the checked stretch spans at least seven decades of residual
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


def test_reflection_field_reuses_its_factorizations(reflection_field):
    # chord steps keep the last LU while the residual contracts
    meta = reflection_field.meta
    assert 1 <= meta["factorizations"] <= meta["iterations"] // 2


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

    with pytest.raises(ValueError):
        srlab.solve_reflection_near_sonic(weak60, shock_depth_max(weak60) * 1.01)


def test_o_bound_audit_model_is_zero(model_field, model_ab):
    a, b = model_ab
    d = derivative_fields(model_field)
    x2d = np.broadcast_to(model_field.xs[:, None], model_field.values.shape)
    audit = o_bound_audit(srlab.model_coefficients(a, b), x2d[1:-1, 1:-1], 0.0,
                          d["psi"][1:-1, 1:-1], d["px"][1:-1, 1:-1], d["py"][1:-1, 1:-1])
    assert audit["o1_over_x2"] == 0.0
    assert audit["ok_over_x"] == 0.0


def _step_residual(field, coeffs, neumann, shock=None):
    """rhs - A(u) u of the frozen system on field, over the unknown block, and the clamp fraction."""
    from srlab.solver import _frozen_coefficients, _frozen_system, _stencil_blocks

    coefficients, clamp = _frozen_coefficients(field, coeffs, srlab.SolverOptions(), derivative_fields(field))
    blocks = _stencil_blocks(field, neumann, shock is not None)
    A, rhs = _frozen_system(blocks, coefficients, shock)
    return (rhs - A @ field.values.ravel()).reshape(field.values[blocks[0]].shape), clamp


def test_frozen_system_is_the_residual_operator_on_a_rectangle(model_field, model_ab):
    # the matrix the solver inverts applies the operator whose residual is
    # measured: on a perturbed iterate with the cutoff and floor inactive,
    # rhs - A(u) u = -L(u) on every interior row
    f = model_field
    x, y = f.xs[:, None], f.ys[None, :]
    f = ScalarField2D(f.xs, f.ys, f.values + 1e-3 * x**2 * np.cos(2.0 * y + 0.3), {"kind": "rect"})
    coeffs = srlab.model_coefficients(*model_ab)
    r, clamp = _step_residual(f, coeffs, (True, True))
    _, L = residual(f, coeffs)
    assert clamp == 0.0
    scale = np.max(np.abs(L[1:-1, 1:-1]))
    assert scale > 1e-6
    assert np.max(np.abs(r[:, 1:-1] + L[1:-1, 1:-1])) <= 1e-10 * scale


def test_frozen_system_is_the_residual_operator_on_the_strip(reflection_field, weak60):
    # on the strip the same holds through the chain rule, and the shock rows
    # give -G(u), the jump condition on the stencils of the derivative pass
    from srlab.shock import ShockBoundaryFns

    f = reflection_field
    x, s = f.xs[:, None], f.ys[None, :]
    f = ScalarField2D(f.xs, f.ys, f.values + 1e-3 * x**2 * np.cos(2.0 * s + 0.3), f.geometry)
    coeffs = srlab.reflection_coefficients(weak60, f.geometry["eps"])
    d = derivative_fields(f)
    fns, i = ShockBoundaryFns(weak60), np.arange(1, f.nx - 1)
    uJ, px, py = (d[key][i, -1] for key in ("psi", "px", "py"))
    y = np.asarray(f.geometry["fhat"])[i]
    G = fns.Psi(px, py, uJ, f.xs[i], y)
    L1, L2, L3 = fns.psi_gradient(px, py, uJ, f.xs[i], y)
    r, clamp = _step_residual(f, coeffs, (True, False), (L1, L2, L3, L1 * px + L2 * py + L3 * uJ - G, 0.0))
    _, L = residual(f, coeffs)
    assert clamp == 0.0
    scale, gscale = np.max(np.abs(L[1:-1, 1:-1])), np.max(np.abs(G))
    assert scale > 1e-6 and gscale > 1e-6
    assert np.max(np.abs(r[:-1, 1:-1] + L[1:-1, 1:-1])) <= 1e-10 * scale
    assert np.max(np.abs(r[:-1, -1] + G)) <= 1e-10 * gscale
