import numpy as np
import pytest

import srlab
from srlab.barriers import (
    BarrierFunction,
    BarrierRecipe,
    ComparisonReport,
    _growth_exponent,
    _l2_defect,
    _YPoly,
    choose_subsolution_params,
    scan_L1_sign,
    scan_L2_defect_sign,
    verify_comparison,
)
from srlab.coefficients import CoefficientModel, apply_coefficients, apply_operator
from srlab.grids import ScalarField2D
from srlab.solver import derivative_fields

from conftest import residual


def jet_at(fn, x, y):
    # the barrier's jet at the nodes (x, y), each entry of fn.y_jet(x) evaluated at y
    y = np.asarray(y, dtype=float)
    return tuple(entry(y) for entry in fn.y_jet(x))


# the companion operator L2 and its right side (O1 - x O4)/a, each on its own
# evaluation of the barrier's jet: the reference for the scans' one-table defect


def apply_L2(fn, coeffs, x, y):
    jet = jet_at(fn, x, y)
    table = coeffs.table(x, companion=True)
    return apply_coefficients(table.coefficients(*jet[:3], table.o_terms(*jet[:3])), jet)


def l2_rhs(fn, coeffs, x, y):
    O1, _, _, O4, _ = coeffs.evaluate(x, *jet_at(fn, x, y)[:3])
    return (O1 - x * O4) / coeffs.a


@pytest.fixture(scope="module")
def recipe(model_field, model_ab):
    a, b = model_ab

    def sigma(r):
        mask = model_field.xs >= r
        jj = np.abs(model_field.ys) <= 1.0
        return float(np.min(model_field.values[np.ix_(mask, jj)]))

    return choose_subsolution_params(a, b, N=0.0, rhat=float(model_field.xs[-1]), sigma=sigma)


def test_barrier_derivatives_match_finite_differences():
    rng = np.random.default_rng(19)
    fns = [
        BarrierFunction(0.05, 2.0, -0.006, 1.0),  # the w barrier's shape
        BarrierFunction(0.8, 2.3, 0.15, 2.0),  # the v barrier's
        BarrierFunction(-0.4, 2.25, -0.1, 2.0),  # the u_minus barrier's
        BarrierFunction(0.3, 2.7, -0.2, 2.2),
    ]
    h = 1e-5
    for fn in fns:
        for _ in range(250):
            x = rng.uniform(0.05, 0.8)
            y = rng.uniform(-0.9, 0.9)
            fd_x = (fn.value(x + h, y) - fn.value(x - h, y)) / (2 * h)
            fd_y = (fn.value(x, y + h) - fn.value(x, y - h)) / (2 * h)
            fd_xx = (fn.value(x + h, y) - 2 * fn.value(x, y) + fn.value(x - h, y)) / h**2
            fd_yy = (fn.value(x, y + h) - 2 * fn.value(x, y) + fn.value(x, y - h)) / h**2
            fd_xy = (fn.value(x + h, y + h) - fn.value(x + h, y - h)
                     - fn.value(x - h, y + h) + fn.value(x - h, y - h)) / (4 * h * h)
            v, dx, dy, dxx, dxy, dyy = jet_at(fn, x, y)
            assert v == fn.value(x, y)
            assert dx == pytest.approx(fd_x, rel=1e-6, abs=1e-9)
            assert dy == pytest.approx(fd_y, rel=1e-6, abs=1e-9)
            assert dxx == pytest.approx(fd_xx, rel=1e-4, abs=1e-6)
            assert dyy == pytest.approx(fd_yy, rel=1e-4, abs=1e-6)
            assert dxy == pytest.approx(fd_xy, rel=1e-4, abs=1e-6)
        # the jet's value is value() bit for bit on the arrays a scan evaluates too
        xs, ys = np.linspace(0.01, 0.8, 32)[:, None], np.linspace(-1.0, 1.0, 64)[None, :]
        assert np.array_equal(jet_at(fn, xs, ys)[0], fn.value(xs, ys))


def test_apply_L1_exact_solutions(model_ab):
    a, b = model_ab
    quad = BarrierFunction(1.0 / (2 * a), 2.0, 1.0 / (2 * a), 2.0)  # x^2/(2a) at every y
    xs = np.linspace(0.01, 0.4, 7)[:, None]
    ys = np.linspace(-0.9, 0.9, 5)[None, :]
    vals = apply_operator(srlab.model_coefficients(a, b), xs, jet_at(quad, xs, ys))
    assert np.max(np.abs(vals)) < 1e-14
    three_halves = BarrierFunction(1.0, 1.5, 1.0, 1.5)
    vals = apply_operator(srlab.linear_coefficients(b), xs, jet_at(three_halves, xs, ys))
    assert np.max(np.abs(vals)) < 1e-13


def test_apply_L2_zero_function(model_ab):
    a, b = model_ab
    zero = BarrierFunction(0.0, 2.0, 0.0, 2.0)
    coeffs = srlab.model_coefficients(a, b)
    assert apply_L2(zero, coeffs, 0.1, 0.3) == 0.0
    assert l2_rhs(zero, coeffs, 0.1, 0.3) == 0.0
    # W = c x^2: (x + 2acx) 2c - 2 (2cx) = 2cx(2ac - 1)
    c = 0.7
    x = np.linspace(0.01, 0.4, 7)[:, None]
    vals = apply_L2(BarrierFunction(c, 2.0, c, 2.0), coeffs, x, np.linspace(-0.9, 0.9, 5)[None, :])
    assert np.allclose(vals, 2.0 * c * x * (2.0 * a * c - 1.0), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("closure", ["model", "reflection"])
@pytest.mark.parametrize("q", [1.0, 0.95])
def test_residual_matches_apply_L1_on_quadratic_barrier(closure, q, model_ab, weak60):
    # the 3-point stencils are exact on this barrier (quadratic in x and in
    # y), so the solver's residual and the closed-form operator agree to
    # round-off: both go through one definition of L1
    a, b = model_ab
    if closure == "model":
        coeffs = srlab.model_coefficients(a, b)
    else:
        coeffs = srlab.reflection_coefficients(weak60, weak60.c2 / 20.0)
    fn = BarrierFunction(0.3, 2.0, 0.5, 2.0)
    xs = srlab.geometric_axis(0.5, 41, q)
    ys = srlab.uniform_axis(-1.0, 1.0, 33)
    field = srlab.ScalarField2D(xs, ys, fn.value(xs[:, None], ys[None, :]))
    _, res = residual(field, coeffs)
    exact = apply_operator(coeffs, xs[:, None], jet_at(fn, xs[:, None], ys[None, :]))
    assert np.max(np.abs(exact[1:-1, 1:-1])) > 1e-3
    assert np.max(np.abs(res - exact)[1:-1, 1:-1]) <= 1e-13


def test_deviation_identity_on_fixture(model_field, model_ab):
    # W = x^2/(2a) - psi satisfies the companion equation with zero right side
    # for the model closure, up to the solve's discretization level
    a, b = model_ab
    f = model_field
    wf = ScalarField2D(f.xs, f.ys, f.xs[:, None] ** 2 / (2 * a) - f.values)
    d = derivative_fields(wf)
    x2 = f.xs[1:-1, None]
    val = (
        (x2 + a * d["px"][1:-1, 1:-1]) * d["pxx"][1:-1, 1:-1]
        + b * d["pyy"][1:-1, 1:-1]
        - 2.0 * d["px"][1:-1, 1:-1]
    )
    assert np.max(np.abs(val)) < 5e-5  # truncation-level, not solver-level


def test_recipe_invariants(recipe, model_ab):
    a, b = model_ab
    r = recipe
    assert r.r0 <= min(1.0 / (4 * r.C0), (b + r.N) / r.C0,
                       1.0 / (8 * np.sqrt(r.C0 * (b + r.N))), r.rhat / 2) + 1e-15
    assert r.mu0 <= 1.0 / (8 * a) + 1e-15
    assert r.mu0 <= r.sigma_at_r0 / r.r0**2 + 1e-15
    assert 4 * r.C0 * r.r0**2 < r.A0 < 1.0 / (8 * (b + r.N))
    assert r.k == pytest.approx(r.mu0 * r.A0)
    assert 0 < r.alpha1 < 1 and 0 < r.r1 <= r.r0
    # each growth exponent reaches depth min((mu/(4 C_growth))^(1/(1-alpha)), r0)
    assert r.alpha1 == _growth_exponent(r.mu1) and r.alpha2 == _growth_exponent(0.5)
    assert r.r1 == min((r.mu1 / (4 * r.C_growth)) ** (1 / (1 - r.alpha1)), r.r0)
    assert r.r2 == min((0.5 / (4 * r.C_growth)) ** (1 / (1 - r.alpha2)), r.r0)


def test_u_minus_barrier_shape(recipe):
    # the recipe's alpha2 is the growth of the (1 - y^2) term; the y^2 term is
    # -x^2/(4a), the decay barrier at beta = 1/2, where alpha2 is taken
    um = recipe.u_minus_barrier()
    assert um.p1 == 2 + recipe.alpha2
    assert um.c2 == -1 / (4 * recipe.a)
    assert um.p2 == 2.0


def test_w_and_v_barrier_shapes(recipe):
    # mu0 x^2 (1-y^2) - k x y^2, and (1-mu1)/(2a) (x^(2+alpha1)/r1^alpha1 (1-y^2) + x^2 y^2)
    w, v = recipe.w_barrier(), recipe.v_barrier()
    assert (w.c1, w.p1, w.c2, w.p2) == (recipe.mu0, 2.0, -recipe.k, 1.0)
    assert (v.p1, v.c2, v.p2) == (2 + recipe.alpha1, (1 - recipe.mu1) / (2 * recipe.a), 2.0)
    assert v.c1 == pytest.approx(v.c2 / recipe.r1**recipe.alpha1, rel=1e-15)


def test_recipe_mu_cap_example():
    # with a = 2.4 the curvature cap is 1/19.2 regardless of sigma slack; the
    # termwise bounds are C0 = 2b + 8N + N/(8(b+N)) and C_growth = 1.5b + 20N + 1
    rec = choose_subsolution_params(2.4, 0.8, N=1.0, rhat=1.0, sigma=lambda r: 10.0)
    assert rec.mu0 == pytest.approx(1.0 / 19.2)
    assert rec.C0 == pytest.approx(1.6 + 8.0 + 1.0 / (8.0 * 1.8))
    assert rec.C_growth == pytest.approx(1.2 + 20.0 + 1.0)


def test_recipe_invariants_random_inputs():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = rng.uniform(1.5, 4.0)
        b = rng.uniform(0.3, 2.0)
        N = rng.uniform(0.0, 2.0)
        rhat = rng.uniform(0.2, 1.0)
        sig = rng.uniform(1e-4, 1e-1)
        rec = choose_subsolution_params(a, b, N, rhat, sigma=lambda r: sig)
        assert 4 * rec.C0 * rec.r0**2 < rec.A0 < 1.0 / (8 * (b + N))
        assert rec.mu0 <= min(1.0 / (8 * a), sig / rec.r0**2) + 1e-15
        assert rec.r1 <= rec.r0 and rec.r2 <= rec.r0
        # the growth exponent's mu lies where its inequality was solved
        assert 0.0 < rec.mu1 <= 0.5


@pytest.mark.parametrize("sig", [float("nan"), float("inf"), 0.0, -1e-3])
def test_recipe_refuses_a_sigma_not_finite_and_positive(sig):
    # a grid with NaN gave sigma = NaN, which once passed through to mu0 and
    # every barrier; 0 and negative lower bounds give no barrier either
    with pytest.raises(ValueError, match="finite and positive"):
        choose_subsolution_params(2.4, 0.8, N=0.0, rhat=0.5, sigma=lambda r: sig)


def test_recipe_window_never_empty():
    # the r0 choice caps 4*C0*r0^2 at 1/(16(b+N)), half the window top, so
    # the admissible interval is nonempty even for absurd C0 (with N = 0,
    # C0 = 2b runs over 1e-6 ... 1e30); where the 1/(8 sqrt(C0(b+N))) term
    # of r0 binds, the cap is an equality, which holds to rounding
    eps = np.finfo(float).eps
    for b in (5e-7, 0.5, 5e11, 5e29):
        rec = choose_subsolution_params(2.4, b, N=0.0, rhat=1.0, sigma=lambda r: 1.0)
        assert rec.C0 == 2 * b
        assert 4 * rec.C0 * rec.r0**2 <= (1.0 + 4 * eps) / (16 * b)
        assert 4 * rec.C0 * rec.r0**2 < rec.A0 < 1.0 / (8 * b)


def test_growth_params_base_case_feasible():
    for mu1 in (0.1, 0.25, 0.5):
        lhs0 = (1.0) * (1.0 + (2.0 / 2.0) * (1.0 - mu1)) - 2.0
        assert lhs0 == pytest.approx(-mu1)
        assert lhs0 <= -mu1 / 4.0


def _growth_lhs(al, mu):
    return (1.0 + al) * (1.0 + 0.5 * (2.0 + al) * (1.0 - mu)) - 2.0


def _bisected_growth_exponent(mu):
    # largest alpha with _growth_lhs(alpha, mu) <= -mu/4, to a bracket of
    # 1e-8: the left side increases in alpha and is feasible at alpha = 0
    lo, hi = 0.0, 1.0
    if _growth_lhs(hi, mu) <= -mu / 4.0:
        return hi
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if _growth_lhs(mid, mu) <= -mu / 4.0:
            lo = mid
        else:
            hi = mid
    return lo


def test_growth_params_bisection_against_closed_form():
    # mu = 1/2: (1+al)(1 + (2+al)/4) - 2 = -1/8 has root (sqrt(55)-7)/2
    alpha = _growth_exponent(0.5)
    assert alpha == pytest.approx((np.sqrt(55.0) - 7.0) / 2.0, rel=1e-15)
    assert _growth_lhs(alpha * 1.01, 0.5) > -0.125
    # the closed form is the bisection's root, feasible to rounding
    eps = np.finfo(float).eps
    mus = np.concatenate([np.geomspace(1e-12, 0.5, 1000), np.linspace(0.0, 0.5, 1001)[1:]])
    for mu in mus.tolist():
        alpha = _growth_exponent(mu)
        assert abs(alpha - _bisected_growth_exponent(mu)) <= 1e-8
        assert _growth_lhs(alpha, mu) <= -mu / 4.0 + 4 * eps * max(1.0, abs(mu))


def test_w_sign_scan_positive(recipe, model_ab):
    a, b = model_ab
    rep = scan_L1_sign(recipe.w_barrier(), srlab.model_coefficients(a, b), recipe.r0)
    assert rep["positive"], rep
    assert rep["min"] > 0.0


def test_v_defect_scan_negative(recipe, model_ab):
    a, b = model_ab
    rep = scan_L2_defect_sign(recipe.v_barrier(), srlab.model_coefficients(a, b),
                              recipe.r1, want="negative")
    assert rep["negative"], rep


def test_u_minus_defect_scan_positive(recipe, model_ab):
    a, b = model_ab
    rep = scan_L2_defect_sign(recipe.u_minus_barrier(), srlab.model_coefficients(a, b),
                              recipe.r2, want="positive")
    assert rep["positive"], rep


def test_field_comparison_w_below(model_field, recipe):
    rep = verify_comparison(model_field, recipe.w_barrier(), "below", recipe.r0)
    assert rep.boundary_ok
    assert rep.violations == 0
    assert rep.worst_margin >= -1e-13


def test_deviation_comparisons(model_field, recipe, model_ab):
    a, _ = model_ab
    wf = ScalarField2D(model_field.xs, model_field.ys, model_field.xs[:, None] ** 2 / (2 * a) - model_field.values)
    rep_v = verify_comparison(wf, recipe.v_barrier(), "above", recipe.r1)
    assert rep_v.boundary_ok and rep_v.violations == 0
    rep_u = verify_comparison(wf, recipe.u_minus_barrier(), "below", recipe.r2)
    assert rep_u.boundary_ok and rep_u.violations == 0


def test_comparison_inapplicable_when_boundary_fails(model_field, recipe):
    # scale w up until the outer boundary inequality breaks: report says so
    big = BarrierFunction(100.0, 2.0, -recipe.k, 1.0)
    rep = verify_comparison(model_field, big, "below", recipe.r0)
    assert not rep.boundary_ok
    assert not rep.ok()
    assert "applicable" not in rep.to_dict()


def test_comparison_direction_validation(model_field, recipe):
    with pytest.raises(ValueError):
        verify_comparison(model_field, recipe.w_barrier(), "sideways", recipe.r0)


def _symmetric_nodes(n):
    # the nominal nodes of linspace(-1, 1, n), mirrored exactly: ys[n-1-k] == -ys[k]
    return (2.0 * np.arange(n) + 1.0 - n) / (n - 1)


def _closure(kind, model_ab, weak60):
    a, b = model_ab
    if kind == "model":
        return srlab.model_coefficients(a, b)
    if kind == "linear":
        return srlab.linear_coefficients(b)
    return srlab.reflection_coefficients(weak60, weak60.c2 / 20.0)


def _magnitude(poly, y):
    # sum |c_k| |y|^k of a polynomial in y: the scale its evaluation rounds against
    return _YPoly([np.abs(c) for c in poly.even], [np.abs(c) for c in poly.odd])(np.abs(y))


def _full_scan(valfun, r, n, minimize, poly=None):
    # the scan evaluated pointwise on the whole symmetric n x n grid at once;
    # with poly, the scan's polynomial, also the largest sum |c_k| |y|^k over
    # the extremum's node and its refinement window
    xs, ys = np.linspace(r / n, r, n), _symmetric_nodes(n)
    vals = valfun(xs[:, None], ys[None, :])
    i, j = np.unravel_index(np.argmin(vals) if minimize else np.argmax(vals), vals.shape)
    best = float(vals[i, j])
    xf = np.linspace(max(xs[max(i - 2, 0)], r / (8 * n)), xs[min(i + 2, n - 1)], 96)
    yf = np.linspace(ys[max(j - 2, 0)], ys[min(j + 2, n - 1)], 96)
    vf = valfun(xf[:, None], yf[None, :])
    refined = float(np.min(vf) if minimize else np.max(vf))
    if (refined < best) == minimize:
        best = refined
    if poly is None:
        return best, (float(xs[i]), float(ys[j]))
    scale = max(float(np.max(_magnitude(poly(xf[:, None]), yf[None, :]))),
                float(_magnitude(poly(xs[i]), ys[j])))
    return best, (float(xs[i]), float(ys[j])), scale


def _three_scans(recipe, coeffs):
    return (
        scan_L1_sign(recipe.w_barrier(), coeffs, recipe.r0),
        scan_L2_defect_sign(recipe.v_barrier(), coeffs, recipe.r1, want="negative"),
        scan_L2_defect_sign(recipe.u_minus_barrier(), coeffs, recipe.r2, want="positive"),
    )


@pytest.mark.parametrize("sigma", [0.01, 0.05, 1e-4])
@pytest.mark.parametrize("n", [512, 100, 9, 7])
@pytest.mark.parametrize("closure", ["model", "reflection"])
def test_half_scan_is_the_full_symmetric_scan(model_ab, weak60, monkeypatch, sigma, n, closure):
    # the y <= 0 half holds every value of an even defect at its first
    # C-order occurrence, so each scan reports the node that the pointwise
    # full grid gives, and its extremum to rounding of sum |c_k| |y|^k (the
    # polynomial and the pointwise operator round in different orders)
    a, b = model_ab
    rec = choose_subsolution_params(a, b, N=0.0, rhat=0.5, sigma=lambda r: sigma)
    coeffs = _closure(closure, model_ab, weak60)
    monkeypatch.setattr(srlab.barriers, "_SCAN_N", n)
    w, v, u = rec.w_barrier(), rec.v_barrier(), rec.u_minus_barrier()
    L1 = lambda x, y: apply_operator(coeffs, x, jet_at(w, x, y))
    Lv = lambda x, y: apply_L2(v, coeffs, x, y) - l2_rhs(v, coeffs, x, y)
    Lu = lambda x, y: apply_L2(u, coeffs, x, y) - l2_rhs(u, coeffs, x, y)
    P1 = lambda x: apply_operator(coeffs, x, w.y_jet(x))
    Pv, Pu = (lambda x, fn=fn: _l2_defect(fn, coeffs, x) for fn in (v, u))
    cases = [
        (scan_L1_sign(w, coeffs, rec.r0), "min", _full_scan(L1, rec.r0, n, True, P1)),
        (scan_L2_defect_sign(v, coeffs, rec.r1, want="negative"), "max", _full_scan(Lv, rec.r1, n, False, Pv)),
        (scan_L2_defect_sign(u, coeffs, rec.r2, want="positive"), "min", _full_scan(Lu, rec.r2, n, True, Pu)),
    ]
    for rep, key, (best, arg, scale) in cases:
        assert rep["arg" + key] == arg
        assert abs(rep[key] - best) <= 1e-13 * scale
        assert rep["arg" + key][1] <= 0.0


@pytest.mark.parametrize("n", [512, 7])
def test_scan_evaluates_the_half_grid(recipe, model_ab, weak60, monkeypatch, n):
    # each scan takes its defect once per grid, on the x-nodes alone: one
    # closure table and one polynomial jet for the n x ceil(n/2) sample grid
    # and one each for the 96 x 96 refinement, with no barrier evaluated
    # pointwise; the scans' cost rests on these counts
    tables, jets, pointwise = [], [], []
    table, y_jet, at = CoefficientModel.table, BarrierFunction.y_jet, _YPoly.__call__

    def spy_table(self, x, companion=False):
        tables.append((np.shape(x), companion))
        return table(self, x, companion)

    def spy_y_jet(fn, x):
        jets.append(np.shape(x))
        return y_jet(fn, x)

    monkeypatch.setattr(srlab.barriers, "_SCAN_N", n)
    monkeypatch.setattr(CoefficientModel, "table", spy_table)
    monkeypatch.setattr(BarrierFunction, "y_jet", spy_y_jet)
    monkeypatch.setattr(BarrierFunction, "value", lambda *args: pointwise.append("value"))
    monkeypatch.setattr(_YPoly, "__call__", lambda *args: pointwise.append("at") or at(*args))
    for closure in ("model", "reflection"):
        tables.clear()
        jets.clear()
        assert all(rep["n"] == n for rep in _three_scans(recipe, _closure(closure, model_ab, weak60)))
        assert tables == [((n, 1), False), ((96, 1), False)] + [((n, 1), True), ((96, 1), True)] * 2
        assert jets == [(n, 1), (96, 1)] * 3
    assert pointwise == []


@pytest.mark.parametrize("closure", ["model", "linear", "reflection"])
def test_recipe_barrier_defects_are_even_bit_for_bit(recipe, model_ab, weak60, closure):
    # psi_y and psi_xy enter every closure only through even products, so on
    # exactly mirrored nodes each defect is even to the last bit
    coeffs = _closure(closure, model_ab, weak60)
    barriers = [(recipe.w_barrier(), recipe.r0), (recipe.v_barrier(), recipe.r1),
                (recipe.u_minus_barrier(), recipe.r2)]
    for n in (512, 101):
        ys = _symmetric_nodes(n)[None, :]
        assert np.array_equal(ys, -ys[:, ::-1])
        for fn, r in barriers:
            xs = np.linspace(r / 64, r, 64)[:, None]
            defects = [apply_operator(coeffs, xs, jet_at(fn, xs, ys))]
            if coeffs.a > 0.0:
                defects.append(apply_L2(fn, coeffs, xs, ys) - l2_rhs(fn, coeffs, xs, ys))
            for vals in defects:
                assert vals.tobytes() == np.ascontiguousarray(vals[:, ::-1]).tobytes()


def test_scans_refuse_an_odd_defect(recipe, model_ab):
    # a constant O5 adds O5 * psi_y, odd in y, which a half-grid scan cannot see
    a, b = model_ab
    coeffs = srlab.CoefficientModel(a=a, b=b, N=0.0, label="odd", o_columns=lambda x: ({}, {}, {}, {}, {"1": 0.5}))
    with pytest.raises(ValueError, match="even in y"):
        scan_L1_sign(recipe.w_barrier(), coeffs, recipe.r0)
    for want in ("negative", "positive"):
        with pytest.raises(ValueError, match="even in y"):
            scan_L2_defect_sign(recipe.v_barrier(), coeffs, recipe.r1, want=want)


@pytest.mark.parametrize("want", ["negative", "positive"])
def test_defect_scan_is_apply_L2_minus_l2_rhs(recipe, model_ab, weak60, monkeypatch, want):
    # the scan's one-table defect gives the node of the extremum of
    # apply_L2 - l2_rhs over the full symmetric grid, and the extremum over
    # it and the 96 x 96 refinement around it to rounding of sum |c_k| |y|^k
    coeffs = srlab.reflection_coefficients(weak60, weak60.c2 / 20.0)
    fn, r, n = recipe.v_barrier(), recipe.r1, 200
    defect = lambda x, y: apply_L2(fn, coeffs, x, y) - l2_rhs(fn, coeffs, x, y)
    poly = lambda x: _l2_defect(fn, coeffs, x)
    best, arg, scale = _full_scan(defect, r, n, want == "positive", poly)
    monkeypatch.setattr(srlab.barriers, "_SCAN_N", n)
    rep = scan_L2_defect_sign(fn, coeffs, r, want=want)
    key = "max" if want == "negative" else "min"
    assert rep["arg" + key] == arg
    assert abs(rep[key] - best) <= 1e-13 * scale


@pytest.mark.parametrize("want", ["negative", "positive"])
def test_defect_scan_rejects_the_linear_closure(recipe, model_ab, want):
    # L2's right side divides by a; the linear closure has a = 0
    coeffs = srlab.linear_coefficients(model_ab[1])
    with pytest.raises(ValueError, match="a > 0"):
        scan_L2_defect_sign(recipe.v_barrier(), coeffs, recipe.r1, want=want)
    with pytest.raises(ValueError, match="a > 0"):
        _l2_defect(recipe.v_barrier(), coeffs, 0.1)


def _recipe_barriers(recipe):
    return [recipe.w_barrier(), recipe.v_barrier(), recipe.u_minus_barrier(), BarrierFunction(0.0, 2.0, 0.3, 2.5)]


def _exact_jet(fn, X, Y):
    # psi = c1 x^p1 (1 - y^2) + c2 x^p2 y^2 and its derivatives in closed form at mpmath's precision, with each
    # entry's scale |c1 x^p1 ...| + |c2 x^p2 ...| of its x-derivative order
    import mpmath as mp

    c1, p1, c2, p2 = map(mp.mpf, (fn.c1, fn.p1, fn.c2, fn.p2))
    t1 = lambda k: c1 * mp.ff(p1, k) * X ** (p1 - k)  # k-th x-derivative of c1 x^p1
    t2 = lambda k: c2 * mp.ff(p2, k) * X ** (p2 - k)
    exact = (t1(0) * (1 - Y * Y) + t2(0) * Y * Y, t1(1) * (1 - Y * Y) + t2(1) * Y * Y,
             2 * Y * (t2(0) - t1(0)), t1(2) * (1 - Y * Y) + t2(2) * Y * Y,
             2 * Y * (t2(1) - t1(1)), 2 * (t2(0) - t1(0)))
    return exact, [abs(t1(k)) + abs(t2(k)) for k in (0, 1, 0, 2, 1, 0)]


def _exact_defect(fn, coeffs, X, Y, companion):
    # L1 on fn (L2 less its right side (O1 - x O4)/a if companion), written out on the closed-form jet at
    # mpmath's precision, with the O-terms summed from the closure's columns taken at X
    import mpmath as mp

    (psi, px, py, pxx, pxy, pyy), _ = _exact_jet(fn, X, Y)
    mono = {"1": 1, "psi": psi, "px": px, "py": py, "px2": px * px, "py2": py * py, "pxpy": px * py}
    rows = ({},) * 5 if coeffs.o_columns is None else coeffs.o_columns(X)
    O1, O2, O3, O4, O5 = (sum(mp.mpf(c) * mono[name] for name, c in row.items()) for row in rows)
    a, b = mp.mpf(coeffs.a), mp.mpf(coeffs.b)
    if companion:
        return (X + a * px + O1) * pxx + O2 * pxy + (b + O3) * pyy - (2 + O4) * px + O5 * py - (O1 - X * O4) / a
    return (2 * X - a * px + O1) * pxx + O2 * pxy + (b + O3) * pyy - (1 + O4) * px + O5 * py


@pytest.mark.parametrize("closure", ["model", "linear", "reflection"])
def test_scan_polynomial_is_exact(recipe, model_ab, weak60, closure):
    # each scan's defect, the closure's own code run once on the barrier's jet
    # as polynomials in y, against the operator on the closed-form jet at 40
    # digits: to 1e-14 of sum |c_k| |y|^k at 64 random nodes of each window,
    # with every odd coefficient exactly 0.0; a constant O5 gives an odd one
    import mpmath as mp

    from srlab.barriers import _SCAN_N

    coeffs = _closure(closure, model_ab, weak60)
    rng = np.random.default_rng(29)
    windows = zip(_recipe_barriers(recipe), (recipe.r0, recipe.r1, recipe.r2, recipe.r0))
    with mp.workdps(40):
        for fn, r in windows:
            x = rng.uniform(r / _SCAN_N, r, (64, 1))
            y = rng.uniform(-1.0, 1.0, (64, 1))
            polys = [(apply_operator(coeffs, x, fn.y_jet(x)), False)]
            if coeffs.a > 0.0:
                polys.append((_l2_defect(fn, coeffs, x), True))
            for poly, companion in polys:
                assert all(np.all(c == 0.0) for c in poly.odd)
                got, scale = np.broadcast_to(poly(y), x.shape), _magnitude(poly, y)
                for k in range(64):
                    want = _exact_defect(fn, coeffs, mp.mpf(x[k, 0]), mp.mpf(y[k, 0]), companion)
                    assert abs(got[k, 0] - want) <= 1e-14 * scale[k, 0], (fn, companion, k)
    odd = srlab.CoefficientModel(a=coeffs.a, b=coeffs.b, N=0.0, label="odd",
                                 o_columns=lambda x: ({}, {}, {}, {}, {"1": 0.5}))
    x = np.linspace(recipe.r0 / 64, recipe.r0, 64)[:, None]
    assert any(np.any(c != 0.0) for c in apply_operator(odd, x, recipe.w_barrier().y_jet(x)).odd)


def test_separable_jet_is_exact_and_keeps_its_parity(recipe):
    # psi = A(x) + D(x) y^2 with A = c1 x^p1, D = c2 x^p2 - A: every entry
    # against the closed form at 40 digits; value() is the jet's psi bit for bit;
    # on the scan's mirrored y-nodes psi_y and psi_xy are odd, the rest even,
    # bit for bit
    import mpmath as mp

    from srlab.barriers import _SCAN_N

    n = _SCAN_N
    ys = (2.0 * np.arange(n) + 1.0 - n) / (n - 1)
    xs = np.geomspace(1e-4, recipe.r0, 24)[:, None]
    rng = np.random.default_rng(5)
    with mp.workdps(40):
        for fn in _recipe_barriers(recipe):
            for x, y in zip(rng.uniform(1e-3, 0.5, 40), rng.uniform(-1.0, 1.0, 40)):
                exact, scale = _exact_jet(fn, mp.mpf(x), mp.mpf(y))
                for got, want, s in zip(jet_at(fn, x, y), exact, scale):
                    assert abs(got - want) <= 8e-16 * s
            jet = jet_at(fn, xs, ys[None, :])
            assert np.array_equal(fn.value(xs, ys[None, :]), jet[0])
            mirrored = jet_at(fn, xs, ys[None, ::-1])
            for k, sign in enumerate((1.0, 1.0, -1.0, 1.0, -1.0, 1.0)):
                got, want = np.broadcast_arrays(mirrored[k], sign * jet[k])  # ys[::-1] == -ys
                assert np.array_equal(got, want)
