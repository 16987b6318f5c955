import json
import math
import warnings

import numpy as np
import pytest

import srlab
from srlab.errors import NoRegularReflection, NotSupersonicAtP0, OutOfRange
from srlab.reflection import shock_chart_table, shock_depth_max

from conftest import potential, state1
from oracles import normal_reflection, sonic_point_P1, state2_roots

# frozen 40-digit oracle values, (gamma, rho0, rho1) = (1.4, 1, 2), theta_w = 60 deg
ORACLE_60 = {
    "u2_weak": 0.3160807655809759280092,
    "rho2_weak": 3.540570851584972623682,
    "u2_strong": 1.221176664862075246728,
    "rho2_strong": 11.52494107411069141239,
    "c2": 1.287699888013104329689,
    "xi1": 0.5209656509250709472651,
    "eta1": 1.81876381381350507337,
    "y1": 0.3638104934777622367858,
    "P4": (0.9599307095875280928537, 1.662648760751243454407),
}


def test_weak_and_strong_roots_match_frozen_oracle(weak60, gas):
    assert weak60.u2 == pytest.approx(ORACLE_60["u2_weak"], rel=1e-13)
    assert weak60.rho2 == pytest.approx(ORACLE_60["rho2_weak"], rel=1e-13)
    assert weak60.c2 == pytest.approx(ORACLE_60["c2"], rel=1e-13)
    strong = srlab.solve_state2(gas, np.radians(60.0))["strong"]
    assert strong.u2 == pytest.approx(ORACLE_60["u2_strong"], rel=1e-13)
    assert strong.rho2 == pytest.approx(ORACLE_60["rho2_strong"], rel=1e-13)


def test_roots_match_runtime_oracle(gas):
    # independent scan/bisection at 40 digits, run fresh
    _, _, _, roots = state2_roots(gas.gamma, gas.rho0, gas.rho1, 60)
    assert len(roots) == 2
    both = srlab.solve_state2(gas, np.radians(60.0))
    assert both["weak"].u2 == pytest.approx(float(roots[0][0]), rel=1e-12)
    assert both["strong"].u2 == pytest.approx(float(roots[1][0]), rel=1e-12)


def test_weak_root_entropy_and_supersonic(weak60, gas):
    assert weak60.rho2 > gas.rho1
    assert weak60.supersonic_at_P0
    d = np.linalg.norm(np.asarray(weak60.P0) - weak60.center)
    assert d > weak60.c2


def test_configuration_residuals(gas):
    for deg in (55.0, 60.0, 72.0, 85.0):
        cfg = srlab.solve_state2(gas, np.radians(deg))["weak"]
        res = cfg.residuals()
        assert res["rh"] < 1e-12
        assert res["continuity"] < 1e-12


def test_p1_on_sonic_circle(weak60):
    assert np.linalg.norm(np.asarray(weak60.P1) - weak60.center) == pytest.approx(weak60.c2, abs=1e-10)
    assert weak60.P1[0] == pytest.approx(ORACLE_60["xi1"], rel=1e-12)
    assert weak60.P1[1] == pytest.approx(ORACLE_60["eta1"], rel=1e-12)


def test_p1_matches_exact_intersection_oracle(gas, weak60):
    P, c2, v2, rho2 = sonic_point_P1(gas.gamma, gas.rho0, gas.rho1, 60, ORACLE_60["u2_weak"])
    assert weak60.P1[0] == pytest.approx(float(P[0]), rel=1e-12)
    assert weak60.P1[1] == pytest.approx(float(P[1]), rel=1e-12)


def test_p1_is_sonic_for_state2(weak60):
    d = (weak60.u2 - weak60.P1[0], weak60.v2 - weak60.P1[1])
    assert np.linalg.norm(d) == pytest.approx(weak60.c2, abs=1e-10)


def test_p1_potential_continuity(weak60, gas):
    assert potential(state1(gas), *weak60.P1) == pytest.approx(potential(weak60.state2, *weak60.P1), abs=1e-10)


def test_p4_on_wedge_boundary(weak60):
    P4 = weak60.P4
    assert P4[1] == pytest.approx(P4[0] * np.tan(weak60.theta_w), abs=1e-12)
    assert P4[0] == pytest.approx(ORACLE_60["P4"][0], rel=1e-13)
    x, y = srlab.to_sonic_coords(weak60, P4)
    assert abs(x) < 1e-12 and abs(y) < 1e-12


def test_sonic_circle_definition(weak60, gas):
    assert weak60.c2**2 == pytest.approx(weak60.rho2 ** (gas.gamma - 1.0), rel=1e-14)
    assert tuple(weak60.center) == (weak60.u2, weak60.v2)


def test_sonic_circle_isothermal_radius_unity():
    g1 = srlab.GasParameters(1.0, 1.0, 2.0)
    cfg = srlab.solve_state2(g1, np.radians(60.0))["weak"]
    assert cfg.c2 == 1.0


def test_sonic_coords_roundtrip(weak60):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-0.5 * weak60.c2, 0.9 * weak60.c2)
        y = rng.uniform(-1.0, 1.0)
        r, ang = weak60.c2 - x, y + weak60.theta_w  # the chart's inverse
        p = weak60.center + r * np.array([np.cos(ang), np.sin(ang)])
        x2, y2 = srlab.to_sonic_coords(weak60, p)
        worst = max(worst, abs(x - x2), abs(y - y2))
    assert worst < 1e-12


def test_sonic_coords_on_circle(weak60):
    p = weak60.center + weak60.c2 * np.array([np.cos(1.1), np.sin(1.1)])
    x, _ = srlab.to_sonic_coords(weak60, p)
    assert abs(x) < 1e-14


def test_center_singularity(weak60):
    from srlab.errors import CenterSingularity

    with pytest.raises(CenterSingularity):
        srlab.to_sonic_coords(weak60, weak60.center)


def test_shock_line_through_the_center_has_no_chart():
    # at gamma 1, rho1 1e10, 80 degrees beta0^2 rounds past c2^2, where the
    # chart depth was sqrt of a negative number: NaN, and a RuntimeWarning
    from srlab.errors import CenterSingularity

    cfg = srlab.solve_state2(srlab.GasParameters(1.0, 1.0, 1e10), np.radians(80.0))["weak"]
    with pytest.raises(CenterSingularity):
        shock_depth_max(cfg)
    with pytest.raises(CenterSingularity):
        shock_chart_table(cfg, [0.0])


def test_shock_curve_starts_at_P1(weak60):
    y0 = float(shock_chart_table(weak60, 0.0)[0][0])
    assert y0 == pytest.approx(ORACLE_60["y1"], abs=1e-12)
    assert y0 == pytest.approx(weak60.y1, abs=1e-13)


def test_shock_curve_slope_positive(weak60):
    xs = np.linspace(0.0, weak60.c2 / 20.0, 33)
    _, slopes, _ = shock_chart_table(weak60, xs)
    assert np.all(slopes > 0.0)
    # finite-difference agreement with the chart derivative
    h = 1e-4
    y, slope, _ = shock_chart_table(weak60, [0.0, h, h / 2])
    fd = (y[1] - y[0]) / h
    assert fd > 0.0
    assert fd == pytest.approx(slope[2], rel=1e-3)


def test_shock_curve_against_line_composition(weak60):
    # compose the exact shock line with the chart: points on the line must
    # land on (x, fhat(x))
    tau = np.asarray(weak60.s1_direction)
    eps = weak60.c2 / 20.0
    for t in np.linspace(1e-4, 0.05, 7):
        p = np.asarray(weak60.P1) + t * tau
        x, y = srlab.to_sonic_coords(weak60, p)
        if x > eps:
            continue
        assert y == pytest.approx(shock_chart_table(weak60, x)[0][0], abs=1e-12)


def test_shock_curve_out_of_range(weak60):
    with pytest.raises(OutOfRange):
        shock_chart_table(weak60, shock_depth_max(weak60) * 1.5)


def test_chart_second_derivative_consistency(weak60):
    xs = np.array([0.01, 0.03, 0.05])
    _, yp, ypp = shock_chart_table(weak60, xs)
    h = 1e-5
    _, yph, _ = shock_chart_table(weak60, xs + h)
    _, ypl, _ = shock_chart_table(weak60, xs - h)
    fd = (yph - ypl) / (2 * h)
    assert np.allclose(fd, ypp, rtol=1e-5)


def test_weak_branch_approaches_normal_reflection(gas):
    speeds = []
    rho2s = []
    for deg in (85.0, 87.0, 89.0):
        cfg = srlab.solve_state2(gas, np.radians(deg))["weak"]
        speeds.append(np.hypot(cfg.u2, cfg.v2))
        rho2s.append(cfg.rho2)
    assert speeds[0] > speeds[1] > speeds[2] > 0.0
    _, rho2_nr = normal_reflection(gas.gamma, gas.rho0, gas.rho1)
    assert rho2s[2] == pytest.approx(float(rho2_nr), rel=1e-3)
    assert abs(rho2s[2] - float(rho2_nr)) < abs(rho2s[0] - float(rho2_nr))


def test_no_reflection_below_detachment(gas):
    with pytest.raises(NoRegularReflection):
        srlab.solve_state2(gas, np.radians(40.0))


def test_subsonic_warning_near_sonic_angle(gas):
    # the weak branch is subsonic at P0 below ~50.011 deg for this gas
    with pytest.warns(NotSupersonicAtP0):
        cfg = srlab.solve_state2(gas, np.radians(49.5))["weak"]
    assert not cfg.supersonic_at_P0


def test_detachment_bracket(gas):
    lo, hi = srlab.detachment_angle(gas)
    assert np.degrees(hi) - np.degrees(lo) <= 1.1e-4
    assert 48.5 < np.degrees(lo) < 49.5  # oracle bisection gives ~48.93


def test_isothermal_steep_wedge_and_detachment():
    # rho0*exp(-bern) underflows along the u2 scan at steep wedges; those
    # scan points lie past the vacuum bound and must not abort the root search
    gas1 = srlab.GasParameters(1.0, 1.0, 2.0)
    for deg in (84.5, 89.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotSupersonicAtP0)
            weak = srlab.solve_state2(gas1, np.radians(deg))["weak"]
        assert weak.residuals()["rh"] < 1e-12
    lo, hi = srlab.detachment_angle(gas1)
    assert 0.0 < np.degrees(hi) - np.degrees(lo) <= 1.1e-4
    assert 44.0 < np.degrees(lo) < 45.0


def test_config_json_roundtrip(weak60):
    text = weak60.to_json()
    back = srlab.ReflectionConfiguration.from_json(text)
    assert back.to_json() == text  # 17-significant-digit lossless round trip
    assert back.u2 == weak60.u2
    assert back.P1 == weak60.P1
    d = json.loads(text)
    assert d["branch"] == "weak"
    # the derived keys are written for readers of the file; loading rebuilds them
    edited = json.dumps({**d, "c2": float("nan"), "P1_xi": float("nan")})
    assert srlab.ReflectionConfiguration.from_json(edited).to_json() == text
    # both branches at every quarter degree of 50..89 for four gammas
    thetas = np.radians(np.arange(50.0, 89.0 + 1e-9, 0.25))
    count = 0
    for gamma in (1.0, 1.4, 2.0, 3.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotSupersonicAtP0)
            solved = srlab.solve_state2_many(srlab.GasParameters(gamma, 1.0, 2.0), thetas)
        for both in solved:
            if isinstance(both, dict):
                for cfg in both.values():
                    text = cfg.to_json()
                    assert srlab.ReflectionConfiguration.from_json(text).to_json() == text
                    count += 1
    assert count == 1130
    # only the two labels solve_state2 writes load
    with pytest.raises(ValueError, match="branch must be weak or strong"):
        srlab.ReflectionConfiguration.from_json(json.dumps({**d, "branch": "unlabeled"}))


def test_wedge_geometry_rejects_angles_outside_the_open_quadrant():
    srlab.WedgeGeometry(np.radians(60.0))
    for theta in (0.0, np.pi / 2, 2.0, -0.3):
        with pytest.raises(ValueError):
            srlab.WedgeGeometry(theta)


def test_strong_branch_subsonic_with_warning_suppressed(gas):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotSupersonicAtP0)
        strong = srlab.solve_state2(gas, np.radians(60.0))["strong"]
    assert not strong.supersonic_at_P0
    assert strong.rho2 > gas.rho1
    res = strong.residuals()
    assert res["rh"] < 1e-12


def test_overflowed_density_is_no_root():
    # at gamma = 1.001 the density's power 1/(gamma-1) = 1000 overflows along
    # the u2 scan at near-normal wedges; as for isothermal gas, those points
    # read NaN, so no branch is a root whose rho2 is infinite
    gas = srlab.GasParameters(1.001, 1.0, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotSupersonicAtP0)
        both = srlab.solve_state2(gas, np.radians(89.0))
    for cfg in both.values():
        assert np.isfinite(cfg.rho2) and np.all(np.isfinite(cfg.P1))
        assert cfg.residuals()["rh"] < 1e-12


def test_root_scan_across_parameter_regimes():
    # residuals, entropy, and the sonic intersection hold for both branches
    # over a spread of exponents, density ratios, and wedge angles
    validated = 0
    for gamma in (1.1, 5.0 / 3.0, 2.5):
        for rho1 in (1.5, 3.0):
            for deg in (55.0, 65.0, 80.0):
                gas = srlab.GasParameters(gamma, 1.0, rho1)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", NotSupersonicAtP0)
                        both = srlab.solve_state2(gas, np.radians(deg))
                except NoRegularReflection:
                    continue  # below detachment for that gas
                for cfg in both.values():
                    res = cfg.residuals()
                    assert res["rh"] < 1e-12
                    assert res["continuity"] < 1e-12
                    assert cfg.rho2 > rho1
                    assert abs(np.linalg.norm(np.asarray(cfg.P1) - cfg.center) - cfg.c2) < 1e-10
                    validated += 1
    assert validated >= 30


@pytest.mark.parametrize("gamma,theta_deg", [(1.4, 60.0), (1.0, 87.0), (3.0, 75.0)])
def test_flux_residual_scan_matches_pointwise(gamma, theta_deg):
    # the residual is elementwise: a scan over a grid agrees with one
    # evaluation per point, NaN past the vacuum bound included, to round-off
    # only, since numpy's array and 0-d powers may round differently
    from srlab.reflection import _flux_residual, _u_vacuum
    from srlab.states import incident_shock

    gas = srlab.GasParameters(gamma, 1.0, 2.0)
    tanw = np.tan(np.radians(theta_deg))
    xi0, u1 = incident_shock(gas)
    grid = np.linspace(1e-6, 1.2 * _u_vacuum(gas, xi0, tanw), 301)
    with np.errstate(over="ignore", under="ignore"):
        scan = _flux_residual(gas, xi0, u1, tanw, grid)
        pointwise = np.array([_flux_residual(gas, xi0, u1, tanw, u) for u in grid])
    assert np.isnan(scan).any() and not np.isnan(scan).all()
    assert np.array_equal(np.isnan(scan), np.isnan(pointwise))
    ok = ~np.isnan(scan)
    assert np.allclose(scan[ok], pointwise[ok], rtol=1e-14, atol=1e-15 * np.max(np.abs(scan[ok])))


def _bisect_and_polish(f, a, b, fa):
    """One bracket's root as a fixed 90-step bisection and 6-pass Newton polish give it (scalar f)."""
    for _ in range(90):
        m = 0.5 * (a + b)
        fm = f(m)
        if np.isnan(fm) or fa * fm <= 0.0:
            b = m
        else:
            a, fa = m, fm
    root = 0.5 * (a + b)
    for _ in range(6):
        h = 1e-7 * max(abs(root), 1e-8)
        fp, fmn = f(root + h), f(root - h)
        if np.isnan(fp) or np.isnan(fmn) or fp == fmn:
            break
        val = f(root)
        step = val / ((fp - fmn) / (2.0 * h))
        if np.isnan(val) or not np.isfinite(step):
            break
        new = root - step
        if a <= new <= b or abs(new - root) < 0.25 * (b - a):
            root = new
    return root


def test_bisection_stops_at_its_fixed_point():
    # the refinement ends in a bisection to adjacent floats and a fixed-point
    # polish, so where it reaches the float pair a plain bisection reaches,
    # each root is the one a fixed 90-step bisection and 6-pass polish give:
    # here for one lane alone and for two lanes in lockstep, in a third of
    # the bisection's residual evaluations (the weak root's residual changes
    # sign three times within 4 ulps, and both methods end at the same pair)
    from srlab.reflection import _flux_residual, _refine, _u_vacuum
    from srlab.states import incident_shock

    gas = srlab.GasParameters(1.4, 1.0, 2.0)
    tanw = np.tan(np.radians(60.0))
    xi0, u1 = incident_shock(gas)
    calls = []

    def f(u2):
        calls.append(u2)
        return _flux_residual(gas, xi0, u1, tanw, u2)

    # one-lane arrays: a 0-d power may round differently from an array one
    g = lambda u: _flux_residual(gas, xi0, u1, tanw, np.array([u]))[0]
    u_vac = _u_vacuum(gas, xi0, tanw)
    grid = np.linspace(1e-3, u_vac * (1.0 - 1e-12), 200)
    vals = _flux_residual(gas, xi0, u1, tanw, grid)
    ks = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    assert len(ks) == 2  # the weak and the strong root

    for lanes in (ks[:1], ks):
        calls.clear()
        cols = lanes + np.array([[-1], [0], [1]])
        roots = _refine(f, grid[cols], vals[cols])
        assert list(roots) == [_bisect_and_polish(g, grid[k], grid[k + 1], vals[k]) for k in lanes]  # bit-equal
        assert np.all(np.abs(_flux_residual(gas, xi0, u1, tanw, roots)) < 1e-12)
        assert len(calls) <= 15
    # a b end past the vacuum bound (NaN) is the b side, and interpolation
    # waits for a finite triple: the strong bracket stretched to there
    k = ks[1]
    beyond = u_vac * (1.0 + 1e-6)
    assert np.isnan(g(beyond))
    calls.clear()
    (root,) = _refine(f, np.array([[grid[k - 1]], [grid[k]], [beyond]]), np.array([[vals[k - 1]], [vals[k]], [np.nan]]))
    assert root == _bisect_and_polish(g, grid[k], beyond, vals[k]) == roots[1]
    assert len(calls) <= 15

    # fa == 0 marks a scan point that is itself a root: the lane returns a and
    # evaluates nothing
    calls.clear()
    x = grid[ks[:1] + np.array([[-1], [0], [1]])]
    fx = np.array([[vals[ks[0] - 1]], [0.0], [vals[ks[0] + 1]]])
    assert list(_refine(f, x, fx)) == [grid[ks[0]]] and calls == []


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
def test_lanes_do_not_interact(gamma):
    # every bracket of a 40-angle scan, refined alone, gives the root it
    # gives among all the others, bit for bit
    from srlab.reflection import _brackets, _flux_residual, _refine
    from srlab.states import incident_shock

    gas = srlab.GasParameters(gamma, 1.0, 2.0)
    xi0, u1 = incident_shock(gas)
    tanw = np.tan(np.radians(np.arange(50.0, 90.0)))
    _, lane, x, fx = _brackets(gas, xi0, u1, tanw)
    assert len(np.unique(lane)) >= 28  # gamma = 3 detaches at 61.09 deg
    with np.errstate(over="ignore", under="ignore"):
        together = _refine(lambda u: _flux_residual(gas, xi0, u1, tanw[lane], u), x, fx)
        for k, t in enumerate(tanw[lane]):
            one = slice(k, k + 1)
            alone = _refine(lambda u: _flux_residual(gas, xi0, u1, t, u), x[:, one], fx[:, one])
            assert alone[0] == together[k]


def _bisect_and_polish_lanes(f, x, fx):
    # the reference refinement, in lockstep: bisection to adjacent floats,
    # then the same fixed-point Newton polish
    _, a, b = x
    _, fa, _ = fx
    live = fa != 0.0
    for _ in range(90):
        m = 0.5 * (a + b)
        live &= (m != a) & (m != b)
        if not live.any():
            break
        fm = f(m)
        right = np.isnan(fm) | (fa * fm <= 0.0)
        b = np.where(live & right, m, b)
        a = np.where(live & ~right, m, a)
        fa = np.where(live & ~right, fm, fa)
    root = 0.5 * (a + b)
    live = fx[1] != 0.0
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
    return np.where(fx[1] == 0.0, x[1], root)


def _outcomes(gas, thetas):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotSupersonicAtP0)
        solved = srlab.solve_state2_many(gas, thetas)
    return [type(both).__name__ if isinstance(both, Exception) else both for both in solved]


@pytest.mark.parametrize("gamma,rho1", [(1.0, 1.1), (1.0, 2.0), (1.4, 1.1), (3.0, 10.0)])
def test_refinement_agrees_with_bisection_on_a_wide_grid(monkeypatch, gamma, rho1):
    # 140 angles over 20..89.5 deg: every angle keeps the outcome the
    # bisection gives (its branches or its refusal), every root lies within
    # 92 ulps of the bisection's (the largest shift over 7 gammas x 6 rho1,
    # at rho1 = 1.1, where weak incident shocks make the residual change sign
    # several times within a few ulps) and satisfies the jump condition; for
    # gamma = 1 at 81..87.5 deg (rho1 = 2) and at most angles of 83..88 deg
    # (rho1 = 1.1) one ulp of the strong root's u2 decides whether its strong
    # branch is refused, and without the polish rho1 = 1.1 loses that branch
    # at 85, 85.5, 86 and 88 deg
    import srlab.reflection

    gas = srlab.GasParameters(gamma, 1.0, rho1)
    thetas = np.radians(np.linspace(20.0, 89.5, 140))
    got = _outcomes(gas, thetas)
    monkeypatch.setattr(srlab.reflection, "_refine", _bisect_and_polish_lanes)
    want = _outcomes(gas, thetas)
    assert [sorted(o) if isinstance(o, dict) else o for o in got] == \
        [sorted(o) if isinstance(o, dict) else o for o in want]
    pairs = [(o[br], w[br]) for o, w in zip(got, want) if isinstance(o, dict) for br in o]
    assert len(pairs) >= 80  # at least 40 angles with both branches
    ulps = [abs(int(np.float64(c.u2).view(np.int64)) - int(np.float64(r.u2).view(np.int64))) for c, r in pairs]
    assert max(ulps) <= 92
    assert max(c.residuals()["rh"] for c, _ in pairs) <= 1e-12


def test_a_strong_roots_last_ulp_moves_no_weak_outcome(monkeypatch):
    # at steep isothermal wedges (strong rho2 above 1e16) one ulp of the
    # strong root's u2 decides whether that branch meets the sonic arc; each
    # branch is judged on its own, so moving every strong root one ulp up or
    # down moves no angle's weak root or refusal (a whole-angle verdict moved
    # 24 of these 76 outcomes to NoSonicIntersection)
    import srlab.reflection
    from srlab.states import incident_shock

    build = srlab.reflection._configurations

    def nudged(direction):
        def wrapped(gas, theta_w, u2, v2, k2, rho2, branch):
            strong = np.asarray(branch) == "strong"
            moved = np.where(strong, np.nextafter(u2, direction), u2)
            with np.errstate(over="ignore", under="ignore"):
                state = srlab.reflection._state2_of_u2(gas, incident_shock(gas)[0], np.tan(theta_w), moved)
            v2, k2, rho2 = (np.where(strong, new, old) for new, old in zip(state, (v2, k2, rho2)))
            return build(gas, theta_w, moved, v2, k2, rho2, branch)
        return wrapped

    def weak(outcome):
        return float(outcome["weak"].u2).hex() if isinstance(outcome, dict) else outcome

    thetas = np.radians(np.arange(80.0, 89.0 + 1e-9, 0.5))
    strong_moved = 0
    for rho1 in (1.1, 2.0):
        gas = srlab.GasParameters(1.0, 1.0, rho1)
        base = _outcomes(gas, thetas)
        assert sum(isinstance(o, dict) for o in base) >= 15
        for direction in (np.inf, -np.inf):
            monkeypatch.setattr(srlab.reflection, "_configurations", nudged(direction))
            got = _outcomes(gas, thetas)
            monkeypatch.setattr(srlab.reflection, "_configurations", build)
            assert [weak(o) for o in got] == [weak(o) for o in base]
            strong_moved += sum(("strong" in o) != ("strong" in b) for o, b in zip(got, base) if isinstance(b, dict))
    assert strong_moved > 0  # the nudge does decide some strong branches


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
def test_lane_blocks_do_not_change_the_scan(gamma):
    # the scan runs _SCAN_LANES angles at a time and is elementwise per angle,
    # so 79 angles (a partial last block) equal 79 one-angle scans bit for
    # bit in all four outputs; at gamma 3 the blocks below 61.09 deg hold no
    # bracket
    from srlab.reflection import _SCAN_LANES, _brackets
    from srlab.states import incident_shock

    gas = srlab.GasParameters(gamma, 1.0, 2.0)
    xi0, u1 = incident_shock(gas)
    tanw = np.tan(np.radians(np.arange(50.0, 89.01, 0.5)))
    assert len(tanw) == 79 and len(tanw) % _SCAN_LANES
    blocked = _brackets(gas, xi0, u1, tanw)
    alone = [_brackets(gas, xi0, u1, tanw[k:k + 1]) for k in range(len(tanw))]
    joined = [np.concatenate(part, axis=-1) for part in zip(*alone)]
    joined[1] = np.concatenate([o[1] + k for k, o in enumerate(alone)])  # each one-angle scan is lane 0
    for got, want in zip(blocked, joined):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if gamma == 3.0:
        assert blocked[1].min() >= 2 * _SCAN_LANES  # the first two blocks are empty


@pytest.mark.parametrize("gamma,lo,hi", [
    (1.0, "0x1.8d41f2291c4e2p-1", "0x1.8d422193e3b4cp-1"),
    (1.4, "0x1.b53b26625824bp-1", "0x1.b53b55cd1f8b6p-1"),
    (2.0, "0x1.e639583d79298p-1", "0x1.e63987a840903p-1"),
    (3.0, "0x1.10f5adf51f129p+0", "0x1.10f5c5aa82c5ep+0"),
])
def test_detachment_bracket_is_pinned(gamma, lo, hi):
    # the default bracket bit for bit: each probe is a one-angle scan on
    # solve_state2's own grid, so the lane blocks move no probe's verdict
    got = srlab.detachment_angle(srlab.GasParameters(gamma, 1.0, 2.0))
    assert [float(v).hex() for v in got] == [lo, hi]


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
def test_detachment_bracket_is_solve_state2s_verdict(gamma):
    # the bisection probes solve_state2's own u2 scan, so the bracket's ends
    # are the solve's verdicts: no root at lo, both branches at hi (a coarser
    # probe scan put lo on an angle that solve_state2 solves at gamma 1, 2, 3)
    gas = srlab.GasParameters(gamma, 1.0, 2.0)
    lo, hi = srlab.detachment_angle(gas)
    with pytest.raises(NoRegularReflection):
        srlab.solve_state2(gas, lo)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotSupersonicAtP0)
        both = srlab.solve_state2(gas, hi)
    assert sorted(both) == ["strong", "weak"]


def test_scan_working_set_is_bounded():
    # a 2,000-angle scan holds one block's temporaries at a time: 8 angles x
    # 1045 points make 67 kB arrays and a ~1.1 MB peak, where the whole-array
    # scan peaked at 160 MB; 8 MB leaves room for blocks of ~50 angles
    import tracemalloc

    from srlab.reflection import _brackets
    from srlab.states import incident_shock

    gas = srlab.GasParameters(1.4, 1.0, 2.0)
    xi0, u1 = incident_shock(gas)
    tanw = np.tan(np.radians(np.linspace(50.0, 89.0, 2000)))
    tracemalloc.start()
    try:
        _, lane, _, _ = _brackets(gas, xi0, u1, tanw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(np.unique(lane)) == 2000
    assert peak < 8e6


def _residuals_per_sample(cfg, n_samples=7):
    # the per-sample loop that ReflectionConfiguration.residuals computes as
    # arrays, in float arithmetic: each dot product and norm a two-term sum
    st1 = state1(cfg.gas)
    st2 = cfg.state2
    tau = np.asarray(cfg.s1_direction)
    nu = (float(tau[1]), -float(tau[0]))
    scale = worst_rh = worst_cont = 0.0
    for t in np.linspace(-1.0, 1.0, n_samples):
        p = np.asarray(cfg.P0) + t * tau
        d1 = (st1.u - float(p[0]), st1.v - float(p[1]))
        d2 = (st2.u - float(p[0]), st2.v - float(p[1]))
        rh = st1.rho * (d1[0] * nu[0] + d1[1] * nu[1]) - st2.rho * (d2[0] * nu[0] + d2[1] * nu[1])
        n1 = math.sqrt(d1[0] * d1[0] + d1[1] * d1[1])
        n2 = math.sqrt(d2[0] * d2[0] + d2[1] * d2[1])
        scale = max(scale, st1.rho * (1.0 + n1) + st2.rho * (1.0 + n2))
        worst_rh = max(worst_rh, abs(rh))
        cont = potential(st1, *p) - potential(st2, *p)
        worst_cont = max(worst_cont, abs(cont) / max(1.0, abs(potential(st1, *p))))
    return {"rh": worst_rh / scale, "continuity": worst_cont}


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
def test_residuals_equal_the_per_sample_loop(gamma):
    # bit for bit on both branches of a 0.5-degree sweep: the array form
    # writes out its dot products and norms as the loop's float sums
    gas = srlab.GasParameters(gamma, 1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotSupersonicAtP0)
        solved = srlab.solve_state2_many(gas, np.radians(np.arange(50.0, 89.01, 0.5)))
    configs = [cfg for both in solved if isinstance(both, dict) for cfg in both.values()]
    assert len(configs) >= 56  # gamma = 3 detaches at 61.09 deg
    for cfg in configs:
        res, ref = cfg.residuals(), _residuals_per_sample(cfg)
        assert (res["rh"], res["continuity"]) == (ref["rh"], ref["continuity"])


@pytest.mark.parametrize("gamma,theta_deg", [(1.4, 60.0), (2.0, 60.0), (1.0, 75.0)])
def test_shock_chart_table_closed_form(gamma, theta_deg):
    # y on a criterion-6 grid against the exact root of the same quadratic,
    # t^2 + 2 beta0 t + x(2 c2 - x) = 0, at 40 digits on the float data
    mp = pytest.importorskip("mpmath")
    cfg = srlab.solve_state2(srlab.GasParameters(gamma, 1.0, 2.0), np.radians(theta_deg))["weak"]
    xs = srlab.geometric_axis(cfg.c2 / 20.0, 121, 0.95)
    y, _, _ = shock_chart_table(cfg, xs)
    with mp.workdps(40):
        d0 = [mp.mpf(p) - mp.mpf(c) for p, c in zip(cfg.P1, (cfg.u2, cfg.v2))]
        tau = [mp.mpf(v) for v in cfg.s1_direction]
        c2 = mp.mpf(cfg.c2)
        beta0 = d0[0] * tau[0] + d0[1] * tau[1]
        ref = []
        for x in map(mp.mpf, xs):
            t = -beta0 - mp.sqrt(beta0 * beta0 - x * (2 * c2 - x))
            ref.append(float(mp.atan2(d0[1] + t * tau[1], d0[0] + t * tau[0]) - mp.mpf(cfg.theta_w)))
    ref = np.array(ref)
    assert np.max(np.abs(y - ref) / np.abs(ref)) <= 2e-15
    assert y[0] == cfg.y1
    # the chord midpoint, where dx/dt = 0: finite, and no warning (warnings fail the suite)
    assert np.all(np.isfinite(shock_chart_table(cfg, [shock_depth_max(cfg)])))


@pytest.mark.parametrize("gamma,theta_deg", [(1.0, 67.5), (1.0, 88.0), (1.4, 88.75), (1.4, 89.0)])
def test_p1_matches_the_oracle_at_steep_wedges(gamma, theta_deg):
    # the sonic point from the configuration's own (theta_w, u2), against the
    # 40-digit line-circle intersection; at steep wedges |P0 - C|^2 - c2^2 and
    # b^2 nearly cancel in b^2 - |P0 - C|^2 + c2^2, which cost P1 up to 1.1e-12
    import mpmath as mp

    theta = np.radians(theta_deg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotSupersonicAtP0)
        cfg = srlab.solve_state2(srlab.GasParameters(gamma, 1.0, 2.0), theta)["weak"]
    P, _, _, _ = sonic_point_P1(gamma, 1.0, 2.0, mp.mpf(theta) * 180 / mp.pi, mp.mpf(cfg.u2))
    err = math.hypot(cfg.P1[0] - float(P[0]), cfg.P1[1] - float(P[1]))
    assert err <= 1e-14 * math.hypot(float(P[0]), float(P[1]))
