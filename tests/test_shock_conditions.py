import warnings

import numpy as np
import pytest

import srlab
from srlab.errors import OutsideDomain, VacuumState
from srlab.reflection import shock_chart_table
from srlab.shock import (
    ShockBoundaryFns,
    check_g_unique,
    g_function,
    g_prime,
    largest_valid_eps,
    synthetic_quadratic_trace,
    write_trace_csv,
)
from srlab.states import bernoulli_density

from conftest import potential, state1

# frozen 40-digit values for the 60-degree weak configuration
PSI_P1_60 = 1.034437802810313689957
G_2_14 = 1.141256592310745181433


@pytest.fixture(scope="module")
def fns(weak60):
    return ShockBoundaryFns(weak60)


def test_rho_perturbed_at_zero_is_rho2(fns, weak60):
    for xi, eta in ((0.0, 0.0), (1.3, 2.2), (-0.4, 0.9)):
        assert fns.rho_perturbed(0.0, 0.0, 0.0, xi, eta) == pytest.approx(weak60.rho2, rel=1e-14)


def test_E_zero_at_origin_at_P1(fns, weak60):
    assert abs(fns.E(0.0, 0.0, 0.0, *weak60.P1)) < 1e-12


def test_E_matches_raw_state_combination(fns, weak60, gas):
    # recompute (rho1 Dphi1 - rho Dphi).(Dphi1 - Dphi) without the expansion:
    # phi = phi2 + psi with gradient offset p and potential offset p3
    st1 = state1(gas)
    st2 = weak60.state2
    rng = np.random.default_rng(11)
    for _ in range(50):
        p1, p2 = rng.uniform(-0.05, 0.05, size=2)
        p3 = rng.uniform(-0.02, 0.02)
        xi, eta = rng.uniform(0.2, 1.8), rng.uniform(0.8, 2.2)
        d1 = np.array([st1.u - xi, st1.v - eta])
        dphi = np.array([st2.u - xi + p1, st2.v - eta + p2])
        phi_val = potential(st2, xi, eta) + p3
        rho = bernoulli_density(gas, gas.rho0, phi_val + 0.5 * float(dphi @ dphi))
        raw = gas.rho1 * float(d1 @ (d1 - dphi)) - rho * float(dphi @ (d1 - dphi))
        assert fns.E(p1, p2, p3, xi, eta) == pytest.approx(raw, rel=1e-11, abs=1e-12)


def test_E_fixture_point(fns, weak60):
    val = fns.E(0.01, 0.01, 0.001, *weak60.P1)
    assert np.isfinite(val) and abs(val) > 1e-6  # nondegenerate sample


def test_F_zero_along_every_xi(fns, weak60):
    scale = weak60.gas.rho1 * (1 + abs(weak60.u1)) + weak60.rho2 * (1 + abs(weak60.u2) + weak60.c2 + abs(weak60.xi1))
    for xi in np.linspace(weak60.xi1 - 1.0, weak60.xi1 + 1.0, 20):
        assert abs(fns.F(0.0, 0.0, 0.0, xi)) / scale < 1e-12


def test_F_equals_E_at_P1(fns, weak60):
    v1 = fns.F(1e-3, 0.0, 0.0, weak60.xi1)
    v2 = fns.E(1e-3, 0.0, 0.0, weak60.xi1, weak60.eta1)
    assert v1 == pytest.approx(v2, rel=1e-13)


def test_F_composition_oracle(fns, weak60):
    # direct composition: eta eliminated through the potential-continuity line
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = rng.uniform(-0.03, 0.03, size=3)
        xi = rng.uniform(weak60.xi1 - 0.5, weak60.xi1 + 0.5)
        eta = ((weak60.u1 - weak60.u2) * (xi - weak60.xi1) - p[2]) / weak60.v2 + weak60.eta1
        assert fns.F(*p, xi) == pytest.approx(fns.E(*p, xi, eta), rel=1e-13)


def test_Psi_zero_on_shock_samples(fns, weak60):
    xs = np.linspace(0.0, weak60.c2 / 20.0, 12)
    ys, _, _ = shock_chart_table(weak60, xs)
    vals = fns.Psi(np.zeros_like(xs), np.zeros_like(xs), np.zeros_like(xs), xs, ys)
    assert np.max(np.abs(vals)) < 1e-12


def test_Psi_zero_at_corner(fns, weak60):
    assert abs(fns.Psi(0.0, 0.0, 0.0, 0.0, weak60.y1)) < 1e-13


def test_psi_p1_frozen_value_and_positivity(fns):
    val = fns.psi_p1_at_P1()
    assert val > 0.0
    assert val == pytest.approx(PSI_P1_60, rel=1e-12)


def test_psi_p1_two_closed_forms_agree(fns):
    assert abs(fns.psi_p1_at_P1() - fns.psi_p1_tau_form()) < 1e-10


def test_psi_p1_matches_finite_difference(fns, weak60):
    h = 1e-6
    fd = (fns.Psi(h, 0.0, 0.0, 0.0, weak60.y1) - fns.Psi(-h, 0.0, 0.0, 0.0, weak60.y1)) / (2 * h)
    assert fd == pytest.approx(fns.psi_p1_at_P1(), rel=1e-6)


@pytest.mark.parametrize("gamma,theta_deg", [(1.0, 60.0), (1.4, 60.0), (2.0, 60.0), (3.0, 75.0)])
def test_psi_gradient_exact_at_P1(gamma, theta_deg):
    # complex-step partials carry no truncation error: the first slot at the
    # corner matches the closed form to rounding (gamma = 3 detaches at 61 deg)
    cfg = srlab.solve_state2(srlab.GasParameters(gamma, 1.0, 2.0), np.radians(theta_deg))["weak"]
    fns = ShockBoundaryFns(cfg)
    assert fns.psi_gradient(0.0, 0.0, 0.0, 0.0, cfg.y1)[1][0] == pytest.approx(fns.psi_p1_at_P1(), rel=1e-13)


def test_psi_gradient_matches_per_slot_complex_steps(fns, weak60):
    # the stacked evaluation gives each slot's own complex step, Im Psi(p + ih e_k)/h,
    # and its real part gives Psi's real evaluation to rounding of its scale
    # (1.6e-14 of it at gamma 1.4: complex powers round apart from real ones)
    rng = np.random.default_rng(3)
    x = np.linspace(1e-4, weak60.c2 / 20.0, 40)
    y, _, _ = shock_chart_table(weak60, x)
    p = [0.1 * x * rng.standard_normal(x.size) for _ in range(3)]
    h = 1e-30
    value, grad = fns.psi_gradient(*p, x, y)
    real = fns.Psi(*p, x, y)
    assert np.max(np.abs(value - real)) <= 5e-14 * np.max(np.abs(real))
    for k in range(3):
        z = list(p)
        z[k] = p[k] + 1j * h
        want = np.imag(fns.Psi(*z, x, y)) / h
        assert np.max(np.abs(grad[k] - want)) <= 1e-15 * np.max(np.abs(want))


def test_psi_p1_vanishes_as_densities_merge(fns, weak60):
    # synthetic state with rho2 -> rho1: the tangential form has an explicit
    # (rho2 - rho1) factor
    import dataclasses

    st = dataclasses.replace(weak60.state2, rho=weak60.gas.rho1 * (1.0 + 1e-9))
    cfg = dataclasses.replace(weak60, state2=st)
    val = ShockBoundaryFns(cfg).psi_p1_tau_form()
    assert abs(val) < 1e-8


def test_bhat_on_zero_trace_equals_partials(fns, weak60):
    xs = np.linspace(1e-4, weak60.c2 / 20.0, 9)
    ys, _, _ = shock_chart_table(weak60, xs)
    z = np.zeros_like(xs)
    b1, b2, b3 = fns.bhat(xs, ys, z, z, z)
    # constant-in-t integrand: b_k = Psi_pk(0,0,0,x,y)
    for arr, k in ((b1, 1), (b2, 2), (b3, 3)):
        direct = fns.psi_gradient(z, z, z, xs, ys)[1][k - 1]
        assert np.allclose(arr, direct, rtol=1e-10, atol=1e-12)
    # at the corner, b1 equals the explicit gradient coefficient
    b1c, _, _ = fns.bhat([0.0], [weak60.y1], [0.0], [0.0], [0.0])
    assert b1c[0] == pytest.approx(fns.psi_p1_at_P1(), rel=1e-9)


def test_bhat_expansion_identity(fns, weak60):
    # b1 psi_x + b2 psi_y + b3 psi = Psi exactly (line integral of the gradient)
    x, y, psi, px, py = synthetic_quadratic_trace(weak60, weak60.c2 / 20.0)
    py = py + 0.1 * px  # exercise the second slot too
    b1, b2, b3 = fns.bhat(x, y, psi, px, py)
    lhs = b1 * px + b2 * py + b3 * psi
    rhs = fns.Psi(px, py, psi, x, y)
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_bhat_margin_on_quadratic_trace(fns, weak60):
    rep = fns.bhat_report(*fns.bhat(*synthetic_quadratic_trace(weak60, weak60.c2 / 20.0)))
    assert rep["min_b1"] >= rep["lambda"] > 0.0
    assert np.isfinite(rep["max_abs_b2"]) and np.isfinite(rep["max_abs_b3"])


def test_largest_valid_eps_reports(weak60):
    eps_list = [weak60.c2 * f for f in (0.02, 0.05, 0.1, 0.2)]
    best = largest_valid_eps(weak60, eps_list)
    assert best is not None and best >= weak60.c2 * 0.05


def test_bhat_outside_domain_raises(fns, weak60):
    with pytest.raises((OutsideDomain, VacuumState)):
        fns.bhat([0.01], [weak60.y1], [5.0], [5.0], [5.0])


@pytest.mark.parametrize("gamma", [1.1, 1.4, 2.0, 3.0])
def test_g_at_unity(gamma):
    assert g_function(1.0, gamma) == pytest.approx(1.0, rel=1e-15)


def test_g_frozen_value():
    assert g_function(2.0, 1.4) == pytest.approx(G_2_14, rel=1e-14)


@pytest.mark.parametrize("gamma", [1.0001, 1.1, 1.4, 2.0, 3.0, 1e3, 1e6])
def test_g_unique_root(gamma):
    # with no warning: the scan this check replaced overflowed at 1e3 and 1e6,
    # and the check's samples s = 2^(+-1/(gamma+1)) keep every power of s near 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_g_unique(gamma)


def scan_g_unique(gamma):
    """The scan the closed-form check replaced: on a 100,000-point log grid over
    [1e-3, 1e3], g > 1 away from s = 1 and g' has the sign of s - 1.  Its powers
    overflow above gamma = 103.7, where 1000^(gamma-1) leaves the float range."""
    n = 100_000
    s = np.logspace(-3.0, 3.0, n)
    vals = g_function(s, gamma)
    i1 = int(np.searchsorted(s, 1.0))
    near_one = np.zeros(n, dtype=bool)
    near_one[max(0, i1 - 1) : min(n, i1 + 2)] = True
    dv = g_prime(s, gamma)
    return bool(np.all(vals[~near_one] > 1.0) and np.all(dv[s < 1.0 - 1e-4] < 0.0)
                and np.all(dv[s > 1.0 + 1e-4] > 0.0))


def test_g_check_agrees_with_the_scan():
    for gamma in np.geomspace(1.0001, 100.0, 41):
        assert (check_g_unique(gamma), scan_g_unique(gamma)) == (True, True), gamma


def test_g_check_allows_g_at_one_off_by_an_ulp():
    # g(1) rounds to the float below 1 at the first of many such gamma; the
    # check compares it with 1 in ulps
    gamma = 1.0000000000011482
    assert g_function(1.0, gamma) == np.nextafter(1.0, 0.0)
    assert check_g_unique(gamma)


def test_g_check_refuses_gamma_one():
    with pytest.raises(ValueError, match="gamma > 1"):
        check_g_unique(1.0)


def test_g_prime_sign_pattern():
    s = np.logspace(-2, 2, 401)
    dv = g_prime(s, 1.4)
    assert np.all(dv[s < 0.999] < 0)
    assert np.all(dv[s > 1.001] > 0)


def test_trace_csv_roundtrip(tmp_path, fns, weak60):
    x, y, psi, px, py = synthetic_quadratic_trace(weak60, weak60.c2 / 20.0)
    b1, b2, b3 = fns.bhat(x, y, psi, px, py)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, x, y, psi, px, py, b1, b2, b3, digest="deadbeef")
    back = np.loadtxt(path, delimiter=",", skiprows=2)  # the digest line and the header
    for k, col in enumerate((x, y, psi, px, py, b1, b2, b3)):
        assert np.array_equal(back[:, k], col)
    head = path.read_text().splitlines()[:2]
    assert head == ["# runconfig_digest=deadbeef", "x,y,psi,psi_x,psi_y,b1,b2,b3"]


def _in_domain_per_sample(cfg, p1, p2, p3, x, y):
    # the scalar admissibility test that ShockBoundaryFns.in_domain applies elementwise
    ang = float(y) + cfg.theta_w
    r = cfg.c2 - float(x)
    if r <= 0.0:
        return False
    cos, sin = np.cos(ang), np.sin(ang)
    xi = cfg.u2 + r * cos
    eta = cfg.v2 + r * sin
    t = np.linspace(0.0, 2.0, 65)
    q1 = (-p1 * cos - p2 * sin / r) * t
    q2 = (-p1 * sin + p2 * cos / r) * t
    q3 = p3 * t
    lin = (xi - cfg.u2) * q1 + (eta - cfg.v2) * q2 - 0.5 * (q1 * q1 + q2 * q2) - q3
    if cfg.gas.isothermal:
        return True
    g = cfg.gas.gamma
    return bool(np.all(cfg.rho2 ** (g - 1.0) + (g - 1.0) * lin > 0.0))


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
def test_in_domain_matches_the_per_sample_test(gamma):
    # random samples spanning admissible and inadmissible rays, with depths
    # past the circle center (x >= c2) that the elementwise test must not divide by
    cfg = srlab.solve_state2(srlab.GasParameters(gamma, 1.0, 2.0), np.radians(60.0))["weak"]
    fns = ShockBoundaryFns(cfg)
    rng = np.random.default_rng(7)
    n = 400
    x = np.concatenate([rng.uniform(0.0, 1.2 * cfg.c2, n - 2), [cfg.c2, 0.0]])
    y = rng.uniform(-0.5, 1.0, n)
    p1, p2, p3 = (rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 1, n) for _ in range(3))
    ok = fns.in_domain(p1, p2, p3, x, y)
    ref = [_in_domain_per_sample(cfg, *s) for s in zip(p1, p2, p3, x, y)]
    assert ok.tolist() == ref
    assert not ok.all() and ok.any()


@pytest.mark.parametrize("gamma, theta_w", [(1.4, 60.0), (2.0, 60.0), (3.0, 75.0)])
def test_in_domain_endpoint_test_matches_the_ray_scan(gamma, theta_w):
    # the Bernoulli argument is concave along each ray and positive at its
    # start, so its sign at t = 2 decides the ray; the reference is the scan
    # of 65 samples on t in [0, 2] that in_domain used to take
    cfg = srlab.solve_state2(srlab.GasParameters(gamma, 1.0, 2.0), np.radians(theta_w))["weak"]
    rng = np.random.default_rng(11)
    n = 20000
    x = rng.uniform(0.0, 0.99 * cfg.c2, n)
    y = rng.uniform(-0.5, 1.0, n)
    p1, p2, p3 = (rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 1, n) for _ in range(3))
    r = cfg.c2 - x
    cos, sin = np.cos(y + cfg.theta_w), np.sin(y + cfg.theta_w)
    t = np.linspace(0.0, 2.0, 65)[:, None]
    q1, q2 = (-p1 * cos - p2 * sin / r) * t, (-p1 * sin + p2 * cos / r) * t
    xi, eta = cfg.u2 + r * cos, cfg.v2 + r * sin
    lin = (xi - cfg.u2) * q1 + (eta - cfg.v2) * q2 - 0.5 * (q1 * q1 + q2 * q2) - p3 * t
    ref = np.all(cfg.rho2 ** (gamma - 1.0) + (gamma - 1.0) * lin > 0.0, axis=0)
    ok = ShockBoundaryFns(cfg).in_domain(p1, p2, p3, x, y)
    assert np.array_equal(ok, ref)
    assert 0.05 < ref.mean() < 0.95


def test_bhat_names_the_first_inadmissible_sample(fns, weak60):
    x, y, psi, px, py = synthetic_quadratic_trace(weak60, weak60.c2 / 20.0)
    px[[5, 9]] = 50.0
    assert fns.in_domain(px, py, psi, x, y).tolist() == [i not in (5, 9) for i in range(x.size)]
    with pytest.raises(OutsideDomain, match=r"trace sample 5 \(x="):
        fns.bhat(x, y, psi, px, py)


# -- the b-hat quadrature and the chart it evaluates -----------------------------

# the wedge angles of the per-gamma configurations (gamma = 3 detaches at 61 deg)
RULE_CASES = [(1.0, 60.0), (1.4, 60.0), (2.0, 60.0), (3.0, 75.0)]
# the truncation depths, as fractions of c2, that verify --what rh tries
RH_EPS_FRACS = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3)


def _weak(gamma, theta_deg):
    return srlab.solve_state2(srlab.GasParameters(gamma, 1.0, 2.0), np.radians(theta_deg))["weak"]


def _leggauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return (1.0 + x) / 2.0, w / 2.0


def test_gauss_legendre_literals_are_correctly_rounded():
    # each literal is the double nearest the 50-digit rule: within half an ulp
    # of it (leggauss's weights are up to 58 ulps off)
    import mpmath as mp
    from oracles import gauss_legendre01
    from srlab.shock import _GL_NODES, _GL_WEIGHTS

    for literals, exact in zip((_GL_NODES, _GL_WEIGHTS), gauss_legendre01(_GL_NODES.size)):
        for v, ref in zip(literals, exact):
            with mp.workdps(50):
                assert abs(mp.mpf(float(v)) - ref) <= mp.mpf(float(np.spacing(v))) / 2


def test_gauss_legendre_rule_is_exact_to_degree_2n_minus_1():
    from srlab.shock import _GL_NODES, _GL_WEIGHTS

    assert abs(np.sum(_GL_WEIGHTS) - 1.0) <= 1e-15
    for k in range(2 * _GL_NODES.size):
        assert abs(np.sum(_GL_WEIGHTS * _GL_NODES**k) - 1.0 / (k + 1)) <= 1e-15, k


@pytest.mark.parametrize("gamma,theta_deg", RULE_CASES)
def test_bhat_matches_a_40_node_rule(gamma, theta_deg):
    # the integrand is analytic on the admissible ray, so the 8-node rule is
    # at rounding; 33-point Simpson erred by up to 2.7e-13 at c2/20
    cfg = _weak(gamma, theta_deg)
    fns = ShockBoundaryFns(cfg)
    t, w = (a[:, None] for a in _leggauss01(40))
    best = largest_valid_eps(cfg, [cfg.c2 * f for f in RH_EPS_FRACS])
    traces = [synthetic_quadratic_trace(cfg, cfg.c2 / 20.0)]
    traces += [synthetic_quadratic_trace(cfg, cfg.c2 * f) for f in RH_EPS_FRACS if cfg.c2 * f <= best]
    assert len(traces) >= 3
    for x, y, psi, px, py in traces:
        ref = [np.sum(w * v, axis=0) for v in fns.psi_gradient(t * px, t * py, t * psi, x[None, :], y[None, :])[1]]
        for b, r in zip(fns.bhat(x, y, psi, px, py), ref):
            assert np.max(np.abs(b - r)) <= 1e-14 * np.max(np.abs(r))


@pytest.mark.parametrize("gamma,theta_deg", RULE_CASES)
@pytest.mark.parametrize("frac", [0.05, 0.2])
def test_bhat_expansion_identity_to_rounding(gamma, theta_deg, frac):
    # b1 psi_x + b2 psi_y + b3 psi = Psi to rounding: the 8-node rule reads at
    # most 6.7e-14 here, 33-point Simpson 1.7e-11 to 5.0e-11 at 0.2 c2 (gamma != 2)
    cfg = _weak(gamma, theta_deg)
    fns = ShockBoundaryFns(cfg)
    x, y, psi, px, py = synthetic_quadratic_trace(cfg, frac * cfg.c2)
    py = py + 0.1 * px
    b1, b2, b3 = fns.bhat(x, y, psi, px, py)
    rhs = fns.Psi(px, py, psi, x, y)
    assert np.max(np.abs(b1 * px + b2 * py + b3 * psi - rhs)) <= 2e-13 * np.max(np.abs(rhs))


@pytest.mark.parametrize("gamma,theta_deg", RULE_CASES)
def test_chart_on_unbroadcast_rows_is_bit_for_bit(gamma, theta_deg):
    # Psi takes the chart of x and y before they meet the slots; every step
    # is elementwise, so (1, n) rows give the values of fully broadcast ones
    cfg = _weak(gamma, theta_deg)
    fns = ShockBoundaryFns(cfg)
    rng = np.random.default_rng(17)
    m, n = 8, 48
    x = rng.uniform(0.0, cfg.c2 / 10.0, (1, n))
    y = shock_chart_table(cfg, x[0])[0][None, :] + rng.normal(0.0, 1e-3, (1, n))
    slots = [rng.normal(0.0, 1e-2, (3, m, n)) + 1j * rng.normal(0.0, 1e-20, (3, m, n)) for _ in range(3)]
    assert np.array_equal(fns.Psi(*slots, x, y), fns.Psi(*np.broadcast_arrays(*slots, x, y)))
    real = [s.real for s in slots]
    value, rows = fns.psi_gradient(*real, x, y)
    full_value, full = fns.psi_gradient(*np.broadcast_arrays(*real, x, y))
    assert np.array_equal(value, full_value) and all(np.array_equal(a, b) for a, b in zip(rows, full))


def test_strip_grid_payload_is_pinned(tmp_path):
    # the Newton shock row takes Psi and its gradient from one complex step
    # (psi_gradient) and -Psi as its right side, and the cut rows impose
    # psi_x = x/a; this digest of the gamma 1.4, 60 degree 121x49 strip's
    # grid file holds them, and the configuration's P1 they are evaluated on,
    # bit for bit
    import hashlib

    from srlab.cli import main

    assert main(["solve", "--mode", "reflection", "--gamma", "1.4", "--theta-w", "60", "--grid", "121,49",
                 "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "grid.srl").read_bytes()).hexdigest()
    assert digest == "08fd986180602f8cb114be241adcdfc2d5a1732a667c2b8f76fc46b83c63e681"


def test_bhat_evaluation_shape_is_pinned(fns, weak60, monkeypatch):
    # one stacked F call over 3 slots x 8 nodes x 48 samples, and the chart's
    # trigonometry taken once per sample, not once per node and slot
    import srlab.shock

    F, chart = ShockBoundaryFns.F, srlab.shock._chart
    f_shapes, angles = [], []

    def f(self, *a):
        f_shapes.append(np.broadcast_shapes(*map(np.shape, a)))
        return F(self, *a)

    def counted_chart(cfg, p1, p2, x, y):
        angles.append(np.size(y))
        return chart(cfg, p1, p2, x, y)

    monkeypatch.setattr(ShockBoundaryFns, "F", f)
    monkeypatch.setattr(srlab.shock, "_chart", counted_chart)
    fns.bhat(*synthetic_quadratic_trace(weak60, weak60.c2 / 20.0))
    assert f_shapes == [(3, 8, 48)]
    assert angles and set(angles) == {48}
