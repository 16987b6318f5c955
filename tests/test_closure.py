"""Cross-validation of the shock-reflection closure against the raw flow equation.

The chart-form operator with the reflection O-terms must equal 1/c2 times the
physical second-order operator c^2 * Lap(psi) - Dphi^T D2psi Dphi evaluated in
the original plane, for any smooth perturbation psi.  The physical side is
computed by finite differences of psi composed with the chart, with no use of
the closure formulas.
"""

import numpy as np
import pytest

import srlab
from srlab.coefficients import apply_operator, complex_step_partials, operator_coefficients, reflection_coefficients
from srlab.reflection import to_sonic_coords


def synthetic_psi():
    # smooth, inhomogeneous in both chart variables
    def psi(x, y):
        return 0.01 * x**2 * (1.0 + 0.3 * np.sin(2.0 * y)) + 0.004 * x**3 + 0.002 * x**2 * y

    return psi


def chart_jet(psi, x, y, h=1e-5):
    v = psi(x, y)
    px = (psi(x + h, y) - psi(x - h, y)) / (2 * h)
    py = (psi(x, y + h) - psi(x, y - h)) / (2 * h)
    pxx = (psi(x + h, y) - 2 * v + psi(x - h, y)) / h**2
    pyy = (psi(x, y + h) - 2 * v + psi(x, y - h)) / h**2
    pxy = (psi(x + h, y + h) - psi(x + h, y - h) - psi(x - h, y + h) + psi(x - h, y - h)) / (4 * h * h)
    return v, px, py, pxx, pxy, pyy


@pytest.mark.parametrize("gamma,deg", [(1.4, 60.0), (2.0, 60.0), (1.0, 75.0)])
def test_chart_operator_matches_physical_operator(gamma, deg):
    gas = srlab.GasParameters(gamma, 1.0, 2.0)
    cfg = srlab.solve_state2(gas, np.radians(deg))["weak"]
    coeffs = reflection_coefficients(cfg, cfg.c2 / 2.0)
    psi = synthetic_psi()

    def psi_physical(xi, eta):
        return psi(*to_sonic_coords(cfg, (xi, eta)))

    rng = np.random.default_rng(31)
    for _ in range(12):
        x = rng.uniform(0.01, cfg.c2 / 12.0)
        y = rng.uniform(0.05, max(0.1, cfg.y1 * 0.9))

        # chart side: the library's operator with the closure's O-terms on the exact jet
        chart_val = apply_operator(coeffs, x, chart_jet(psi, x, y))

        # physical side: c^2 Lap(psi) - Dphi . D2psi . Dphi at the mapped point,
        # phi = phi2 + psi, by plain finite differences in the original plane
        r, ang = cfg.c2 - x, y + cfg.theta_w  # the chart's inverse
        xi, eta = cfg.u2 + r * np.cos(ang), cfg.v2 + r * np.sin(ang)
        h = 1e-5
        pv = psi_physical(xi, eta)
        p_x = (psi_physical(xi + h, eta) - psi_physical(xi - h, eta)) / (2 * h)
        p_e = (psi_physical(xi, eta + h) - psi_physical(xi, eta - h)) / (2 * h)
        p_xx = (psi_physical(xi + h, eta) - 2 * pv + psi_physical(xi - h, eta)) / h**2
        p_ee = (psi_physical(xi, eta + h) - 2 * pv + psi_physical(xi, eta - h)) / h**2
        p_xe = (psi_physical(xi + h, eta + h) - psi_physical(xi + h, eta - h)
                - psi_physical(xi - h, eta + h) + psi_physical(xi - h, eta - h)) / (4 * h * h)
        dphi = np.array([cfg.u2 - xi + p_x, cfg.v2 - eta + p_e])
        if gas.isothermal:
            c_sq = 1.0
        else:
            c_sq = cfg.c2**2 + (gamma - 1.0) * (
                (xi - cfg.u2) * p_x + (eta - cfg.v2) * p_e - 0.5 * (p_x**2 + p_e**2) - pv
            )
        phys_val = (c_sq * (p_xx + p_ee)
                    - dphi[0] ** 2 * p_xx - 2 * dphi[0] * dphi[1] * p_xe - dphi[1] ** 2 * p_ee)

        assert chart_val == pytest.approx(phys_val / cfg.c2, rel=2e-4, abs=1e-8)


CASES = [(1.0, 75.0), (1.4, 60.0), (2.0, 60.0)]


def _weak(gamma, deg):
    return srlab.solve_state2(srlab.GasParameters(gamma, 1.0, 2.0), np.radians(deg))["weak"]


@pytest.mark.parametrize("gamma,deg", CASES)
def test_table_partials_match_the_complex_step(gamma, deg):
    # the table's partials, its monomials differentiated in real arithmetic,
    # equal the complex step of the coefficients it evaluates on random
    # states over the chart, to rounding of each partial's scale, for the
    # reflection closure and the O-free ones alike
    cfg = _weak(gamma, deg)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 0.95 * cfg.c2, (40, 1))
    psi, px, py = (rng.uniform(-1.0, 1.0, (40, 40)) * s for s in (x * x, x, x))
    for coeffs in (reflection_coefficients(cfg, cfg.c2 / 20.0), srlab.model_coefficients(gamma + 1.0, 1.0 / cfg.c2),
                   srlab.linear_coefficients(1.0 / cfg.c2)):
        table = coeffs.table(x).partials(psi, px, py)
        stepped = complex_step_partials(lambda *m: operator_coefficients(coeffs, x, *m), psi, px, py)
        for k, cs in enumerate(stepped):  # k: the coefficient, cs its partials stacked over psi, psi_x, psi_y
            for v in range(3):
                got, want = np.broadcast_to(table[v][k], psi.shape), np.broadcast_to(cs, (3,) + psi.shape)[v]
                scale = max(np.max(np.abs(got)), np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= 1e-15 * scale, (coeffs.label, k, v)


@pytest.mark.parametrize("gamma,deg", CASES)
@pytest.mark.parametrize("offset", [(0.03, -0.02, 0.01), (-0.03, 0.02, 0.0), (0.01, 0.005, -0.01)])
def test_uniform_states_solve_the_closure_exactly(gamma, deg, offset):
    # a uniform state phi' = -(xi^2 + eta^2)/2 + u' xi + v' eta + k' solves the
    # potential-flow equation, and the closure is that equation on the whole
    # polar chart about the sonic center: psi = phi' - phi2, affine in
    # (xi, eta), with its exact chart jet gives a residual at rounding level
    # out to x = 0.95 c2, where the closure's columns grow like 1/(c2 - x)^4
    cfg = _weak(gamma, deg)
    du, dv, dk = offset
    x = np.linspace(0.01, 0.95 * cfg.c2, 40)[:, None]
    y = np.linspace(0.0, np.pi, 40)[None, :]
    r, ang = cfg.c2 - x, y + cfg.theta_w  # the chart's inverse
    c, s = du * np.cos(ang) + dv * np.sin(ang), -du * np.sin(ang) + dv * np.cos(ang)  # the gradient radial, tangential
    jet = (du * (cfg.u2 + r * np.cos(ang)) + dv * (cfg.v2 + r * np.sin(ang)) + dk, -c, r * s, 0.0 * c, -s, -r * c)
    res = apply_operator(reflection_coefficients(cfg, cfg.c2 / 20.0), x, jet)
    assert np.max(np.abs(res)) <= 1e-14
