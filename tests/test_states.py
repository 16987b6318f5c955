import numpy as np
import pytest

import srlab
from srlab.errors import InvalidShock
from srlab.states import bernoulli_density

from conftest import potential, state1
from oracles import incident as oracle_incident


def density(grad_sq, phi, gas):
    """Density at squared pseudo-speed grad_sq and potential phi: the closure above the rest state."""
    return bernoulli_density(gas, gas.rho0, phi + 0.5 * grad_sq)


def rh_residual(left, right, point, normal, gas):
    """Mass-flux jump [rho Dphi . nu] between two uniform states at a point.

    Each density is recomputed from the Bernoulli closure, not read from the
    state, so a stored density that disagrees with its potential shows.
    """
    xi, eta = point
    flux = []
    for st in (left, right):
        dx, dy = st.u - xi, st.v - eta
        flux.append(density(dx * dx + dy * dy, potential(st, xi, eta), gas) * (dx * normal[0] + dy * normal[1]))
    return flux[0] - flux[1]


def test_rest_state_returns_background_density(gas):
    assert density(0.0, 0.0, gas) == pytest.approx(gas.rho0, abs=0.0)


def test_isothermal_rest_state():
    g1 = srlab.GasParameters(1.0, 1.0, 2.0)
    assert density(0.0, 0.0, g1) == 1.0


def test_density_closed_form_value(gas):
    # (1 - 0.4*0.2)^{2.5} = 0.92^{2.5}, frozen from a 40-digit evaluation
    val = density(0.2, 0.1, gas)
    assert val == pytest.approx(0.8118383602663772, rel=1e-15)


GAMMAS = (1.0, 1.4, 2.0, 3.0)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_bernoulli_density_closed_forms(gamma):
    gas = srlab.GasParameters(gamma, 1.0, 2.0)
    rho_ref, dB = 1.7, np.linspace(-0.5, 0.3, 17)
    closed = {1.0: rho_ref * np.exp(-dB), 1.4: (rho_ref**0.4 - 0.4 * dB) ** 2.5,
              2.0: rho_ref - dB, 3.0: np.sqrt(rho_ref**2 - 2.0 * dB)}[gamma]
    np.testing.assert_allclose(bernoulli_density(gas, rho_ref, dB), closed, rtol=1e-15)
    # a scalar stays a scalar, and the reference state is a fixed point
    out = bernoulli_density(gas, rho_ref, 0.0)
    assert not isinstance(out, np.ndarray) and out == pytest.approx(rho_ref, rel=1e-15)


@pytest.mark.parametrize("gamma", GAMMAS[1:])
def test_bernoulli_density_nan_exactly_past_the_vacuum_bound(gamma):
    gas = srlab.GasParameters(gamma, 1.0, 2.0)
    g = gamma - 1.0
    bound = 1.0 / g  # rho_ref = 1: the argument 1 - (gamma-1) dB vanishes here
    dB = bound * (1.0 + np.linspace(-1e-12, 1e-12, 201))
    rho = bernoulli_density(gas, 1.0, dB)
    np.testing.assert_array_equal(np.isnan(rho), 1.0 - g * dB <= 0.0)
    assert np.all(rho[~np.isnan(rho)] > 0.0)
    assert np.isnan(bernoulli_density(gas, 1.0, 2.0 * bound))
    if gamma in (2.0, 3.0):  # (gamma-1) dB is exact: the bound itself is the first NaN
        assert np.isnan(bernoulli_density(gas, 1.0, bound))
        assert bernoulli_density(gas, 1.0, np.nextafter(bound, 0.0)) > 0.0


def test_bernoulli_density_isothermal_never_nan():
    g1 = srlab.GasParameters(1.0, 1.0, 2.0)
    rho = bernoulli_density(g1, 1.0, np.concatenate([np.linspace(-700.0, 700.0, 1001), [1e4, 1e300]]))
    assert not np.any(np.isnan(rho)) and np.all(rho >= 0.0)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_bernoulli_density_complex_step(gamma):
    # d rho / dB = -rho^(2-gamma), from the closure's complex step
    gas = srlab.GasParameters(gamma, 1.0, 2.0)
    h, rho_ref, dB = 1e-30, 1.3, np.linspace(-0.4, 0.2, 13)
    rho = bernoulli_density(gas, rho_ref, dB)
    slope = bernoulli_density(gas, rho_ref, dB + 1j * h).imag / h
    np.testing.assert_allclose(slope, -rho ** (2.0 - gamma), rtol=1e-14)


@pytest.mark.parametrize("field, bad", [(f, b) for f in "uvk" for b in (np.nan, np.inf, -np.inf)]
                         + [("rho", b) for b in (np.nan, np.inf, 0.0, -1.0)])
def test_uniform_state_rejects_nonfinite_fields(field, bad):
    with pytest.raises(ValueError):
        srlab.UniformState(**{"u": 0.3, "v": 0.5, "k": -0.2, "rho": 2.0, field: bad})


def test_isothermal_limit_of_polytropic_density():
    g_near = srlab.GasParameters(1.0 + 1e-6, 1.0, 2.0)
    g_iso = srlab.GasParameters(1.0, 1.0, 2.0)
    rng = np.random.default_rng(7)
    for _ in range(200):
        gsq = rng.uniform(0.0, 0.5)
        phi = rng.uniform(-0.5, 0.5)
        a = density(gsq, phi, g_near)
        b = density(gsq, phi, g_iso)
        assert a == pytest.approx(b, rel=1e-4)


def test_incident_shock_frozen_values(gas):
    xi0, u1 = srlab.incident_shock(gas)
    assert xi0 == pytest.approx(1.4594700197283813, rel=1e-15)
    assert u1 == pytest.approx(0.7297350098641906, rel=1e-15)
    # cross-check: mass-flux balance rho1 (u1 - xi0) = -rho0 xi0
    assert gas.rho1 * (u1 - xi0) == pytest.approx(-gas.rho0 * xi0, rel=1e-14)


def test_incident_shock_matches_oracle(gas):
    xi0, u1 = srlab.incident_shock(gas)
    oxi0, ou1 = oracle_incident(gas.gamma, gas.rho0, gas.rho1)
    assert xi0 == pytest.approx(float(oxi0), rel=1e-14)
    assert u1 == pytest.approx(float(ou1), rel=1e-14)


def test_incident_shock_isothermal_matches_oracle():
    g1 = srlab.GasParameters(1.0, 1.0, 2.0)
    xi0, u1 = srlab.incident_shock(g1)
    oxi0, ou1 = oracle_incident(1, 1, 2)
    assert xi0 == pytest.approx(float(oxi0), rel=1e-14)
    assert u1 == pytest.approx(float(ou1), rel=1e-14)


def test_incident_shock_degenerate_limit():
    # xi0 approaches the upstream sound speed rho0^{(gamma-1)/2} = 1 and the
    # downstream velocity vanishes; tolerances allow for the cancellation in
    # rho1^{gamma-1} - rho0^{gamma-1} at rho1 = rho0(1 + 1e-9)
    g = srlab.GasParameters(1.4, 1.0, 1.0 + 1e-9)
    xi0, u1 = srlab.incident_shock(g)
    assert xi0 == pytest.approx(1.0, rel=1e-5)
    assert u1 == pytest.approx(0.0, abs=5e-9)


def test_invalid_shock_rejected():
    with pytest.raises(InvalidShock):
        srlab.GasParameters(1.4, 1.0, 0.9)
    with pytest.raises(InvalidShock):
        srlab.GasParameters(1.4, 1.0, 1.0)


def test_rh_residual_no_jump(gas):
    st = state1(gas)
    assert rh_residual(st, st, (0.3, 1.2), (1.0, 0.0), gas) == 0.0


def test_rh_residual_incident_shock(gas):
    xi0, _ = srlab.incident_shock(gas)
    s0, s1 = srlab.UniformState(0.0, 0.0, 0.0, gas.rho0), state1(gas)
    for eta in (0.0, 0.7, 2.5):
        r = rh_residual(s0, s1, (xi0, eta), (1.0, 0.0), gas)
        assert abs(r) < 1e-12
        # potential continuity at the shock for every ordinate
        assert potential(s0, xi0, eta) == pytest.approx(potential(s1, xi0, eta), abs=1e-14)


def test_rh_residual_reflected_shock(gas, weak60):
    st1 = state1(gas)
    tau = np.asarray(weak60.s1_direction)
    nu = (tau[1], -tau[0])
    r = rh_residual(st1, weak60.state2, weak60.P1, nu, gas)
    assert abs(r) < 1e-10


def test_uniform_state_density_consistency(gas, weak60):
    # stored densities agree with the Bernoulli closure at arbitrary points
    for st, rho in ((srlab.UniformState(0.0, 0.0, 0.0, gas.rho0), gas.rho0), (state1(gas), gas.rho1),
                    (weak60.state2, weak60.rho2)):
        dx, dy = st.u - 0.4, st.v - 0.9
        val = density(dx * dx + dy * dy, potential(st, 0.4, 0.9), gas)
        assert val == pytest.approx(rho, rel=1e-13)
