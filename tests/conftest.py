import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import srlab
from srlab.coefficients import apply_operator
from srlab.solver import _JET


@pytest.fixture(scope="session")
def gas():
    return srlab.GasParameters(1.4, 1.0, 2.0)


@pytest.fixture(scope="session")
def weak60(gas):
    return srlab.solve_state2(gas, np.radians(60.0))["weak"]


@pytest.fixture(scope="session")
def model_ab(weak60):
    return 2.4, 1.0 / weak60.c2


@pytest.fixture(scope="session")
def model_field(model_ab):
    """Converged perturbed-data model solve on a graded grid, shared by tests."""
    a, b = model_ab
    rhat, halfwidth = 0.5, 1.0
    coeffs = srlab.model_coefficients(a, b)
    outer = lambda y: (rhat**2 / (2 * a)) * (1.0 + 0.2 * np.cos(np.pi * y / halfwidth))
    grid = srlab.GridSpec(rhat=rhat, nx=97, ny=97, y_lo=-halfwidth, y_hi=halfwidth, grade_q=0.95)
    bc = srlab.BoundaryConditions(outer=outer)
    return srlab.solve(coeffs, bc, grid, srlab.SolverOptions(tolerance=1e-10, max_iterations=6000))


@pytest.fixture(scope="session")
def reflection_field(weak60):
    """Converged near-sonic reflection solve, shared by diagnostics tests."""
    return srlab.solve_reflection_near_sonic(
        weak60, eps=weak60.c2 / 20.0, grid_nx=97, grid_ny=49,
        opts=srlab.SolverOptions(tolerance=1e-9, max_iterations=6000),
    )


# -- test-side spellings of quantities the library computes only inside its
# own paths, for tests that check those paths against them


def state1(gas):
    """The uniform state behind the incident shock."""
    xi0, u1 = srlab.incident_shock(gas)
    return srlab.UniformState(u=u1, v=0.0, k=-u1 * xi0, rho=gas.rho1)


def potential(state, xi, eta):
    """A uniform state's pseudo-potential -(xi^2 + eta^2)/2 + u xi + v eta + k."""
    return -0.5 * (xi * xi + eta * eta) + state.u * xi + state.v * eta + state.k


def residual(field, coeffs):
    """Max |L1 psi| over interior nodes, and the residual field: the operator on one derivative pass."""
    d = srlab.derivative_fields(field)
    res = apply_operator(coeffs, field.xs[:, None], [d[key] for key in _JET])
    return float(np.max(np.abs(res[1:-1, 1:-1]))), res


def richardson_triplet(coarse, mid, fine):
    """Extrapolate a grid triplet refined by a ratio of 2; the order is measured, not assumed.

    Returns (extrapolated, measured_order).  Falls back to the finest value
    (order inf) when the differences sit at round-off.
    """
    d1, d2 = mid - coarse, fine - mid
    scale = max(abs(coarse), abs(mid), abs(fine), 1e-300)
    if abs(d2) < 1e-12 * scale or abs(d1) <= abs(d2):
        return float(fine), float("inf")
    p = np.log(abs(d1 / d2)) / np.log(2.0)
    extrap = fine + d2 / (2.0**p - 1.0)
    return float(extrap), float(p)
