"""Thermodynamic closures and uniform self-similar states.

All state constants live in the normalization where the Bernoulli constant
equals the rest-state enthalpy of the upstream gas, so every closure below
takes the bare pseudo-potential value phi.  gamma = 1 selects the isothermal
closure (logarithmic enthalpy, unit sound speed) in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidShock, VacuumState

__all__ = [
    "GasParameters",
    "UniformState",
    "bernoulli_density",
    "density_from_bernoulli",
    "sound_speed",
    "critical_speed",
    "is_elliptic_at",
    "incident_shock",
    "state0",
    "state1",
    "rh_residual",
]


@dataclass(frozen=True)
class GasParameters:
    """Polytropic exponent and the densities across the incident shock."""

    gamma: float
    rho0: float
    rho1: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.gamma, self.rho0, self.rho1))):
            raise ValueError(f"gas parameters must be finite, got gamma={self.gamma}, "
                             f"rho0={self.rho0}, rho1={self.rho1}")
        if self.gamma < 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if self.rho0 <= 0.0:
            raise ValueError(f"rho0 must be positive, got {self.rho0}")
        if self.rho1 <= self.rho0:
            raise InvalidShock(
                f"need rho1 > rho0 for an admissible incident shock, "
                f"got rho1={self.rho1}, rho0={self.rho0}"
            )

    @property
    def isothermal(self) -> bool:
        return self.gamma == 1.0


@dataclass(frozen=True)
class UniformState:
    """Pseudo-potential phi = -(xi^2+eta^2)/2 + u*xi + v*eta + k with its density."""

    u: float
    v: float
    k: float
    rho: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.u, self.v, self.k, self.rho))):
            raise ValueError(f"state must be finite, got u={self.u}, v={self.v}, k={self.k}, rho={self.rho}")
        if self.rho <= 0.0:
            raise ValueError(f"density must be positive, got {self.rho}")

    def phi(self, xi, eta):
        return -0.5 * (xi * xi + eta * eta) + self.u * xi + self.v * eta + self.k

    def grad_phi(self, xi, eta):
        """Pseudo-velocity (u - xi, v - eta)."""
        return np.stack(np.broadcast_arrays(self.u - np.asarray(xi), self.v - np.asarray(eta)), axis=-1)


def bernoulli_density(gas: GasParameters, rho_ref, dB):
    """Density dB above a reference state of density rho_ref on the Bernoulli scale, elementwise.

    Isothermal: rho_ref * exp(-dB), which has no vacuum.
    Polytropic: arg^(1/(g-1)) with arg = rho_ref^(g-1) - (g-1) dB, NaN where
    real(arg) <= 0 (past the vacuum bound).  dB may carry complex steps.
    """
    if gas.isothermal:
        return rho_ref * np.exp(-dB)
    g = gas.gamma
    arg = rho_ref ** (g - 1.0) - (g - 1.0) * dB
    # NaN before the power keeps it free of invalid-value warnings; [()] keeps
    # a scalar a scalar, whose power may round unlike a 0-d array's
    return np.where(arg.real > 0.0, arg, np.nan)[()] ** (1.0 / (g - 1.0))


def density_from_bernoulli(grad_sq, phi, gas: GasParameters):
    """Density from squared pseudo-speed and pseudo-potential: bernoulli_density
    above the rest state rho0 at dB = phi + grad_sq/2; raises VacuumState past
    the vacuum bound."""
    bern = np.asarray(phi, dtype=float) + 0.5 * np.asarray(grad_sq, dtype=float)
    out = bernoulli_density(gas, gas.rho0, bern)
    if np.any(np.isnan(out)):
        raise VacuumState(f"Bernoulli density past the vacuum bound (max phi + |Dphi|^2/2 {np.max(bern):.6g})")
    return float(out) if out.ndim == 0 else out


def sound_speed(rho, gas: GasParameters):
    """c(rho) = rho^((gamma-1)/2); 1 for isothermal gas."""
    out = np.asarray(rho, dtype=float) ** ((gas.gamma - 1.0) / 2.0)
    return float(out) if out.ndim == 0 else out


def critical_speed(phi, gas: GasParameters):
    """Sonic threshold of the pseudo-speed at potential level phi."""
    if gas.isothermal:
        phi = np.asarray(phi, dtype=float)
        out = np.ones_like(phi)
        return float(out) if out.ndim == 0 else out
    g = gas.gamma
    phi = np.asarray(phi, dtype=float)
    arg = gas.rho0 ** (g - 1.0) - (g - 1.0) * phi
    if np.any(arg < 0.0):
        raise VacuumState(f"critical-speed argument negative (min {np.min(arg):.6g})")
    out = np.sqrt(2.0 / (g + 1.0) * arg)
    return float(out) if out.ndim == 0 else out


def is_elliptic_at(grad, phi, gas: GasParameters) -> bool:
    """Strict subsonicity |grad| < c* of the state (grad, phi)."""
    grad = np.asarray(grad, dtype=float)
    speed = float(np.sqrt(np.sum(grad * grad)))
    return speed < critical_speed(float(phi), gas)


def incident_shock(gas: GasParameters):
    """Location xi0 of the incident shock and downstream velocity u1.

    The pair satisfies mass-flux balance rho1*(u1 - xi0) = -rho0*xi0 together
    with potential continuity across {xi = xi0}.
    """
    g, r0, r1 = gas.gamma, gas.rho0, gas.rho1
    try:  # Python floats: an overflowed power raises, as does a division by an underflowed r1^2 - r0^2
        if gas.isothermal:
            bracket = 2.0 * float(np.log(r1 / r0)) / (r1**2 - r0**2)
        else:
            bracket = 2.0 * (r1 ** (g - 1.0) - r0 ** (g - 1.0)) / ((g - 1.0) * (r1**2 - r0**2))
    except (OverflowError, ZeroDivisionError):
        bracket = 0.0
    if not 0.0 < bracket < math.inf:
        raise InvalidShock(f"incident shock out of floating-point range for gamma={g}, rho0={r0}, rho1={r1}")
    xi0 = r1 * np.sqrt(bracket)
    u1 = xi0 * (r1 - r0) / r1
    return float(xi0), float(u1)


def state0(gas: GasParameters) -> UniformState:
    """Quiescent upstream state."""
    return UniformState(u=0.0, v=0.0, k=0.0, rho=gas.rho0)


def state1(gas: GasParameters) -> UniformState:
    """Uniform state behind the incident shock."""
    xi0, u1 = incident_shock(gas)
    return UniformState(u=u1, v=0.0, k=-u1 * xi0, rho=gas.rho1)


def rh_residual(left: UniformState, right: UniformState, point, normal, gas: GasParameters) -> float:
    """Mass-flux jump [rho Dphi . nu] between two uniform states at a point.

    Densities are recomputed from the Bernoulli closure (they coincide with
    the stored values for consistent states), so the residual also detects a
    state whose stored density disagrees with its potential.
    """
    xi, eta = float(point[0]), float(point[1])
    nu0, nu1 = float(normal[0]), float(normal[1])
    flux = []
    for st in (left, right):
        # the offset (dx, dy) dotted as a written-out two-term sum, off BLAS
        dx, dy = st.u - xi, st.v - eta
        rho = density_from_bernoulli(dx * dx + dy * dy, st.phi(xi, eta), gas)
        flux.append(rho * (dx * nu0 + dy * nu1))
    return flux[0] - flux[1]
