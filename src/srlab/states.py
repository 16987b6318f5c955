"""Thermodynamic closures and uniform self-similar states.

All state constants live in the normalization where the Bernoulli constant
equals the rest-state enthalpy of the upstream gas, so a state's level on the
Bernoulli scale is phi + |Dphi|^2/2 with no added constant.  gamma = 1 selects
the isothermal closure (logarithmic enthalpy, unit sound speed) in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidShock

__all__ = [
    "GasParameters",
    "UniformState",
    "bernoulli_density",
    "sound_speed",
    "incident_shock",
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


def sound_speed(rho, gas: GasParameters):
    """c(rho) = rho^((gamma-1)/2); 1 for isothermal gas."""
    out = np.asarray(rho, dtype=float) ** ((gas.gamma - 1.0) / 2.0)
    return float(out) if out.ndim == 0 else out


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

