"""srlab: a numerical laboratory for regular shock reflection in self-similar potential flow."""

from .states import GasParameters, UniformState, incident_shock
from .reflection import (
    ReflectionConfiguration,
    WedgeGeometry,
    solve_state2,
    solve_state2_many,
    to_sonic_coords,
    detachment_angle,
)
from .shock import ShockBoundaryFns, g_function, check_g_unique
from .grids import ScalarField2D, geometric_axis, uniform_axis
from .coefficients import (
    CoefficientModel,
    model_coefficients,
    linear_coefficients,
    reflection_coefficients,
)
from .solver import (
    BoundaryConditions,
    GridSpec,
    SolverOptions,
    solve,
    solve_reflection_near_sonic,
    derivative_fields,
)
from . import barriers, diagnostics

__version__ = "0.1.0"
