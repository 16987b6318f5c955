"""srlab: a numerical laboratory for regular shock reflection in self-similar potential flow."""

from .states import (
    GasParameters,
    UniformState,
    density_from_bernoulli,
    critical_speed,
    is_elliptic_at,
    incident_shock,
    rh_residual,
    state0,
    state1,
)
from .reflection import (
    ReflectionConfiguration,
    WedgeGeometry,
    solve_state2,
    solve_state2_many,
    sonic_circle,
    to_sonic_coords,
    from_sonic_coords,
    shock_curve_fhat,
    shock_curve_slope,
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
    residual,
    solve,
    solve_reflection_near_sonic,
    derivative_fields,
)
from . import barriers, diagnostics

__version__ = "0.1.0"
