"""Exception taxonomy shared by all srlab modules."""


class SrlabError(Exception):
    """Base class for srlab failures."""


class VacuumState(SrlabError):
    """Bernoulli argument vanished; the density closure is undefined."""


class InvalidShock(SrlabError):
    """Incident-shock data violates entropy admissibility (rho1 <= rho0)."""


class NoRegularReflection(SrlabError):
    """The reflected-state root scan found no sign change for this wedge angle."""


class NoSonicIntersection(SrlabError):
    """The reflected-shock line misses the sonic circle."""


class CenterSingularity(SrlabError):
    """Sonic coordinates requested at the circle center."""


class OutOfRange(SrlabError):
    """Curve or field evaluated outside its parameter range."""


class OutsideDomain(SrlabError):
    """Evaluation point left the admissible ball of the shock-condition functions."""


class NoConvergence(SrlabError):
    """Iteration budget exhausted before the residual target."""

    def __init__(self, iterations, residual, shape):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"no convergence on the {shape[0]}x{shape[1]} grid after {iterations} iterations "
                         f"(residual {residual:.3e})")


class EllipticityLoss(SrlabError):
    """Too many nodes of a converged iterate leave the slope window or the ellipticity floor."""

    def __init__(self, fraction, field):
        self.fraction = fraction
        self.field = field
        super().__init__(f"slope window or ellipticity floor left on {100 * fraction:.1f}% of nodes of the "
                         f"{field.nx}x{field.ny} grid")


class ShockConditionDiverged(SrlabError):
    """Pointwise Newton on the shock boundary condition failed."""


class NonpositiveSamples(SrlabError):
    """Power-law fit requested on a window containing nonpositive values."""


class InsufficientResolution(SrlabError):
    """Field lacks the near-boundary columns needed for extrapolation."""


class NotSupersonicAtP0(UserWarning):
    """Configuration root has state (2) subsonic at the reflection point."""
