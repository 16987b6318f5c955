"""Shock-boundary algebra: the combined jump condition and its linearization.

E combines mass flux and potential continuity across the reflected shock into
one scalar function of the solution perturbation; F eliminates the ordinate
using continuity with the upstream potential; Psi rewrites F in the sonic
chart.  The b-hat coefficients are the exact first-order expansion of Psi
along a boundary trace, computed by quadrature of complex-step partials,
which are exact to rounding.  The quadrature is an 8-node Gauss-Legendre
rule: the integrand is analytic on the admissible ray, and for gamma in
{1, 1.4, 2, 3} at depths up to 0.2 c2 the rule is within 1.6e-15 relative
of a 40-node rule.
Boundary traces are written as CSV.
"""

from dataclasses import dataclass

import numpy as np

from .coefficients import complex_step_partials
from .errors import OutsideDomain, VacuumState
from .grids import _write_csv
from .reflection import ReflectionConfiguration, shock_chart_table
from .states import bernoulli_density

__all__ = [
    "ShockBoundaryFns",
    "g_function",
    "g_prime",
    "check_g_unique",
    "synthetic_quadratic_trace",
    "largest_valid_eps",
    "write_trace_csv",
]

# 8-node Gauss-Legendre rule on t in [0, 1]: the roots x of P8 and their
# weights from a 50-digit Newton solve, mapped by t = (1 + x)/2, w/2 and
# correctly rounded, written out so that importing srlab does not import
# numpy.polynomial or take the nodes from LAPACK
_GL_NODES = np.array([
    0.019855071751231884, 0.10166676129318664, 0.2372337950418355, 0.4082826787521751,
    0.591717321247825, 0.7627662049581645, 0.8983332387068134, 0.9801449282487681,
])
_GL_WEIGHTS = np.array([
    0.05061426814518813, 0.11119051722668724, 0.15685332293894363, 0.181341891689181,
    0.181341891689181, 0.15685332293894363, 0.11119051722668724, 0.05061426814518813,
])
_TRACE_COLUMNS = ("x", "y", "psi", "psi_x", "psi_y", "b1", "b2", "b3")


def _chart(cfg, p1, p2, x, y):
    """Physical gradient offset (q1, q2) and point (xi, eta) of chart data."""
    ang = y + cfg.theta_w
    r = cfg.c2 - x
    cos, sin = np.cos(ang), np.sin(ang)
    return -p1 * cos - p2 * sin / r, -p1 * sin + p2 * cos / r, cfg.u2 + r * cos, cfg.v2 + r * sin


def _bernoulli(cfg, q1, q2, q3, xi, eta):
    """Bernoulli linearisation lin at the state perturbed by (q1, q2, q3) at (xi, eta).

    The state lies -lin above state (2) on the Bernoulli scale, so its density
    is bernoulli_density(gas, rho2, -lin).
    """
    return (xi - cfg.u2) * q1 + (eta - cfg.v2) * q2 - 0.5 * (q1 * q1 + q2 * q2) - q3


@dataclass
class ShockBoundaryFns:
    """Evaluators for the combined shock condition of one configuration."""

    config: ReflectionConfiguration

    # -- raw state quantities -------------------------------------------------

    def rho_perturbed(self, p1, p2, p3, xi, eta):
        """Density closure at a perturbed state (gradient offset p, potential offset p3)."""
        p1, p2, p3, xi, eta = np.broadcast_arrays(
            *map(np.asarray, (p1, p2, p3, xi, eta))
        )
        cfg = self.config
        rho = bernoulli_density(cfg.gas, cfg.rho2, -_bernoulli(cfg, p1, p2, p3, xi, eta))
        if np.any(np.isnan(rho)):
            raise VacuumState("perturbed state past the vacuum bound")
        return rho

    def E(self, p1, p2, p3, xi, eta):
        """Combined mass-flux/continuity condition in physical coordinates."""
        cfg = self.config
        rho1 = cfg.gas.rho1
        u1, u2, v2 = cfg.u1, cfg.u2, cfg.v2
        p1, p2, p3, xi, eta = np.broadcast_arrays(
            *map(np.asarray, (p1, p2, p3, xi, eta))
        )
        rho = self.rho_perturbed(p1, p2, p3, xi, eta)
        term1 = rho1 * ((u1 - xi) * (u1 - u2 - p1) + eta * (v2 + p2))
        term2 = rho * ((u2 - xi + p1) * (u1 - u2 - p1) - (v2 - eta + p2) * (v2 + p2))
        out = term1 - term2
        return out.item() if out.ndim == 0 else out

    def F(self, p1, p2, p3, xi):
        """E with the ordinate eliminated through potential continuity on the shock."""
        cfg = self.config
        eta = ((cfg.u1 - cfg.u2) * (np.asarray(xi) - cfg.xi1) - np.asarray(p3)) / cfg.v2 + cfg.eta1
        return self.E(p1, p2, p3, xi, eta)

    def Psi(self, p1, p2, p3, x, y):
        """F composed with the sonic chart; p1, p2 are the chart-gradient components.

        The chart takes x and y unbroadcast, so its trigonometry runs once per
        point; every operation is elementwise, so the values do not depend on it.
        """
        q1, q2, xi, _ = _chart(self.config, *map(np.asarray, (p1, p2, x, y)))
        return self.F(q1, q2, p3, xi)

    # -- closed forms at P1 ---------------------------------------------------

    def psi_p1_at_P1(self) -> float:
        """Gradient of Psi in its first slot at the origin, explicit form."""
        cfg = self.config
        rho1, rho2, c2 = cfg.gas.rho1, cfg.rho2, cfg.c2
        u1, u2, v2 = cfg.u1, cfg.u2, cfg.v2
        xi1, eta1 = cfg.P1
        return (
            rho1 / c2 * ((u1 - xi1) * (xi1 - u2) - eta1 * (eta1 - v2))
            - rho2 / c2 * ((u2 - xi1) * (xi1 - u2) + (v2 - eta1) * (eta1 - v2))
        )

    def psi_p1_tau_form(self) -> float:
        """Same quantity via the tangential-velocity reduction (rho2-rho1)(Dphi2.tau)^2/c2."""
        cfg = self.config
        t0, t1 = cfg.s1_direction
        tangential = (cfg.u2 - cfg.P1[0]) * t0 + (cfg.v2 - cfg.P1[1]) * t1
        return (cfg.rho2 - cfg.gas.rho1) / cfg.c2 * tangential**2

    # -- admissible ball ------------------------------------------------------

    def in_domain(self, p1, p2, p3, x, y):
        """Whether each evaluation point lies within half the vacuum distance along its p-ray.

        Elementwise over the broadcast samples.  Along t*(p1,p2,p3) the
        Bernoulli argument is concave in t (its t^2 coefficient is
        -(gamma-1)|q|^2/2) and positive at t = 0, so it stays positive on
        [0,2] exactly when it is positive at t = 2, where the density is not
        NaN; the factor 2 implements the half-distance margin.  Isothermal gas
        has no vacuum.  A point at or past the circle center (x >= c2) is
        outside.
        """
        cfg = self.config
        p1, p2, p3, x, y = np.broadcast_arrays(*map(np.asarray, (p1, p2, p3, x, y)))
        inside = x < cfg.c2  # exactly where r = c2 - x > 0
        q1, q2, xi, eta = _chart(cfg, p1, p2, np.where(inside, x, 0.0), y)
        lin = _bernoulli(cfg, 2.0 * q1, 2.0 * q2, 2.0 * p3, xi, eta)
        return inside & ~np.isnan(bernoulli_density(cfg.gas, cfg.rho2, -lin))

    # -- first-order expansion coefficients -----------------------------------

    def psi_gradient(self, p1, p2, p3, x, y):
        """(Psi, its partials in its three slots), analytic in them, from one complex step (complex_step_partials)."""
        p = np.broadcast_arrays(p1, p2, p3, x, y)[:3]  # the stacked slots broadcast against x and y
        value, partials = complex_step_partials(lambda *q: self.Psi(*q, x, y), *p)
        return value[0], tuple(partials)

    def bhat(self, x, y, psi, psi_x, psi_y):
        """Expansion coefficients (b1, b2, b3) along a boundary trace.

        b_k at each sample is the t-integral over [0,1] of the k-th partial of
        Psi evaluated on the ray t*(psi_x, psi_y, psi); 8-node Gauss-Legendre
        quadrature (within 1.6e-15 relative of a 40-node rule, see the module
        docstring), partials by complex step.  x and y enter as (1, n) rows,
        so the chart is taken once per sample.
        """
        x, y, psi, psi_x, psi_y = map(lambda a: np.atleast_1d(np.asarray(a, dtype=float)),
                                      (x, y, psi, psi_x, psi_y))
        bad = ~self.in_domain(psi_x, psi_y, psi, x, y)
        if bad.any():
            i = int(np.argmax(bad))
            raise OutsideDomain(f"trace sample {i} (x={x[i]:.6g}) leaves the admissible ball")
        t, w = _GL_NODES[:, None], _GL_WEIGHTS[:, None]
        _, partials = self.psi_gradient(t * psi_x, t * psi_y, t * psi, x[None, :], y[None, :])
        return tuple(np.sum(w * vals, axis=0) for vals in partials)

    def bhat_report(self, b1, b2, b3) -> dict:
        """min b1, max |b2| and max |b3| of bhat's coefficients, with the margin lambda = psi_p1_at_P1/2 for b1."""
        return {
            "min_b1": float(np.min(b1)),
            "max_abs_b2": float(np.max(np.abs(b2))),
            "max_abs_b3": float(np.max(np.abs(b3))),
            "lambda": 0.5 * self.psi_p1_at_P1(),
        }


def g_function(s, gamma):
    """Normalized-flux function whose level set g=1 pins the sonic jump state."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("g is defined for s > 0")
    g = float(gamma)
    if g <= 1.0:
        raise ValueError("g requires gamma > 1")
    out = 2.0 / (g + 1.0) * s ** (g - 1.0) + (g - 1.0) / (g + 1.0) * s**-2
    return float(out) if out.ndim == 0 else out


def g_prime(s, gamma):
    s = np.asarray(s, dtype=float)
    g = float(gamma)
    out = 2.0 * (g - 1.0) / (g + 1.0) * (s ** (g - 2.0) - s**-3)
    return float(out) if out.ndim == 0 else out


# g(1) sums two quotients of at most three roundings each, so it lies within 2 ulps
# of 1 (at most 1 ulp on 400,000 sampled gamma in (1, 1e300])
_G_AT_ONE_ULPS = 2


def check_g_unique(gamma) -> bool:
    """Confirm that g(s) = 1 only at s = 1, from g's closed form rather than a scan.

    g(1) = 2/(gamma+1) + (gamma-1)/(gamma+1) = 1, and
    g'(s) = 2(gamma-1)/(gamma+1) s^-3 (s^(gamma+1) - 1) has the sign of s - 1
    when gamma > 1.  So g falls on (0, 1) and rises on (1, inf), and g > 1 at
    every s other than 1.  The check evaluates what that argument rests on:
    g(1) within _G_AT_ONE_ULPS ulps of 1, g'(1) = 0, and g' < 0 < g' at
    s = 2^(-1/(gamma+1)) and 2^(1/(gamma+1)), where s^(gamma+1) is 1/2 and 2,
    so no power overflows at any gamma > 1.  Past gamma = 6.2e15 the two
    points round to 1, where g' is 0, and the check reports False.
    """
    at_one = g_function(1.0, gamma)  # refuses gamma <= 1
    below, above = g_prime(2.0 ** (np.array([-1.0, 1.0]) / (gamma + 1.0)), gamma)
    return bool(abs(at_one - 1.0) <= _G_AT_ONE_ULPS * np.finfo(float).eps
                and g_prime(1.0, gamma) == 0.0 and below < 0.0 < above)


# depths of every b-hat trace, so verify's written trace, its b1 check and the
# eps search read one size (the eps search picks the same eps at 64 on weak
# configs at gamma 1, 1.4, 2 and 3, 50.5 to 85 deg)
_TRACE_SAMPLES = 48


def synthetic_quadratic_trace(config: ReflectionConfiguration, eps: float):
    """Boundary trace of the model profile x^2/(2(gamma+1)) along the shock image.

    Its _TRACE_SAMPLES depths run evenly over (0, eps].
    """
    a = config.gas.gamma + 1.0
    x = np.linspace(eps / _TRACE_SAMPLES, eps, _TRACE_SAMPLES)
    y, _, _ = shock_chart_table(config, x)
    psi = x * x / (2.0 * a)
    psi_x = x / a
    psi_y = np.zeros_like(x)
    return x, y, psi, psi_x, psi_y


def largest_valid_eps(config: ReflectionConfiguration, eps_candidates):
    """Largest sampled truncation for which min b1 >= lambda on its synthetic_quadratic_trace."""
    fns = ShockBoundaryFns(config)
    best = None
    for eps in sorted(eps_candidates):
        try:
            rep = fns.bhat_report(*fns.bhat(*synthetic_quadratic_trace(config, eps)))
        except (OutsideDomain, VacuumState):
            break
        if rep["min_b1"] >= rep["lambda"]:
            best = eps
        else:
            break
    return best


def write_trace_csv(path, x, y, psi, psi_x, psi_y, b1, b2, b3, digest: str):
    """Write a boundary trace (x, y, psi, psi_x, psi_y, b1, b2, b3) as CSV."""
    _write_csv(path, _TRACE_COLUMNS, (x, y, psi, psi_x, psi_y, b1, b2, b3), digest)

