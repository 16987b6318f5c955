"""Coefficient closures for the degenerate near-boundary equation.

The operator is
    (2x - a psi_x + O1) psi_xx + O2 psi_xy + (b + O3) psi_yy
        - (1 + O4) psi_x + O5 psi_y = 0,
with O1..O5 either identically zero (model/linear closures) or the
shock-reflection closure obtained by rewriting the potential-flow equation in
sonic-chart coordinates (a = gamma+1, b = 1/c2).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .reflection import ReflectionConfiguration

_CS_STEP = 1e-30  # complex step of complex_step_partials

__all__ = [
    "CoefficientModel",
    "model_coefficients",
    "linear_coefficients",
    "reflection_coefficients",
    "operator_coefficients",
    "apply_coefficients",
    "apply_operator",
    "coefficient_partials",
    "complex_step_partials",
    "zeta",
    "o_bound_audit",
]


@dataclass(frozen=True)
class CoefficientModel:
    """Constants (a, b), lower-order evaluators, and their nominal bound N."""

    a: float
    b: float
    N: float
    label: str
    o_terms: Optional[Callable] = None  # (x, y, psi, psi_x, psi_y) -> O1..O5, broadcasting to the nodes

    def evaluate(self, x, y, psi, psi_x, psi_y):
        """O1..O5, arrays or scalars that broadcast to the nodes: the scalar 0.0 each for an O-free closure."""
        if self.o_terms is None:
            return (0.0,) * 5
        return self.o_terms(x, y, psi, psi_x, psi_y)

    def describe(self) -> dict:
        return {"a": self.a, "b": self.b, "N": self.N, "label": self.label}


def model_coefficients(a: float, b: float) -> CoefficientModel:
    """Leading-term closure with vanishing lower-order terms."""
    if not (a > 0.0 and b > 0.0):  # NaN fails too
        raise ValueError("model closure needs a > 0 and b > 0")
    return CoefficientModel(a=a, b=b, N=0.0, label="model")


def linear_coefficients(b: float) -> CoefficientModel:
    """Linear contrast closure (no gradient nonlinearity): a = 0."""
    if not b > 0.0:
        raise ValueError("linear closure needs b > 0")
    return CoefficientModel(a=0.0, b=b, N=0.0, label="linear")


def reflection_coefficients(config: ReflectionConfiguration, eps: float) -> CoefficientModel:
    """Shock-reflection closure in the sonic chart of a configuration.

    The nominal bound N assumes the quadratic regime |psi| <= x^2,
    |psi_x| <= x, |psi_y| <= x on x <= eps <= c2/2; converged solves audit the
    measured ratios against it.
    """
    gam = config.gas.gamma
    c2 = config.c2

    def o_terms(x, y, psi, px, py):
        x = np.asarray(x, dtype=float)
        rm = c2 - x
        py2 = py * py
        O1 = -x * x / c2 + (gam + 1.0) / (2.0 * c2) * (2.0 * x - px) * px \
            - (gam - 1.0) / c2 * (psi + 0.5 * py2 / rm**2)
        O2 = -2.0 / (c2 * rm**2) * (px + rm) * py
        O3 = (
            x * (2.0 * c2 - x)
            - (gam - 1.0) * (psi + rm * px + 0.5 * px * px)
            - (gam + 1.0) / (2.0 * rm**2) * py2
        ) / (c2 * rm**2)
        O4 = (x - (gam - 1.0) / c2 * (psi + rm * px + 0.5 * px * px + 0.5 * py2 / rm**2)) / rm
        O5 = -(px + 2.0 * rm) * py / (c2 * rm**3)
        return O1, O2, O3, O4, O5

    N = _nominal_reflection_bound(gam, c2, eps)
    return CoefficientModel(a=gam + 1.0, b=1.0 / c2, N=N, label="reflection", o_terms=o_terms)


def _nominal_reflection_bound(gam, c2, eps):
    # termwise sup of |O1|/x^2 and |Ok|/x under the quadratic-regime envelope
    n1 = (1.0 + 1.5 * (gam + 1.0) + (gam - 1.0) * (1.0 + 2.0 / c2**2)) / c2
    n2 = 8.0 * (eps + c2) / c2**3
    n3 = 4.0 * (2.0 * c2 + (gam - 1.0) * (c2 + 1.5 * eps) + 2.0 * (gam + 1.0) * eps / c2**2) / c2**3
    n4 = (1.0 + (gam - 1.0) * (1.5 * eps + c2 + 2.0 * eps / c2**2) / c2) * 2.0 / c2
    n5 = 8.0 * (eps + 2.0 * c2) / c2**4
    return float(max(n1, n2, n3, n4, n5))


def operator_coefficients(coeffs: CoefficientModel, x, y, psi, px, py, companion: bool = False, o_terms=None):
    """Coefficients of (psi_x, psi_y, psi_xx, psi_xy, psi_yy) in L1, the one spelling of the operator.

    companion=True gives L2, the operator on deviation profiles W, with the
    leading coefficient x + a psi_x and the first-order x coefficient 2 + O4.
    o_terms are the closure's O1..O5 at these arguments when the caller has
    evaluated them already (coeffs.evaluate); otherwise they are evaluated here.
    """
    x = np.asarray(x, dtype=float)
    O1, O2, O3, O4, O5 = coeffs.evaluate(x, y, psi, px, py) if o_terms is None else o_terms
    if companion:
        lead, k = x + coeffs.a * px, 2.0
    else:
        lead, k = 2.0 * x - coeffs.a * px, 1.0
    return (-k - O4, O5, lead + O1, O2, coeffs.b + O3)


def apply_coefficients(coefficients, jet):
    """The operator of operator_coefficients on a jet, summed in the order the operator is written."""
    cx, cy, cxx, cxy, cyy = coefficients
    _, px, py, pxx, pxy, pyy = jet
    return cxx * pxx + cxy * pxy + cyy * pyy + cx * px + cy * py


def apply_operator(coeffs: CoefficientModel, x, y, jet, companion: bool = False):
    """The degenerate operator L1 (L2 if companion) on a jet (psi, psi_x, psi_y, psi_xx, psi_xy, psi_yy)."""
    return apply_coefficients(operator_coefficients(coeffs, x, y, *jet[:3], companion=companion), jet)


def complex_step_partials(f, *args):
    """Partials of f in each of its arguments, stacked over them on a leading axis, by one evaluation.

    Im f(m + ih e_k)/h with the perturbations stacked takes no difference, so
    for f analytic in its arguments the partials are exact to rounding
    (Squire & Trapp, SIAM Review 40, 1998).  f returns an array or a tuple of them.
    """
    m = np.asarray(np.broadcast_arrays(*args), dtype=complex)
    m = m + 1j * _CS_STEP * np.eye(len(args)).reshape((len(args),) * 2 + (1,) * (m.ndim - 1))
    out = f(*np.swapaxes(m, 0, 1))
    return tuple(np.imag(c) / _CS_STEP for c in out) if isinstance(out, tuple) else np.imag(out) / _CS_STEP


def coefficient_partials(coeffs: CoefficientModel, x, y, psi, px, py):
    """Partials of the operator_coefficients tuple in (psi, psi_x, psi_y), stacked over the three on a leading axis.

    The coefficients are polynomial in (psi, psi_x, psi_y), so their complex
    step (complex_step_partials) is exact to rounding.  Applied to a jet
    (apply_coefficients), they give the operator's partials there.
    """
    return complex_step_partials(lambda *m: operator_coefficients(coeffs, x, y, *m), psi, px, py)


def zeta(s, a: float, beta: float, M: float):
    """Gradient cutoff: identity on the trusted slope window, clamped outside.

    The window (-(1-beta)/a, M + 1/a) is where the ratio W_x/x of admissible
    solutions lives; clamping keeps the frozen diffusion coefficient within
    [beta*x, (2+aM)*x] without altering admissible iterates.
    """
    if a == 0.0:
        return np.asarray(s, dtype=float)
    return np.clip(s, -(1.0 - beta) / a, M + 1.0 / a)


def o_bound_audit(coeffs: CoefficientModel, x, O) -> dict:
    """Measured sup of |O1|/x^2 and |Ok|/x over nodes x > 0; x and the O-terms O (coeffs.evaluate) broadcast to them."""
    x = np.asarray(x, dtype=float)
    mask, xm = x > 0.0, np.where(x > 0.0, x, 1.0)
    sup = lambda k, p: float(np.max(np.abs(O[k]) / xm**p, where=mask, initial=0.0))  # no ratio is below 0
    return {"o1_over_x2": sup(0, 2), "ok_over_x": max(sup(k, 1) for k in range(1, 5)), "nominal_N": coeffs.N}
