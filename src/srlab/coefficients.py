"""Coefficient closures for the degenerate near-boundary equation.

The operator is
    (2x - a psi_x + O1) psi_xx + O2 psi_xy + (b + O3) psi_yy
        - (1 + O4) psi_x + O5 psi_y = 0,
with O1..O5 either identically zero (model/linear closures) or the
shock-reflection closure obtained by rewriting the potential-flow equation in
sonic-chart coordinates (a = gamma+1, b = 1/c2).  Each coefficient is a
quadratic polynomial in (psi, psi_x, psi_y) whose coefficients depend on x
alone, so a closure is spelled once, as those per-monomial columns over x:
a table (CoefficientModel.table) that gives the O-terms, the operator's
coefficients and, exactly and in real arithmetic, their partials.  Its rows
are _Poly, the package's one polynomial type, which the barrier scans also
use for a barrier's jet as polynomials in y.
"""

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add, mul
from typing import Callable, Optional

import numpy as np

from .reflection import ReflectionConfiguration

_CS_STEP = 1e-30  # complex step of complex_step_partials

# the monomials in (psi, psi_x, psi_y) that the coefficients combine, by name, with their exponents of the three
_MONOMIALS = {"1": (0, 0, 0), "psi": (1, 0, 0), "px": (0, 1, 0), "py": (0, 0, 1),
              "px2": (0, 2, 0), "py2": (0, 0, 2), "pxpy": (0, 1, 1)}

__all__ = [
    "CoefficientModel",
    "model_coefficients",
    "linear_coefficients",
    "reflection_coefficients",
    "apply_coefficients",
    "apply_operator",
    "complex_step_partials",
    "zeta",
    "o_bound_audit",
]


@dataclass(frozen=True)
class CoefficientModel:
    """Constants (a, b), the lower-order terms' columns, and their nominal bound N."""

    a: float
    b: float
    N: float
    label: str
    # x -> O1..O5, each a row {monomial name: its coefficient, a column over x or a scalar}; None for O = 0
    o_columns: Optional[Callable] = None

    def table(self, x, companion: bool = False):
        """The closure's table at nodes x (of L2 if companion): per-monomial columns for any number of evaluations."""
        return _Table(self, x, companion)

    def evaluate(self, x, psi, px, py, table=None):
        """O1..O5, arrays or scalars that broadcast to the nodes: the scalar 0.0 each for an O-free closure.

        table is this closure's table at x when the caller has built it already.
        """
        return _values((self.table(x) if table is None else table).o_rows, psi, px, py)

    def describe(self) -> dict:
        return {"a": self.a, "b": self.b, "N": self.N, "label": self.label}


class _Poly(dict):
    """A polynomial {exponent tuple: coefficient}, each coefficient a column over x or a scalar.

    It spells a closure's rows, in (psi, psi_x, psi_y), and a barrier's jet,
    in y.  A column or scalar operand is a constant of the same arity n;
    numpy defers its operators to these (__array_ufunc__ = None), so the
    closure's code runs on polynomials as it runs on arrays.
    """

    __array_ufunc__ = None

    def __init__(self, n, terms=()):
        super().__init__(terms)
        self.n = n

    def _of(self, v):
        return v if isinstance(v, _Poly) else _Poly(self.n, {(0,) * self.n: v})

    def __add__(self, other):
        out = _Poly(self.n, self)
        for e, c in self._of(other).items():
            out[e] = out[e] + c if e in out else c
        return out

    __radd__ = __add__

    def __neg__(self):
        return _Poly(self.n, {e: -c for e, c in self.items()})

    def __sub__(self, other):
        return self + -self._of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out = _Poly(self.n)
        for e, c in self.items():
            for f, d in self._of(other).items():
                k = tuple(map(add, e, f))
                out[k] = out[k] + c * d if k in out else c * d
        return out

    __rmul__ = __mul__

    def __truediv__(self, s):
        return _Poly(self.n, {e: c / s for e, c in self.items()})

    def partial(self, v):
        """The partial in the v-th variable: each monomial's exponent of it brought down."""
        return _Poly(self.n, {e[:v] + (e[v] - 1,) + e[v + 1:]: e[v] * c for e, c in self.items() if e[v]})


def _values(rows, *variables):
    """Each row's value at the variables, its terms summed in the row's order; 0.0 for an empty row."""
    one, mono = (0,) * len(variables), {}
    out = []
    for row in rows:
        value = 0.0
        for i, (e, c) in enumerate(row.items()):
            if e != one and e not in mono:  # a variable itself, or a product formed once per call
                mono[e] = reduce(mul, [variables[v] for v, k in enumerate(e) for _ in range(k)])
            term = c if e == one else c * mono[e]
            value = term if i == 0 else value + term
        out.append(value)
    return tuple(out)


def _operator(fixed, O):
    """The operator's coefficients (c_x, c_y, c_xx, c_xy, c_yy) from its fixed part and O1..O5, as rows or values."""
    O1, O2, O3, O4, O5 = O
    cx, cy, cxx, cxy, cyy = fixed
    return cx - O4, cy + O5, cxx + O1, cxy + O2, cyy + O3


class _Table:
    """A closure's rows at nodes x: O1..O5 and the operator's fixed part, and their partials.

    Each row is a _Poly in (psi, psi_x, psi_y), converted once from the
    named monomials of o_columns.  The fixed part is -1 (-2 for L2), 0, the
    lead 2x - a psi_x (x + a psi_x), 0 and b; _operator adds O1..O5 to it,
    and a model or linear closure is the fixed part alone.  The partial rows
    are built on first use.
    """

    def __init__(self, coeffs, x, companion):
        x = np.asarray(x, dtype=float)
        lead, k = ({"1": x, "px": coeffs.a}, 2.0) if companion else ({"1": 2.0 * x, "px": -coeffs.a}, 1.0)
        poly = lambda row: _Poly(3, {_MONOMIALS[name]: c for name, c in row.items()})
        self.fixed = tuple(map(poly, ({"1": -k}, {}, lead, {}, {"1": coeffs.b})))
        self.o_rows = tuple(map(poly, ({},) * 5 if coeffs.o_columns is None else coeffs.o_columns(x)))

    @cached_property
    def partial_rows(self):
        """The operator's rows' partials in psi, psi_x and psi_y: three tuples of five rows."""
        rows = _operator(self.fixed, self.o_rows)
        return tuple(tuple(row.partial(v) for row in rows) for v in range(3))

    def coefficients(self, psi, px, py, o_terms):
        """The operator's five coefficients at the nodes, on the O-terms there (o_terms)."""
        return _operator(_values(self.fixed, psi, px, py), o_terms)

    def partials(self, psi, px, py):
        """The five coefficients' partials in psi, psi_x and psi_y at the nodes: three tuples of five, exact.

        An O-free closure's are the scalars 0.0 but the lead's -a (+a for L2) in psi_x.
        """
        return tuple(_values(rows, psi, px, py) for rows in self.partial_rows)


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
    gm, gp = (gam - 1.0) / c2, (gam + 1.0) / c2

    def o_columns(x):
        rm = c2 - x  # the polar radius about the sonic center
        O1 = {"1": -x * x / c2, "psi": -gm, "px": gp * x, "px2": -0.5 * gp, "py2": -0.5 * gm / rm**2}
        O2 = {"py": -2.0 / (c2 * rm), "pxpy": -2.0 / (c2 * rm**2)}
        O3 = {"1": x * (2.0 * c2 - x) / (c2 * rm**2), "psi": -gm / rm**2, "px": -gm / rm, "px2": -0.5 * gm / rm**2,
              "py2": -0.5 * gp / rm**4}
        O4 = {"1": x / rm, "psi": -gm / rm, "px": -gm, "px2": -0.5 * gm / rm, "py2": -0.5 * gm / rm**3}
        O5 = {"py": -2.0 / (c2 * rm**2), "pxpy": -1.0 / (c2 * rm**3)}
        return O1, O2, O3, O4, O5

    N = _nominal_reflection_bound(gam, c2, eps)
    return CoefficientModel(a=gam + 1.0, b=1.0 / c2, N=N, label="reflection", o_columns=o_columns)


def _nominal_reflection_bound(gam, c2, eps):
    # termwise sup of |O1|/x^2 and |Ok|/x under the quadratic-regime envelope
    n1 = (1.0 + 1.5 * (gam + 1.0) + (gam - 1.0) * (1.0 + 2.0 / c2**2)) / c2
    n2 = 8.0 * (eps + c2) / c2**3
    n3 = 4.0 * (2.0 * c2 + (gam - 1.0) * (c2 + 1.5 * eps) + 2.0 * (gam + 1.0) * eps / c2**2) / c2**3
    n4 = (1.0 + (gam - 1.0) * (1.5 * eps + c2 + 2.0 * eps / c2**2) / c2) * 2.0 / c2
    n5 = 8.0 * (eps + 2.0 * c2) / c2**4
    return float(max(n1, n2, n3, n4, n5))


def apply_coefficients(coefficients, jet):
    """The operator with coefficients (c_x, c_y, c_xx, c_xy, c_yy) on a jet, summed in the order it is written."""
    cx, cy, cxx, cxy, cyy = coefficients
    _, px, py, pxx, pxy, pyy = jet
    return cxx * pxx + cxy * pxy + cyy * pyy + cx * px + cy * py


def apply_operator(coeffs: CoefficientModel, x, jet):
    """The degenerate operator L1 on a jet (psi, psi_x, psi_y, psi_xx, psi_xy, psi_yy).

    L2, the operator on deviation profiles W, with the leading coefficient
    x + a psi_x and the first-order x coefficient 2 + O4, has its own table,
    coeffs.table(x, companion=True).
    """
    table = coeffs.table(x)
    return apply_coefficients(table.coefficients(*jet[:3], coeffs.evaluate(x, *jet[:3], table)), jet)


def complex_step_partials(f, *args):
    """Values and partials of f in each of its arguments, stacked over them on a leading axis, by one evaluation.

    Im f(m + ih e_k)/h with the perturbations stacked takes no difference, so
    for f analytic in its arguments the partials are exact to rounding
    (Squire & Trapp, SIAM Review 40, 1998), and Re f(m + ih e_k) is f(m) to
    rounding.  f returns an array or a tuple of them, as do (Re f, partials).
    """
    m = np.asarray(np.broadcast_arrays(*args), dtype=complex)
    m = m + 1j * _CS_STEP * np.eye(len(args)).reshape((len(args),) * 2 + (1,) * (m.ndim - 1))
    out = f(*np.swapaxes(m, 0, 1))
    each = lambda g: tuple(map(g, out)) if isinstance(out, tuple) else g(out)
    return each(np.real), each(lambda c: np.imag(c) / _CS_STEP)


def zeta(s, a: float, beta: float, M: float):
    """Gradient cutoff: identity on the trusted slope window, clamped outside.

    The window (-(1-beta)/a, M + 1/a) is where the ratio W_x/x of admissible
    solutions lives; inside it the lead 2x - a psi_x lies in [beta*x,
    (2+aM)*x].  The solver does not clamp: it measures the share of a
    converged iterate's nodes outside the window.  Defined for a > 0.
    """
    return np.clip(s, -(1.0 - beta) / a, M + 1.0 / a)


def o_bound_audit(coeffs: CoefficientModel, x, O) -> dict:
    """Measured sup of |O1|/x^2 and |Ok|/x over nodes x > 0; x and the O-terms O (coeffs.evaluate) broadcast to them."""
    x = np.asarray(x, dtype=float)
    mask, xm = x > 0.0, np.where(x > 0.0, x, 1.0)
    sup = lambda k, p: float(np.max(np.abs(O[k]) / xm**p, where=mask, initial=0.0))  # no ratio is below 0
    return {"o1_over_x2": sup(0, 2), "ok_over_x": max(sup(k, 1) for k in range(1, 5)), "nominal_N": coeffs.N}
