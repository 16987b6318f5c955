"""Closed-form comparison functions, parameter recipes, and sign scans.

Every barrier here is a two-term profile c1*x^p1*(1-y^2) + c2*x^p2*y^2 with
exact derivatives.  The recipes reproduce the constructive parameter choices
of the comparison arguments (quadratic lower bound, growth bound, lower decay
bound); the sign properties are then verified by dense grid scans with local
refinement, which is reported as sampling evidence, not proof.

A barrier is A(x) + D(x) y^2 and a closure is quadratic in (psi, psi_x,
psi_y) with columns over x, so each scanned defect is a polynomial in y
whose coefficients are columns over x.  A scan runs the closure's own code
once on the barrier's jet spelled as such polynomials (coefficients._Poly,
the closure's own polynomial type, in the one variable y), refuses a defect
with a nonzero odd coefficient, and evaluates the even one by Horner's rule
in t = y^2 on its sample grids.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .coefficients import CoefficientModel, _Poly, _values, apply_coefficients, apply_operator
from .grids import ScalarField2D

__all__ = [
    "BarrierFunction",
    "BarrierRecipe",
    "choose_subsolution_params",
    "scan_L1_sign",
    "scan_L2_defect_sign",
    "verify_comparison",
    "ComparisonReport",
]


def _term(c, p, x, k):
    """The k-th x-derivative of c x^p."""
    c = math.prod((p - i for i in range(k)), start=c)
    return c * x ** (p - k) if c != 0.0 else np.zeros_like(x)


@dataclass(frozen=True)
class BarrierFunction:
    """c1 * x^p1 * (1 - y^2) + c2 * x^p2 * y^2 with exact derivatives, as A + D y^2: A = c1 x^p1, D = c2 x^p2 - A."""

    c1: float
    p1: float
    c2: float
    p2: float

    def _profile(self, x, k):
        """psi differentiated k times in x, A^(k) + D^(k) y^2, as a polynomial in y."""
        A = _term(self.c1, self.p1, x, k)
        return _Poly(1, {(0,): A, (2,): _term(self.c2, self.p2, x, k) - A})

    def y_jet(self, x):
        """The jet (psi, psi_x, psi_y, psi_xx, psi_xy, psi_yy) as polynomials in y with columns over x.

        psi = A + D y^2 and its x-derivatives; psi_y = 2 D y, psi_xy = 2 D' y
        and psi_yy = 2 D are their y-derivatives.
        """
        x = np.asarray(x, dtype=float)
        psi, px, pxx = (self._profile(x, k) for k in range(3))
        py = psi.partial(0)
        return psi, px, py, pxx, px.partial(0), py.partial(0)

    def value(self, x, y):
        """psi at (x, y), bit for bit as y_jet(x)[0] at y."""
        return _values((self._profile(np.asarray(x, dtype=float), 0),), np.asarray(y, dtype=float))[0]


def _l2_defect(fn: BarrierFunction, coeffs: CoefficientModel, x):
    """The companion operator L2 on fn less its right side (O1 - x O4)/a, as a polynomial in y: one jet, one table."""
    if coeffs.a == 0.0:
        raise ValueError("the deviation operator needs a > 0")
    jet = fn.y_jet(x)
    table = coeffs.table(x, companion=True)
    O = coeffs.evaluate(x, *jet[:3], table)
    return apply_coefficients(table.coefficients(*jet[:3], O), jet) - (O[0] - x * O[3]) / coeffs.a


# -- recipes ------------------------------------------------------------------


@dataclass(frozen=True)
class BarrierRecipe:
    a: float
    b: float
    N: float
    rhat: float
    sigma_at_r0: float
    C0: float
    C_growth: float
    r0: float
    mu0: float
    A0: float
    k: float
    mu1: float
    alpha1: float
    r1: float
    alpha2: float
    r2: float

    def w_barrier(self) -> BarrierFunction:
        """Quadratic lower barrier mu0 x^2 (1-y^2) - k x y^2."""
        return BarrierFunction(self.mu0, 2.0, -self.k, 1.0)

    def v_barrier(self) -> BarrierFunction:
        """Growth barrier A1 x^(2+alpha1) (1-y^2) + B1 x^2 y^2 for W above."""
        A1 = (1.0 - self.mu1) / (2.0 * self.a * self.r1**self.alpha1)
        B1 = (1.0 - self.mu1) / (2.0 * self.a)
        return BarrierFunction(A1, 2.0 + self.alpha1, B1, 2.0)

    def u_minus_barrier(self) -> BarrierFunction:
        """Lower decay barrier -L x^(2+alpha2)(1-y^2) - K x^2 y^2 for W below.

        K = (1 - beta)/(2a) at beta = 1/2, the one beta that alpha2 and r2 hold for.
        """
        K = 0.25 / self.a
        L = K / self.r2**self.alpha2
        return BarrierFunction(-L, 2.0 + self.alpha2, -K, 2.0)

    def describe(self) -> dict:
        return asdict(self)


def _growth_exponent(mu: float) -> float:
    """Largest alpha with (1+alpha)(1 + (2+alpha)(1-mu)/2) - 2 <= -mu/4.

    With m = (1-mu)/2 the inequality is m alpha^2 + (1+3m) alpha - 3mu/4 <= 0,
    whose positive root is taken in the form free of cancellation.  The
    recipe's mu lies in (0, 1/2], where the root is at most (sqrt(55)-7)/2.
    """
    m = 0.5 * (1.0 - mu)
    B = 1.0 + 3.0 * m
    return 1.5 * mu / (B + math.sqrt(B * B + 3.0 * m * mu))


def choose_subsolution_params(a: float, b: float, N: float, rhat: float, sigma) -> BarrierRecipe:
    """Constructive parameters for the quadratic lower barrier and its companions.

    sigma(r) is the measured interior lower bound of the solution past depth
    r.  C0 = 2b + 8N + N/(8(b+N)) bounds the lower-order contributions in the
    w-sign estimate termwise, C_growth = 1.5b + 20N + 1 the correction terms
    in the growth-barrier estimate.  The admissible window
    (4 C0 r0^2, 1/(8(b+N))) for A0 is nonempty by the r0 choice:
    r0 <= 1/(8 sqrt(C0(b+N))) caps its bottom at half its top.  The growth
    exponents alpha1 (at mu1) and alpha2 (at beta = 1/2, i.e. mu = 1/2) each
    reach depth min((mu/(4 C_growth))^(1/(1-alpha)), r0).
    """
    if min(a, b, rhat) <= 0.0 or N < 0.0:
        raise ValueError("need a, b, rhat > 0 and N >= 0")
    C0 = 2.0 * b + 8.0 * N + (N / (8.0 * (b + N)) if N > 0.0 else 0.0)
    r0 = min(1.0 / (4.0 * C0), (b + N) / C0, 1.0 / (8.0 * np.sqrt(C0 * (b + N))), rhat / 2.0, 1.0)
    A0 = 0.5 * (4.0 * C0 * r0**2 + 1.0 / (8.0 * (b + N)))
    sig = float(sigma(r0))
    if not 0.0 < sig < math.inf:  # NaN fails too
        raise ValueError(f"interior lower bound sigma must be finite and positive, got {sig}")
    mu0 = min(1.0 / (8.0 * a), sig / r0**2)
    k = mu0 * A0
    mu1 = min(2.0 * a * mu0, 0.5)
    Cg = 1.5 * b + 20.0 * N + 1.0
    alpha1, alpha2 = _growth_exponent(mu1), _growth_exponent(0.5)
    r1 = min((mu1 / (4.0 * Cg)) ** (1.0 / (1.0 - alpha1)), r0)
    r2 = min((0.5 / (4.0 * Cg)) ** (1.0 / (1.0 - alpha2)), r0)
    return BarrierRecipe(
        a=a, b=b, N=N, rhat=rhat, sigma_at_r0=sig, C0=C0, C_growth=Cg,
        r0=r0, mu0=mu0, A0=A0, k=k, mu1=mu1,
        alpha1=alpha1, r1=r1, alpha2=alpha2, r2=r2,
    )


# -- sign scans ---------------------------------------------------------------


# grid points per axis of a scan
_SCAN_N = 512


def _sample(defect, x, y):
    """defect(x), a polynomial in y with columns over the nodes x, at x times y; refused unless it is even in y."""
    poly = defect(x[:, None])
    for k in sorted(k for (k,) in poly if k % 2):
        odd = np.flatnonzero(np.broadcast_to(poly[k,], (x.size, 1)) != 0.0)  # NaN is not known to be 0
        if odd.size:
            raise ValueError(f"barrier scans need a defect even in y; its y^{k} coefficient "
                             f"is nonzero at x = {x[odd[0]]:.6g}")
    top = max(k for (k,) in poly if k % 2 == 0)
    vals = np.empty((x.size, y.size))
    vals[...] = poly[top,]
    t = y * y
    for k in range(top - 2, -1, -2):  # Horner's rule in t, in place
        vals *= t
        vals += poly.get((k,), 0.0)
    return vals


def _scan(defect, r, minimize):
    """Extremum of defect(x), a polynomial in y even in it, over (0, r] x [-1, 1].

    The defect is taken once per grid, as coefficient columns over the
    grid's x-nodes, and refused if an odd coefficient is nonzero at any of
    them.  The y-nodes (2k + 1 - n)/(n - 1) are those of linspace(-1, 1, n)
    but mirror exactly, and the value depends on y through y*y alone, so
    only the ceil(n/2) columns with y <= 0 are evaluated: they hold each grid
    value at its first C-order occurrence.
    """
    n = _SCAN_N
    xs = np.linspace(r / n, r, n)
    ys = (2.0 * np.arange(n) + 1.0 - n) / (n - 1)
    vals = _sample(defect, xs, ys[:(n + 1) // 2])
    pick = np.argmin(vals) if minimize else np.argmax(vals)
    i, j = np.unravel_index(pick, vals.shape)
    best = float(vals[i, j])
    # local refinement around the detected extremum
    x_lo = max(xs[max(i - 2, 0)], r / (8 * n))
    x_hi = xs[min(i + 2, n - 1)]
    y_lo, y_hi = ys[max(j - 2, 0)], ys[min(j + 2, n - 1)]
    xf = np.linspace(x_lo, x_hi, 96)
    yf = np.linspace(y_lo, y_hi, 96)
    vf = _sample(defect, xf, yf)
    refined = float(np.min(vf) if minimize else np.max(vf))
    if (refined < best) == minimize:
        best = refined
    return best, (float(xs[i]), float(ys[j]))


def scan_L1_sign(barrier: BarrierFunction, coeffs: CoefficientModel, r: float) -> dict:
    """min of L1(barrier) over (0, r] x [-1, 1]; positive means strict subsolution."""
    best, arg = _scan(lambda x: apply_operator(coeffs, x, barrier.y_jet(x)), r, minimize=True)
    return {"min": best, "argmin": arg, "n": _SCAN_N, "positive": best > 0.0}


def scan_L2_defect_sign(barrier: BarrierFunction, coeffs: CoefficientModel, r: float,
                        want: str = "negative") -> dict:
    """Extremum of L2(barrier) - rhs over (0, r] x [-1, 1].

    want="negative" checks a supersolution (max < 0), want="positive" a
    subsolution (min > 0).
    """
    fun = lambda x: _l2_defect(barrier, coeffs, x)
    if want == "negative":
        best, arg = _scan(fun, r, minimize=False)
        return {"max": best, "argmax": arg, "n": _SCAN_N, "negative": best < 0.0}
    best, arg = _scan(fun, r, minimize=True)
    return {"min": best, "argmin": arg, "n": _SCAN_N, "positive": best > 0.0}


# -- discrete comparison ------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    boundary_ok: bool
    violations: int
    worst_margin: float | None  # None when the window holds too few nodes to compare
    n_nodes: int
    window: tuple
    violation_nodes: tuple = ()  # first few offending (x, y, margin) triples

    def ok(self) -> bool:
        return self.boundary_ok and self.violations == 0

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["violation_nodes"] = [list(v) for v in self.violation_nodes]
        return d


def verify_comparison(field: ScalarField2D, barrier: BarrierFunction, direction: str,
                      r: float) -> ComparisonReport:
    """Node-wise comparison of field against barrier on the window x <= r, |y| <= 1.

    direction="below" asserts barrier <= field, "above" the reverse.  The
    boundary inequality is checked first; when it fails the comparison
    principle does not apply and the report says so.
    """
    if direction not in ("below", "above"):
        raise ValueError("direction must be 'below' or 'above'")
    xs, ys = field.xs, field.ys
    isel = np.where(xs <= r * (1.0 + 1e-12))[0]
    jsel = np.where(np.abs(ys) <= 1.0 + 1e-12)[0]
    if isel.size < 3 or jsel.size < 3:
        return ComparisonReport(False, 0, None, 0, (r, 0.0, 1.0))
    bvals = barrier.value(xs[isel][:, None], ys[jsel][None, :])
    fvals = field.values[np.ix_(isel, jsel)]
    margin = fvals - bvals if direction == "below" else bvals - fvals
    boundary = np.zeros_like(margin, dtype=bool)
    boundary[0, :] = boundary[-1, :] = True
    boundary[:, 0] = boundary[:, -1] = True
    boundary_ok = bool(np.all(margin[boundary] >= -1e-13))
    bad = np.argwhere(margin < -1e-13)
    nodes = tuple(
        (float(xs[isel][i]), float(ys[jsel][j]), float(margin[i, j])) for i, j in bad[:20]
    )
    return ComparisonReport(
        boundary_ok=boundary_ok,
        violations=int(bad.shape[0]),
        worst_margin=float(np.min(margin)),
        n_nodes=int(margin.size),
        window=(float(xs[isel][-1]), 0.0, 1.0),
        violation_nodes=nodes,
    )
