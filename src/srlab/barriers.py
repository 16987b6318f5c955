"""Closed-form comparison functions, parameter recipes, and sign scans.

Every barrier here is a two-term profile c1*x^p1*(1-y^2) + c2*x^p2*y^2 with
exact derivatives.  The recipes reproduce the constructive parameter choices
of the comparison arguments (quadratic lower bound, growth bound, lower decay
bound); the sign properties are then verified by dense grid scans with local
refinement, which is reported as sampling evidence, not proof.

A barrier is A(x) + D(x) y^2 and a closure is quadratic in (psi, psi_x,
psi_y) with columns over x, so each scanned defect is a polynomial in y
whose coefficients are columns over x.  A scan runs the closure's own code
once on the barrier's jet spelled as such polynomials (_YPoly), refuses a
defect with a nonzero odd coefficient, and evaluates the even one by
Horner's rule in t = y^2 on its sample grids.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .coefficients import CoefficientModel, apply_coefficients, apply_operator
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


def _t_sum(p, q, shift=0):
    """The coefficients of p(t) + t^shift q(t), each from t^0 up."""
    q = (0.0,) * shift + tuple(q) if q else ()
    if len(p) < len(q):
        p, q = q, p
    return tuple(a + b for a, b in zip(p, q)) + tuple(p[len(q):])


def _t_product(p, q):
    """The coefficients of p(t) q(t), each summed in the order of p's."""
    out = [None] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = a * b if out[i + j] is None else out[i + j] + a * b
    return tuple(out)


def _horner(p, t):
    """p(t) by Horner's rule; 0.0 for no coefficients."""
    v = p[-1] if p else 0.0
    for c in p[-2::-1]:
        v = v * t + c
    return v


class _YPoly:
    """A polynomial E(t) + y O(t) in y, t = y^2: its even and odd parts as coefficients of t^0, t^1, ...

    The coefficients are columns over x or scalars; an empty part is zero,
    so parity is kept by structure.  numpy defers its operators to these
    (__array_ufunc__ = None), so the closure's code runs on polynomials as
    it runs on arrays.
    """

    __array_ufunc__ = None

    def __init__(self, even=(), odd=()):
        self.even, self.odd = tuple(even), tuple(odd)

    @staticmethod
    def _of(v):
        return v if isinstance(v, _YPoly) else _YPoly((v,))

    def __add__(self, other):
        other = _YPoly._of(other)
        return _YPoly(_t_sum(self.even, other.even), _t_sum(self.odd, other.odd))

    __radd__ = __add__

    def __neg__(self):
        return _YPoly([-c for c in self.even], [-c for c in self.odd])

    def __sub__(self, other):
        return self + -_YPoly._of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        # (e + y o)(f + y g) = e f + t o g + y (e g + o f)
        other = _YPoly._of(other)
        (e, o), (f, g) = (self.even, self.odd), (other.even, other.odd)
        return _YPoly(_t_sum(_t_product(e, f), _t_product(o, g), 1), _t_sum(_t_product(e, g), _t_product(o, f)))

    __rmul__ = __mul__

    def __truediv__(self, s):
        return _YPoly([c / s for c in self.even], [c / s for c in self.odd])

    def dy(self):
        """The y-derivative: e_k y^2k gives 2k e_k y^(2k-1), o_k y^(2k+1) gives (2k+1) o_k y^2k."""
        return _YPoly([(2 * k + 1) * c for k, c in enumerate(self.odd)],
                      [2 * k * c for k, c in enumerate(self.even) if k])

    def __call__(self, y):
        """The value at y: E by Horner's rule in t = y*y, plus y times O's."""
        t = y * y
        if not self.odd:
            return _horner(self.even, t)
        odd = y * _horner(self.odd, t)
        return _horner(self.even, t) + odd if self.even else odd


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
        return _YPoly((A, _term(self.c2, self.p2, x, k) - A))

    def y_jet(self, x):
        """The jet (psi, psi_x, psi_y, psi_xx, psi_xy, psi_yy) as polynomials in y with columns over x.

        psi = A + D y^2 and its x-derivatives; psi_y = 2 D y, psi_xy = 2 D' y
        and psi_yy = 2 D are their y-derivatives.
        """
        x = np.asarray(x, dtype=float)
        psi, px, pxx = (self._profile(x, k) for k in range(3))
        py = psi.dy()
        return psi, px, py, pxx, px.dy(), py.dy()

    def value(self, x, y):
        """psi at (x, y), bit for bit as y_jet(x)[0] at y."""
        return self._profile(np.asarray(x, dtype=float), 0)(np.asarray(y, dtype=float))


def _l2_defect(fn: BarrierFunction, coeffs: CoefficientModel, x):
    """The companion operator L2 on fn less its right side (O1 - x O4)/a, as a polynomial in y: one jet, one table."""
    if coeffs.a == 0.0:
        raise ValueError("the deviation operator needs a > 0")
    x = np.asarray(x, dtype=float)
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
    for k, c in enumerate(poly.odd):
        odd = np.flatnonzero(np.broadcast_to(c, (x.size, 1)) != 0.0)  # NaN is not known to be 0
        if odd.size:
            raise ValueError(f"barrier scans need a defect even in y; its y^{2 * k + 1} coefficient "
                             f"is nonzero at x = {x[odd[0]]:.6g}")
    vals = np.empty((x.size, y.size))
    vals[...] = poly.even[-1]
    t = y * y
    for c in poly.even[-2::-1]:  # Horner's rule in t, in place
        vals *= t
        vals += c
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
