"""Independent high-precision oracles (mpmath only, no srlab imports).

Everything here recomputes the reflected-state algebra from the raw state
potentials by a different route than the package: the wedge-parallel velocity
is scanned, the shock line is recovered from potential continuity, and the
mass-flux balance is bisected at 40-digit precision.
"""

import mpmath as mp

mp.mp.dps = 40


def incident(gamma, rho0, rho1):
    g, r0, r1 = map(mp.mpf, (gamma, rho0, rho1))
    if g == 1:
        br = 2 * mp.log(r1 / r0) / (r1**2 - r0**2)
    else:
        br = 2 * (r1 ** (g - 1) - r0 ** (g - 1)) / ((g - 1) * (r1**2 - r0**2))
    xi0 = r1 * mp.sqrt(br)
    return xi0, xi0 * (r1 - r0) / r1


def rho2_of_u2(gamma, rho0, xi0, tanw, u2):
    g = mp.mpf(gamma)
    v2 = u2 * tanw
    k2 = -xi0 * u2 * (1 + tanw**2)
    bern = k2 + (u2**2 + v2**2) / 2
    if g == 1:
        return mp.mpf(rho0) * mp.e**-bern
    arg = mp.mpf(rho0) ** (g - 1) - (g - 1) * bern
    if arg <= 0:
        return None
    return arg ** (1 / (g - 1))


def flux_residual(gamma, rho0, rho1, xi0, u1, tanw, u2):
    rho2 = rho2_of_u2(gamma, rho0, xi0, tanw, u2)
    if rho2 is None:
        return None
    v2 = u2 * tanw
    w = (u1 - u2, -v2)
    nw = mp.sqrt(w[0] ** 2 + w[1] ** 2)
    if nw == 0:
        return None
    P0 = (xi0, xi0 * tanw)
    d1 = (u1 - P0[0], -P0[1])
    d2 = (u2 - P0[0], v2 - P0[1])
    return (mp.mpf(rho1) * (d1[0] * w[0] + d1[1] * w[1]) - rho2 * (d2[0] * w[0] + d2[1] * w[1])) / nw


def u_vacuum(gamma, rho0, xi0, tanw):
    if gamma == 1:
        return 4 * xi0
    g = mp.mpf(gamma)
    s = 1 + tanw**2
    a = (g - 1) * s / 2
    b = -(g - 1) * s * xi0
    c = -mp.mpf(rho0) ** (g - 1)
    return (-b + mp.sqrt(b * b - 4 * a * c)) / (2 * a)


def state2_roots(gamma, rho0, rho1, theta_deg, npts=3000):
    """All reflected-state roots (u2, rho2) sorted by rho2."""
    th = mp.mpf(theta_deg) * mp.pi / 180
    tanw = mp.tan(th)
    xi0, u1 = incident(gamma, rho0, rho1)
    uv = u_vacuum(gamma, rho0, xi0, tanw) * (1 - mp.mpf("1e-12"))
    res = lambda u: flux_residual(gamma, rho0, rho1, xi0, u1, tanw, u)
    grid = [uv * mp.mpf(i) / npts for i in range(1, npts)]
    grid = [uv * mp.mpf(10) ** -k for k in range(14, 3, -1)] + grid
    roots = []
    prev_u, prev_r = grid[0], res(grid[0])
    for u in grid[1:]:
        r = res(u)
        if r is not None and prev_r is not None and prev_r * r < 0:
            a_, b_, fa = prev_u, u, prev_r
            for _ in range(180):
                m = (a_ + b_) / 2
                fm = res(m)
                if fa * fm <= 0:
                    b_ = m
                else:
                    a_, fa = m, fm
            roots.append((a_ + b_) / 2)
        prev_u, prev_r = u, r
    out = []
    for u2 in roots:
        rho2 = rho2_of_u2(gamma, rho0, xi0, tanw, u2)
        out.append((u2, rho2))
    out.sort(key=lambda t: t[1])
    return xi0, u1, tanw, out


def normal_reflection(gamma, rho0, rho1):
    """Head-on reflection: vertical reflected shock at xi < 0, state at rest."""
    g = mp.mpf(gamma)
    xi0, u1 = incident(gamma, rho0, rho1)

    def rho2_of(xihat):
        k2 = u1 * (xihat - xi0)
        if g == 1:
            return mp.mpf(rho0) * mp.e ** (-k2)
        return (mp.mpf(rho0) ** (g - 1) - (g - 1) * k2) ** (1 / (g - 1))

    f = lambda xihat: mp.mpf(rho1) * (u1 - xihat) + rho2_of(xihat) * xihat
    a, b = -5 * xi0, -mp.mpf("1e-12")
    fa = f(a)
    assert fa * f(b) < 0
    for _ in range(200):
        m = (a + b) / 2
        if fa * f(m) <= 0:
            b = m
        else:
            a, fa = m, f(a)
    xihat = (a + b) / 2
    return xihat, rho2_of(xihat)


def sonic_point_P1(gamma, rho0, rho1, theta_deg, u2):
    """P1 by exact line-circle intersection from oracle root values."""
    th = mp.mpf(theta_deg) * mp.pi / 180
    tanw = mp.tan(th)
    xi0, u1 = incident(gamma, rho0, rho1)
    rho2 = rho2_of_u2(gamma, rho0, xi0, tanw, u2)
    v2 = u2 * tanw
    c2 = rho2 ** ((mp.mpf(gamma) - 1) / 2) if gamma != 1 else mp.mpf(1)
    P0 = (xi0, xi0 * tanw)
    C = (u2, v2)
    w = (u1 - u2, -v2)
    nw = mp.sqrt(w[0] ** 2 + w[1] ** 2)
    tau = (w[1] / nw, -w[0] / nw)
    if tau[0] * (C[0] - P0[0]) + tau[1] * (C[1] - P0[1]) < 0:
        tau = (-tau[0], -tau[1])
    pm = (P0[0] - C[0], P0[1] - C[1])
    b = pm[0] * tau[0] + pm[1] * tau[1]
    c = pm[0] ** 2 + pm[1] ** 2 - c2**2
    disc = b * b - c
    assert disc >= 0
    for t in (-b - mp.sqrt(disc), -b + mp.sqrt(disc)):
        if t <= 0:
            continue
        P = (P0[0] + t * tau[0], P0[1] + t * tau[1])
        if mp.atan2(P[1] - C[1], P[0] - C[0]) - th > 0:
            return P, c2, v2, rho2
    raise AssertionError("no admissible sonic intersection")


def gauss_legendre01(n, dps=50):
    """The n-point Gauss-Legendre rule mapped to [0, 1], nodes ascending, as dps-digit mpf lists.

    Each root x of P_n is polished by Newton's method from Tricomi's estimate
    cos(pi (i - 1/4)/(n + 1/2)); its weight is 2/((1 - x^2) P_n'(x)^2).  The
    map is t = (1 + x)/2 with weight w/2.
    """
    def legendre(x):  # P_n(x) and P_n'(x) by the three-term recurrence
        p0, p1 = mp.mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)

    with mp.workdps(dps):
        rule = []
        for i in range(n, 0, -1):
            x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
            for _ in range(100):
                p, dp = legendre(x)
                x -= p / dp
                if abs(p / dp) < mp.mpf(10) ** (2 - dps):
                    break
            dp = legendre(x)[1]
            rule.append(((1 + x) / 2, 1 / ((1 - x * x) * dp * dp)))
        return [t for t, _ in rule], [w for _, w in rule]
