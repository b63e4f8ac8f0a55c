"""Independent oracle implementations used only by the tests.

These deliberately take different routes than the library code: Lagrange
multipliers in their raw published form, Newtonian contact forces evaluated
from accelerations, wrapper values from adaptive quadrature of the defining
derivative, and steering derivatives from finite differences along the
simulated flow.
"""

import math

import numpy as np

from nonholo.control import (driving_force, longitudinal_accel,
                             preview_max_curvature, steer_derivative_chain,
                             steering_saturation, target_speed)
from nonholo.models import (DriveInput, Variant, constraining_forces, eom_rhs,
                            speed_rate)
from nonholo.params import VehicleParams


def lagrange_multipliers(sigma1, gamma, gamma_dot, gamma_ddot, F_R, F_F,
                         params: VehicleParams):
    """Multipliers of the two no-slip constraints, velocity form."""
    l = params.l
    m1, m2, m4, J_F = params.m1, params.m2, params.m4, params.J_F
    t = math.tan(gamma)
    cg = math.cos(gamma)
    D = m1 + m2 * t * t
    Pi1 = F_R + F_F / cg
    lam1 = ((m2 - m4) * t / D * Pi1
            - (m1 - m4) * sigma1 ** 2 / l * t
            - m4 * sigma1 * gamma_dot / cg ** 2
            + (m1 + m4 * t * t) / D
            * (m2 * sigma1 * gamma_dot / cg ** 2 + J_F / l * gamma_ddot))
    lam2 = (-(m2 * F_R * t / cg + (m2 - m1) * F_F * t
              + m1 * m2 * sigma1 * gamma_dot / cg ** 3
              + m1 * J_F / l * gamma_ddot / cg) / D
            - m4 * sigma1 ** 2 * t / (l * cg))
    return lam1, lam2


def newtonian_forces(sigma1, psi, gamma, gamma_dot, gamma_ddot, F_R, F_F,
                     params: VehicleParams):
    """Lateral contact forces from accelerations (singular at gamma = 0)."""
    l, d = params.l, params.d
    m1 = params.m1
    # the combined mass m3 of the paper's Newtonian balance
    m3 = params.m_R - (l - d) / d * params.m_F
    t = math.tan(gamma)
    sg, cg = math.sin(gamma), math.cos(gamma)

    u = DriveInput(gamma=gamma, gamma_dot=gamma_dot, gamma_ddot=gamma_ddot,
                   F_R=F_R, F_F=F_F)
    sigma1_dot = eom_rhs(Variant.SKATE_FORCE, [0.0, 0.0, psi, sigma1],
                         u, params)[3]
    sp, cp = math.sin(psi), math.cos(psi)
    psidot = sigma1 * t / l
    xGdd = (sigma1_dot * (cp - d / l * sp * t)
            - d / l * sigma1 * gamma_dot * sp / cg ** 2
            - sigma1 ** 2 / l * t * (sp + d / l * cp * t))
    yGdd = (sigma1_dot * (sp + d / l * cp * t)
            + d / l * sigma1 * gamma_dot * cp / cg ** 2
            + sigma1 ** 2 / l * t * (cp - d / l * sp * t))
    psidd = sigma1_dot * t / l + sigma1 * gamma_dot / (l * cg ** 2)

    Ftil_R = (-F_R * cg - F_F - m3 * d * psidd * sg + m3 * d * psidot ** 2 * cg
              + m1 * (xGdd * math.cos(psi + gamma)
                      + yGdd * math.sin(psi + gamma))) / sg
    Ftil_F = (F_R + F_F * cg - m3 * d * psidot ** 2
              - m1 * (xGdd * cp + yGdd * sp)) / sg
    return Ftil_R, Ftil_F


def steer_derivatives_by_flow(y0, V, profile, gains, gamma_sat,
                              params: VehicleParams):
    """gamma' and gamma'' of the steering command along the closed-loop flow.

    The constant-speed loop is flowed forward and back by a fine RK4 on its
    own inline path-frame rates, and the command is differenced along it: a
    central difference at 1e-5 s for gamma', a five-point stencil at 5e-4 s
    for gamma''.
    """
    def gamma_at(y):
        return steer_derivative_chain(y[0], y[1], y[2], V, 0.0, profile,
                                      gains, gamma_sat, params).gamma_des

    def rhs(y):
        gamma = gamma_at(y)
        kap = profile.kappa(y[0])
        one = 1.0 - kap * y[1]
        sd = V * math.cos(y[2]) / one
        return np.array([sd, V * math.sin(y[2]),
                         V * math.tan(gamma) / params.l - kap * sd])

    def flow(y0, T, h=1e-6):
        y = np.array(y0, float)
        hh = math.copysign(h, T)
        for _ in range(int(round(abs(T) / h))):
            a = rhs(y)
            b = rhs(y + 0.5 * hh * a)
            c = rhs(y + 0.5 * hh * b)
            d = rhs(y + hh * c)
            y = y + hh / 6.0 * (a + 2 * b + 2 * c + d)
        return y

    h1 = 1e-5
    fd1 = (gamma_at(flow(y0, h1)) - gamma_at(flow(y0, -h1))) / (2 * h1)
    h2 = 5e-4
    g = [gamma_at(flow(y0, k * h2)) for k in (-2, -1, 0, 1, 2)]
    fd2 = (-g[0] + 16 * g[1] - 30 * g[2] + 16 * g[3] - g[4]) / (12 * h2 * h2)
    return fd1, fd2


def wrapper_by_quadrature(n, g_sat, x):
    """g_n(x) from adaptive quadrature of its defining derivative."""
    from scipy.integrate import quad
    from nonholo.control import _bound_constant

    c = _bound_constant(n, g_sat)

    def deriv(t):
        return (1.0 + (c * t) ** 2) ** (-0.5 * n)

    val, err = quad(deriv, 0.0, x, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def frenet_table_by_loop(profile, step, length=None, x0=0.0, y0=0.0,
                         psi0=0.0):
    """(s, x, y, psi, kappa) of a path by a scalar RK4 loop, sample by sample.

    The loop that ``build_path`` replaced: five scalar ``kappa`` calls and
    one RK4 step of (x', y', psi') = (cos psi, sin psi, kappa(s)) per sample.
    """
    if length is None:
        length = profile.natural_length()
    n = max(1, int(round(length / step)))
    h = length / n
    cols = np.empty((5, n + 1))
    xi, yi, pi_ = x0, y0, psi0
    kfun = profile.kappa
    for i in range(n + 1):
        si = i * h
        cols[:, i] = si, xi, yi, pi_, kfun(si)
        if i == n:
            break
        k1p = kfun(si)
        p2 = pi_ + 0.5 * h * k1p
        k2p = kfun(si + 0.5 * h)
        p3 = pi_ + 0.5 * h * k2p
        k3p = kfun(si + 0.5 * h)
        p4 = pi_ + h * k3p
        k4p = kfun(si + h)
        xi += h / 6.0 * (math.cos(pi_) + 2.0 * math.cos(p2)
                         + 2.0 * math.cos(p3) + math.cos(p4))
        yi += h / 6.0 * (math.sin(pi_) + 2.0 * math.sin(p2)
                         + 2.0 * math.sin(p3) + math.sin(p4))
        pi_ += h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return cols


def composed_longitudinal_loop(sc):
    """The steer_longitudinal stage as a composition of the public functions.

    ``loop(t, y)`` and ``loop(t, y, True)`` take and return what the
    simulator's fused stage does. It calls ``steering_saturation``,
    ``target_speed``, ``longitudinal_accel``, ``steer_derivative_chain``,
    ``driving_force``, ``models.speed_rate`` and ``constraining_forces``,
    so ``sim._make_loop`` must equal it bit for bit.
    """
    prof, params, gains = sc.profile, sc.params, sc.gains
    l = params.l
    preview = gains.preview_dist

    def steer_longitudinal(t, y, diag=False):
        s, e, th, s1 = y
        gsat = steering_saturation(s1, gains, params)
        v_des = target_speed(preview_max_curvature(prof, s, preview), gains)
        a_des = longitudinal_accel(s1, v_des, gains)
        cmd = steer_derivative_chain(s, e, th, s1, a_des, prof, gains,
                                     gsat, params)
        g = cmd.gamma_des
        F = driving_force(a_des, g, cmd.gamma_dot, cmd.gamma_ddot, s1, params)
        tg = math.tan(g)
        dy = (*cmd.rates, speed_rate(F.F_R, s1, tg, math.cos(g), cmd.gamma_dot,
                                     cmd.gamma_ddot, params))
        if not diag:
            return dy
        forces = constraining_forces(s1, g, cmd.gamma_dot, cmd.gamma_ddot,
                                     F.F_R, 0.0, params)
        return dy, (g, s1, g, cmd.gamma_ff, cmd.gamma_fb, F.F_R, a_des,
                    v_des, s1 * s1 * tg / l, F.iota, F.a1, F.a2,
                    forces.mu_R, forces.mu_F)

    return steer_longitudinal


def rk4_step_reference(rhs, t, y, h, a=None):
    """One classical Runge-Kutta step, one comprehension per stage.

    ``sim.rk4_step`` writes this step out per state length, in the same
    float operations and order, so it must equal this bit for bit.
    """
    n = len(y)
    if a is None:
        a = rhs(t, y)
    yb = [y[i] + 0.5 * h * a[i] for i in range(n)]
    b = rhs(t + 0.5 * h, yb)
    yc = [y[i] + 0.5 * h * b[i] for i in range(n)]
    c = rhs(t + 0.5 * h, yc)
    yd = [y[i] + h * c[i] for i in range(n)]
    d = rhs(t + h, yd)
    return [y[i] + h / 6.0 * (a[i] + 2.0 * b[i] + 2.0 * c[i] + d[i])
            for i in range(n)]
