"""Path-following and longitudinal controllers.

The steering command is a feedforward term that exactly traces the local
curvature plus a bounded nonlinear feedback on lateral and yaw errors. The
feedback is shaped by a "wrapper": an odd, bounded, monotone saturation
function with unit slope at the origin, drawn from the one-parameter family

    g_n'(x) = (1 + (c x)^2)^(-n/2),   n = 2, 3, ..., inf

whose bound constant c is fixed so that g_n(inf) = g_sat. n = 2 is the
arctangent wrapper used throughout; n = inf is the hard clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import SteeringSingularity
from .params import ControlGains, VehicleParams
from .path import CurvatureProfile
from .pathframe import rates

LAWS = ("linear", "nonlinear", "wrapped")
WRAPPER_N_MAX = 1000  # each wrapper call loops about n/2 times


@dataclass(frozen=True)
class WrapperSpec:
    """Family index n (2, 3, ... or math.inf) and saturation bound."""

    n: float
    g_sat: float

    def __post_init__(self):
        if self.g_sat <= 0.0:
            raise ValueError("g_sat must be positive")
        if self.n != math.inf and not (2 <= self.n <= WRAPPER_N_MAX
                                       and int(self.n) == self.n):
            raise ValueError(f"n must be an integer in [2, {WRAPPER_N_MAX}] "
                             f"or inf")


def _bound_constant(n: int, g_sat: float) -> float:
    """c such that the antiderivative of (1+(cx)^2)^(-n/2) saturates at g_sat."""
    ratio = 1.0
    k = n
    while k >= 4:
        ratio *= (k - 3) / (k - 2)
        k -= 2
    if n % 2 == 0:
        return ratio * math.pi / (2.0 * g_sat)
    return ratio / g_sat


def _saturate(x: float, bound: float) -> float:
    """The n = 2 wrapper: atan(c*x)/c, c = pi/(2*bound), |value| < bound."""
    c = math.pi / (2.0 * bound)
    v = math.atan(c * x) / c
    if -bound < v < bound:
        return v
    # a saturated float arctan rounds onto or one ulp past the bound
    return math.copysign(math.nextafter(bound, 0.0), v)


def wrapper(spec: WrapperSpec, x: float) -> float:
    """Evaluate the wrapper g_n(x)."""
    if spec.n == math.inf:
        return min(max(x, -spec.g_sat), spec.g_sat)
    if spec.n == 2:
        return _saturate(x, spec.g_sat)
    n = int(spec.n)
    c = _bound_constant(n, spec.g_sat)
    u = c * x
    log1pu2 = math.log1p(u * u)
    if n % 2 == 0:
        val = math.atan(u)
        k = 4
    else:
        val = u * math.exp(-0.5 * log1pu2)
        k = 5
    # ascending recurrence G_k = (k-3)/(k-2) G_{k-2} + u/((k-2)(1+u^2)^(k/2-1))
    while k <= n:
        val = (k - 3) / (k - 2) * val \
            + u * math.exp(-(0.5 * k - 1.0) * log1pu2) / (k - 2)
        k += 2
    # the recurrence can land one ulp past the bound; the bound is a contract
    return min(max(val / c, -spec.g_sat), spec.g_sat)


def wrapper_deriv(spec: WrapperSpec, x: float) -> float:
    """Slope g_n'(x); equals 1 at the origin for every member."""
    if spec.n == math.inf:
        return 1.0 if abs(x) < spec.g_sat else 0.0
    c = _bound_constant(int(spec.n), spec.g_sat)
    return math.exp(-0.5 * spec.n * math.log1p((c * x) ** 2))


def feedback_law(gains: ControlGains, law: str = "wrapped",
                 wrapper_n: float = 2):
    """The feedback steering law as a function ``fb(e_C, theta_C, gamma_sat)``.

    laws: 'linear'    k1*theta + k1*k2*e
          'nonlinear' k1*(theta + arctan(k2*e))
          'wrapped'   g_n(k1*(theta + arctan(k2*e))), |output| < gamma_sat
    gamma_sat is read by the wrapped law only.
    """
    k1, k2 = gains.k1, gains.k2
    if law == "linear":
        return lambda e, th, gsat: k1 * th + k1 * k2 * e
    if law == "nonlinear":
        return lambda e, th, gsat: k1 * (th + math.atan(k2 * e))
    if law != "wrapped":
        raise ValueError(f"unknown law {law!r}; expected one of {LAWS}")
    if wrapper_n == 2:
        return lambda e, th, gsat: _saturate(k1 * (th + math.atan(k2 * e)),
                                             gsat)
    WrapperSpec(wrapper_n, 1.0)  # reject a bad index before the first call
    return lambda e, th, gsat: wrapper(WrapperSpec(wrapper_n, gsat),
                                       k1 * (th + math.atan(k2 * e)))


def steering_saturation(speed: float, gains: ControlGains,
                        params: VehicleParams) -> float:
    """Lateral-acceleration-limited steering bound; gamma_max at rest."""
    if speed <= 0.0:
        return params.gamma_max
    return min(params.gamma_max,
               math.atan(gains.a_lat_max * params.l / speed ** 2))


def steering_torque(gamma: float, gamma_des: float,
                    gains: ControlGains) -> float:
    """Low-level servo torque tracking gamma_des, strictly inside T_sat."""
    return _saturate(gains.k_s * (gamma - gamma_des), gains.T_sat)


def target_speed(kappa_m: float, gains: ControlGains) -> float:
    """Speed keeping lateral acceleration within bound for curvature kappa_m."""
    if kappa_m < 0.0:
        raise ValueError("kappa_m must be non-negative")
    if kappa_m == 0.0:
        return gains.v_max
    return min(gains.v_max, math.sqrt(gains.a_lat_max / kappa_m))


def preview_max_curvature(profile: CurvatureProfile, s: float,
                          preview_dist: float) -> float:
    """max |kappa| over the preview window [s, s + preview_dist] (exact)."""
    if profile.kind == "straight":
        return 0.0
    if profile.kind == "circle":
        return abs(profile.kappa_const)
    two_pi = 2.0 * math.pi
    a = (two_pi * s / profile.s_T) % two_pi
    width = two_pi * preview_dist / profile.s_T
    if width >= two_pi:
        return profile.kappa_max
    b = a + width
    # kappa peaks where cos crosses its minimum, i.e. at odd multiples of pi
    if math.floor((b - math.pi) / two_pi) >= math.ceil((a - math.pi) / two_pi):
        min_cos = -1.0
    else:
        min_cos = min(math.cos(a), math.cos(b))
    return 0.5 * profile.kappa_max * (1.0 - min_cos)


def longitudinal_accel(sigma1: float, v_des: float,
                       gains: ControlGains) -> float:
    """Desired longitudinal acceleration, strictly inside a_long_max."""
    return _saturate(gains.k_a * (sigma1 - v_des), gains.a_long_max)


class DrivingForce(NamedTuple):
    """Feedback-linearizing rear driving force with its diagnostic terms."""

    F_R: float
    iota: float
    a1: float
    a2: float


def driving_force(a_des: float, gamma: float, gamma_dot: float,
                  gamma_ddot: float, sigma1: float,
                  params: VehicleParams) -> DrivingForce:
    """Rear-wheel-drive force for which models.speed_rate gives a_des.

    F_R = m1*((1 + iota)*a_des + a1 + a2); iota and a1, a2 quantify how far
    the exact inverse is from the naive F_R = m1*a_des.
    """
    if abs(gamma) >= 0.5 * math.pi - 1e-9:
        raise SteeringSingularity(f"|gamma| = {abs(gamma):.9f} rad")
    m1, m2, J_F, l = params.m1, params.m2, params.J_F, params.l
    t = math.tan(gamma)
    cg = math.cos(gamma)
    iota = m2 / m1 * t * t
    a1 = m2 / m1 * math.sin(gamma) / cg ** 3 * gamma_dot * sigma1
    a2 = J_F / (m1 * l) * gamma_ddot * t
    return DrivingForce(m1 * ((1.0 + iota) * a_des + a1 + a2), iota, a1, a2)


class SteerCommand(NamedTuple):
    """Steering command, its split and derivatives, and (s', e', theta')."""

    gamma_des: float
    gamma_ff: float
    gamma_fb: float
    gamma_dot: float = 0.0
    gamma_ddot: float = 0.0
    rates: tuple[float, float, float] = (0.0, 0.0, 0.0)


def steer_derivative_chain(s: float, e: float, theta: float, speed: float,
                           speed_dot: float, profile: CurvatureProfile,
                           gains: ControlGains, gamma_sat: float,
                           params: VehicleParams) -> SteerCommand:
    """Steering command, its first two time derivatives and path-frame rates.

    Differentiates gamma = arctan(kappa(s)*l) + g2(k1*(theta + arctan(k2*e)))
    through the path-frame kinematics; curvature derivatives come from the
    profile's closed forms. gamma_sat is treated as a constant here (it is
    refreshed from the current speed by the caller between evaluations).
    speed_dot is the instantaneous sigma1' (zero for constrained speed).
    """
    l = params.l
    k1, k2 = gains.k1, gains.k2
    kappa = profile.kappa(s)
    kp = profile.kappa_prime(s)
    kpp = profile.kappa_second(s)

    gamma_ff = math.atan(kappa * l)
    fb1 = k1 * (theta + math.atan(k2 * e))
    gamma_fb = _saturate(fb1, gamma_sat)
    gamma = gamma_ff + gamma_fb
    tg = math.tan(gamma)
    sdot, edot, thetadot = rates(kappa, e, theta, speed, tg, l)

    kdot = kp * sdot
    den_e = 1.0 + (k2 * e) ** 2
    fb1_dot = k1 * (thetadot + k2 * edot / den_e)
    den_ff = 1.0 + (l * kappa) ** 2
    c = math.pi / (2.0 * gamma_sat)
    den_fb = 1.0 + (c * fb1) ** 2
    gamma_dot = l * kdot / den_ff + fb1_dot / den_fb

    one = 1.0 - kappa * e
    ct, st = math.cos(theta), math.sin(theta)
    cg = math.cos(gamma)
    sddot = (speed_dot * ct - speed * thetadot * st) / one \
        + speed * ct * (edot * kappa + e * kdot) / one ** 2
    eddot = speed_dot * st + speed * thetadot * ct
    thetaddot = (speed_dot * tg / l
                 + speed * gamma_dot / (l * cg * cg)
                 - speed * kappa * ct * (edot * kappa + e * kdot) / one ** 2
                 - (speed_dot * kappa * ct + speed * kdot * ct
                    - speed * kappa * thetadot * st) / one)
    kddot = kp * sddot + kpp * sdot * sdot
    fb1_ddot = k1 * (thetaddot
                     + (k2 * eddot * den_e - 2.0 * k2 ** 3 * e * edot ** 2)
                     / den_e ** 2)
    gamma_ddot = ((l * kddot * den_ff - 2.0 * l ** 3 * kappa * kdot ** 2)
                  / den_ff ** 2
                  + (fb1_ddot * den_fb - 2.0 * c * c * fb1 * fb1_dot ** 2)
                  / den_fb ** 2)
    return SteerCommand(gamma, gamma_ff, gamma_fb, gamma_dot, gamma_ddot,
                        (sdot, edot, thetadot))
