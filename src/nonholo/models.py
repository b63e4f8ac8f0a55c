"""Closed-form single-track vehicle models in absolute coordinates.

Ten variants are provided: eight primary models (skate vs rigid wheel,
constrained speed vs force/torque driven, assigned steering vs steering
torque), an alternate-pseudo-velocity form of the force-driven skate model
that is regular for every steering angle, and the yaw-rate form obtained by
the Lagrangian route, which is singular at gamma = 0.

All functions are pure; the kinematic no-slip constraints are solved exactly
by the closed forms, so constraint residuals evaluated on the returned
derivatives vanish to machine precision at any state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import LagrangeSingularity, SteeringSingularity
from .params import GRAVITY, VehicleParams

GAMMA_GUARD = 1e-9  # distance from the singular angle at which guards trip


class DriveInput(NamedTuple):
    """Inputs for one evaluation of the equations of motion.

    Only the fields relevant to the chosen variant may be non-zero; the
    assigned-steering force/torque-driven closed forms additionally need the
    first two derivatives of the steering command. A NamedTuple, since one
    is built per RK4 stage: it costs a quarter of a frozen dataclass.
    """

    gamma: float = 0.0
    gamma_dot: float = 0.0
    gamma_ddot: float = 0.0
    F_R: float = 0.0
    F_F: float = 0.0
    T_R: float = 0.0
    T_F: float = 0.0
    T_s: float = 0.0

    def validate_for(self, variant: Variant) -> None:
        if variant.forbidden_values(self) == variant.forbidden_zeros:
            return
        for name in variant.forbidden:   # name the first offender
            if getattr(self, name) != 0.0:
                raise ValueError(
                    f"input {name} is not used by {variant.value} and must be zero")


class Variant(Enum):
    """One row per model: its value, the state fields it integrates and the
    drive inputs it reads; any other input must stay zero.

    The flags follow from the states: a rigid-wheel model integrates the
    wheel angle phi_R, a torque-steered one the steering rate sigma2, and a
    constant-speed one has no sigma1 state. Each member carries them as
    attributes, which ``eom_floats`` reads on every call.
    """

    SKATE_KINEMATIC = "skate_kinematic", ("x_G", "y_G", "psi"), ("gamma",)
    SKATE_FORCE = ("skate_force", ("x_G", "y_G", "psi", "sigma1"),
                   ("gamma", "gamma_dot", "gamma_ddot", "F_R", "F_F"))
    SKATE_TORQUE_STEER = ("skate_torque_steer",
                          ("x_G", "y_G", "psi", "gamma", "sigma2"), ("T_s",))
    SKATE_FORCE_TORQUE_STEER = (
        "skate_force_torque_steer",
        ("x_G", "y_G", "psi", "gamma", "sigma1", "sigma2"), ("T_s", "F_R", "F_F"))
    WHEEL_KINEMATIC = ("wheel_kinematic",
                       ("x_G", "y_G", "psi", "phi_R", "phi_F"), ("gamma",))
    WHEEL_TORQUE = ("wheel_torque",
                    ("x_G", "y_G", "psi", "sigma1", "phi_R", "phi_F"),
                    ("gamma", "gamma_dot", "gamma_ddot", "T_R", "T_F"))
    WHEEL_TORQUE_STEER = (
        "wheel_torque_steer",
        ("x_G", "y_G", "psi", "gamma", "sigma2", "phi_R", "phi_F"), ("T_s",))
    WHEEL_TORQUE_TORQUE_STEER = (
        "wheel_torque_torque_steer",
        ("x_G", "y_G", "psi", "gamma", "sigma1", "sigma2", "phi_R", "phi_F"),
        ("T_s", "T_R", "T_F"))
    SKATE_FORCE_ALT_PSEUDO = (
        "skate_force_alt_pseudo", ("x_G", "y_G", "psi", "sigma1_hat"),
        ("gamma", "gamma_dot", "gamma_ddot", "F_R", "F_F"))
    SKATE_FORCE_LAGRANGE = (
        "skate_force_lagrange", ("x_G", "y_G", "psi", "sigma1_bar"),
        ("gamma", "gamma_dot", "gamma_ddot", "F_R", "F_F"))

    def __new__(cls, value: str, states: tuple[str, ...],
                inputs: tuple[str, ...]):
        member = object.__new__(cls)
        member._value_ = value
        member.states, member.inputs = states, inputs
        member.n_states = len(states)
        member.forbidden = tuple(name for name in DriveInput._fields
                                 if name not in inputs)
        # every variant forbids at least three inputs, so this returns a tuple
        member.forbidden_values = attrgetter(*member.forbidden)
        member.forbidden_zeros = (0.0,) * len(member.forbidden)
        member.wheel = "phi_R" in states
        member.torque_steer = "sigma2" in states
        member.constrained_speed = not any(name.startswith("sigma1")
                                           for name in states)
        return member


_ALT_PSEUDO = Variant.SKATE_FORCE_ALT_PSEUDO
_LAGRANGE = Variant.SKATE_FORCE_LAGRANGE


def _guard_gamma(gamma: float) -> None:
    if abs(gamma) >= 0.5 * math.pi - GAMMA_GUARD:
        raise SteeringSingularity(
            f"|gamma| = {abs(gamma):.9f} rad at the tan(gamma) singularity")


def speed_rate(Pi1: float, sigma1: float, tan_gamma: float, cos_gamma: float,
               gamma_dot: float, gamma_ddot: float,
               params: VehicleParams) -> float:
    """sigma1' of the force/torque-driven models with assigned steering."""
    m1, m2, t = params.m1, params.m2, tan_gamma
    return (Pi1 - m2 * t / (cos_gamma * cos_gamma) * sigma1 * gamma_dot
            - params.J_F / params.l * gamma_ddot * t) / (m1 + m2 * t * t)


def steer_rate(T_s: float, V: float, sigma2: float, cos_gamma: float,
               params: VehicleParams) -> float:
    """sigma2' of the constant-speed models driven by steering torque T_s."""
    return T_s / params.J_F - V * sigma2 / (params.l * cos_gamma * cos_gamma)


def eom_rhs(variant: Variant, state, u: DriveInput, params: VehicleParams,
            V: float | None = None) -> np.ndarray:
    """Right-hand side of the chosen model's equations of motion.

    ``state`` is ordered per ``variant.states``. Constrained-speed
    variants take the constant longitudinal speed ``V``; it is a parameter,
    never integrated.
    """
    return np.array(eom_floats(variant, np.asarray(state, dtype=float).tolist(),
                               u, params, V))


def eom_floats(variant: Variant, y, u: DriveInput, params: VehicleParams,
               V: float | None = None) -> list[float]:
    """The closed forms of :func:`eom_rhs` on a state of Python floats.

    Returns the derivative as a list. Integrators that keep their state as a
    list call this directly and skip the ndarray round trip per call.
    """
    u.validate_for(variant)
    if len(y) != variant.n_states:
        raise ValueError(
            f"{variant.value} expects {variant.n_states} states, got {len(y)}")
    if variant.constrained_speed:
        if V is None or V <= 0.0:
            raise ValueError(f"{variant.value} needs constant speed V > 0")
    l, d = params.l, params.d
    m1, m2 = params.m1, params.m2
    J_F = params.J_F
    psi = y[2]

    if variant is _ALT_PSEUDO:
        g_, s1h = u.gamma, y[3]
        cg, sg = math.cos(g_), math.sin(g_)
        cpsi, spsi = math.cos(psi), math.sin(psi)
        denom = m1 * cg * cg + m2 * sg * sg
        return [s1h * (cpsi * cg - d / l * spsi * sg),
                s1h * (spsi * cg + d / l * cpsi * sg),
                s1h * sg / l,
                (u.F_R * cg + u.F_F
                 + (m1 - m2) * s1h * u.gamma_dot * sg * cg
                 - J_F / l * u.gamma_ddot * sg) / denom]

    if variant is _LAGRANGE:
        g_, s1b = u.gamma, y[3]
        if abs(g_) <= GAMMA_GUARD:
            raise LagrangeSingularity(
                f"gamma = {g_:.3e}: yaw-rate pseudo-velocity is singular at 0")
        _guard_gamma(g_)
        t = math.tan(g_)
        cot = 1.0 / t
        cg = math.cos(g_)
        Pi1 = u.F_R + u.F_F / cg
        cpsi, spsi = math.cos(psi), math.sin(psi)
        return [(l * cpsi * cot - d * spsi) * s1b,
                (l * spsi * cot + d * cpsi) * s1b,
                s1b,
                (Pi1 * t / l
                 + m1 * u.gamma_dot * s1b / (math.sin(g_) * cg)
                 - J_F / l ** 2 * u.gamma_ddot * t * t) / (m1 + m2 * t * t)]

    # the eight primary variants share the planar kinematics block
    torque_steer = variant.torque_steer
    g_ = y[3] if torque_steer else u.gamma
    _guard_gamma(g_)
    t = math.tan(g_)
    cg = math.cos(g_)
    wheel = variant.wheel
    if variant.constrained_speed:
        sp = V
    else:
        sp = y[4] if torque_steer else y[3]

    cpsi, spsi = math.cos(psi), math.sin(psi)
    out = [sp * (cpsi - d / l * spsi * t),
           sp * (spsi + d / l * cpsi * t),
           sp * t / l]
    spin = [sp / params.r, sp / (params.r * cg)] if wheel else []

    if variant.constrained_speed:
        if torque_steer:
            sigma2 = y[4]
            out += [sigma2, steer_rate(u.T_s, V, sigma2, cg, params)]
        return out + spin

    # force/torque driven: sigma1 is sp for both kinds of steering
    Pi1 = (u.T_R + u.T_F / cg) / params.r if wheel else u.F_R + u.F_F / cg
    if not torque_steer:
        out.append(speed_rate(Pi1, sp, t, cg, u.gamma_dot, u.gamma_ddot,
                              params))
        return out + spin

    # force/torque driven with steering torque
    sigma2 = y[5]
    m2r = m2 - J_F / l ** 2
    denom = m1 + m2r * t * t
    out += [sigma2,
            (Pi1 - m2r * t / cg ** 2 * sp * sigma2
             - u.T_s / l * t) / denom,
            (-Pi1 * t / l - m1 / (l * cg * cg) * sp * sigma2
             + u.T_s / J_F * (m1 + m2 * t * t)) / denom]
    return out + spin


def constraint_residuals(variant: Variant, state, derivative, u: DriveInput,
                         params: VehicleParams,
                         V: float | None = None) -> np.ndarray:
    """Left-hand sides of the kinematic constraints for the given derivative.

    Two lateral no-slip rows for every variant, a constant-speed row for the
    constrained-speed variants, two rolling rows for the wheel variants.
    """
    y = np.asarray(state, dtype=float)
    dy = np.asarray(derivative, dtype=float)
    g_ = y[3] if variant.torque_steer else u.gamma
    psi = y[2]
    xd, yd, pd = dy[0], dy[1], dy[2]
    l, d = params.l, params.d
    res = [
        xd * math.sin(psi) - yd * math.cos(psi) + d * pd,
        xd * math.sin(psi + g_) - yd * math.cos(psi + g_)
        - (l - d) * pd * math.cos(g_),
    ]
    if variant.constrained_speed:
        res.append(xd * math.cos(psi) + yd * math.sin(psi) - V)
    if variant.wheel:
        res.append(xd * math.cos(psi) + yd * math.sin(psi) - params.r * dy[-2])
        res.append(xd * math.cos(psi + g_) + yd * math.sin(psi + g_)
                   + (l - d) * pd * math.sin(g_) - params.r * dy[-1])
    return np.array(res)


@dataclass(frozen=True)
class ConstraintForces:
    """Lateral constraining forces at the contact points and their ratios."""

    F_R_lat: float
    F_F_lat: float
    mu_R: float
    mu_F: float


def constraining_forces(sigma1: float, gamma: float, gamma_dot: float,
                        gamma_ddot: float, F_R: float, F_F: float,
                        params: VehicleParams) -> ConstraintForces:
    """Lateral forces that realize the no-slip constraints (skate force model).

    The force-to-weight ratios mu normalize by the static axle loads and
    approximate the friction demanded to keep rolling without sliding.
    """
    _guard_gamma(gamma)
    l, d = params.l, params.d
    m1, m2, m4 = params.m1, params.m2, params.m4
    t = math.tan(gamma)
    cg = math.cos(gamma)
    Pi1 = F_R + F_F / cg
    D = m1 + m2 * t * t
    J_F = params.J_F

    Ftil_R = (-(m2 - m4) * t / D * Pi1
              + (m1 - m4) * sigma1 ** 2 / l * t
              + m4 * sigma1 * gamma_dot / cg ** 2
              - (m1 + m4 * t * t) / D
              * (m2 * sigma1 * gamma_dot / cg ** 2 + J_F / l * gamma_ddot))
    Ftil_F = ((m2 * F_R * t / cg + (m2 - m1) * F_F * t
               + m1 * m2 * sigma1 * gamma_dot / cg ** 3
               + m1 * J_F / l * gamma_ddot / cg) / D
              + m4 * sigma1 ** 2 * t / (l * cg))
    mu_R = Ftil_R * l / (m1 * GRAVITY * (l - d))
    mu_F = Ftil_F * l / (m1 * GRAVITY * d)
    return ConstraintForces(Ftil_R, Ftil_F, mu_R, mu_F)

