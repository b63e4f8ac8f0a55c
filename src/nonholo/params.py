"""Vehicle and controller parameters.

Defaults correspond to a compact passenger car (Kia Soul class). The skate
masses ``m_R``/``m_F`` are the *effective* masses: when modelling rigid
wheels of spin inertia I about a radius-r contact, the equivalent skate mass
is m0 + I/r**2, and the same combined masses m1, m2, m4 drive both model
families. The spin inertia has no field of its own: it is already in
``m_R``/``m_F``, and a second input would count it twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

GRAVITY = 9.81


@dataclass(frozen=True)
class VehicleParams:
    """Geometric, inertial and limit parameters of the single-track vehicle."""

    l: float = 2.57          # wheelbase [m]
    d: float = 1.54          # rear axle to centre of mass [m]
    m: float = 1770.0        # body mass [kg]
    m_R: float = 10.0        # effective rear skate/wheel mass [kg]
    m_F: float = 10.0        # effective front skate/wheel mass [kg]
    J_G: float = 1343.0      # body yaw inertia [kg m^2]
    J_R: float = 0.25        # rear wheel yaw inertia [kg m^2]
    J_F: float = 0.25        # front wheel yaw inertia [kg m^2]
    r: float = 0.32          # wheel radius [m]
    gamma_max: float = math.radians(30.0)  # physical steering limit [rad]

    def __post_init__(self):
        if not (self.l > self.d > 0.0):
            raise ValueError("require l > d > 0")
        for name in ("m", "m_R", "m_F", "J_G", "J_R", "J_F", "r"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    # Combined masses are computed once per instance. A frozen instance
    # cannot change and `replace` builds a new one, so they cannot go stale.
    @cached_property
    def m1(self) -> float:
        return self.m + self.m_R + self.m_F

    @cached_property
    def m2(self) -> float:
        return (self.J_G + self.m * self.d ** 2 + self.J_R + self.J_F
                + self.m_F * self.l ** 2) / self.l ** 2

    @cached_property
    def m4(self) -> float:
        return self.m_F + self.d / self.l * self.m


@dataclass(frozen=True)
class ControlGains:
    """Steering, torque and longitudinal controller parameters."""

    k1: float = -0.5          # heading-error gain (stable region: k1 < 0)
    k2: float = 0.02          # lateral-error gain [1/m] (stable region: k2 > 0)
    k_s: float = -6.0         # steering torque gain [N m]
    T_sat: float = 1.0        # steering torque bound [N m]
    k_a: float = -5.0         # speed-error gain [1/s]
    a_lat_max: float = 4.0    # lateral acceleration bound [m/s^2]
    a_long_max: float = 6.0   # longitudinal acceleration bound [m/s^2]
    v_max: float = 30.0       # speed cap [m/s]
    t_L: float = 0.0          # look-ahead time [s]
    preview_dist: float = 50.0  # preview distance for target speed [m]

    def __post_init__(self):
        for name in ("T_sat", "a_lat_max", "a_long_max", "v_max", "preview_dist"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.t_L < 0.0:
            raise ValueError("t_L must be non-negative")

