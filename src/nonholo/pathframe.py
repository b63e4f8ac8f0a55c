"""Skate models rewritten in path coordinates (s, e, theta).

The transformed equations track either the rear axle centre point R (exact
tracking of curved paths is possible there) or the centre of mass G (for
which the lateral and yaw errors cannot vanish simultaneously on a curve).
Curvature is looked up from the path table at the current arc length, so the
equations stay valid for arbitrary varying-curvature paths.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import SteeringSingularity, TubeSingularity
from .models import Variant, DriveInput
from .params import VehicleParams
from .path import TUBE_EPS, PathTable

_SKATE_REL = {
    Variant.SKATE_KINEMATIC: 3,
    Variant.SKATE_FORCE: 4,
    Variant.SKATE_TORQUE_STEER: 5,
    Variant.SKATE_FORCE_TORQUE_STEER: 6,
}

REL_FIELDS: dict[Variant, tuple[str, ...]] = {
    Variant.SKATE_KINEMATIC: ("s", "e", "theta"),
    Variant.SKATE_FORCE: ("s", "e", "theta", "sigma1"),
    Variant.SKATE_TORQUE_STEER: ("s", "e", "theta", "gamma", "sigma2"),
    Variant.SKATE_FORCE_TORQUE_STEER:
        ("s", "e", "theta", "gamma", "sigma1", "sigma2"),
}


class TrackPoint(Enum):
    REAR_AXLE = "R"
    CENTER_OF_MASS = "G"


def pathframe_rhs(variant: Variant, point: TrackPoint, state,
                  u: DriveInput, path: PathTable, params: VehicleParams,
                  V: float | None = None,
                  a_des: float | None = None) -> np.ndarray:
    """Right-hand side of the path-frame equations for the skate variants.

    ``a_des`` switches the force-driven variant to its feedback-linearized
    longitudinal form sigma1' = a_des (the driving force that realizes it is
    computed by the control module).
    """
    if variant not in _SKATE_REL:
        raise ValueError(f"path-frame form implemented for skate variants only, "
                         f"got {variant.value}")
    y = np.asarray(state, dtype=float)
    if len(y) != _SKATE_REL[variant]:
        raise ValueError(f"{variant.value} path-frame state has "
                         f"{_SKATE_REL[variant]} entries, got {len(y)}")
    u.validate_for(variant)
    s, e, theta = y[0], y[1], y[2]
    kappa = path.kappa_at(s)
    one = 1.0 - kappa * e
    if abs(one) < TUBE_EPS:
        raise TubeSingularity(f"1 - kappa*e = {one:.3e} at s = {s:.3f}")

    gamma = y[3] if variant.torque_steer else u.gamma
    if abs(gamma) >= 0.5 * math.pi - 1e-9:
        raise SteeringSingularity(f"|gamma| = {abs(gamma):.9f} rad")
    t = math.tan(gamma)
    cg = math.cos(gamma)
    l, d = params.l, params.d

    if variant is Variant.SKATE_KINEMATIC:
        sp = _require_V(variant, V)
    elif variant is Variant.SKATE_FORCE:
        sp = y[3]
    elif variant is Variant.SKATE_TORQUE_STEER:
        sp = _require_V(variant, V)
    else:
        sp = y[4]

    out = np.empty(len(y))
    if point is TrackPoint.REAR_AXLE:
        out[0] = sp * math.cos(theta) / one
        out[1] = sp * math.sin(theta)
        out[2] = sp * t / l - kappa * out[0]
    else:
        swing = math.cos(theta) - d / l * t * math.sin(theta)
        out[0] = sp * swing / one
        out[1] = sp * (math.sin(theta) + d / l * t * math.cos(theta))
        out[2] = sp * t / l - kappa * out[0]

    if variant is Variant.SKATE_KINEMATIC:
        return out

    m1, m2, J_F = params.m1, params.m2, params.J_F
    if variant is Variant.SKATE_FORCE:
        if a_des is not None:
            out[3] = a_des
        else:
            Pi1 = u.F_R + u.F_F / cg
            out[3] = (Pi1 - m2 * t / cg ** 2 * sp * u.gamma_dot
                      - J_F / l * u.gamma_ddot * t) / (m1 + m2 * t * t)
        return out

    if variant is Variant.SKATE_TORQUE_STEER:
        sigma2 = y[4]
        out[3] = sigma2
        out[4] = u.T_s / J_F - sp * sigma2 / (l * cg * cg)
        return out

    sigma1, sigma2 = y[4], y[5]
    Pi1 = u.F_R + u.F_F / cg
    m2r = m2 - J_F / params.l ** 2
    denom = m1 + m2r * t * t
    out[3] = sigma2
    out[4] = (Pi1 - m2r * t / cg ** 2 * sigma1 * sigma2 - u.T_s / l * t) / denom
    out[5] = (-Pi1 * t / l - m1 / (l * cg * cg) * sigma1 * sigma2
              + u.T_s / J_F * (m1 + m2 * t * t)) / denom
    return out


def _require_V(variant: Variant, V: float | None) -> float:
    if V is None or V <= 0.0:
        raise ValueError(f"{variant.value} needs constant speed V > 0")
    return V
