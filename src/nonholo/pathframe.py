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

from .errors import TubeSingularity
from .models import Variant, DriveInput, eom_floats
from .params import VehicleParams
from .path import TUBE_EPS, PathTable

_SKATE = (Variant.SKATE_KINEMATIC, Variant.SKATE_FORCE,
          Variant.SKATE_TORQUE_STEER, Variant.SKATE_FORCE_TORQUE_STEER)


class TrackPoint(Enum):
    REAR_AXLE = "R"
    CENTER_OF_MASS = "G"


def rates(kappa: float, e: float, theta: float, speed: float,
          tan_gamma: float, l: float) -> tuple[float, float, float]:
    """Rear-axle path-frame rates (s', e', theta') shared by the skate models.

    Raises :class:`TubeSingularity` where 1 - kappa*e vanishes, i.e. with
    the rear axle at the path's centre of curvature.
    """
    one = 1.0 - kappa * e
    if abs(one) < TUBE_EPS:
        raise TubeSingularity(f"1 - kappa*e = {one:.3e}")
    sd = speed * math.cos(theta) / one
    return sd, speed * math.sin(theta), speed * tan_gamma / l - kappa * sd


def pathframe_rhs(variant: Variant, point: TrackPoint, state,
                  u: DriveInput, path: PathTable, params: VehicleParams,
                  V: float | None = None,
                  a_des: float | None = None) -> np.ndarray:
    """Right-hand side of the path-frame equations for the skate variants.

    ``a_des`` switches the force-driven variant to its feedback-linearized
    longitudinal form sigma1' = a_des (the driving force that realizes it is
    computed by the control module).
    """
    if variant not in _SKATE:
        raise ValueError(f"path-frame form implemented for skate variants only, "
                         f"got {variant.value}")
    y = np.asarray(state, dtype=float).tolist()
    # the speed and steering rows do not depend on x_G, y_G or psi; this call
    # also checks the inputs, the state length, V and the steering guard
    rows = eom_floats(variant, [0.0, 0.0, *y[2:]], u, params, V)[3:]
    if a_des is not None and variant is Variant.SKATE_FORCE:
        rows = [a_des]
    s, e, theta = y[:3]
    kappa = path.kappa_at(s)
    t = math.tan(y[3] if variant.torque_steer else u.gamma)
    sp = V if variant.constrained_speed else y[4 if variant.torque_steer else 3]
    l = params.l
    if point is TrackPoint.REAR_AXLE:
        return np.array([*rates(kappa, e, theta, sp, t, l), *rows])

    one = 1.0 - kappa * e
    if abs(one) < TUBE_EPS:
        raise TubeSingularity(f"1 - kappa*e = {one:.3e} at s = {s:.3f}")
    d = params.d
    sd = sp * (math.cos(theta) - d / l * t * math.sin(theta)) / one
    ed = sp * (math.sin(theta) + d / l * t * math.cos(theta))
    return np.array([sd, ed, sp * t / l - kappa * sd, *rows])
