"""Nonholonomic single-track vehicle models and path-following control.

Closed-form bicycle models (skate and rigid-wheel contact, constrained or
force/torque-driven, assigned or torque steering), the transformation to
path coordinates, bounded nonlinear path-following and longitudinal
controllers, linearized stability analysis, and a scenario simulator.
"""

from types import ModuleType as _ModuleType

from .params import ControlGains, VehicleParams, GRAVITY
from .path import (CurvatureProfile, PathQuery, PathTable, build_path,
                   frame_rates, frame_rates_inverse, reconstruct_pose,
                   wrap_angle)
from .models import (ConstraintForces, DriveInput, Variant,
                     constraining_forces, constraint_residuals, eom_rhs)
from .pathframe import TrackPoint, pathframe_rhs
from .control import (DrivingForce, SteerCommand, WrapperSpec, driving_force,
                      feedback_law, longitudinal_accel, preview_max_curvature,
                      steer_derivative_chain, steering_saturation,
                      steering_torque, target_speed, wrapper, wrapper_deriv)
from .analysis import (EquivalenceReport, EquivalenceScenario, LinearModel,
                       StabilityVerdict, kinematic_stability,
                       linearize_kinematic, linearize_longitudinal,
                       linearize_steering, routh_hurwitz_kinematic,
                       stability_grid, verify_equivalence)
from .sim import (FIGURES, Scenario, SimTrace, integrate, named_scenario,
                  run_scenario)

# the names imported above; importing them also binds their submodules
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
