"""Exception types shared across the toolkit.

Guard exceptions signal a model-validity breach (the closed-form equations
stop describing the physical system), not a numerical bug.
"""


class NonholoError(Exception):
    """Base class for all toolkit errors."""


class ModelGuardError(NonholoError):
    """A model left its validity region (singular configuration reached)."""


class SteeringSingularity(ModelGuardError):
    """|gamma| reached pi/2 where tan(gamma) blows up."""


class LagrangeSingularity(ModelGuardError):
    """gamma reached 0 where the yaw-rate pseudo-velocity form is singular."""


class TubeSingularity(ModelGuardError):
    """1 - kappa*e crossed zero: the point sits at the path's curvature center."""


class NonClosure(NonholoError):
    """A nominally closed path missed its start point beyond tolerance."""


class AmbiguousProjection(NonholoError):
    """Two distinct path points are equidistant from the query point."""


class DegenerateEquilibrium(NonholoError):
    """Longitudinal equilibrium undefined (target speed saturates)."""


class SingularEncounter(NonholoError):
    """An equivalence run hit a singularity guard of one of its members."""


class GuardTripped(NonholoError):
    """A guard fired during integration; carries the offending time."""

    def __init__(self, time: float, cause: Exception):
        super().__init__(
            f"guard tripped at t={time:.6f} s: {type(cause).__name__}: {cause}")
        self.time = time
        self.cause = cause

    def __reduce__(self):
        return (GuardTripped, (self.time, self.cause))


class ConfigError(NonholoError):
    """Scenario configuration is malformed; message names the offending key."""
