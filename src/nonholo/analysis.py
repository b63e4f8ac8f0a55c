"""Linearized closed loops, stability criteria, and model-equivalence checks.

The linearizations are taken about the perfect-tracking motion on a path of
constant curvature kappa_star. Coefficient matrices are validated in the test
suite against central finite differences of the nonlinear closed-loop
right-hand sides, which also arbitrates the printed-coefficient ambiguities
noted in the decisions ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (DegenerateEquilibrium, GuardTripped, LagrangeSingularity,
                     ModelGuardError, SingularEncounter)
from .models import DriveInput, Variant, eom_floats
from .params import ControlGains, VehicleParams
from .sim import integrate


@dataclass(frozen=True)
class LinearModel:
    """x' = A x + B w with named states and disturbance inputs."""

    A: np.ndarray
    B: np.ndarray
    states: tuple[str, ...]
    inputs: tuple[str, ...] = ()

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.A)


@dataclass(frozen=True)
class StabilityVerdict:
    eigenvalues: tuple[complex, ...]
    stable: bool
    criterion_stable: bool

    @property
    def agree(self) -> bool:
        return self.stable == self.criterion_stable


def _kinematic_matrices(kappa_star: float, V: float, l: float,
                        k1, k2) -> np.ndarray:
    """The (e, theta) matrices [[0, V], [a_e, a_th]] of the kinematic loop.

    ``k1`` and ``k2`` may be arrays of one shape; the matrices are then
    stacked on their leading axes, as ``np.linalg.eigvals`` takes them.
    """
    k1, k2 = np.asarray(k1, dtype=float), np.asarray(k2, dtype=float)
    one = 1.0 + kappa_star ** 2 * l ** 2
    A = np.zeros(np.broadcast_shapes(k1.shape, k2.shape) + (2, 2))
    A[..., 0, 1] = V
    A[..., 1, 0] = V / l * (k1 * k2 * one - kappa_star ** 2 * l)
    A[..., 1, 1] = V / l * k1 * one
    return A


def linearize_kinematic(kappa_star: float, V: float, l: float,
                        k1: float, k2: float,
                        full: bool = False) -> LinearModel:
    """Lateral error dynamics of the kinematic closed loop.

    Returns the 2x2 (e, theta) block by default, or the 3-state form with the
    longitudinal row when ``full``. The disturbance matrix is identically
    zero: curvature perturbations do not enter the linearized error dynamics,
    so the loop tracks varying-curvature paths exactly.
    """
    A2 = _kinematic_matrices(kappa_star, V, l, k1, k2)
    if not full:
        return LinearModel(A2, np.zeros((2, 1)), ("e", "theta"), ("kappa",))
    A = np.zeros((3, 3))
    A[0, 1] = V * kappa_star
    A[1:, 1:] = A2
    return LinearModel(A, np.zeros((3, 1)), ("s", "e", "theta"), ("kappa",))


def _routh_hurwitz_bound(kappa_star: float, l: float) -> float:
    """The stability boundary k1*k2 = bound of the kinematic lateral loop."""
    return kappa_star ** 2 * l / (1.0 + kappa_star ** 2 * l ** 2)


def routh_hurwitz_kinematic(kappa_star: float, l: float, k1, k2):
    """Closed-form stability condition of the kinematic lateral loop.

    ``k1`` and ``k2`` may be arrays; the verdict is then elementwise.
    """
    return (k1 < 0.0) & (k1 * k2 < _routh_hurwitz_bound(kappa_star, l))


def kinematic_stability(kappa_star: float, V: float, l: float,
                        k1: float, k2: float) -> StabilityVerdict:
    model = linearize_kinematic(kappa_star, V, l, k1, k2)
    eig = model.eigenvalues()
    return StabilityVerdict(tuple(eig), bool(np.max(eig.real) < 0.0),
                            routh_hurwitz_kinematic(kappa_star, l, k1, k2))


def stability_grid(k1_values, k2_values, kappa_star: float, V: float, l: float,
                   boundary_band: float = 1e-8):
    """Sweep (k1, k2); returns rows (k1, k2, criterion, max_real, agree, near).

    k1 varies slowest. All matrices go to one batched eigenvalue call.
    Points within ``boundary_band`` of the closed-form stability boundary are
    flagged ``near`` and excluded from agreement statistics by callers.
    """
    k1, k2 = (g.ravel() for g in np.meshgrid(
        np.asarray(k1_values, dtype=float), np.asarray(k2_values, dtype=float),
        indexing="ij"))
    eig = np.linalg.eigvals(_kinematic_matrices(kappa_star, V, l, k1, k2))
    max_real = eig.real.max(axis=1)
    criterion = routh_hurwitz_kinematic(kappa_star, l, k1, k2)
    near = (np.abs(k1) < boundary_band) | (
        np.abs(k1 * k2 - _routh_hurwitz_bound(kappa_star, l)) < boundary_band)
    return list(zip(k1.tolist(), k2.tolist(), criterion.tolist(),
                    max_real.tolist(), ((max_real < 0.0) == criterion).tolist(),
                    near.tolist()))


def linearize_steering(kappa_star: float, V: float, params: VehicleParams,
                       gains: ControlGains) -> LinearModel:
    """Lateral loop with steering-torque dynamics: states (e, theta, gamma, sigma2).

    Disturbance inputs are (kappa, kappa_prime); look-ahead only changes the
    disturbance matrix, adding the V*t_L*kappa_prime feedthrough.
    """
    l, J_F = params.l, params.J_F
    k1, k2, k_s = gains.k1, gains.k2, gains.k_s
    one = 1.0 + kappa_star ** 2 * l ** 2
    A = np.array([
        [0.0, V, 0.0, 0.0],
        [-V * kappa_star ** 2, 0.0, V / l * one, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-k_s * k1 * k2 / J_F, -k_s * k1 / J_F, k_s / J_F, -V / l * one],
    ])
    gain_k = -k_s * l / (J_F * one)
    B = np.array([
        [0.0, 0.0],
        [-V, 0.0],
        [0.0, 0.0],
        [gain_k, gain_k * V * gains.t_L],
    ])
    return LinearModel(A, B, ("e", "theta", "gamma", "sigma2"),
                       ("kappa", "kappa_prime"))


def linearize_longitudinal(kappa_star: float, params: VehicleParams,
                           gains: ControlGains) -> LinearModel:
    """Coupled lateral/longitudinal loop about the curvature-limited speed.

    The equilibrium speed is sqrt(a_lat_max/|kappa_star|); it must not
    saturate at v_max, so kappa_star = 0 (and any curvature low enough to cap
    the target speed) has no such equilibrium.
    """
    if kappa_star == 0.0:
        raise DegenerateEquilibrium(
            "kappa_star = 0: target speed saturates at v_max")
    sigma_star = math.sqrt(gains.a_lat_max / abs(kappa_star))
    if sigma_star > gains.v_max:
        raise DegenerateEquilibrium(
            f"target speed {sigma_star:.3f} m/s saturates at v_max = "
            f"{gains.v_max:.3f} m/s")
    l = params.l
    k1, k2, k_a = gains.k1, gains.k2, gains.k_a
    one = 1.0 + kappa_star ** 2 * l ** 2
    A = np.array([
        [0.0, sigma_star * kappa_star, 0.0, 1.0],
        [0.0, 0.0, sigma_star, 0.0],
        [0.0, sigma_star / l * (k1 * k2 * one - kappa_star ** 2 * l),
         sigma_star / l * k1 * one, 0.0],
        [0.0, 0.0, 0.0, k_a],
    ])
    # d v_des / d kappa_m = -sigma_star / (2 |kappa_star|)
    B = np.zeros((4, 1))
    B[3, 0] = k_a * sigma_star / (2.0 * abs(kappa_star))
    return LinearModel(A, B, ("s", "e", "theta", "sigma1"), ("kappa_m",))


# -- cross-model equivalence ------------------------------------------------

@dataclass(frozen=True)
class EquivalenceScenario:
    """Open-loop input signals and initial speed for an equivalence run; the
    pose starts at the origin."""

    duration: float
    dt: float
    sigma1_0: float = 15.0
    gamma_fn: Callable[[float], tuple[float, float, float]] = \
        field(default=lambda t: (0.0, 0.0, 0.0))
    F_R_fn: Callable[[float], float] = field(default=lambda t: 0.0)
    F_F_fn: Callable[[float], float] = field(default=lambda t: 0.0)


def _sine_steer(amp: float, omega: float, offset: float = 0.0):
    def fn(t: float):
        return (offset + amp * math.sin(omega * t),
                amp * omega * math.cos(omega * t),
                -amp * omega ** 2 * math.sin(omega * t))
    return fn


DEFAULT_SCENARIOS = {
    "skate_wheel": EquivalenceScenario(
        duration=10.0, dt=1e-3, sigma1_0=15.0,
        gamma_fn=_sine_steer(0.3, 0.5),
        F_R_fn=lambda t: 300.0 + 200.0 * math.sin(0.3 * t),
        F_F_fn=lambda t: 100.0 * math.cos(0.7 * t)),
    "appell_lagrange": EquivalenceScenario(
        duration=10.0, dt=1e-3, sigma1_0=15.0,
        gamma_fn=_sine_steer(0.15, 0.5, offset=0.3),
        F_R_fn=lambda t: 200.0 + 100.0 * math.sin(0.4 * t)),
    "alt_pseudo": EquivalenceScenario(
        duration=10.0, dt=1e-3, sigma1_0=15.0,
        gamma_fn=_sine_steer(0.4, 0.6),
        F_R_fn=lambda t: 250.0 + 150.0 * math.sin(0.45 * t),
        F_F_fn=lambda t: 80.0 * math.sin(0.9 * t)),
}

# each pair's other variant, its tolerance and the maps of sigma1 to its
# speed state and back at steering angle gamma; the wheel model shares sigma1
_PAIRS = {
    "skate_wheel": (Variant.WHEEL_TORQUE, 1e-9, None, None),
    "appell_lagrange": (Variant.SKATE_FORCE_LAGRANGE, 1e-6,
                        lambda s1, g, l: s1 * math.tan(g) / l,
                        lambda s1b, g, l: s1b * l / math.tan(g)),
    "alt_pseudo": (Variant.SKATE_FORCE_ALT_PSEUDO, 1e-9,
                   lambda s1, g, l: s1 / math.cos(g),
                   lambda s1h, g, l: s1h * math.cos(g)),
}


@dataclass(frozen=True)
class EquivalenceReport:
    pair: str
    max_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tol


def _integrate_open_loop(other: Variant, base0, other0,
                         sc: EquivalenceScenario, params: VehicleParams):
    """Integrate SKATE_FORCE from ``base0`` and ``other`` from ``other0`` as
    one joined state; returns the two halves' (n + 1, len) state arrays.
    A wheel model is driven by the torques T = r*F of the reference's forces.

    The drive inputs are built once per stage time for both halves. The RK4
    step does each component's arithmetic on its own, so each half equals
    its separate run bit for bit. A guard or a non-finite state stops only
    its own half, which is then reported, SKATE_FORCE's first. The
    yaw-rate form's guard also trips where gamma changes sign between
    consecutive stage times, so that no step goes through gamma = 0.
    """
    r, n = params.r, len(base0)
    ref, lagrange = Variant.SKATE_FORCE, Variant.SKATE_FORCE_LAGRANGE
    nan_ref, nan_other = [math.nan] * n, [math.nan] * len(other0)
    guards = [None, None]   # the guard that stopped each half, if any
    last = [math.nan]   # the Lagrange half's gamma at the previous stage

    @lru_cache(maxsize=1)   # stage 3 reuses stage 2's t, stage 1 mostly 4's
    def drive(t):
        g, gd, gdd = sc.gamma_fn(t)
        fr, ff = sc.F_R_fn(t), sc.F_F_fn(t)
        u = DriveInput(g, gd, gdd, fr, ff)
        if other.wheel:
            return u, DriveInput(g, gd, gdd, 0.0, 0.0, r * fr, r * ff)
        return u, u

    def half(i, variant, y, u, nan):
        # a half that diverged or hit a guard carries NaN on, reported below
        if not all(map(math.isfinite, y)):
            return nan
        try:
            dy = eom_floats(variant, y, u, params)
            if variant is lagrange:
                g0, last[0] = last[0], u.gamma
                if g0 * u.gamma < 0.0:
                    raise LagrangeSingularity(
                        f"gamma changes sign from {g0:.3e} to {u.gamma:.3e} "
                        "between stage times: yaw-rate pseudo-velocity is "
                        "singular at 0")
            return dy
        except ModelGuardError as exc:
            guards[i] = exc
            return nan

    def rhs(t, y):
        u_ref, u_other = drive(t)
        return (half(0, ref, y[:n], u_ref, nan_ref)
                + half(1, other, y[n:], u_other, nan_other))

    _, out = integrate(rhs, list(base0) + list(other0), sc.dt, sc.duration)
    halves = out[:, :n], out[:, n:]
    for variant, states, guard in zip((ref, other), halves, guards):
        # row i + 1 is the state after the step that starts at t = i*dt
        bad = np.nonzero(~np.all(np.isfinite(states[1:]), axis=1))[0]
        if not len(bad):
            continue
        t = int(bad[0]) * sc.dt
        if guard is not None:
            raise SingularEncounter(
                f"{variant.value} hit a guard at t = {t:.4f} s: "
                f"{guard}") from GuardTripped(t, guard)
        raise SingularEncounter(
            f"{variant.value} diverged at t = {t:.4f} s "
            f"(state left its validity region)")
    return halves


def verify_equivalence(pair: str, params: VehicleParams,
                       scenario: EquivalenceScenario | None = None
                       ) -> EquivalenceReport:
    """Integrate an equivalent model pair and report the worst state deviation.

    Pairs: 'skate_wheel' (driving torques T = r*F reproduce the skate model),
    'appell_lagrange' (yaw-rate pseudo-velocity form, valid away from
    gamma = 0), 'alt_pseudo' (front-wheel-speed pseudo-velocity, regular
    across gamma = 0).
    """
    if pair not in _PAIRS:
        raise ValueError(f"unknown pair {pair!r}")
    sc = scenario or DEFAULT_SCENARIOS[pair]
    other, tol, to_other, to_sigma1 = _PAIRS[pair]
    base0 = [0.0, 0.0, 0.0, sc.sigma1_0]
    if other.wheel:   # the wheel angles ride along and sigma1 is shared
        ref, got = _integrate_open_loop(other, base0, base0 + [0.0, 0.0], sc,
                                        params)
        return EquivalenceReport(
            pair, float(np.max(np.abs(got[:, :4] - ref))), tol)

    # the steering angle at each committed sample, evaluated once
    n_steps = int(round(sc.duration / sc.dt))
    gammas = [sc.gamma_fn(k * sc.dt)[0] for k in range(n_steps + 1)]
    if other is Variant.SKATE_FORCE_LAGRANGE:
        # the yaw-rate form breaks down near gamma = 0 (cot gamma unbounded);
        # reject scenarios whose steering signal enters that band or steps
        # across it between two samples
        min_gamma = min(map(abs, gammas))
        if min_gamma < 1e-3:
            raise SingularEncounter(
                f"steering signal reaches |gamma| = {min_gamma:.2e}: "
                f"the yaw-rate pseudo-velocity form is singular at gamma = 0")
        k = next((k for k, (a, b) in enumerate(zip(gammas, gammas[1:]))
                  if a * b < 0.0), None)
        if k is not None:
            raise SingularEncounter(
                f"steering signal crosses gamma = 0 between t = "
                f"{k * sc.dt:.4f} s and {(k + 1) * sc.dt:.4f} s: the yaw-rate "
                f"pseudo-velocity form is singular at gamma = 0")
    other0 = base0[:3] + [to_other(sc.sigma1_0, gammas[0], params.l)]
    ref, got = _integrate_open_loop(other, base0, other0, sc, params)
    mapped = got.copy()
    mapped[:, 3] = [to_sigma1(s, g, params.l) for s, g in zip(got[:, 3], gammas)]
    return EquivalenceReport(pair, float(np.max(np.abs(mapped - ref))), tol)
