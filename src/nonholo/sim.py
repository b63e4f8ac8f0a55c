"""Fixed-step simulation of (model, controller, path) combinations.

The closed loop is integrated with classical fourth-order Runge-Kutta; the
controller is a pure function of the state and is evaluated inside every
stage, so invariant manifolds of the continuous closed loop (exact tracking
of the kinematic model) are preserved by the integrator. Traces are fully
deterministic given (scenario, dt).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from .control import (LAWS, WrapperSpec, feedback_law, preview_max_curvature,
                      steering_saturation, steering_torque)
from .errors import (GuardTripped, ModelGuardError, SteeringSingularity,
                     TubeSingularity)
from .models import GAMMA_GUARD, Variant, steer_rate
from .params import GRAVITY, ControlGains, VehicleParams
from .path import TUBE_EPS, CurvatureProfile, PathTable, build_path, write_csv
from .pathframe import rates

# the model each controller mode's closed loop integrates
MODE_MODELS = {
    "none": Variant.SKATE_KINEMATIC,
    "steer_only": Variant.SKATE_KINEMATIC,
    "steer_torque": Variant.SKATE_TORQUE_STEER,
    "steer_longitudinal": Variant.SKATE_FORCE,
}
MODES = tuple(MODE_MODELS)

# the vehicle, gain, controller and sim keys, by the object that holds them
VEHICLE_KEYS = tuple(f.name for f in fields(VehicleParams))
GAIN_KEYS = tuple(f.name for f in fields(ControlGains))
CONTROLLER_KEYS = ("mode", "law", "wrapper_n")   # besides the gains
SIM_KEYS = ("dt", "duration", "V", "e0", "theta0", "s0", "gamma0", "sigma2_0")

# the keys each mode's loop, _build_table and run_scenario read; the config
# rejects the others, and a Scenario holds them at their defaults
_EVERY_MODE = ("l", "d", "mode", "dt", "duration", "V", "e0", "theta0", "s0")
_STEERING = (*_EVERY_MODE, "gamma_max", "k1", "k2", "a_lat_max")
MODE_READS = {
    "none": frozenset(_EVERY_MODE),
    "steer_only": frozenset((*_STEERING, "law", "wrapper_n")),
    "steer_torque": frozenset((*_STEERING, "law", "wrapper_n", "J_F", "k_s",
                               "T_sat", "t_L", "gamma0", "sigma2_0")),
    "steer_longitudinal": frozenset((*_STEERING, "m", "m_R", "m_F", "J_G",
                                     "J_R", "J_F", "a_long_max", "k_a",
                                     "v_max", "preview_dist")),
}

# a run peaks near 375-440 bytes a step (fig20 at 60k and 600k steps with
# its CSV and SVG), about 0.8 GB at the cap
STEPS_MAX = 2_000_000

TRACE_COLUMNS = (
    "t", "x_G", "y_G", "psi", "gamma", "sigma1", "sigma2",
    "s_C", "e_C", "theta_C", "gamma_des", "gamma_ff", "gamma_fb",
    "T_s", "F_R", "a_des", "v_des", "a_lat", "iota", "a1", "a2",
    "mu_R", "mu_F", "resid_max",
)


@dataclass(frozen=True)
class Scenario:
    """A full simulation setup; see :func:`named_scenario` for the figures."""

    name: str
    profile: CurvatureProfile
    mode: str
    duration: float
    dt: float = 1e-3
    V: float = 20.0      # speed at t = 0, held in the constant-speed modes
    e0: float = 0.0
    theta0: float = 0.0
    s0: float = 0.0
    gamma0: float = 0.0
    sigma2_0: float = 0.0
    path_length: float | None = None
    path_step: float = 0.1
    params: VehicleParams = field(default_factory=VehicleParams)
    gains: ControlGains = field(default_factory=ControlGains)
    law: str = "wrapped"
    wrapper_n: int = 2

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("key 'dt': must be positive")
        n = self.duration / self.dt
        if not (0.5 <= n < math.inf and abs(n - round(n)) <= 1e-9 * n):
            raise ValueError(f"key 'duration': {self.duration:g} s is not a "
                             f"whole number of dt = {self.dt:g} s steps")
        if n > STEPS_MAX:
            # as build_path does: blame a dt below the default, else duration
            key = "dt" if self.dt < 1e-3 else "duration"
            raise ValueError(f"key '{key}': {self.duration:g} s at dt = "
                             f"{self.dt:g} s is more than {STEPS_MAX} steps")
        if self.mode not in MODES:
            raise ValueError(f"key 'mode': unknown mode {self.mode!r}")
        if self.law not in LAWS:
            raise ValueError(f"key 'law': {self.law!r} is not one of {LAWS}")
        try:
            WrapperSpec(self.wrapper_n, 1.0)
        except ValueError as exc:
            raise ValueError(f"key 'wrapper_n': {exc}") from exc
        for holder, keys in ((self.params, VEHICLE_KEYS),
                             (self.gains, GAIN_KEYS),
                             (self, CONTROLLER_KEYS + SIM_KEYS)):
            for f in fields(holder):
                if (f.name in keys and f.name not in self.reads
                        and getattr(holder, f.name) != f.default):
                    law = f" under law {self.law}" \
                        if f.name in MODE_READS[self.mode] else ""
                    raise ValueError(f"key '{f.name}': {self.mode} does not "
                                     f"read it{law}, so it must stay {f.default!r}")
        kappa0 = self.profile.kappa(self.s0)
        if abs(kappa0 * self.e0) >= 1.0:
            raise ValueError("initial state outside the curvature tube")

    @property
    def reads(self) -> frozenset[str]:
        """``MODE_READS[mode]``, less what only the wrapped law reads."""
        reads = MODE_READS[self.mode]
        if "law" in reads and self.law != "wrapped":
            return reads - {"gamma_max", "a_lat_max", "wrapper_n"}
        return reads

    @property
    def variant(self) -> Variant:
        """The model the controller mode integrates; see ``MODE_MODELS``."""
        return MODE_MODELS[self.mode]


class SimTrace:
    """Time-indexed log of states, commands and diagnostics."""

    def __init__(self, data: dict[str, np.ndarray | None]):
        self.data = data
        for name in TRACE_COLUMNS:
            data.setdefault(name, None)

    def __getitem__(self, name: str) -> np.ndarray:
        col = self.data[name]
        if col is None:
            raise KeyError(f"column {name} not recorded for this scenario")
        return col

    def has(self, name: str) -> bool:
        return self.data.get(name) is not None

    @property
    def t(self) -> np.ndarray:
        return self.data["t"]

    def to_csv(self, path) -> None:
        write_csv(path, TRACE_COLUMNS, [self.data[n] for n in TRACE_COLUMNS])

    def summary(self) -> dict[str, float]:
        e = self["e_C"]
        t = self.t
        out = {
            "rms_e": float(np.sqrt(np.mean(e ** 2))),
            "max_abs_e": float(np.max(np.abs(e))),
            "final_e": float(e[-1]),
        }
        tail = t >= t[-1] / 2.0
        out["rms_e_tail"] = float(np.sqrt(np.mean(e[tail] ** 2)))
        inside = np.abs(e) < 0.05
        if inside[-1]:
            idx = np.nonzero(~inside)[0]
            out["settle_time"] = float(t[idx[-1] + 1]) if len(idx) else 0.0
        else:
            out["settle_time"] = math.inf
        out["zero_crossings"] = count_zero_crossings(e)
        if self.has("a_lat"):
            out["peak_a_lat"] = float(np.max(np.abs(self["a_lat"])))
        return out


def count_zero_crossings(e) -> int:
    """Sign changes of a signal, ignoring values within 1e-9 of zero."""
    live = np.asarray(e)[np.abs(e) > 1e-9]
    if len(live) < 2:
        return 0
    return int(np.count_nonzero(np.diff(np.sign(live)) != 0))


_RK4 = """def step(rhs, t, y, h, a=None):
    [y#] = y
    [a#] = rhs(t, y) if a is None else a
    hh = 0.5 * h
    [b#] = rhs(t + hh, [y# + hh * a#])
    [c#] = rhs(t + hh, [y# + hh * b#])
    [d#] = rhs(t + h, [y# + h * c#])
    h6 = h / 6.0
    return [y# + h6 * (a# + 2.0 * b# + 2.0 * c# + d#)]
"""
_FORM = re.compile(r"\[(.*?)\]")


@cache
def _rk4_for(n: int):
    """The RK4 step for n states: ``_RK4`` with each [...] written out once
    per component, # standing for its index; generated on first use."""
    code = _FORM.sub(lambda m: "[" + ", ".join(
        m[1].replace("#", str(i)) for i in range(n)) + "]", _RK4)
    exec(code, namespace := {})
    return namespace["step"]


def rk4_step(rhs, t: float, y, h: float, a=None):
    """One RK4 step of a state sequence; ``a`` is rhs(t, y) if already known."""
    return _rk4_for(len(y))(rhs, t, y, h, a)


def integrate(rhs, y0, dt: float, duration: float, rows: bool = False):
    """Fixed-step RK4 over [0, duration]; returns (t, states) arrays.

    With ``rows``, ``rhs(t, y, True)`` must return ``(derivative, row)``
    and (t, states, rows) is returned: the row of each committed state is
    the one its RK4 stage 1 computed, plus one call at the final state.
    Model singularity guards raised by ``rhs`` are re-raised as
    :class:`GuardTripped` carrying the offending time.
    """
    n_steps = int(round(duration / dt))
    y = list(y0)
    step = _rk4_for(len(y))
    ts = np.empty(n_steps + 1)
    ys = np.empty((n_steps + 1, len(y)))
    ts[0] = 0.0
    ys[0] = y
    out = None
    try:
        for k in range(n_steps + 1):
            t = k * dt
            a = None
            if rows:
                a, row = rhs(t, y, True)
                if out is None:
                    out = np.empty((n_steps + 1, len(row)), order="F")
                out[k] = row
            if k == n_steps:
                break
            y = step(rhs, t, y, dt, a)
            ts[k + 1] = t + dt
            ys[k + 1] = y
    except ModelGuardError as exc:
        raise GuardTripped(t, exc) from exc
    return (ts, ys, out) if rows else (ts, ys)


# -- closed-loop right-hand sides -------------------------------------------

def _make_loop(sc: Scenario):
    """Build (y0, loop, columns) for the scenario's controller mode.

    ``loop(t, y)`` is the closed-loop derivative. ``loop(t, y, True)``
    returns ``(derivative, row)``, where row holds the trace diagnostics
    named by ``columns``, taken from the same controller evaluation.
    """
    prof = sc.profile
    params, gains = sc.params, sc.gains
    l = params.l
    fb = feedback_law(gains, sc.law, sc.wrapper_n)

    if sc.mode in ("none", "steer_only"):
        # constant-speed kinematic loop; mode none holds the wheel straight
        V = sc.V
        gsat = steering_saturation(V, gains, params)
        steer_off = sc.mode == "none"

        def kinematic(t, y, diag=False):
            s, e, th = y
            kap = prof.kappa(s)
            if steer_off:
                gff = gfb = 0.0
            else:
                gff = math.atan(kap * l)
                gfb = fb(e, th, gsat)
            gamma = gff + gfb
            dy = rates(kap, e, th, V, math.tan(gamma), l)
            if not diag:
                return dy
            return dy, (gamma, gamma, gff, gfb, V,
                        V * V * math.tan(gamma) / l)

        return [sc.s0, sc.e0, sc.theta0], kinematic, (
            "gamma", "gamma_des", "gamma_ff", "gamma_fb", "sigma1", "a_lat")

    if sc.mode == "steer_torque":
        V = sc.V
        gsat = steering_saturation(V, gains, params)
        t_L = gains.t_L

        def steer_torque(t, y, diag=False):
            s, e, th, g, s2 = y
            gff = math.atan(prof.kappa(s + V * t_L) * l)
            gfb = fb(e, th, gsat)
            gdes = gff + gfb
            T_s = steering_torque(g, gdes, gains)
            sd, ed, thd = rates(prof.kappa(s), e, th, V, math.tan(g), l)
            dy = (sd, ed, thd, s2,
                  steer_rate(T_s, V, s2, math.cos(g), params))
            if not diag:
                return dy
            return dy, (g, s2, gdes, gff, gfb, T_s, V,
                        V * V * math.tan(g) / l)

        return [sc.s0, sc.e0, sc.theta0, sc.gamma0, sc.sigma2_0], \
            steer_torque, ("gamma", "sigma2", "gamma_des", "gamma_ff",
                           "gamma_fb", "T_s", "sigma1", "a_lat")

    # steer_longitudinal: force-driven skate model, rear wheel drive,
    # feedback-linearizing force from the steering-derivative chain. One
    # stage inlines control.steering_saturation, target_speed,
    # longitudinal_accel, steer_derivative_chain (with pathframe.rates),
    # driving_force and models.speed_rate, and in its diagnostic row
    # models.constraining_forces, each expression in the operand order of
    # its source, so that it equals them bit for bit (tests/test_sim.py
    # holds it == to tests/oracles.composed_longitudinal_loop).
    kappa_of, kappa_prime, kappa_second = \
        prof.kappa, prof.kappa_prime, prof.kappa_second
    preview = gains.preview_dist
    k1, k2 = gains.k1, gains.k2
    gamma_max, v_max, a_lat_max = params.gamma_max, gains.v_max, gains.a_lat_max
    a_lat_l = gains.a_lat_max * l
    k_a, a_max = gains.k_a, gains.a_long_max
    c_a = math.pi / (2.0 * a_max)
    a_edge = math.nextafter(a_max, 0.0)
    two_k2_3, two_l_3 = 2.0 * k2 ** 3, 2.0 * l ** 3
    m1, m2, m4, J_F = params.m1, params.m2, params.m4, params.J_F
    m2_m1, JF_m1l, JF_l = m2 / m1, J_F / (m1 * l), J_F / l
    F_F = 0.0
    m24, m14, m21_F = -(m2 - m4), m1 - m4, (m2 - m1) * F_F
    m1m2, m1JF_l = m1 * m2, m1 * J_F / l
    mu_R_den = m1 * GRAVITY * (l - params.d)
    mu_F_den = m1 * GRAVITY * params.d
    gamma_guard = 0.5 * math.pi - GAMMA_GUARD

    def steer_longitudinal(t, y, diag=False):
        s, e, th, s1 = y
        # the steering bound, the speed schedule and a_des
        gsat = gamma_max if s1 <= 0.0 else \
            min(gamma_max, math.atan(a_lat_l / s1 ** 2))
        # preview_max_curvature is never negative
        kap_m = preview_max_curvature(prof, s, preview)
        v_des = v_max if kap_m == 0.0 else \
            min(v_max, math.sqrt(a_lat_max / kap_m))
        x = math.atan(c_a * (k_a * (s1 - v_des))) / c_a
        a_des = x if -a_max < x < a_max else math.copysign(a_edge, x)

        # the steering command and the rear-axle rates
        kappa = kappa_of(s)
        kp = kappa_prime(s)
        kpp = kappa_second(s)
        gff = math.atan(kappa * l)
        fb1 = k1 * (th + math.atan(k2 * e))
        c = math.pi / (2.0 * gsat)
        x = math.atan(c * fb1) / c
        gfb = x if -gsat < x < gsat else \
            math.copysign(math.nextafter(gsat, 0.0), x)
        g = gff + gfb
        tg = math.tan(g)
        one = 1.0 - kappa * e
        if abs(one) < TUBE_EPS:
            raise TubeSingularity(f"1 - kappa*e = {one:.3e}")
        ct, st = math.cos(th), math.sin(th)
        vct = s1 * ct
        sd = vct / one
        ed = s1 * st
        thd = s1 * tg / l - kappa * sd

        # its first and second time derivatives
        kdot = kp * sd
        den_e = 1.0 + (k2 * e) ** 2
        fb1_dot = k1 * (thd + k2 * ed / den_e)
        den_ff = 1.0 + (l * kappa) ** 2
        den_fb = 1.0 + (c * fb1) ** 2
        gd = l * kdot / den_ff + fb1_dot / den_fb
        cg = math.cos(g)
        q = ed * kappa + e * kdot
        one2 = one ** 2
        vthd, vk = s1 * thd, s1 * kappa
        sdd = (a_des * ct - vthd * st) / one + vct * q / one2
        edd = a_des * st + vthd * ct
        thdd = (a_des * tg / l
                + s1 * gd / (l * cg * cg)
                - vk * ct * q / one2
                - (a_des * kappa * ct + s1 * kdot * ct - vk * thd * st) / one)
        kdd = kp * sdd + kpp * sd * sd
        fb1_dd = k1 * (thdd + (k2 * edd * den_e - two_k2_3 * e * ed ** 2)
                       / den_e ** 2)
        gdd = ((l * kdd * den_ff - two_l_3 * kappa * kdot ** 2) / den_ff ** 2
               + (fb1_dd * den_fb - 2.0 * c * c * fb1 * fb1_dot ** 2)
               / den_fb ** 2)

        # the driving force that gives a_des, and the sigma1' row
        if abs(g) >= gamma_guard:
            raise SteeringSingularity(f"|gamma| = {abs(g):.9f} rad")
        cg3 = cg ** 3
        iota = m2_m1 * tg * tg
        a1 = m2_m1 * math.sin(g) / cg3 * gd * s1
        a2 = JF_m1l * gdd * tg
        F_R = m1 * ((1.0 + iota) * a_des + a1 + a2)
        m2t = m2 * tg
        D = m1 + m2t * tg
        dy = (sd, ed, thd,
              (F_R - m2t / (cg * cg) * s1 * gd - JF_l * gdd * tg) / D)
        if not diag:
            return dy

        # the lateral constraining forces behind mu_R and mu_F
        Pi1 = F_R + F_F / cg
        s1_2, cg2 = s1 ** 2, cg ** 2
        Ftil_R = (m24 * tg / D * Pi1
                  + m14 * s1_2 / l * tg
                  + m4 * s1 * gd / cg2
                  - (m1 + m4 * tg * tg) / D
                  * (m2 * s1 * gd / cg2 + JF_l * gdd))
        Ftil_F = ((m2 * F_R * tg / cg + m21_F * tg
                   + m1m2 * s1 * gd / cg3
                   + m1JF_l * gdd / cg) / D
                  + m4 * s1_2 * tg / (l * cg))
        return dy, (g, s1, g, gff, gfb, F_R, a_des, v_des, s1 * s1 * tg / l,
                    iota, a1, a2, Ftil_R * l / mu_R_den, Ftil_F * l / mu_F_den)

    return [sc.s0, sc.e0, sc.theta0, sc.V], steer_longitudinal, (
        "gamma", "sigma1", "gamma_des", "gamma_ff", "gamma_fb", "F_R",
        "a_des", "v_des", "a_lat", "iota", "a1", "a2", "mu_R", "mu_F")


def _build_table(sc: Scenario) -> PathTable:
    length = sc.path_length
    if length is None and sc.profile.kind == "straight":
        # the speed schedule may run up to v_max, above the initial speed
        speed = max(sc.V, sc.gains.v_max) \
            if sc.mode == "steer_longitudinal" else sc.V
        length = max(sc.s0, 0.0) + speed * sc.duration * 1.1 + 100.0
    return build_path(sc.profile, step=sc.path_step, length=length)


def run_scenario(sc: Scenario, table: PathTable | None = None) -> SimTrace:
    """Integrate the scenario and assemble the full diagnostic trace.

    Raises ValueError when s leaves an open table, where the pose could only
    be clamped, naming ``s0`` below its start and ``length`` past its end.
    """
    if table is None:
        table = _build_table(sc)
    y0, loop, columns = _make_loop(sc)
    ts, ys, rows = integrate(loop, y0, sc.dt, sc.duration, rows=True)
    diag = {name: rows[:, j] for j, name in enumerate(columns)}

    s_arr, e_arr, th_arr = ys[:, 0], ys[:, 1], ys[:, 2]
    lo, hi = float(np.min(s_arr)), float(np.max(s_arr))
    if not table.closed and (lo < table.s[0] or hi > table.s[-1]):
        key = "s0" if lo < table.s[0] else "length"
        raise ValueError(
            f"key '{key}': the run reaches s = {lo:g}..{hi:g} m, beyond the "
            f"open path table's {table.s[0]:g}..{table.s[-1]:g} m")
    xc, yc, psic = table.pose_at_many(s_arr)
    psi = psic + th_arr
    x_R = xc - e_arr * np.sin(psic)
    y_R = yc + e_arr * np.cos(psic)
    data: dict[str, np.ndarray | None] = {
        "t": ts,
        "s_C": s_arr, "e_C": e_arr, "theta_C": th_arr,
        "x_G": x_R + sc.params.d * np.cos(psi),
        "y_G": y_R + sc.params.d * np.sin(psi),
        "psi": psi,
    }
    data.update(diag)
    data["resid_max"] = _constraint_residual_rows(sc, ys, diag, psic)
    return SimTrace(data)


def _constraint_residual_rows(sc: Scenario, ys, diag, psic):
    """Max no-slip residual per row, from the reconstructed absolute rates."""
    s_arr, e_arr, th_arr = ys[:, 0], ys[:, 1], ys[:, 2]
    kap = np.array([sc.profile.kappa(s) for s in s_arr])
    psi = psic + th_arr
    gamma = diag["gamma"]
    sp = diag["sigma1"]
    l, d = sc.params.l, sc.params.d

    one = 1.0 - kap * e_arr
    sdot = sp * np.cos(th_arr) / one
    edot = sp * np.sin(th_arr)
    thdot = sp * np.tan(gamma) / l - kap * sdot
    psidot = kap * sdot + thdot
    x_Rdot = one * sdot * np.cos(psic) - edot * np.sin(psic)
    y_Rdot = one * sdot * np.sin(psic) + edot * np.cos(psic)
    x_Gdot = x_Rdot - d * psidot * np.sin(psi)
    y_Gdot = y_Rdot + d * psidot * np.cos(psi)

    r1 = x_Gdot * np.sin(psi) - y_Gdot * np.cos(psi) + d * psidot
    r2 = (x_Gdot * np.sin(psi + gamma) - y_Gdot * np.cos(psi + gamma)
          - (l - d) * psidot * np.cos(gamma))
    rows = [np.abs(r1), np.abs(r2)]
    if sc.mode in ("none", "steer_only", "steer_torque"):
        rows.append(np.abs(x_Gdot * np.cos(psi) + y_Gdot * np.sin(psi) - sp))
    return np.max(rows, axis=0)


# -- named scenarios reproducing the experiments -----------------------------

# each figure's profile, controller mode, duration and other settings; every
# figure starts 10 m off the path at 20 m/s
_FIGURES = {
    "fig13": (CurvatureProfile.straight(), "steer_only", 30.0, {}),
    "fig14": (CurvatureProfile.circle(200.0), "steer_only", 35.0,
              {"theta0": math.radians(20.0)}),
    "fig16": (CurvatureProfile.periodic(4, 250.0), "steer_only", 50.0, {}),
    "fig17": (CurvatureProfile.periodic(4, 250.0), "steer_torque", 50.0, {}),
    "fig18": (CurvatureProfile.periodic(4, 250.0), "steer_torque", 50.0,
              {"gains": ControlGains(t_L=0.3)}),
    "fig20": (CurvatureProfile.periodic(4, 250.0), "steer_longitudinal", 60.0, {}),
    "fig21": (CurvatureProfile.periodic(4, 50.0), "steer_longitudinal", 30.0,
              {"gains": ControlGains(a_lat_max=12.0)}),
}
FIGURES = tuple(_FIGURES)


def named_scenario(name: str, dt: float = 1e-3) -> Scenario:
    """Built-in scenario definitions for the reference experiments."""
    if name not in _FIGURES:
        raise ValueError(f"unknown scenario {name!r}; known: {sorted(FIGURES)}")
    profile, mode, duration, settings = _FIGURES[name]
    return Scenario(name=name, profile=profile, mode=mode, duration=duration,
                    dt=dt, V=20.0, e0=-10.0, **settings)
