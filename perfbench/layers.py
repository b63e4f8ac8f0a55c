"""Per-layer metrics of a traced run: spans of a pass plus replays.

Spans give the time each layer's public calls took inside the traced pass.
Layer functions that the simulator reaches only from inside ``run_scenario``
cannot be timed from outside without changing the program, so they are
replayed here on committed states sampled from the pass's own traces, and
reported in microseconds per call. A layer that a workload does not reach
reports 0.
"""

from __future__ import annotations

import itertools
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from nonholo import cli, config, control, models, pathframe, sim, svgplot
from nonholo.models import DriveInput, Variant
from nonholo.params import ControlGains, VehicleParams
from nonholo.path import CurvatureProfile, build_path

from workloads import PAIRS

EOM_VARIANTS = (Variant.SKATE_FORCE, Variant.WHEEL_TORQUE,
                Variant.SKATE_FORCE_ALT_PSEUDO, Variant.SKATE_FORCE_LAGRANGE)
REPEATS = 3                 # replays report the median of this many timings
RK4_STEPS = 20000
KAPPA_STEPS = 500           # steps per scenario for the kappa call count
POSE_SAMPLES = 200000
REPLAY_STATES = 1200        # committed states replayed per traced run

METRICS = {
    "path.build_s": "s", "path.build_calls": "count",
    "path.pose_many_ns_per_sample": "ns", "path.project_us": "us",
    "sim.run_scenario_s": "s", "sim.run_us_per_step": "us",
    "sim.rk4_overhead_us_per_step": "us", "sim.kappa_calls_per_step": "count",
    "sim.to_csv_s": "s", "sim.csv_mb_per_s": "MB/s",
    "svgplot.write_s": "s", "svgplot.points": "count",
    "control.steer_chain_us": "us", "control.driving_force_us": "us",
    "control.speed_schedule_us": "us", "control.wrapper_n2_us": "us",
    "control.wrapper_n5_us": "us",
    "models.constraining_forces_us": "us",
    **{f"models.eom_rhs_us.{v.value}": "us" for v in EOM_VARIANTS},
    **{f"analysis.equivalence_s.{p}": "s" for p in PAIRS},
    "analysis.stability_points_per_s": "1/s",
    "pathframe.rhs_us": "us", "config.roundtrip_us": "us",
    "cli.overhead_s": "s", "cli.sweep_speedup": "ratio",
    "trace_overhead_frac": "frac",
}

# spans whose sum is the layer work of a CLI pass; what cli.main spends
# beyond them is CLI overhead (argument parsing, summaries, and the path
# table _plot_trace rebuilds outside run_scenario). Both sides come from the
# traced pass, so the machine's drift between two passes does not enter.
LAYER_SPANS = ("sim.run_scenario", "sim.to_csv", "svgplot.write",
               "svgplot.add", "config.parse")


def install(tracer, sweep: bool) -> None:
    """Wrap the public calls the CLI makes into each layer."""
    if not sweep:
        # sweep lanes run in worker processes, which pickle run_scenario by
        # name; a wrapper there could not be sent, so sweeps time lanes by
        # a serial replay instead
        tracer.wrap(cli, "run_scenario", "sim.run_scenario")
    tracer.wrap(sim, "build_path", "path.build")
    tracer.wrap(sim.SimTrace, "to_csv", "sim.to_csv",
                lambda a, k, r: {"bytes": os.path.getsize(a[1])})
    tracer.wrap(cli, "figure_panels", "svgplot.write",
                lambda a, k, r: {"points": sum(len(x) for p in a[0]
                                               for _, x, _ in p.curves)})
    tracer.wrap(svgplot.Panel, "add", "svgplot.add")
    tracer.wrap(cli, "scenario_from_config", "config.parse")


def _top_level(tracer, names) -> float:
    """Seconds in spans of the given names not nested in one of them."""
    ids = {s["id"]: s for s in tracer.spans}
    total = 0
    for s in tracer.spans:
        if s["name"] not in names:
            continue
        parent = s["parent"]
        nested = False
        while parent is not None:
            if ids[parent]["name"] in names:
                nested = True
                break
            parent = ids[parent]["parent"]
        if not nested:
            total += s["end_ns"] - s["start_ns"]
    return total / 1e9


def _per_call_us(fn, args_list) -> float:
    """Median over REPEATS of the mean microseconds per call of fn(*args)."""
    if not args_list:
        return 0.0
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(args_list) * 1e6


@dataclass
class StateSet:
    """Committed closed-loop states on one path, as replay inputs."""

    profile: CurvatureProfile
    s: np.ndarray
    e: np.ndarray
    theta: np.ndarray
    sigma1: np.ndarray
    gamma: np.ndarray
    a_des: np.ndarray
    x: np.ndarray
    y: np.ndarray
    psi: np.ndarray


def state_sets(units, scenarios, params: VehicleParams) -> list[StateSet]:
    """StateSets from the units' sampled states; missing columns derived.

    Units and scenarios pair up in order; a workload without scenarios
    (analysis) replays on the path its trajectory follows.
    """
    profiles = [sc.profile for sc in scenarios] or \
        [CurvatureProfile.periodic(4, 250.0)] * len(units)
    usable = [(u.states, p) for u, p in zip(units, profiles) if u.states]
    out = []
    for st, profile in usable:
        n = len(st["s_C"])
        idx = np.unique(np.linspace(0, n - 1, max(1, min(
            n, REPLAY_STATES // len(usable)))).astype(int))
        kap = np.array([profile.kappa(v) for v in st["s_C"][idx]])
        col = {k: v[idx] for k, v in st.items()}
        out.append(StateSet(
            profile, col["s_C"], col["e_C"], col["theta_C"],
            col.get("sigma1", np.full(len(idx), 20.0)),
            col.get("gamma", np.arctan(kap * params.l)),
            col.get("a_des", np.zeros(len(idx))),
            col.get("x_G", np.zeros(len(idx))),
            col.get("y_G", np.zeros(len(idx))),
            col.get("psi", col["theta_C"])))
    return out


def _table(profile: CurvatureProfile, s_max: float, cache: dict):
    if profile not in cache:
        cache[profile] = build_path(
            profile, length=s_max + 100.0 if profile.kind == "straight" else None)
    return cache[profile]


def _replays(sets: list[StateSet], scenarios, params, gains) -> dict:
    m: dict[str, float] = {}
    steer, force, sched, w2, w5, cforce, pf = [], [], [], [], [], [], []
    eom = {v: [] for v in EOM_VARIANTS}
    tables: dict = {}
    for st in sets:
        table = _table(st.profile, float(np.max(st.s)), tables)
        for i in range(len(st.s)):
            s, e, th, s1 = (float(st.s[i]), float(st.e[i]),
                            float(st.theta[i]), float(st.sigma1[i]))
            gsat = control.steering_saturation(s1, gains, params)
            a_des = float(st.a_des[i])
            cmd = control.steer_derivative_chain(s, e, th, s1, a_des,
                                                 st.profile, gains, gsat, params)
            F = control.driving_force(a_des, cmd.gamma_des, cmd.gamma_dot,
                                      cmd.gamma_ddot, s1, params)
            steer.append((s, e, th, s1, a_des, st.profile, gains, gsat, params))
            force.append((a_des, cmd.gamma_des, cmd.gamma_dot, cmd.gamma_ddot,
                          s1, params))
            sched.append((st.profile, s, s1))
            x = gains.k1 * (th + math.atan(gains.k2 * e))
            w2.append((control.WrapperSpec(2, gsat), x))
            w5.append((control.WrapperSpec(5, gsat), x))
            cforce.append((s1, cmd.gamma_des, cmd.gamma_dot, cmd.gamma_ddot,
                           F.F_R, 0.0, params))
            pf.append((Variant.SKATE_KINEMATIC, pathframe.TrackPoint.REAR_AXLE,
                       (s, e, th), DriveInput(gamma=float(st.gamma[i])), table,
                       params, s1))
            g, gd, gdd = float(st.gamma[i]), cmd.gamma_dot, cmd.gamma_ddot
            xyz = [float(st.x[i]), float(st.y[i]), float(st.psi[i])]
            eom[Variant.SKATE_FORCE].append(
                (Variant.SKATE_FORCE, xyz + [s1],
                 DriveInput(gamma=g, gamma_dot=gd, gamma_ddot=gdd, F_R=F.F_R),
                 params))
            eom[Variant.WHEEL_TORQUE].append(
                (Variant.WHEEL_TORQUE, xyz + [s1, 0.0, 0.0],
                 DriveInput(gamma=g, gamma_dot=gd, gamma_ddot=gdd,
                            T_R=params.r * F.F_R), params))
            eom[Variant.SKATE_FORCE_ALT_PSEUDO].append(
                (Variant.SKATE_FORCE_ALT_PSEUDO, xyz + [s1 / math.cos(g)],
                 DriveInput(gamma=g, gamma_dot=gd, gamma_ddot=gdd, F_R=F.F_R),
                 params))
            if abs(g) > 1e-3:   # the yaw-rate form is singular at gamma = 0
                eom[Variant.SKATE_FORCE_LAGRANGE].append(
                    (Variant.SKATE_FORCE_LAGRANGE,
                     xyz + [s1 * math.tan(g) / params.l],
                     DriveInput(gamma=g, gamma_dot=gd, gamma_ddot=gdd,
                                F_R=F.F_R), params))

    def schedule(profile, s, s1):
        v_des = control.target_speed(
            control.preview_max_curvature(profile, s, gains.preview_dist), gains)
        return control.longitudinal_accel(s1, v_des, gains)

    m["control.steer_chain_us"] = _per_call_us(control.steer_derivative_chain, steer)
    m["control.driving_force_us"] = _per_call_us(control.driving_force, force)
    m["control.speed_schedule_us"] = _per_call_us(schedule, sched)
    m["control.wrapper_n2_us"] = _per_call_us(control.wrapper, w2)
    m["control.wrapper_n5_us"] = _per_call_us(control.wrapper, w5)
    m["models.constraining_forces_us"] = _per_call_us(models.constraining_forces,
                                                      cforce)
    for variant, args in eom.items():
        m[f"models.eom_rhs_us.{variant.value}"] = _per_call_us(models.eom_rhs, args)
    m["pathframe.rhs_us"] = _per_call_us(pathframe.pathframe_rhs, pf)

    if sets:
        per_set = POSE_SAMPLES // len(sets)
        us = sum(_per_call_us(_table(st.profile, float(np.max(st.s)),
                                     tables).pose_at_many,
                              [(np.resize(st.s, per_set),)]) for st in sets)
        m["path.pose_many_ns_per_sample"] = us * 1e3 / (per_set * len(sets))

    texts = [(sc,) for sc in scenarios] or [(sim.named_scenario("fig16"),)]
    m["config.roundtrip_us"] = _per_call_us(
        lambda sc: config.scenario_from_config(config.dump_config(sc)), texts)

    m["sim.rk4_overhead_us_per_step"] = _per_call_us(
        lambda: sim.integrate(lambda t, y: (1.0, 0.0, 0.0), [0.0, 0.0, 0.0],
                              1e-3, RK4_STEPS * 1e-3), [()]) / RK4_STEPS
    m["sim.kappa_calls_per_step"] = _kappa_calls_per_step(scenarios)
    return m


@dataclass(frozen=True)
class CountingProfile(CurvatureProfile):
    """A curvature profile that counts its kappa() evaluations."""

    counter: itertools.count = field(default_factory=itertools.count,
                                     compare=False)

    def kappa(self, s: float) -> float:
        next(self.counter)
        return super().kappa(s)


def _kappa_calls_per_step(scenarios) -> float:
    """Exact kappa() calls per RK4 step of run_scenario, path table prebuilt."""
    calls = steps = 0
    for sc in scenarios:
        p = sc.profile
        counting = CountingProfile(p.kind, p.kappa_const, p.kappa_max, p.s_T, p.N)
        short = replace(sc, profile=counting, duration=KAPPA_STEPS * sc.dt)
        length = sc.path_length
        if length is None and p.kind == "straight":
            length = sc.V * short.duration + 100.0
        table = build_path(p, step=sc.path_step, length=length)
        before = next(counting.counter)
        sim.run_scenario(short, table)
        calls += next(counting.counter) - before - 1
        steps += KAPPA_STEPS
    return calls / steps if steps else 0.0


def compute(workload: str, tracer, untraced_s: float, traced_s: float,
            units, inputs, serial_lane_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass."""
    params, gains = VehicleParams(), ControlGains()
    m = {name: 0.0 for name in METRICS}
    steps = inputs.steps
    builds = tracer.named("path.build")
    m["path.build_s"] = tracer.seconds("path.build")
    m["path.build_calls"] = float(len(builds))
    project = tracer.named("path.project")
    if project:
        m["path.project_us"] = tracer.seconds("path.project") * 1e6 / \
            sum(s["attrs"]["calls"] for s in project)
    run_s = tracer.seconds("sim.run_scenario")
    if workload == "sweep":
        run_s = serial_lane_s
    if run_s and steps:
        m["sim.run_scenario_s"] = run_s
        m["sim.run_us_per_step"] = run_s * 1e6 / steps
    csv_spans = tracer.named("sim.to_csv")
    if csv_spans:
        m["sim.to_csv_s"] = tracer.seconds("sim.to_csv")
        m["sim.csv_mb_per_s"] = sum(s["attrs"]["bytes"] for s in csv_spans) \
            / 1e6 / m["sim.to_csv_s"]
    m["svgplot.write_s"] = tracer.seconds("svgplot.write") + \
        tracer.seconds("svgplot.add")
    m["svgplot.points"] = float(sum(s["attrs"].get("points", 0)
                                    for s in tracer.named("svgplot.write")))
    for pair in PAIRS:
        m[f"analysis.equivalence_s.{pair}"] = \
            tracer.seconds(f"analysis.equivalence.{pair}")
    grids = tracer.named("analysis.stability_grid")
    if grids:
        m["analysis.stability_points_per_s"] = \
            sum(s["attrs"]["points"] for s in grids) / \
            tracer.seconds("analysis.stability_grid")
    if tracer.named("cli.main"):
        m["cli.overhead_s"] = tracer.seconds("cli.main") - \
            _top_level(tracer, LAYER_SPANS)
    if workload == "sweep":
        m["cli.sweep_speedup"] = serial_lane_s / tracer.seconds("cli.main")
    m["trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s
    sets = state_sets(units, inputs.scenarios, params)
    m.update(_replays(sets, _distinct(inputs.scenarios), params, gains))
    return m


def _distinct(scenarios):
    """Sweep lanes differ only in t_L; one lane stands for all of them."""
    seen, out = set(), []
    for sc in scenarios:
        key = (sc.name, sc.mode, sc.profile)
        if key not in seen:
            seen.add(key)
            out.append(sc)
    return out


def per_item(tracer, inputs) -> list[dict]:
    """Seconds per span name for each item of the traced pass."""
    ids = {s["id"]: s for s in tracer.spans}
    rows: dict[str, dict[str, float]] = {}
    for s in tracer.spans:
        node, item = s, None
        while node is not None and item is None:
            item = node["attrs"].get("item")
            node = ids[node["parent"]] if node["parent"] is not None else None
        if item is not None:
            row = rows.setdefault(item, {})
            row[s["name"]] = row.get(s["name"], 0.0) + \
                (s["end_ns"] - s["start_ns"]) / 1e9
    steps = {item.name: item.steps for item in inputs.items}
    return [{"item": name, "steps": steps.get(name, 0), "spans_s": row}
            for name, row in rows.items()]
