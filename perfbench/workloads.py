"""Seeded inputs for the four workloads and the calls that make up one pass.

Every item of a pass goes through nonholo's public entry points: the CLI for
`lateral`, `longitudinal` and `sweep`, and the `analysis` and `path` functions
for `analysis`. Seed 0 runs the named figures and the CLI's default grids
exactly; any other seed perturbs the initial errors within each figure's tube
and redraws the sweep values and the grid ranges.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from nonholo import analysis, cli, config, sim
from nonholo.params import VehicleParams
from nonholo.path import CurvatureProfile, build_path, reconstruct_pose

WORKLOADS = ("lateral", "longitudinal", "sweep", "analysis")
LATERAL_FIGS = ("fig13", "fig16", "fig17", "fig18")
LONGITUDINAL_FIGS = ("fig20", "fig21")
SWEEP_DT = 0.005
SWEEP_LANES = 16
KAPPAS = (0.0, 0.005, 0.012566370614359173)   # the CLI's default kappa*
PAIRS = ("skate_wheel", "appell_lagrange", "alt_pseudo")
GRID_SIDE = 80
PROJECT_POINTS = 20000
PROJECT_DT = 0.0025
# smoke mode shrinks every item so the whole pipeline runs in seconds
SMOKE_DURATION = 0.5
SMOKE_LANES = 2
SMOKE_GRID_SIDE = 6
SMOKE_EQUIVALENCE_S = 0.2
SMOKE_PROJECT_POINTS = 200


class SetupError(Exception):
    """The workload's inputs could not be built."""


@dataclass
class Item:
    """One call of a pass, with what its check needs to know."""

    name: str
    kind: str    # simulate, sweep, stability, equivalence or project
    steps: int   # RK4 steps the item integrates
    argv: list[str] = field(default_factory=list)
    scenarios: list = field(default_factory=list)
    params: dict = field(default_factory=dict)


@dataclass
class Inputs:
    workload: str
    seed: int
    smoke: bool
    items: list[Item]
    config_texts: list[str]

    @property
    def steps(self) -> int:
        return sum(item.steps for item in self.items)

    @property
    def scenarios(self) -> list:
        return [sc for item in self.items for sc in item.scenarios]


def _steps(sc) -> int:
    return int(round(sc.duration / sc.dt))


def _canonical(sc, source: str) -> str:
    """Canonical config text of a scenario, checked to re-parse identically."""
    text = config.dump_config(sc)
    parsed, _ = config.scenario_from_config(text, source=source)
    if replace(parsed, name=sc.name) != sc:
        raise SetupError(f"{source}: canonical config does not re-parse "
                         f"to the same scenario")
    return text


def _figure_items(figs, seed: int, smoke: bool, workdir: Path):
    items, texts = [], []
    for idx, fig in enumerate(figs):
        sc = sim.named_scenario(fig)
        if seed:
            # e0 keeps its sign: kappa >= 0 on these paths, so 1 - kappa*e
            # stays above 1 while e < 0 and the tube cannot be left
            rng = np.random.default_rng([seed, idx])
            sc = replace(sc, e0=sc.e0 * rng.uniform(0.75, 1.25),
                         theta0=rng.uniform(-0.1, 0.1))
        if smoke:
            sc = replace(sc, duration=SMOKE_DURATION)
        text = _canonical(sc, fig)
        texts.append(text)
        if seed == 0 and not smoke:
            argv = ["simulate", "--figure", fig]
        else:
            path = workdir / f"{fig}.cfg"
            path.write_text(text, encoding="utf-8")
            argv = ["simulate", "--config", str(path)]
        items.append(Item(fig, "simulate", _steps(sc), argv, [sc]))
    return items, texts


def _sweep_items(seed: int, smoke: bool):
    if seed == 0:
        values = np.round(np.linspace(0.0, 0.7, SWEEP_LANES), 4)
    else:
        rng = np.random.default_rng([seed, 100])
        values = np.sort(rng.choice(701, SWEEP_LANES, replace=False)) / 1000.0
    if smoke:
        values = values[:SMOKE_LANES]
    labels = [f"{v:g}" for v in values]
    base = sim.named_scenario("fig17", dt=SWEEP_DT)
    lanes = [replace(base, gains=replace(base.gains, t_L=float(label)))
             for label in labels]
    argv = ["sweep", "--param", "t_L", "--figure", "fig17",
            "--dt", str(SWEEP_DT), "--values", ",".join(labels)]
    item = Item("sweep_t_L", "sweep", sum(_steps(sc) for sc in lanes), argv,
                lanes, {"labels": labels})
    return [item], [_canonical(base, "fig17")]


def _grid(seed: int, smoke: bool):
    k1_lo, k1_hi, k2_lo, k2_hi = -2.0, 0.5, -0.05, 0.1   # the CLI's defaults
    if seed:
        rng = np.random.default_rng([seed, 200])
        k1_lo, k1_hi, k2_lo, k2_hi = (v * rng.uniform(0.8, 1.2)
                                      for v in (k1_lo, k1_hi, k2_lo, k2_hi))
    side = SMOKE_GRID_SIDE if smoke else GRID_SIDE
    return np.linspace(k1_lo, k1_hi, side), np.linspace(k2_lo, k2_hi, side)


def trajectory(seed: int, n: int, table):
    """A smooth converging run along the path: true (s, e, theta) and poses.

    The poses are of the rear axle point R, which is the point whose path
    coordinates the simulator reports.
    """
    rng = np.random.default_rng([seed, 300])
    e0 = -10.0 * (rng.uniform(0.75, 1.25) if seed else 1.0)
    th0 = rng.uniform(-0.1, 0.1) if seed else 0.0
    t = np.arange(n) * PROJECT_DT
    s = 20.0 * t
    decay = np.exp(-0.2 * t)
    e = e0 * decay * np.cos(0.3 * t)
    theta = th0 * decay
    poses = np.array([reconstruct_pose(table, float(a), float(b), float(c))
                      for a, b, c in zip(s, e, theta)])
    return {"s": s, "e": e, "theta": theta, "x": poses[:, 0],
            "y": poses[:, 1], "psi": poses[:, 2]}


def _analysis_items(seed: int, smoke: bool):
    params = VehicleParams()
    k1, k2 = _grid(seed, smoke)
    items = [Item(f"stability_k{kappa:g}", "stability", 0,
                  params={"k1": k1, "k2": k2, "kappa": kappa, "l": params.l})
             for kappa in KAPPAS]
    for pair in PAIRS:
        scenario = analysis.DEFAULT_SCENARIOS[pair]
        if smoke:
            scenario = replace(scenario, duration=SMOKE_EQUIVALENCE_S)
        steps = 2 * int(round(scenario.duration / scenario.dt))
        items.append(Item(f"equivalence_{pair}", "equivalence", steps,
                          params={"pair": pair, "scenario": scenario,
                                  "vehicle": params}))
    table = build_path(CurvatureProfile.periodic(4, 250.0))
    n = SMOKE_PROJECT_POINTS if smoke else PROJECT_POINTS
    items.append(Item("project", "project", 0,
                      params={"table": table, "traj": trajectory(seed, n, table)}))
    return items, []


def build(workload: str, seed: int, smoke: bool, workdir: Path) -> Inputs:
    """Build the seeded inputs of a workload; config files go to workdir."""
    if workload == "lateral":
        items, texts = _figure_items(LATERAL_FIGS, seed, smoke, workdir)
    elif workload == "longitudinal":
        items, texts = _figure_items(LONGITUDINAL_FIGS, seed, smoke, workdir)
    elif workload == "sweep":
        items, texts = _sweep_items(seed, smoke)
    elif workload == "analysis":
        items, texts = _analysis_items(seed, smoke)
    else:
        raise SetupError(f"unknown workload {workload!r}")
    return Inputs(workload, seed, smoke, items, texts)


def run_item(item: Item, out: Path, tracer):
    """Run one item, writing its files under out; returns its raw outcome.

    CLI items return their exit code; analysis items return what the
    function returned. The CLI's printed summary is kept out of the
    benchmark's own output.
    """
    if item.kind in ("simulate", "sweep"):
        argv = item.argv + ["--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            with tracer.span("cli.main", item=item.name):
                try:
                    return cli.main(argv)
                except SystemExit as exc:   # argparse rejects bad arguments
                    return exc.code
    p = item.params
    if item.kind == "stability":
        with tracer.span("analysis.stability_grid", item=item.name,
                         points=len(p["k1"]) * len(p["k2"])):
            return analysis.stability_grid(p["k1"], p["k2"], p["kappa"],
                                           20.0, p["l"])
    if item.kind == "equivalence":
        with tracer.span(f"analysis.equivalence.{p['pair']}", item=item.name):
            return analysis.verify_equivalence(p["pair"], p["vehicle"],
                                               p["scenario"])
    if item.kind == "project":
        traj, table = p["traj"], p["table"]
        out_rows = np.empty((len(traj["s"]), 3))
        hint = float(traj["s"][0])
        with tracer.span("path.project", item=item.name, calls=len(traj["s"])):
            for i, (x, y, psi) in enumerate(zip(traj["x"], traj["y"],
                                                traj["psi"])):
                q = table.project(float(x), float(y), float(psi), hint=hint)
                hint = q.s_C
                out_rows[i] = (q.s_C, q.e_C, q.theta_C)
        return out_rows
    raise ValueError(f"unknown item kind {item.kind!r}")

