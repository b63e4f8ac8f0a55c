"""Command-line front end: scenarios, stability maps, sweeps, path export.

Exit codes: 0 success, 2 configuration error (first offending key named),
3 model guard tripped during integration (message carries time and guard).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import kinematic_stability, stability_grid
from .config import dump_config, scenario_from_config
from .control import WrapperSpec, wrapper, wrapper_deriv
from .errors import ConfigError, GuardTripped, NonClosure, NonholoError
from .models import (STATE_FIELDS, Variant, DriveInput, constraining_forces,
                     constraint_residuals, eom_rhs)
from .params import VehicleParams
from .path import CurvatureProfile, PathTable, build_path, write_csv
from .sim import (FIGURES, Scenario, SimTrace, _build_table, named_scenario,
                  run_scenario)
from .svgplot import Panel, figure_panels


def _out_dir(args) -> Path:
    out = os.environ.get("NONHOLO_OUT") or args.out or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _plot_trace(trace: SimTrace, scenario: Scenario, table: PathTable,
                out: Path) -> Path:
    traj = Panel("trajectory", "x [m]", "y [m]", equal_aspect=True)
    traj.add("path", table.x, table.y)
    traj.add("vehicle", trace["x_G"], trace["y_G"])
    errors = Panel("tracking errors", "t [s]", "e [m] / theta [rad]")
    errors.add("e_C", trace.t, trace["e_C"])
    errors.add("theta_C", trace.t, trace["theta_C"])
    steer = Panel("steering", "t [s]", "angle [rad]")
    steer.add("gamma_des", trace.t, trace["gamma_des"])
    steer.add("gamma_ff", trace.t, trace["gamma_ff"])
    steer.add("gamma_fb", trace.t, trace["gamma_fb"])
    if trace.has("T_s"):
        steer.add("gamma", trace.t, trace["gamma"])
    accel = Panel("accelerations", "t [s]", "a [m/s^2]")
    accel.add("a_lat", trace.t, trace["a_lat"])
    if trace.has("a_des"):
        accel.add("a_des", trace.t, trace["a_des"])
    panels = [traj, errors, steer, accel]
    if trace.has("v_des"):
        speeds = Panel("speeds", "t [s]", "v [m/s]")
        speeds.add("sigma1", trace.t, trace["sigma1"])
        speeds.add("v_des", trace.t, trace["v_des"])
        ratios = Panel("force-to-weight ratios", "t [s]", "mu")
        ratios.add("mu_R", trace.t, trace["mu_R"])
        ratios.add("mu_F", trace.t, trace["mu_F"])
        panels += [speeds, ratios]
    dest = out / f"{scenario.name}.svg"
    figure_panels(panels, dest)
    return dest


def _print_summary(scenario: Scenario, trace: SimTrace) -> None:
    s = trace.summary()
    settle = "never" if math.isinf(s["settle_time"]) else f"{s['settle_time']:.2f} s"
    crossings = s["zero_crossings"]
    overshoot = "no overshoot" if crossings <= 1 else f"{crossings} e_C zero crossings"
    print(f"{scenario.name}: settle(|e|<0.05m) = {settle}, {overshoot}, "
          f"rms e_C = {s['rms_e']:.4g} m (tail {s['rms_e_tail']:.4g} m), "
          f"peak |a_lat| = {s.get('peak_a_lat', float('nan')):.3f} m/s^2, "
          f"max residual = {float(np.max(trace['resid_max'])):.3g}")


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    if args.figure == "randomcheck":
        return _random_audit(args, out)
    try:
        if args.config:
            text = Path(args.config).read_text(encoding="utf-8")
            scenario, output = scenario_from_config(text, source=args.config)
            if not args.out and not os.environ.get("NONHOLO_OUT"):
                out = Path(output["dir"])
                out.mkdir(parents=True, exist_ok=True)
            if args.plot is None:
                args.plot = output["plot"]
        elif args.figure:
            scenario = named_scenario(args.figure)
        else:
            print("simulate needs --figure or --config", file=sys.stderr)
            return 2
        if args.dt:
            scenario = replace(scenario, dt=args.dt)
        if args.dump_config:
            print(dump_config(scenario), end="")
            return 0
        table = _build_table(scenario)
    except NonClosure as exc:
        print(f"config error: path key 'step' = {scenario.path_step:g}: {exc}",
              file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        trace = run_scenario(scenario, table)
    except GuardTripped as exc:
        print(f"guard tripped: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    trace.to_csv(out / "trace.csv")
    _print_summary(scenario, trace)
    if args.plot is None or args.plot:
        dest = _plot_trace(trace, scenario, table, out)
        print(f"wrote {out / 'trace.csv'} and {dest}")
    else:
        print(f"wrote {out / 'trace.csv'}")
    return 0


def _random_audit(args, out: Path) -> int:
    """Randomized property audit: constraint residuals and force oracles."""
    rng = np.random.default_rng(args.seed or 0)
    params = VehicleParams()
    worst_resid = 0.0
    for variant in Variant:
        if variant is Variant.SKATE_FORCE_LAGRANGE:
            continue
        for _ in range(200):
            y, u, V = _random_state(rng, variant, params)
            dy = eom_rhs(variant, y, u, params, V=V)
            res = constraint_residuals(variant, y, dy, u, params, V=V)
            worst_resid = max(worst_resid, float(np.max(np.abs(res))))
    worst_mu = 0.0
    for _ in range(200):
        sigma1 = rng.uniform(2.0, 30.0)
        gamma = rng.uniform(0.05, 0.5) * rng.choice([-1.0, 1.0])
        forces = constraining_forces(sigma1, gamma, rng.uniform(-0.5, 0.5),
                                     rng.uniform(-1.0, 1.0),
                                     rng.uniform(-2000, 2000),
                                     rng.uniform(-2000, 2000), params)
        worst_mu = max(worst_mu, abs(forces.mu_R), abs(forces.mu_F))
    print(f"randomcheck(seed={args.seed or 0}): max residual = {worst_resid:.3e}, "
          f"max |mu| sampled = {worst_mu:.3f}")
    ok = worst_resid < 1e-12
    print("randomcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _random_state(rng, variant, params):
    fields = STATE_FIELDS[variant]
    y = []
    for name in fields:
        if name in ("x_G", "y_G"):
            y.append(rng.uniform(-50, 50))
        elif name in ("psi", "phi_R", "phi_F"):
            y.append(rng.uniform(-math.pi, math.pi))
        elif name == "gamma":
            y.append(rng.uniform(-1.3, 1.3))
        elif name.startswith("sigma1"):
            y.append(rng.uniform(1.0, 30.0))
        else:
            y.append(rng.uniform(-1.0, 1.0))
    gamma = rng.uniform(-1.3, 1.3)
    kwargs = {}
    if "gamma" not in fields:
        kwargs["gamma"] = gamma
        if not variant.constrained_speed:
            kwargs["gamma_dot"] = rng.uniform(-0.5, 0.5)
            kwargs["gamma_ddot"] = rng.uniform(-1.0, 1.0)
    if variant.wheel:
        if not variant.constrained_speed:
            kwargs["T_R"] = rng.uniform(-500, 500)
            kwargs["T_F"] = rng.uniform(-500, 500)
    elif not variant.constrained_speed:
        kwargs["F_R"] = rng.uniform(-2000, 2000)
        kwargs["F_F"] = rng.uniform(-2000, 2000)
    if "sigma2" in fields and "T_s" not in variant.forbidden:
        kwargs["T_s"] = rng.uniform(-1.0, 1.0)
    V = rng.uniform(5.0, 30.0) if variant.constrained_speed else None
    return y, DriveInput(**kwargs), V


def cmd_stability(args) -> int:
    out = _out_dir(args)
    try:
        k1 = np.linspace(args.k1[0], args.k1[1], int(args.k1[2]))
        k2 = np.linspace(args.k2[0], args.k2[1], int(args.k2[2]))
        kappas = [float(v) for v in args.kappa.split(",")]
        if len(k1) < 1 or len(k2) < 1:
            raise ValueError("empty grid")
    except (ValueError, IndexError) as exc:
        print(f"bad grid ranges: {exc}", file=sys.stderr)
        return 2
    params = VehicleParams()
    dest = out / "stability.csv"
    rows = [(r[0], r[1], kappa, *r[2:]) for kappa in kappas
            for r in stability_grid(k1, k2, kappa, args.speed, params.l)]
    write_csv(dest, ("k1", "k2", "kappa_star", "criterion", "eig_max_real",
                     "agree"), list(zip(*rows))[:6])
    outside = [agree for *_, agree, near in rows if not near]
    agree_n, total = sum(outside), len(outside)
    pct = 100.0 * agree_n / total if total else 100.0
    print(f"stability map: {total} grid points outside boundary band, "
          f"criterion/eigenvalue agreement {pct:.2f}%")
    print(f"wrote {dest}")
    if len(k1) == 1 and len(k2) == 1 and len(kappas) == 1:
        verdict = kinematic_stability(kappas[0], args.speed, params.l,
                                      float(k1[0]), float(k2[0]))
        eigs = ", ".join(f"{z:.6g}" for z in verdict.eigenvalues)
        print(f"k1={k1[0]:g} k2={k2[0]:g} kappa*={kappas[0]:g}: "
              f"{'stable' if verdict.stable else 'unstable'}, eigenvalues [{eigs}]")
    return 0


SWEEP_PARAMS = ("t_L", "wrapper_n", "a_lat_max", "N", "s_T")


def _run_concurrently(scenarios):
    """Yield the traces of independent runs in order, as they finish.

    With two or more CPUs the runs fan out over a process pool. If it cannot
    start or breaks, the runs not yet yielded go on serially. When a run
    raises, ``Executor.map`` cancels the pending runs and the pool's exit
    joins its workers.
    """
    done = 0
    if len(scenarios) > 1 and (os.cpu_count() or 1) > 1:
        from concurrent.futures import ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(
                    max_workers=min(len(scenarios), os.cpu_count())) as pool:
                for done, trace in enumerate(pool.map(run_scenario, scenarios), 1):
                    yield trace
        except (OSError, RuntimeError):
            pass
    yield from map(run_scenario, scenarios[done:])


def _sweep_item(param: str, v: float, base: Scenario | None, s_T: float):
    """The WrapperSpec, CurvatureProfile or Scenario one sweep value builds.

    Raises ValueError for a value the parameter cannot take.
    """
    if not (math.isfinite(v) or (param == "wrapper_n" and v == math.inf)):
        raise ValueError("not a finite number")
    if param == "wrapper_n":
        return WrapperSpec(v, 1.0)
    if param == "N":
        if v != int(v):
            raise ValueError("N must be an integer")
        return CurvatureProfile.periodic(int(v), s_T)
    if param == "s_T":
        return CurvatureProfile.periodic(4, v)
    return replace(base, gains=replace(base.gains, **{param: v}))


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    if args.param not in SWEEP_PARAMS:
        print(f"unknown sweep parameter {args.param!r}; "
              f"expected one of {SWEEP_PARAMS}", file=sys.stderr)
        return 2
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        print(f"bad values: {exc}", file=sys.stderr)
        return 2
    base = None
    if args.param in ("t_L", "a_lat_max"):
        try:
            base = named_scenario(
                args.figure or ("fig17" if args.param == "t_L" else "fig20"),
                dt=args.dt or 1e-3)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    items = []
    for v in values:
        try:
            items.append(_sweep_item(args.param, v, base, args.s_T))
        except ValueError as exc:
            print(f"config error: --param '{args.param}' value {v:g}: {exc}",
                  file=sys.stderr)
            return 2

    if args.param == "wrapper_n":
        return _sweep_wrapper(values, items, out)
    if base is None:
        return _sweep_paths(items, out)
    rows = []
    try:   # each lane's CSV is written as it arrives; see README on exit 3
        for value, trace in zip(values, _run_concurrently(items), strict=True):
            tail = trace.t >= trace.t[-1] * 0.4
            rms = float(np.sqrt(np.mean(trace["e_C"][tail] ** 2)))
            rows.append((value, rms))
            trace.to_csv(out / f"trace_{args.param}_{value:g}.csv")
            print(f"{args.param} = {value:g}: post-transient rms e_C = {rms:.5g} m")
    except GuardTripped as exc:
        print(f"guard tripped during sweep: {exc}", file=sys.stderr)
        return 3
    dest = out / f"sweep_{args.param}.csv"
    write_csv(dest, (args.param, "rms_e"), list(zip(*rows)))
    best = min(rows, key=lambda r: r[1])
    print(f"minimum rms e_C = {best[1]:.5g} m at {args.param} = {best[0]:g}")
    print(f"wrote {dest}")
    return 0


def _sweep_wrapper(values, specs, out: Path) -> int:
    xs = np.linspace(-6.0, 6.0, 601)
    dest = out / "wrapper_curves.csv"
    panels = [Panel("wrapper g_n(x)", "x", "g_n(x)"),
              Panel("downscale factor g_n'(x)", "x", "g_n'(x)")]
    header, cols = ["x"], [xs]
    for v, spec in zip(values, specs):
        g = [wrapper(spec, float(x)) for x in xs]
        gp = [wrapper_deriv(spec, float(x)) for x in xs]
        header += [f"g_{v:g}", f"gp_{v:g}"]
        cols += [g, gp]
        panels[0].add(f"n={v:g}", xs, g)
        panels[1].add(f"n={v:g}", xs, gp)
    write_csv(dest, header, cols)
    figure_panels(panels, out / "wrapper_curves.svg")
    print(f"wrote {dest} and {out / 'wrapper_curves.svg'}")
    return 0


def _sweep_paths(profiles, out: Path) -> int:
    panel = Panel("closed paths", "x [m]", "y [m]", equal_aspect=True)
    for prof in profiles:
        table = build_path(prof)
        label = f"N={prof.N}, s_T={prof.s_T:g}"
        table.to_csv(out / f"path_N{prof.N}_sT{prof.s_T:g}.csv")
        panel.add(label, table.x, table.y)
        print(f"{label}: perimeter {table.perimeter:.1f} m, closed")
    figure_panels([panel], out / "paths.svg", columns=1)
    print(f"wrote {out / 'paths.svg'}")
    return 0


def cmd_path(args) -> int:
    out = _out_dir(args)
    try:
        if args.kind == "straight":
            profile = CurvatureProfile.straight()
            if not args.length:
                raise ValueError("straight path needs --length")
        elif args.kind == "circle":
            profile = CurvatureProfile.circle(args.radius)
        else:
            profile = CurvatureProfile.periodic(args.N, args.s_T)
        table = build_path(profile, step=args.step, length=args.length)
    except (ValueError, NonholoError) as exc:
        print(f"path error: {exc}", file=sys.stderr)
        return 2
    dest = out / "path.csv"
    table.to_csv(dest)
    closed = "closed" if table.closed else "open"
    print(f"wrote {dest}: {len(table.s)} samples, length {table.length:.2f} m, "
          f"{closed}")
    if args.plot is None or args.plot:
        panel = Panel("path", "x [m]", "y [m]", equal_aspect=True)
        panel.add(args.kind, table.x, table.y)
        figure_panels([panel], out / "path.svg", columns=1)
        print(f"wrote {out / 'path.svg'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonholo",
        description="Nonholonomic single-track vehicle models and "
                    "path-following control")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output directory (default: out, "
                                     "override with NONHOLO_OUT)")
        p.add_argument("--dt", type=float, help="integration step [s]")
        p.add_argument("--seed", type=int,
                       help="seed for the randomized property checks")
        p.add_argument("--plot", action="store_true", default=None,
                       dest="plot", help="emit SVG plots (default)")
        p.add_argument("--no-plot", action="store_false", dest="plot",
                       help="skip SVG plots")

    p_sim = sub.add_parser("simulate", help="run a scenario or named figure")
    p_sim.add_argument("--figure", choices=list(FIGURES) + ["randomcheck"],
                       help="named scenario")
    p_sim.add_argument("--config", help="scenario config file")
    p_sim.add_argument("--dump-config", action="store_true",
                       help="print the canonical config and exit")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_st = sub.add_parser("stability", help="criterion vs eigenvalue map")
    p_st.add_argument("--k1", nargs=3, type=float, default=[-2.0, 0.5, 50],
                      metavar=("MIN", "MAX", "N"))
    p_st.add_argument("--k2", nargs=3, type=float, default=[-0.05, 0.1, 50],
                      metavar=("MIN", "MAX", "N"))
    p_st.add_argument("--kappa", default="0,0.005,0.012566370614359173",
                      help="comma-separated kappa* values")
    p_st.add_argument("--speed", type=float, default=20.0)
    common(p_st)
    p_st.set_defaults(func=cmd_stability)

    p_sw = sub.add_parser("sweep", help="parameter sweeps")
    p_sw.add_argument("--param", required=True,
                      help=f"one of {SWEEP_PARAMS}")
    p_sw.add_argument("--values", required=True,
                      help="comma-separated values")
    p_sw.add_argument("--figure", help="base scenario for trace sweeps")
    p_sw.add_argument("--s-T", dest="s_T", type=float, default=250.0,
                      help="period for N sweeps")
    common(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    p_pa = sub.add_parser("path", help="generate and export a path")
    p_pa.add_argument("--kind", choices=("straight", "circle", "periodic"),
                      default="periodic")
    p_pa.add_argument("--N", type=int, default=4)
    p_pa.add_argument("--s-T", dest="s_T", type=float, default=250.0)
    p_pa.add_argument("--radius", type=float, default=200.0)
    p_pa.add_argument("--length", type=float)
    p_pa.add_argument("--step", type=float, default=0.1)
    common(p_pa)
    p_pa.set_defaults(func=cmd_path)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
