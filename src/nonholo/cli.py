"""Command-line front end: scenarios, stability maps, sweeps, path export.

Exit codes: 0 success, 2 configuration error (first offending key named),
3 model guard tripped during integration (message carries time and guard).
The subcommands raise; ``main`` alone turns an exception into its exit code
and its one line on stderr.
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
from .config import _KIND_KEYS, dump_config, scenario_from_config
from .control import WrapperSpec, wrapper, wrapper_deriv
from .errors import ConfigError, GuardTripped, NonClosure, NonholoError
from .params import VehicleParams
from .path import CurvatureProfile, PathTable, build_path, write_csv
from .sim import (FIGURES, Scenario, SimTrace, _build_table, named_scenario,
                  run_scenario)
from .svgplot import Panel, figure_panels


# cmd_stability peaks near 360 bytes a grid point, 0.22 GB at the cap
STABILITY_POINTS_MAX = 600_000


def _out_dir(out: str | None, key: str = "--out", make: bool = True) -> Path:
    """Check, then unless ``make`` is false create, the output directory."""
    path = Path("out" if out is None else out)
    try:
        if out == "":
            raise ValueError("the path is empty")
        # a file or a dangling symlink at the path or above it is in the way
        for p in (path, *path.parents):
            if os.path.lexists(p) and not p.is_dir():
                raise NotADirectoryError(f"{p} is in the way: not a directory")
        if make:
            path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None
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


def cmd_simulate(args) -> None:
    output = {"dir": "out", "plot": True}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"--config: {exc}") from None
        scenario, output = scenario_from_config(text, source=args.config)
    elif args.figure:
        scenario = named_scenario(args.figure)
    else:
        raise ConfigError("simulate needs --figure or --config")
    if args.dt is not None:
        scenario = replace(scenario, dt=args.dt)
    try:
        table = _build_table(scenario)   # --dump-config checks the path too
    except NonClosure as exc:
        raise ConfigError(f"path key 'step' = {scenario.path_step:g}: "
                          f"{exc}") from None
    if args.dump_config:
        print(dump_config(scenario, output), end="")
        return
    out, key = (args.out, "--out") if args.out is not None or \
        not args.config else (output["dir"], f"{args.config}: key 'dir'")
    _out_dir(out, key, make=False)   # before the run, not after it
    trace = run_scenario(scenario, table)
    out = _out_dir(out, key)
    trace.to_csv(out / "trace.csv")
    _print_summary(scenario, trace)
    if args.plot or (args.plot is None and output["plot"]):
        dest = _plot_trace(trace, scenario, table, out)
        print(f"wrote {out / 'trace.csv'} and {dest}")
    else:
        print(f"wrote {out / 'trace.csv'}")


def _stability_axes(args):
    """The k1 and k2 axes and the kappa* values; ValueError names the flag."""
    for flag, (lo, hi, n) in (("--k1", args.k1), ("--k2", args.k2)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{flag}: MIN and MAX must be finite")
        if not (1 <= n < math.inf and n == int(n)):
            raise ValueError(f"{flag}: N = {n:g} is not a positive integer")
    try:
        kappas = [float(v) for v in args.kappa.split(",")]
    except ValueError as exc:
        raise ValueError(f"--kappa: {exc}") from None
    if not all(map(math.isfinite, kappas)):
        raise ValueError("--kappa: every kappa* must be finite")
    if not 0.0 < args.speed < math.inf:
        raise ValueError(f"--speed: {args.speed:g} is not finite and > 0; "
                         "the Routh-Hurwitz criterion assumes V > 0")
    n1, n2 = args.k1[2], args.k2[2]
    if not n1 * n2 * len(kappas) <= STABILITY_POINTS_MAX:
        raise ValueError(f"--k1 N x --k2 N x --kappa count = {n1:g} x "
                         f"{n2:g} x {len(kappas)} is more than "
                         f"{STABILITY_POINTS_MAX} grid points")
    return (np.linspace(*args.k1[:2], int(n1)),
            np.linspace(*args.k2[:2], int(n2)), kappas)


def cmd_stability(args) -> None:
    k1, k2, kappas = _stability_axes(args)
    params = VehicleParams()
    dest = _out_dir(args.out) / "stability.csv"
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


# each --param and the flags it reads; any other given exits 2 naming it
SWEEP_PARAMS = {"t_L": ("--figure", "--dt"), "wrapper_n": (),
                "a_lat_max": ("--figure", "--dt"), "N": ("--s-T",), "s_T": ()}


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
    """The WrapperSpec, (CurvatureProfile, PathTable) or Scenario one sweep
    value builds.

    Raises ValueError for a value the parameter cannot take.
    """
    if not (math.isfinite(v) or (param == "wrapper_n" and v == math.inf)):
        raise ValueError("not a finite number")
    if param == "wrapper_n":
        return WrapperSpec(v, 1.0)
    if param in ("N", "s_T"):
        if param == "N" and v != int(v):
            raise ValueError("N must be an integer")
        prof = CurvatureProfile.periodic(int(v), s_T) if param == "N" \
            else CurvatureProfile.periodic(4, v)
        return prof, build_path(prof)
    return replace(base, gains=replace(base.gains, **{param: v}))


def cmd_sweep(args) -> None:
    if args.param not in SWEEP_PARAMS:
        raise ConfigError(f"--param: unknown sweep parameter {args.param!r}; "
                          f"expected one of {tuple(SWEEP_PARAMS)}")
    texts = [v.strip() for v in args.values.split(",")]
    try:
        values = [float(v) for v in texts]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from None
    for flag, value in (("--figure", args.figure), ("--dt", args.dt),
                        ("--s-T", args.s_T)):
        if value is not None and flag not in SWEEP_PARAMS[args.param]:
            raise ConfigError(f"{flag}: sweep --param {args.param} does "
                              "not read it")
    s_T = 250.0 if args.s_T is None else args.s_T
    base = None
    if args.param in ("t_L", "a_lat_max"):
        base = named_scenario(
            args.figure or ("fig17" if args.param == "t_L" else "fig20"),
            dt=1e-3 if args.dt is None else args.dt)
    items = []
    for text, v in zip(texts, values):
        try:
            items.append(_sweep_item(args.param, v, base, s_T))
        except ValueError as exc:
            raise ConfigError(f"--param '{args.param}' value {text}: "
                              f"{exc}") from None
    if args.param == "wrapper_n":
        return _sweep_wrapper(values, items, _out_dir(args.out))
    # one file per value: two values that would share it exit 2
    files = [f"path_N{prof.N}_sT{prof.s_T:g}.csv" for prof, _ in items] \
        if base is None else [f"trace_{args.param}_{v:g}.csv" for v in values]
    first = {}
    for text, name in zip(texts, files):
        if name in first:
            raise ConfigError(f"--values: {first[name]} and {text} would "
                              f"both write {name}")
        first[name] = text

    out = _out_dir(args.out)
    if base is None:
        return _sweep_paths(items, files, out)
    rows = []
    # each lane's CSV is written as it arrives; see README on exit 3
    for value, name, trace in zip(values, files, _run_concurrently(items),
                                  strict=True):
        tail = trace.t >= trace.t[-1] * 0.4
        rms = float(np.sqrt(np.mean(trace["e_C"][tail] ** 2)))
        rows.append((value, rms))
        trace.to_csv(out / name)
        print(f"{args.param} = {value:g}: post-transient rms e_C = {rms:.5g} m")
    dest = out / f"sweep_{args.param}.csv"
    write_csv(dest, (args.param, "rms_e"), list(zip(*rows)))
    best = min(rows, key=lambda r: r[1])
    print(f"minimum rms e_C = {best[1]:.5g} m at {args.param} = {best[0]:g}")
    print(f"wrote {dest}")


def _sweep_wrapper(values, specs, out: Path) -> None:
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


def _sweep_paths(paths, files, out: Path) -> None:
    panel = Panel("closed paths", "x [m]", "y [m]", equal_aspect=True)
    for (prof, table), name in zip(paths, files):
        label = f"N={prof.N}, s_T={prof.s_T:g}"
        table.to_csv(out / name)
        panel.add(label, table.x, table.y)
        print(f"{label}: perimeter {table.perimeter:.1f} m, closed")
    figure_panels([panel], out / "paths.svg", columns=1)
    print(f"wrote {out / 'paths.svg'}")


def cmd_path(args) -> None:
    for key, kind in _KIND_KEYS.items():
        if getattr(args, key) is not None and args.kind != kind:
            raise ConfigError(f"--{key.replace('_', '-')}: only a {kind} "
                              f"path reads it, not a {args.kind} path")
    if args.kind == "straight":
        profile = CurvatureProfile.straight()
    elif args.kind == "circle":
        profile = CurvatureProfile.circle(
            200.0 if args.radius is None else args.radius)
    else:
        profile = CurvatureProfile.periodic(
            4 if args.N is None else args.N,
            250.0 if args.s_T is None else args.s_T)
    table = build_path(profile, step=args.step, length=args.length)
    out = _out_dir(args.out)
    dest = out / "path.csv"
    table.to_csv(dest)
    closed = "closed" if table.closed else "open"
    print(f"wrote {dest}: {len(table.s)} samples, length {table.length:.2f} m, "
          f"{closed}")
    if args.plot is not False:
        panel = Panel("path", "x [m]", "y [m]", equal_aspect=True)
        panel.add(args.kind, table.x, table.y)
        figure_panels([panel], out / "path.svg", columns=1)
        print(f"wrote {out / 'path.svg'}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonholo",
        description="Nonholonomic single-track vehicle models and "
                    "path-following control")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags it reads
    def out_flag(p):
        p.add_argument("--out", help="output directory (default: out)")

    def dt_flag(p):
        p.add_argument("--dt", type=float, help="integration step [s]")

    def plot_flags(p):
        p.add_argument("--plot", action="store_true", default=None,
                       help="emit SVG plots (default)")
        p.add_argument("--no-plot", action="store_false", dest="plot",
                       help="skip SVG plots")

    p_sim = sub.add_parser("simulate", help="run a scenario or named figure")
    p_sim.add_argument("--figure", choices=FIGURES, help="named scenario")
    p_sim.add_argument("--config", help="scenario config file")
    p_sim.add_argument("--dump-config", action="store_true",
                       help="print the canonical config and exit")
    out_flag(p_sim)
    dt_flag(p_sim)
    plot_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_st = sub.add_parser("stability", help="criterion vs eigenvalue map")
    p_st.add_argument("--k1", nargs=3, type=float, default=[-2.0, 0.5, 50],
                      metavar=("MIN", "MAX", "N"))
    p_st.add_argument("--k2", nargs=3, type=float, default=[-0.05, 0.1, 50],
                      metavar=("MIN", "MAX", "N"))
    p_st.add_argument("--kappa", default="0,0.005,0.012566370614359173",
                      help="comma-separated kappa* values")
    p_st.add_argument("--speed", type=float, default=20.0)
    out_flag(p_st)
    p_st.set_defaults(func=cmd_stability)

    p_sw = sub.add_parser("sweep", help="parameter sweeps")
    p_sw.add_argument("--param", required=True,
                      help=f"one of {tuple(SWEEP_PARAMS)}")
    p_sw.add_argument("--values", required=True,
                      help="comma-separated values")
    p_sw.add_argument("--figure", choices=FIGURES,
                      help="base scenario for trace sweeps")
    p_sw.add_argument("--s-T", dest="s_T", type=float,
                      help="period for N sweeps (default 250)")
    out_flag(p_sw)
    dt_flag(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    p_pa = sub.add_parser("path", help="generate and export a path")
    p_pa.add_argument("--kind", choices=("straight", "circle", "periodic"),
                      default="periodic")
    p_pa.add_argument("--N", type=int, help="periodic corners (default 4)")
    p_pa.add_argument("--s-T", dest="s_T", type=float,
                      help="periodic period (default 250)")
    p_pa.add_argument("--radius", type=float, help="circle radius (default 200)")
    p_pa.add_argument("--length", type=float)
    p_pa.add_argument("--step", type=float, default=0.1)
    out_flag(p_pa)
    plot_flags(p_pa)
    p_pa.set_defaults(func=cmd_path)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one place that maps failures to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except GuardTripped as exc:
        print(f"guard tripped during {args.command}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, NonholoError) as exc:   # ConfigError among them
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
