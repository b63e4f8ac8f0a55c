#!/usr/bin/env python3
"""Run every built-in scenario and write traces + SVG panels to out/figures."""

import sys
import time
from pathlib import Path

from nonholo.cli import _plot_trace
from nonholo.sim import FIGURES, _build_table, named_scenario, run_scenario


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/figures")
    out.mkdir(parents=True, exist_ok=True)
    total = 0.0
    for name in FIGURES:
        scenario = named_scenario(name)
        t0 = time.perf_counter()
        table = _build_table(scenario)
        trace = run_scenario(scenario, table)
        wall = time.perf_counter() - t0
        total += wall
        trace.to_csv(out / f"{name}_trace.csv")
        _plot_trace(trace, scenario, table, out)
        s = trace.summary()
        print(f"{name}: {wall:5.2f} s wall, rms e_C = {s['rms_e']:.4g} m, "
              f"tail rms = {s['rms_e_tail']:.4g} m, "
              f"peak |a_lat| = {s.get('peak_a_lat', float('nan')):.2f} m/s^2")
    print(f"total {total:.1f} s; wrote traces and panels to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
