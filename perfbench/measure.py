#!/usr/bin/env python3
"""Worker process of the benchmark; run.py starts it, one job per process.

    measure.py setup  ...  import nonholo, build the inputs, report the time
    measure.py run    ...  set up, then run measured passes or a traced pass
    measure.py reference   rewrite reference/seed0.json from seed-0 passes

Each job writes its result as JSON to the path given by ``--result``. Only
the standard library is imported before the set-up timer starts, so the
timer covers importing nonholo and numpy.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _setup(args):
    t0 = time.perf_counter()
    import workloads
    inputs = workloads.build(args.workload, args.seed, args.smoke,
                             Path(args.workdir))
    return inputs, time.perf_counter() - t0


def _check_source(root: Path) -> None:
    import nonholo
    src = (root / "src").resolve()
    if src not in Path(nonholo.__file__).resolve().parents:
        raise SystemExit(f"nonholo was imported from {nonholo.__file__}, "
                         f"not from {src}")


def run_pass(inputs, pass_dir: Path, tracer, capture, reference):
    """One pass over the items; returns (wall seconds, checked units).

    Only the item calls are timed. Each item's output directory is checked
    and then removed before the next item starts.
    """
    import checks
    import workloads
    wall = 0.0
    units = []
    for item in inputs.items:
        out = pass_dir / item.name
        out.mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            outcome = workloads.run_item(item, out, tracer)
        except Exception as exc:   # the item failed; it counts, the run goes on
            traceback.print_exc(file=sys.stderr)
            outcome = exc
        wall += time.perf_counter() - t0
        units += checks.check_item(item, outcome, out, capture.traces, reference)
        capture.traces.clear()
        shutil.rmtree(out)
    shutil.rmtree(pass_dir)
    return wall, units


def _pass_record(inputs, wall, units) -> dict:
    counts = {"steps": inputs.steps}
    for key in ("rows", "csv_bytes", "svg_bytes", "points", "calls"):
        counts[key] = sum(u.counts.get(key, 0) for u in units)
    return {"wall_s": wall, "units": len(units),
            "failed": sum(1 for u in units if not u.ok),
            "problems": [p for u in units for p in u.problems][:20],
            "counts": counts}


def cmd_setup(args) -> dict:
    _, setup_s = _setup(args)
    return {"setup_s": setup_s}


def cmd_run(args) -> dict:
    inputs, setup_s = _setup(args)
    _check_source(Path.cwd())
    import numpy
    import checks
    import layers
    from nonholo import sim
    from tracing import NULL_TRACER, Capture, Tracer

    nproc = len(os.sched_getaffinity(0))
    cpu_count = os.cpu_count()
    if cpu_count and cpu_count > nproc:
        # the sweep sizes its process pool by os.cpu_count(); keep it to the
        # CPUs this process may actually run on
        os.cpu_count = lambda: nproc
    reference = None
    if args.seed == 0 and not args.smoke:
        reference = checks.load_reference(args.workload)
    work = Path(args.workdir)
    capture = Capture(sim.SimTrace)
    result = {"setup_s": setup_s, "python": sys.version.split()[0],
              "numpy": numpy.__version__, "nproc": nproc,
              "cpu_count": cpu_count, "cpu_count_program": os.cpu_count()}
    try:
        if not args.trace:
            passes = []
            t_start = time.perf_counter()
            while True:
                c0 = time.perf_counter()
                wall, units = run_pass(inputs, work / f"pass{len(passes)}",
                                       NULL_TRACER, capture, reference)
                passes.append(_pass_record(inputs, wall, units))
                cycle = time.perf_counter() - c0
                if time.perf_counter() - t_start + cycle > args.seconds:
                    break
            result["passes"] = passes
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            result["peak_rss_mb"] = (rss + child) / 1024.0
        else:
            untraced, units0 = run_pass(inputs, work / "untraced", NULL_TRACER,
                                        capture, reference)
            tracer = Tracer()
            layers.install(tracer, sweep=args.workload == "sweep")
            try:
                with tracer.span("pass"):
                    traced, units = run_pass(inputs, work / "traced", tracer,
                                             capture, reference)
            finally:
                tracer.unwrap()
            if args.workload == "sweep":
                for sc in inputs.scenarios:
                    with tracer.span("sweep.serial_lane", t_L=sc.gains.t_L):
                        sim.run_scenario(sc)
            result["passes"] = [_pass_record(inputs, untraced, units0),
                                _pass_record(inputs, traced, units)]
            result["per_layer"] = layers.compute(
                args.workload, tracer, untraced, traced, units, inputs,
                tracer.seconds("sweep.serial_lane"))
            result["per_layer_units"] = layers.METRICS
            result["per_item"] = layers.per_item(tracer, inputs)
            spans = Path.cwd() / ".perfbench" / "traces" / \
                f"{args.workload}-seed{args.seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(spans)
            result["spans_file"] = str(spans.relative_to(Path.cwd()))
    finally:
        capture.close()
    return result


def cmd_reference(args) -> dict:
    """Digests of one seed-0 pass of every workload (run from the repo root)."""
    import checks
    import workloads
    from nonholo import sim
    from tracing import NULL_TRACER, Capture
    capture = Capture(sim.SimTrace)
    work = Path(args.workdir)
    digests = {}
    try:
        for name in workloads.WORKLOADS:
            inputs = workloads.build(name, 0, False, work)
            _, units = run_pass(inputs, work / name, NULL_TRACER, capture, None)
            bad = [p for u in units for p in u.problems]
            if bad:
                raise SystemExit(f"{name}: seed-0 pass fails its checks: {bad[:5]}")
            digests[name] = {u.label: u.digest for u in units}
    finally:
        capture.close()
    checks.REFERENCE.parent.mkdir(exist_ok=True)
    checks.REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True)
                                + "\n", encoding="utf-8")
    return {"written": str(checks.REFERENCE)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "reference"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    job = {"setup": cmd_setup, "run": cmd_run, "reference": cmd_reference}
    result = job[args.mode](args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
