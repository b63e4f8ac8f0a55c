#!/usr/bin/env python3
"""The nonholo benchmark. Run it from the root of a checkout:

    python3 perfbench/run.py --workload lateral --seed 0 --seconds 20 --trace 0

Workloads: lateral, longitudinal, sweep, analysis (see perfbench/README.md).
With --trace 0 it reports the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced pass. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

This process imports no part of nonholo. It times the set-up in separate
worker processes, runs the measured passes in one more, and removes every
file they wrote except the span file of a traced run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5           # set-up is timed in this many fresh processes
TIME_LIMIT_S = 170.0        # every worker together, well inside 180 s
WORKLOADS = ("lateral", "longitudinal", "sweep", "analysis")
END_TO_END = {"setup_s": "s", "pass_s": "s", "steps_per_s": "1/s",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _worker(mode: str, args, tmp: Path, env: dict, deadline: float) -> dict:
    """Run measure.py in its own process group; kill the group on timeout."""
    result = tmp / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "measure.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(tmp / "work"), "--result", str(result)]
    if args.smoke:
        cmd.append("--smoke")
    (tmp / "work").mkdir(exist_ok=True)
    proc = subprocess.Popen(cmd, env=env, cwd=Path.cwd(), stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{mode} worker exceeded the time limit")
    finally:
        # the sweep's pool workers share the worker's process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    shutil.rmtree(tmp / "work", ignore_errors=True)
    if code != 0 or not result.is_file():
        raise BenchError(f"{mode} worker exited with code {code}")
    return json.loads(result.read_text(encoding="utf-8"))


def _stats(values: list[float]) -> dict:
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _provenance(args, run: dict) -> dict:
    root = Path.cwd()
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "nonholo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    counts = [p["counts"] for p in run["passes"]]
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "smoke": args.smoke,
            "nproc": run["nproc"], "cpu_count": run["cpu_count"],
            "cpu_count_program": run["cpu_count_program"],
            "python": run["python"], "numpy": run["numpy"],
            "passes": len(run["passes"]), "counts": counts[0],
            "counts_repeat": all(c == counts[0] for c in counts)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nonholo benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nonholo" / "__init__.py").is_file():
        print("perfbench: run from the root of a nonholo checkout "
              "(src/nonholo not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    env = {k: v for k, v in os.environ.items() if k != "NONHOLO_OUT"}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    try:
        setups = [_worker("setup", args, tmp, env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        run = _worker("run", args, tmp, env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()      # kept only when it holds span files
        except OSError:
            pass

    passes = run["passes"]
    attempted = sum(p["units"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for problem in p["problems"]:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
    stats = {"setup_s": _stats(setups + [run["setup_s"]])}
    if not args.trace:
        stats["pass_s"] = _stats([p["wall_s"] for p in passes])
        stats["steps_per_s"] = _stats([p["counts"]["steps"] / p["wall_s"]
                                       for p in passes])
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items() if name in stats}
        metrics["peak_rss_mb"] = {"value": run["peak_rss_mb"], "unit": "MB"}
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} items, {failed} failed")
    for name, s in stats.items():
        print(f"  {name:<12} median {s['median']:.6g} {END_TO_END[name]} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    if not args.trace:
        print(f"  {'peak_rss_mb':<12} {run['peak_rss_mb']:.6g} MB")
    print(f"  {'failed_frac':<12} {failed / attempted if attempted else 1.0:.6g} "
          f"({failed}/{attempted})")
    if args.trace:
        metrics = {}
        units = run["per_layer_units"]
        for name, value in run["per_layer"].items():
            print(f"  {name:<36} {value:.6g} {units[name]}")
            metrics[name] = {"value": value, "unit": units[name]}
        print("  per item (seconds in spans of the traced pass):")
        for row in run["per_item"]:
            spans = ", ".join(f"{k} {v:.4g}" for k, v in sorted(row["spans_s"].items()))
            print(f"    {row['item']}: {row['steps']} steps; {spans}")
        print(f"  spans written to {run['spans_file']}")
    print("provenance " + json.dumps(_provenance(args, run), sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
