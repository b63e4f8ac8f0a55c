"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import measure
import workloads
from nonholo import sim
from tracing import Capture

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds",
                  "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    text = "\n".join(lines[:-1])
    for name in [m["name"] for m in declared] + ["failed_frac"]:
        assert name in text


def _written_trace(tmp_path: Path):
    """A short fig16 run written the way the CLI writes it."""
    sc = replace(sim.named_scenario("fig16"), duration=0.2)
    item = workloads.Item("fig16", "simulate", int(round(sc.duration / sc.dt)),
                          scenarios=[sc])
    capture = Capture(sim.SimTrace)
    try:
        sim.run_scenario(sc).to_csv(tmp_path / "trace.csv")
    finally:
        capture.close()
    (tmp_path / "fig16.svg").write_text("<svg></svg>\n", encoding="utf-8")
    return item, capture.traces


def _corrupt_value(text: str) -> str:
    lines = text.splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[8] = repr(float(fields[8]) + 1e-6)
    lines[5] = ",".join(fields)
    return "".join(lines)


def _corrupt_nan(text: str) -> str:
    lines = text.splitlines(keepends=True)
    fields = lines[7].split(",")
    fields[1] = "nan"
    lines[7] = ",".join(fields)
    return "".join(lines)


def _truncate(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-3])


def test_clean_trace_passes(tmp_path):
    item, traces = _written_trace(tmp_path)
    units = checks.check_item(item, 0, tmp_path, traces, None)
    assert [u.problems for u in units] == [[]]


@pytest.mark.parametrize("corrupt", [_corrupt_value, _corrupt_nan, _truncate])
def test_corrupted_trace_raises_failed_frac(tmp_path, corrupt):
    item, traces = _written_trace(tmp_path)
    csv = tmp_path / "trace.csv"
    csv.write_text(corrupt(csv.read_text(encoding="utf-8")), encoding="utf-8")
    units = checks.check_item(item, 0, tmp_path, traces, None)
    record = measure._pass_record(
        workloads.Inputs("lateral", 1, True, [item], []), 1.0, units)
    assert record["failed"] == 1 and record["units"] == 1


def test_reference_mismatch_fails(tmp_path):
    item, traces = _written_trace(tmp_path)
    digest = checks.check_item(item, 0, tmp_path, traces, None)[0].digest
    digest["summary"]["rms_e"] += 1e-9
    units = checks.check_item(item, 0, tmp_path, traces, {"fig16": digest})
    assert not units[0].ok


def test_within_12g_is_exact_at_printed_precision():
    rng = np.random.default_rng(5)
    exact = rng.standard_normal(2000) * 10.0 ** rng.integers(-8, 8, 2000)
    read = np.array([float(f"{v:.12g}") for v in exact])
    assert checks.within_12g(read, exact)
    read[17] *= 1.0 + 1e-10
    assert not checks.within_12g(read, exact)


def _fingerprint(inputs) -> list:
    out = list(inputs.config_texts)
    for item in inputs.items:
        out.append(item.argv)
        p = item.params
        if "k1" in p:
            out.append((p["k1"][0], p["k1"][-1], p["k2"][0], p["k2"][-1]))
        if "traj" in p:
            out.append((p["traj"]["e"][0], p["traj"]["theta"][0]))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(tmp_path, workload):
    def build(seed):
        d = tmp_path / str(seed)
        d.mkdir(exist_ok=True)
        return _fingerprint(workloads.build(workload, seed, False, d))

    assert build(3) == build(3)
    assert build(3) != build(4)


def test_stripped_checkout_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "lateral", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "attempted" not in proc.stdout
