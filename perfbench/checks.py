"""Correctness checks for every item of a pass, and the seed-0 digests.

Invariants hold for every seed: traces are finite, the constraint residual
stays within the model's bound, the stability map agrees with its closed-form
criterion outside the boundary band, every equivalence pair passes, and each
CSV re-read equals the arrays it was written from at ``%.12g``. Seed 0 is
also compared with the committed digests in ``reference/seed0.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nonholo.sim import TRACE_COLUMNS

from workloads import Item

RESID_BOUND = 1e-8        # the residual bound acceptance criterion 8 asserts
TRACE_TOL = 1e-12         # trace agreement the ROADMAP asks of refactors
PROJECT_TOL = 1e-8        # projection must invert reconstruct_pose
STATE_SAMPLES = 400       # committed states kept per trace for replays
REFERENCE = Path(__file__).resolve().parent / "reference" / "seed0.json"


@dataclass
class Unit:
    """One checked output: a figure, a sweep lane or an analysis item."""

    label: str
    problems: list[str] = field(default_factory=list)
    digest: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    states: dict | None = None    # sampled committed states, for replays

    @property
    def ok(self) -> bool:
        return not self.problems


def read_trace_csv(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Header and present columns of a trace CSV (empty fields skipped)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        first = fh.readline().rstrip("\n").split(",")
    present = [i for i, v in enumerate(first) if v != ""]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=present,
                      ndmin=2)
    return header, {header[i]: data[:, k] for k, i in enumerate(present)}


def within_12g(read: np.ndarray, exact: np.ndarray) -> bool:
    """True when every read value is exact printed to 12 significant digits."""
    exact = np.asarray(exact, dtype=float)
    mag = np.abs(exact)
    safe = np.where(mag > 0.0, mag, 1.0)
    half_unit = 0.5 * 10.0 ** (np.floor(np.log10(safe)) - 11)
    slack = 1e-15 * safe
    ok = np.abs(read - exact) <= half_unit + slack
    return bool(np.all(np.where(mag > 0.0, ok, read == 0.0)))


def check_trace(path: Path, trace, rows: int) -> list[str]:
    """Re-read a trace CSV and compare it with the in-memory trace."""
    if not path.is_file():
        return [f"{path.name} missing"]
    try:
        header, cols = read_trace_csv(path)
    except (ValueError, OSError) as exc:
        return [f"{path.name} unreadable: {exc}"]
    problems = []
    if header != list(TRACE_COLUMNS):
        problems.append(f"{path.name}: header differs from TRACE_COLUMNS")
    for name, col in cols.items():
        if len(col) != rows:
            problems.append(f"{path.name}: {len(col)} rows, expected {rows}")
            break
        if not np.all(np.isfinite(col)):
            problems.append(f"{path.name}: column {name} not finite")
    if "resid_max" in cols and not float(np.max(cols["resid_max"])) <= RESID_BOUND:
        problems.append(f"{path.name}: max resid_max "
                        f"{float(np.max(cols['resid_max'])):.3e} > {RESID_BOUND:g}")
    if trace is None:
        problems.append(f"{path.name}: no in-memory trace was captured")
    else:
        expected = [n for n in TRACE_COLUMNS if trace.has(n)]
        if sorted(expected) != sorted(cols):
            problems.append(f"{path.name}: written columns differ from the trace")
        for name in expected:
            if name in cols and len(cols[name]) == len(trace[name]) \
                    and not within_12g(cols[name], trace[name]):
                problems.append(f"{path.name}: column {name} differs from "
                                f"the trace at %.12g")
    return problems


def check_svg(path: Path) -> list[str]:
    if not path.is_file() or path.stat().st_size == 0:
        return [f"{path.name} missing or empty"]
    text = path.read_text(encoding="utf-8")
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return [f"{path.name} is not a complete SVG document"]
    return []


def _number(v):
    v = float(v)
    return v if math.isfinite(v) else repr(v)


def column_digest(cols: dict[str, np.ndarray]) -> dict:
    return {name: [_number(np.min(c)), _number(np.max(c)),
                   _number(np.mean(c)), _number(c[-1])]
            for name, c in sorted(cols.items())}


def trace_digest(trace) -> dict:
    cols = {n: np.asarray(trace[n]) for n in TRACE_COLUMNS if trace.has(n)}
    return {"columns": column_digest(cols),
            "summary": {k: _number(v) for k, v in sorted(trace.summary().items())}}


def compare(got, ref, where: str = "") -> list[str]:
    """Problems where got differs from ref beyond TRACE_TOL (relative above 1)."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: missing"]
        out = []
        for key, value in ref.items():
            out += compare(got.get(key), value, f"{where}/{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: shape differs"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += compare(g, r, f"{where}[{i}]")
        return out
    if isinstance(ref, str) or isinstance(got, str) or got is None:
        return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]
    if abs(got - ref) <= TRACE_TOL * max(1.0, abs(ref)):
        return []
    return [f"{where}: {got!r} differs from reference {ref!r}"]


def load_reference(workload: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})


def sample_states(trace) -> dict[str, np.ndarray]:
    """Evenly spaced committed states of a trace, for the layer replays."""
    n = len(trace.t)
    idx = np.unique(np.linspace(0, n - 1, min(n, STATE_SAMPLES)).astype(int))
    return {name: np.asarray(trace[name])[idx]
            for name in ("s_C", "e_C", "theta_C", "x_G", "y_G", "psi",
                         "sigma1", "gamma", "a_des")
            if trace.has(name)}


def _simulate_units(item: Item, code, out: Path, traces: dict) -> list[Unit]:
    unit = Unit(item.name)
    if code != 0:
        unit.problems.append(f"exit code {code}")
        return [unit]
    csv = out / "trace.csv"
    trace = traces.get(str(csv))
    problems = check_trace(csv, trace, item.steps + 1)
    unit.problems += problems
    svgs = sorted(out.glob("*.svg"))
    if len(svgs) != 1:
        unit.problems.append(f"expected one SVG, found {len(svgs)}")
    else:
        unit.problems += check_svg(svgs[0])
        unit.counts["svg_bytes"] = svgs[0].stat().st_size
    if csv.is_file():
        unit.counts["csv_bytes"] = csv.stat().st_size
    unit.counts["rows"] = item.steps + 1
    if trace is not None and not problems:
        unit.digest = trace_digest(trace)
        unit.states = sample_states(trace)
    return [unit]


def _sweep_units(item: Item, code, out: Path, traces: dict) -> list[Unit]:
    labels = item.params["labels"]
    units = [Unit(f"t_L={label}") for label in labels]
    if code != 0:
        for unit in units:
            unit.problems.append(f"sweep exit code {code}")
        return units
    sweep_csv = out / "sweep_t_L.csv"
    try:
        table = np.loadtxt(sweep_csv, delimiter=",", skiprows=1, ndmin=2)
        rms = dict(zip((f"{v:g}" for v in table[:, 0]), table[:, 1]))
    except (ValueError, OSError) as exc:
        rms = {}
        units[0].problems.append(f"sweep_t_L.csv unreadable: {exc}")
    for unit, label, sc in zip(units, labels, item.scenarios):
        csv = out / f"trace_t_L_{label}.csv"
        trace = traces.get(str(csv))
        rows = int(round(sc.duration / sc.dt)) + 1
        problems = check_trace(csv, trace, rows)
        unit.problems += problems
        value = rms.get(label)
        if value is None or not math.isfinite(value) or value < 0.0:
            unit.problems.append(f"sweep_t_L.csv has no valid row for {label}")
        if csv.is_file():
            unit.counts["csv_bytes"] = csv.stat().st_size
        unit.counts["rows"] = rows
        if trace is not None and not problems:
            unit.digest = trace_digest(trace)
            unit.digest["rms_e"] = _number(value) if value is not None else None
            unit.states = sample_states(trace)
    return units


def _angle_error(a, b):
    """Difference of two angle arrays, wrapped to [-pi, pi)."""
    d = np.asarray(a) - np.asarray(b)
    return d - 2.0 * math.pi * np.floor(d / (2.0 * math.pi) + 0.5)


def _analysis_unit(item: Item, result) -> Unit:
    unit = Unit(item.name)
    if item.kind == "stability":
        outside = [row for row in result if not row[5]]
        disagree = sum(1 for row in outside if not row[4])
        expected = len(item.params["k1"]) * len(item.params["k2"])
        if len(result) != expected:
            unit.problems.append(f"{len(result)} grid rows, expected {expected}")
        if disagree:
            unit.problems.append(f"{disagree} of {len(outside)} points outside "
                                 f"the boundary band disagree")
        eig = np.array([row[3] for row in result])
        if not np.all(np.isfinite(eig)):
            unit.problems.append("non-finite eigenvalue")
        unit.digest = {"points": len(result), "outside": len(outside),
                       "criterion_stable": sum(1 for r in result if r[2]),
                       "eig_max_real": [_number(eig.min()), _number(eig.max()),
                                        _number(eig.mean())]}
        unit.counts["points"] = len(result)
    elif item.kind == "equivalence":
        if not result.passed:
            unit.problems.append(f"{result.pair}: deviation "
                                 f"{result.max_deviation:.3e} >= tol {result.tol:g}")
        unit.digest = {"max_deviation": _number(result.max_deviation)}
    else:
        traj = item.params["traj"]
        ds = np.abs(result[:, 0] - traj["s"])
        de = np.abs(result[:, 1] - traj["e"])
        dth = np.abs(_angle_error(result[:, 2], traj["theta"]))
        worst = float(max(ds.max(), de.max(), dth.max()))
        if not worst <= PROJECT_TOL:
            unit.problems.append(f"projection misses the trajectory by {worst:.3e}")
        unit.digest = column_digest({"s_C": result[:, 0], "e_C": result[:, 1],
                                     "theta_C": result[:, 2]})
        unit.counts["calls"] = len(result)
        idx = np.unique(np.linspace(0, len(result) - 1,
                                    min(len(result), STATE_SAMPLES)).astype(int))
        unit.states = {"s_C": traj["s"][idx], "e_C": traj["e"][idx],
                       "theta_C": traj["theta"][idx]}
    return unit


def check_item(item: Item, outcome, out: Path, traces: dict,
               reference: dict | None) -> list[Unit]:
    """Check one item's outputs; ``outcome`` is what run_item returned.

    An exception raised by the item is passed in as ``outcome`` and fails
    every unit of the item.
    """
    if isinstance(outcome, BaseException):
        labels = ([f"t_L={v}" for v in item.params["labels"]]
                  if item.kind == "sweep" else [item.name])
        return [Unit(label, [f"raised {type(outcome).__name__}: {outcome}"])
                for label in labels]
    if item.kind == "simulate":
        units = _simulate_units(item, outcome, out, traces)
    elif item.kind == "sweep":
        units = _sweep_units(item, outcome, out, traces)
    else:
        units = [_analysis_unit(item, outcome)]
    if reference is not None:
        for unit in units:
            if unit.ok:
                if unit.label not in reference:
                    unit.problems.append("no reference digest")
                else:
                    unit.problems += compare(unit.digest, reference[unit.label],
                                             unit.label)
    return units
