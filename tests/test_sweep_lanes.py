"""The t_L sweep writes each lane as it arrives, from the pool or serially.

The fakes below stand in for ``cli.run_scenario`` and live at module level
so that the pool's workers can unpickle them by name.
"""

import multiprocessing
import os

import pytest

from nonholo import cli
from nonholo.errors import GuardTripped, TubeSingularity
from nonholo.sim import SimTrace, run_scenario

VALUES = (0.0, 0.1, 0.2, 0.3)
TRIP = 2                      # the lane whose run trips a guard
PARENT = os.getpid()


def trips_on_lane_k(scenario):
    if scenario.gains.t_L == VALUES[TRIP]:
        raise GuardTripped(1.25, TubeSingularity("1 - kappa*e = 0"))
    return run_scenario(scenario)


def fails_in_a_worker(scenario):
    if scenario.gains.t_L == VALUES[TRIP] and os.getpid() != PARENT:
        raise RuntimeError("worker lost")
    return run_scenario(scenario)


def _sweep(tmp_path, monkeypatch, fake, cpus):
    monkeypatch.setattr(cli, "run_scenario", fake)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    written = []
    to_csv = SimTrace.to_csv

    def counting_to_csv(trace, path):
        written.append(path.name)
        return to_csv(trace, path)

    monkeypatch.setattr(SimTrace, "to_csv", counting_to_csv)
    rc = cli.main(["sweep", "--param", "t_L", "--figure", "fig17",
                   "--dt", "0.01", "--values", ",".join(map(str, VALUES)),
                   "--out", str(tmp_path)])
    return rc, written


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pool"])
def test_tripped_lane_exits_3_keeping_the_lanes_before(tmp_path, monkeypatch,
                                                       capsys, cpus):
    rc, written = _sweep(tmp_path, monkeypatch, trips_on_lane_k, cpus)
    assert rc == 3
    out, err = capsys.readouterr()
    assert "guard tripped during sweep" in err and "t=1.250000" in err
    lanes = [f"trace_t_L_{v:g}.csv" for v in VALUES]
    assert written == lanes[:TRIP]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(lanes[:TRIP])
    assert not (tmp_path / "sweep_t_L.csv").exists()
    assert [line.split(":")[0] for line in out.splitlines()] == \
        [f"t_L = {v:g}" for v in VALUES[:TRIP]]
    assert multiprocessing.active_children() == []


def test_broken_pool_goes_on_serially_without_repeating(tmp_path,
                                                        monkeypatch, capsys):
    rc, written = _sweep(tmp_path, monkeypatch, fails_in_a_worker, 2)
    assert rc == 0
    assert written == [f"trace_t_L_{v:g}.csv" for v in VALUES]
    assert (tmp_path / "sweep_t_L.csv").exists()
    assert multiprocessing.active_children() == []
