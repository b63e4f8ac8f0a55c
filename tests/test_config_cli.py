from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nonholo.cli import main
from nonholo.config import (_BLOCKS, _MODE_BLOCKS, dump_config, parse_blocks,
                            scenario_from_config)
from nonholo.control import LAWS
from nonholo.errors import ConfigError
from nonholo.models import Variant
from nonholo.sim import (FIGURES, MODE_READS, MODES, TRACE_COLUMNS,
                         named_scenario, run_scenario)

MINIMAL = """
path {
    kind = periodic
    N = 4
    s_T = 250
}
controller {
    mode = steer_only
    k2 = 0.03
}
sim {
    duration = 5
    e0 = -3
}
output {
    dir = results
    plot = false
}
"""

# values drawn for the fuzzed config texts: plausible ones, edge cases
# (zero, sign, subnormal, huge, non-finite) and words that are not numbers
_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "2", "4", "0.5", "0.01", "250",
                     "1e-320", "1e308", "-1e308", "nan", "inf", "-inf",
                     "2.5", "x", ""]),
    st.floats().map(repr))
_WORDS = {
    "kind": ["straight", "circle", "periodic", "spiral"],
    "mode": [*MODES, "bogus"],
    "law": [*LAWS, "bogus"],
    "wrapper_n": ["2", "3", "inf", "1", "1001", "-inf", "nan", "2.5", "x"],
    "plot": ["true", "false", "maybe"],
    "dir": ["results"],
}


@st.composite
def config_texts(draw):
    mode = draw(st.sampled_from(_WORDS["mode"]))
    # most texts name their mode and set only keys that it reads, so that
    # enough of them parse for the round trip below to run
    reads = MODE_READS.get(mode) if draw(st.integers(0, 4)) else None
    lines = []
    for block, keys in _BLOCKS.items():
        head = [] if reads is None or block != "controller" \
            else [f"    mode = {mode}"]
        if not head and draw(st.booleans()):
            continue
        if reads is not None and block in _MODE_BLOCKS:
            keys = [k for k in keys if k in reads and k != "mode"]
        lines += [f"{block} {{", *head]
        drawn = st.lists(st.sampled_from(keys), unique=True, max_size=6) \
            if keys else st.just([])
        for key in draw(drawn):
            value = draw(st.sampled_from(_WORDS[key]) if key in _WORDS
                         else _NUMBERS)
            lines.append(f"    {key} = {value}")
        lines.append("}")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["}", "sim {", "k1 = 1", "bogus {",
                                           "junk", "# comment"])))
    return "\n".join(lines) + "\n"


class TestConfig:
    def test_minimal_parse(self):
        sc, output = scenario_from_config(MINIMAL)
        assert sc.profile.N == 4
        assert sc.duration == 5.0
        assert sc.e0 == -3.0
        assert sc.gains.k2 == 0.03
        assert sc.variant is Variant.SKATE_KINEMATIC
        assert output == {"dir": "results", "plot": False}

    def test_round_trip(self):
        for name in FIGURES:
            sc = named_scenario(name)
            text = dump_config(sc)
            blocks = parse_blocks(text)
            # the dump holds exactly the keys its mode reads
            assert {k for b in _MODE_BLOCKS for k in blocks[b]} \
                == MODE_READS[sc.mode]
            back, _ = scenario_from_config(text)
            assert replace(back, name=sc.name) == sc
            assert dump_config(back) == text

    def test_unknown_key_named(self):
        bad = "sim {\n    wheelbase = 2.5\n}\n"
        with pytest.raises(ConfigError, match="wheelbase"):
            scenario_from_config(bad)

    def test_unknown_block_named(self):
        with pytest.raises(ConfigError, match="tires"):
            scenario_from_config("tires {\n}\n")

    def test_bad_number_named(self):
        with pytest.raises(ConfigError, match="duration"):
            scenario_from_config("sim {\n    duration = soon\n}\n")

    @pytest.mark.parametrize("block,key", [("vehicle", "m"), ("path", "s_T"),
                                           ("controller", "k1"),
                                           ("sim", "duration")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_named(self, block, key, value):
        # steer_longitudinal reads every key named here
        blocks = {"controller": "    mode = steer_longitudinal\n"}
        blocks[block] = blocks.get(block, "") + f"    {key} = {value}\n"
        text = "".join(f"{name} {{\n{body}}}\n" for name, body in blocks.items())
        with pytest.raises(ConfigError, match=f"{key}.*not finite"):
            scenario_from_config(text)

    def test_model_follows_mode(self):
        for mode, model in (("none", "skate_kinematic"),
                            ("steer_only", "skate_kinematic"),
                            ("steer_torque", "skate_torque_steer"),
                            ("steer_longitudinal", "skate_force")):
            sc, _ = scenario_from_config(
                f"controller {{\n    mode = {mode}\n}}\n")
            assert sc.variant is Variant(model)

    def test_steer_longitudinal_starts_at_V(self):
        sc, _ = scenario_from_config(
            "controller {\n    mode = steer_longitudinal\n}\n"
            "sim {\n    V = 25\n    duration = 0.1\n    dt = 0.01\n}\n")
        assert run_scenario(sc)["sigma1"][0] == 25.0


# a value other than the default of each vehicle, controller and sim key;
# it changes a short run (_base_config) of every mode that reads the key
_BINDING = {
    "l": "3", "d": "1", "m": "1000", "m_R": "50", "m_F": "50",
    "J_G": "2000", "J_R": "5", "J_F": "1", "r": "0.4",
    # below atan(a_lat_max * l / V^2) = 0.0257 rad at 20 m/s
    "gamma_max": "0.005",
    "law": "nonlinear", "wrapper_n": "3", "k1": "-1", "k2": "0.05",
    "k_s": "-10", "T_sat": "0.5", "k_a": "-1", "a_lat_max": "2",
    "a_long_max": "1", "v_max": "5", "t_L": "0.3", "preview_dist": "3",
    "dt": "0.02", "duration": "2", "V": "15", "e0": "-3", "theta0": "0.1",
    "s0": "10", "gamma0": "0.01", "sigma2_0": "0.01",
}
_ALL_KEYS = tuple(k for b in _MODE_BLOCKS for k in _BLOCKS[b])


def _reads(mode: str, law: str) -> frozenset[str]:
    return replace(named_scenario("fig13"), mode=mode, law=law).reads


def _cases(read: bool):
    """(mode, law, key) over every law the mode reads, for the keys that a
    scenario of that mode and law reads (or does not); a wrapped case's id
    is mode-key."""
    return [pytest.param(mode, law, key, id="-".join(
                (mode, key) if law == "wrapped" else (mode, law, key)))
            for mode in MODES
            for law in (LAWS if "law" in MODE_READS[mode] else ("wrapped",))
            for key in _ALL_KEYS if (key in _reads(mode, law)) == read]


_UNREAD = _cases(read=False)
_READ = _cases(read=True)


def _holder(sc, key: str):
    """The scenario, vehicle or gain object with the field ``key``."""
    return next(h for h in (sc.params, sc.gains, sc) if hasattr(h, key))


def _law(law: str) -> dict[str, str]:
    """The controller key that selects ``law``; none for the default."""
    return {} if law == "wrapped" else {"law": law}


def _block_of(key: str) -> str:
    return next(b for b in _MODE_BLOCKS if key in _BLOCKS[b])


def _base_config(mode: str, **keys: str) -> str:
    blocks = {"path": {"kind": "periodic", "N": "4", "s_T": "250"},
              "controller": {"mode": mode},
              "sim": {"duration": "1", "dt": "0.01", "e0": "-2"}}
    for key, value in keys.items():
        blocks.setdefault(_block_of(key), {})[key] = value
    return "".join(f"{b} {{\n" + "".join(f"    {k} = {v}\n"
                                         for k, v in body.items()) + "}\n"
                   for b, body in blocks.items())


class TestModeReads:
    def test_table_sizes(self):
        assert len(_ALL_KEYS) == 31
        assert {m: len(MODE_READS[m]) for m in MODES} == {
            "none": 9, "steer_only": 15, "steer_torque": 21,
            "steer_longitudinal": 23}
        # the linear and nonlinear laws read neither the steering bound
        # (gamma_max, a_lat_max) nor wrapper_n
        assert {(m, law): len(_reads(m, law))
                for m in ("steer_only", "steer_torque")
                for law in ("linear", "nonlinear")} == {
            ("steer_only", "linear"): 12, ("steer_only", "nonlinear"): 12,
            ("steer_torque", "linear"): 18, ("steer_torque", "nonlinear"): 18}

    @pytest.mark.parametrize("mode,law,key", _UNREAD)
    @pytest.mark.parametrize("dump", [False, True])
    def test_unread_key_exit_2(self, tmp_path, capsys, mode, law, key, dump):
        # even at its default value
        default = getattr(_holder(
            scenario_from_config(_base_config(mode, **_law(law)))[0], key), key)
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(_base_config(mode, **_law(law), **{key: f"{default}"}))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out),
                   *(["--dump-config"] if dump else [])])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"'{key}': mode {mode} does not read it" in captured.err
        assert (f"under law {law}" in captured.err) == (key in MODE_READS[mode])
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("mode,law,key", _UNREAD)
    def test_scenario_holds_unread_key_at_default(self, mode, law, key):
        sc = scenario_from_config(_base_config(mode, **_law(law)))[0]
        holder = _holder(sc, key)
        value = {key: type(getattr(holder, key))(_BINDING[key])}
        with pytest.raises(ValueError, match=f"'{key}': {mode} does not read"):
            if holder is sc:
                replace(sc, **value)
            elif holder is sc.params:
                replace(sc, params=replace(sc.params, **value))
            else:
                replace(sc, gains=replace(sc.gains, **value))

    @pytest.mark.parametrize("mode,law,key", _READ)
    def test_read_key_changes_trace(self, mode, law, key):
        if (mode, key) == ("none", "l"):
            # with the wheel held straight, l cancels out of every column;
            # the mode reads it as the bound of d (l > d)
            with pytest.raises(ValueError, match="l > d"):
                scenario_from_config(_base_config(mode, l="1"))
            return
        base = run_scenario(
            scenario_from_config(_base_config(mode, **_law(law)))[0])
        if key == "mode":
            text = _base_config("steer_only" if mode == "none" else "none")
        else:
            value = _BINDING[key]
            if key == "law" and value == law:
                value = "wrapped"
            text = _base_config(mode, **{**_law(law), key: value})
        changed = run_scenario(scenario_from_config(text)[0])
        assert any(base.has(n) != changed.has(n) or (
            base.has(n) and not np.array_equal(base[n], changed[n]))
            for n in TRACE_COLUMNS)


class TestCli:
    def test_simulate_figure_with_plot(self, tmp_path):
        rc = main(["simulate", "--figure", "fig14", "--dt", "0.005",
                   "--out", str(tmp_path)])
        assert rc == 0
        svg = (tmp_path / "fig14.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_simulate_straight_from_s0(self, tmp_path, capsys):
        cfg = tmp_path / "far.cfg"
        cfg.write_text("sim {\n    s0 = 500\n    duration = 1\n"
                       "    dt = 0.01\n}\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                   "--no-plot"])
        assert rc == 0
        rows = [r.split(",") for r in
                (tmp_path / "trace.csv").read_text().splitlines()]
        col = rows[0].index
        assert float(rows[-1][col("s_C")]) == pytest.approx(520.0)
        assert float(rows[-1][col("x_G")]) == pytest.approx(521.54)

    def test_dump_config_keeps_output(self, tmp_path, capsys):
        cfg = tmp_path / "output.cfg"
        cfg.write_text("output {\n    dir = results\n    plot = false\n}\n")
        assert main(["simulate", "--config", str(cfg), "--dump-config"]) == 0
        text = capsys.readouterr().out
        assert "    dir = results\n" in text and "    plot = false\n" in text
        again = tmp_path / "again.cfg"
        again.write_text(text)
        assert main(["simulate", "--config", str(again), "--dump-config"]) == 0
        assert capsys.readouterr().out == text
        assert not (tmp_path / "results").exists()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=config_texts())
    def test_config_fuzz_exits_0_or_2(self, tmp_path, capsys, text):
        path = tmp_path / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        rc = main(["simulate", "--config", str(path), "--dump-config",
                   "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc in (0, 2)
        if rc == 0:
            # the canonical text parses back to itself
            assert dump_config(*scenario_from_config(out)) == out

    def test_stability_map(self, tmp_path, capsys):
        rc = main(["stability", "--k1", "-2", "0.5", "12", "--k2", "-0.05",
                   "0.1", "12", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "agreement 100.00%" in out
        lines = (tmp_path / "stability.csv").read_text().splitlines()
        assert lines[0] == "k1,k2,kappa_star,criterion,eig_max_real,agree"
        assert len(lines) == 1 + 12 * 12 * 3

    def test_sweep_lookahead(self, tmp_path, capsys):
        rc = main(["sweep", "--param", "t_L", "--values", "0,0.3",
                   "--dt", "0.01", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "minimum rms e_C" in out
        body = (tmp_path / "sweep_t_L.csv").read_text().splitlines()
        assert body[0] == "t_L,rms_e"
        rms = {float(r.split(",")[0]): float(r.split(",")[1])
               for r in body[1:]}
        assert rms[0.3] < rms[0.0]

    def test_sweep_wrapper_curves(self, tmp_path):
        rc = main(["sweep", "--param", "wrapper_n", "--values", "2,3,5,1000",
                   "--out", str(tmp_path)])
        assert rc == 0
        header = (tmp_path / "wrapper_curves.csv").read_text().splitlines()[0]
        assert header.startswith("x,g_2,gp_2,g_3")
        assert (tmp_path / "wrapper_curves.svg").exists()

    def test_path_export(self, tmp_path, capsys):
        rc = main(["path", "--kind", "periodic", "--N", "4", "--s-T", "250",
                   "--out", str(tmp_path), "--no-plot"])
        assert rc == 0
        lines = (tmp_path / "path.csv").read_text().splitlines()
        assert lines[0] == "s,x,y,psi,kappa"
        assert len(lines) == 1 + 10001
