import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nonholo import cli
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


# heads straight off a 200 m circle until 1 - kappa*e reaches zero
GUARD = ("path {\n    kind = circle\n    radius = 200\n}\n"
         "controller {\n    mode = none\n}\n"
         "sim {\n    duration = 15\n    V = 20\n    theta0 = 1.5707963\n"
         "    dt = 0.005\n}\n")


class TestCli:
    def test_simulate_figure_no_plot(self, tmp_path, capsys):
        rc = main(["simulate", "--figure", "fig13", "--no-plot",
                   "--dt", "0.005", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no overshoot" in out
        assert (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "fig13.svg").exists()

    def test_simulate_figure_with_plot(self, tmp_path):
        rc = main(["simulate", "--figure", "fig14", "--dt", "0.005",
                   "--out", str(tmp_path)])
        assert rc == 0
        svg = (tmp_path / "fig14.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_simulate_config(self, tmp_path, capsys):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(MINIMAL)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                   "--no-plot"])
        assert rc == 0
        assert (tmp_path / "trace.csv").exists()

    def test_simulate_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sim {\n    warpdrive = 1\n}\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "warpdrive" in capsys.readouterr().err

    @pytest.mark.parametrize("text,key", [
        ("sim {\n    duration = nan\n}\n", "duration"),
        ("controller {\n    wrapper_n = nan\n}\n", "wrapper_n"),
        # no key with a single legal value, a derived value or no effect
        ("sim {\n    model = wheel_torque_torque_steer\n}\n", "model"),
        ("sim {\n    model = skate_kinematic\n}\n", "model"),
        ("path {\n    kind = periodic\n    N = 4\n    s_T = 250\n"
         "    kappa_max = 0.012566370614359173\n}\n", "kappa_max"),
        ("path {\n    kind = circle\n    kappa_max = 0.005\n}\n", "kappa_max"),
        ("sim {\n    sigma1_0 = 20\n}\n", "sigma1_0"),
        ("sim {\n    gamma0 = 0.1\n}\n", "gamma0"),
        ("sim {\n    sigma2_0 = 0.1\n}\n", "sigma2_0"),
        ("controller {\n    mode = steer_longitudinal\n}\n"
         "sim {\n    gamma0 = 0.1\n}\n", "gamma0"),
        ("path {\n    kind = periodic\n    N = 4\n    s_T = 250\n"
         "    step = 60\n}\n", "step"),
        ("controller {\n    law = bogus\n}\n", "law"),
        ("controller {\n    wrapper_n = 1\n}\n", "wrapper_n"),
        ("controller {\n    wrapper_n = 1001\n}\n", "wrapper_n"),
        ("path {\n    kind = periodic\n    N = 2.5\n    s_T = 250\n}\n", "N"),
        ("controller {\n    mode = steer_longitudinal\n    law = linear\n}\n",
         "law"),
        ("controller {\n    mode = steer_longitudinal\n    t_L = 0.3\n}\n",
         "t_L"),
        ("sim {\n    duration = 1\n    dt = 0.3\n}\n", "duration"),
        # 30 s at 20 m/s runs 600 m along a 300 m open piece of the path
        ("path {\n    kind = periodic\n    N = 4\n    s_T = 250\n"
         "    length = 300\n}\nsim {\n    dt = 0.005\n}\n", "length"),
        ("controller {\n    mode = steer_only\n    t_L = 0.1\n}\n", "t_L"),
        # a straight table starts at s = 0, so no length covers s0 < 0
        ("sim {\n    s0 = -5\n    duration = 1\n    dt = 0.01\n}\n", "s0"),
        ("path {\n    length = -5\n}\n", "length"),
        ("path {\n    length = 0\n}\n", "length"),
        ("path {\n    length = 1e17\n}\n", "length"),
        ("path {\n    step = 0\n}\n", "step"),
        ("path {\n    kind = circle\n    radius = 100\n    step = -1\n}\n",
         "step"),
        # a profile key of another kind of path
        ("path {\n    kind = periodic\n    N = 4\n    s_T = 250\n"
         "    radius = 5\n}\n", "radius"),
        ("path {\n    kind = circle\n    radius = 200\n    N = 7\n}\n", "N"),
        ("path {\n    kind = circle\n    s_T = 3\n    radius = 200\n}\n",
         "s_T"),
        ("path {\n    radius = 200\n    length = 900\n}\n", "radius"),
        ("path {\n    kind = straight\n    N = 4\n    length = 900\n}\n",
         "N"),
    ])
    def test_simulate_bad_config_exit_2(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "Traceback" not in err
        assert not out.exists()

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

    def test_simulate_guard_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "guard.cfg"
        cfg.write_text(GUARD)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "guard tripped" in err and "t=" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,code,prefix,named", [
        (["simulate", "--figure", "fig13", "--dt", "0"], 2, "config error:",
         "'dt'"),
        (["simulate", "--config", "{tmp}/missing.cfg"], 2, "config error:",
         "--config"),
        (["stability", "--speed", "0"], 2, "config error:", "--speed"),
        (["sweep", "--param", "bogus", "--values", "1"], 2, "config error:",
         "--param"),
        (["path", "--kind", "circle", "--N", "7"], 2, "config error:", "--N"),
        (["simulate", "--config", "{tmp}/guard.cfg"], 3,
         "guard tripped during simulate:", "t="),
    ], ids=["simulate", "config_file", "stability", "sweep", "path", "guard"])
    def test_main_is_the_one_error_boundary(self, tmp_path, capsys, argv,
                                            code, prefix, named):
        # every failure reaches stderr through main, as one prefixed line
        (tmp_path / "guard.cfg").write_text(GUARD)
        out = tmp_path / "out"
        rc = main([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)])
        assert rc == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        assert captured.err.startswith(prefix) and named in captured.err
        assert not out.exists()

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

    def test_dump_config_round_trip(self, tmp_path, capsys):
        rc = main(["simulate", "--figure", "fig16", "--dump-config",
                   "--out", str(tmp_path)])
        assert rc == 0
        text = capsys.readouterr().out
        sc, _ = scenario_from_config(text)
        assert sc.profile.N == 4
        assert sc.duration == 50.0

    @pytest.mark.parametrize("text,key", [
        ("path {\n    length = -5\n}\n", "length"),
        ("path {\n    step = 0\n}\n", "step"),
        # 1000 m at 1e-5 m is more than PATH_STEPS_MAX steps
        ("path {\n    kind = periodic\n    N = 4\n    s_T = 250\n"
         "    step = 1e-5\n}\n", "step"),
        ("path {\n    kind = periodic\n    N = 4\n    s_T = 250\n"
         "    radius = 5\n}\n", "radius"),
    ])
    def test_dump_config_bad_path_exit_2(self, tmp_path, capsys, text, key):
        # --dump-config checks the path as a run does
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        rc = main(["simulate", "--config", str(cfg), "--dump-config",
                   "--out", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"'{key}'" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("argv,word", [
        (["stability", "--dt", "1"], "--dt"),
        (["stability", "--no-plot"], "--no-plot"),
        (["path", "--dt", "1"], "--dt"),
        (["sweep", "--param", "t_L", "--values", "0", "--no-plot"],
         "--no-plot"),
        (["simulate", "--figure", "fig13", "--seed", "7"], "--seed"),
        (["simulate", "--figure", "randomcheck"], "randomcheck"),
    ])
    def test_unread_flags_exit_2(self, tmp_path, capsys, argv, word):
        # a subcommand registers only the flags it reads
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert word in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--figure", "fig13", "--dt", "0.1", "--no-plot"],
        ["stability", "--k1", "-1", "0", "2", "--k2", "0", "0.1", "2"],
        ["sweep", "--param", "wrapper_n", "--values", "2"],
        ["path", "--kind", "periodic"],
    ], ids=lambda argv: argv[0])
    def test_out_is_a_file_exit_2(self, tmp_path, capsys, no_run, argv):
        # simulate finds out before the run: run_scenario must not be called
        dest = tmp_path / "F"
        dest.write_text("keep\n")
        rc = main([*argv, "--out", str(dest)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err
        assert dest.read_text() == "keep\n"

    @pytest.fixture
    def no_run(self, monkeypatch):
        # a run that reached the integrator would fail here, not exit 2
        def run_scenario(*args):
            raise AssertionError("run_scenario was called")
        monkeypatch.setattr(cli, "run_scenario", run_scenario)

    def test_out_below_a_file_exit_2_before_the_run(self, tmp_path, capsys,
                                                    no_run):
        dest = tmp_path / "F"
        dest.write_text("keep\n")
        rc = main(["simulate", "--figure", "fig20", "--out", str(dest / "sub")])
        assert rc == 2
        assert "--out" in capsys.readouterr().err
        assert dest.read_text() == "keep\n"

    @pytest.mark.parametrize("below", ["", "sub"], ids=["link", "below_link"])
    def test_out_dangling_symlink_exit_2_before_the_run(self, tmp_path, capsys,
                                                        no_run, below):
        link = tmp_path / "L"
        link.symlink_to(tmp_path / "missing")
        rc = main(["simulate", "--figure", "fig13", "--dt", "0.01",
                   "--out", str(link / below)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err
        assert link.is_symlink() and not (tmp_path / "missing").exists()

    def test_config_dir_is_a_file_exit_2(self, tmp_path, capsys, no_run):
        dest = tmp_path / "F"
        dest.write_text("keep\n")
        cfg = tmp_path / "dir.cfg"
        cfg.write_text(f"sim {{\n    duration = 0.1\n}}\n"
                       f"output {{\n    dir = {dest}\n    plot = false\n}}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "'dir'" in err and "--out" not in err
        assert dest.read_text() == "keep\n"

    @pytest.mark.parametrize("extra", [[], ["--out", "X"], ["--dump-config"]],
                             ids=["run", "run_out", "dump"])
    def test_empty_config_dir_exit_2(self, tmp_path, monkeypatch, capsys,
                                     no_run, extra):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "empty_dir.cfg"
        cfg.write_text("sim {\n    duration = 0.1\n}\noutput {\n    dir =\n}\n")
        assert main(["simulate", "--config", str(cfg), *extra]) == 2
        captured = capsys.readouterr()
        assert "'dir'" in captured.err and captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["empty_dir.cfg"]

    def test_empty_out_exit_2(self, tmp_path, monkeypatch, capsys, no_run):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--figure", "fig13", "--out", ""]) == 2
        assert "--out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_simulate_dt_zero_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--figure", "fig13", "--dt", "0",
                   "--out", str(out)])
        assert rc == 2
        assert "'dt'" in capsys.readouterr().err
        assert not out.exists()

    def test_stability_map(self, tmp_path, capsys):
        rc = main(["stability", "--k1", "-2", "0.5", "12", "--k2", "-0.05",
                   "0.1", "12", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "agreement 100.00%" in out
        lines = (tmp_path / "stability.csv").read_text().splitlines()
        assert lines[0] == "k1,k2,kappa_star,criterion,eig_max_real,agree"
        assert len(lines) == 1 + 12 * 12 * 3

    def test_stability_single_point(self, tmp_path, capsys):
        rc = main(["stability", "--k1", "-0.5", "-0.5", "1",
                   "--k2", "0.02", "0.02", "1", "--kappa", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stable" in out
        assert "-0.4526" in out or "-0.45265" in out

    def test_stability_bad_ranges_exit_2(self, tmp_path, capsys):
        rc = main(["stability", "--kappa", "zero", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("argv,flag", [
        (["--k1", "-2", "0.5", "inf"], "--k1"),
        (["--k1", "-2", "0.5", "nan"], "--k1"),
        (["--k1", "-2", "nan", "5"], "--k1"),
        (["--k2", "-0.05", "inf", "5"], "--k2"),
        (["--k2", "-0.05", "0.1", "0"], "--k2"),
        (["--k2", "-0.05", "0.1", "2.5"], "--k2"),
        (["--kappa", "nan"], "--kappa"),
        (["--kappa", "0,inf"], "--kappa"),
        (["--speed", "nan"], "--speed"),
        (["--speed", "inf"], "--speed"),
        (["--speed", "0"], "--speed"),
        (["--speed", "-20"], "--speed"),
    ])
    def test_stability_bad_input_exit_2(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        rc = main(["stability", *argv, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--k1", "-2", "0.5", "100000", "--k2", "-0.05", "0.1", "100000"],
        ["--k1", "-2", "0.5", "1e12", "--k2", "-0.05", "0.1", "1",
         "--kappa", "0"],
        ["--k1", "-2", "0.5", "601", "--k2", "-0.05", "0.1", "1000",
         "--kappa", "0"],
        ["--k1", "-2", "0.5", "200", "--k2", "-0.05", "0.1", "1001"],
    ])
    def test_stability_grid_too_large_exit_2(self, tmp_path, capsys,
                                             monkeypatch, argv):
        # rejected before any grid array is allocated
        def stability_grid(*args):
            raise AssertionError("stability_grid was called")
        monkeypatch.setattr(cli, "stability_grid", stability_grid)
        out = tmp_path / "out"
        rc = main(["stability", *argv, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--k1" in err and "--k2" in err and "--kappa" in err
        assert str(cli.STABILITY_POINTS_MAX) in err and "Traceback" not in err
        assert not out.exists()

    def test_stability_grid_at_the_cap(self):
        args = cli.build_parser().parse_args(
            ["stability", "--k1", "-2", "0.5", "200", "--k2", "-0.05", "0.1",
             "1000"])
        k1, k2, kappas = cli._stability_axes(args)
        assert len(k1) * len(k2) * len(kappas) == cli.STABILITY_POINTS_MAX

    def test_sweep_unknown_param_exit_2(self, tmp_path, capsys):
        rc = main(["sweep", "--param", "bogus", "--values", "1",
                   "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("argv,key", [
        (["--param", "t_L", "--values", "0.1", "--dt", "0.3"], "duration"),
        (["--param", "t_L", "--figure", "fig20", "--values", "0.3"], "t_L"),
        (["--param", "wrapper_n", "--values", "2,1"], "wrapper_n"),
        (["--param", "N", "--values", "1"], "N"),
        (["--param", "s_T", "--values", "-5"], "s_T"),
        (["--param", "wrapper_n", "--values", "2,1001"], "wrapper_n"),
        (["--param", "t_L", "--figure", "fig16", "--values", "0.3"], "t_L"),
        # 4 * 600 km at the default step is more table than the cap allows
        (["--param", "s_T", "--values", "250,600000"], "s_T"),
        (["--param", "N", "--values", "4", "--s-T", "600000"], "N"),
        (["--param", "t_L", "--values", "0", "--dt", "0"], "dt"),
    ])
    def test_sweep_bad_scenario_exit_2(self, tmp_path, capsys, argv, key):
        rc = main(["sweep", *argv, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "Traceback" not in err
        if key == argv[1]:
            # a bad value of the swept parameter is named as well
            bad = argv[argv.index("--values") + 1].split(",")[-1]
            assert f"value {bad}:" in err

    @pytest.mark.parametrize("argv,flag", [
        (["--param", "wrapper_n", "--values", "2", "--dt", "5"], "--dt"),
        (["--param", "wrapper_n", "--values", "2", "--figure", "fig17"],
         "--figure"),
        (["--param", "wrapper_n", "--values", "2", "--s-T", "300"], "--s-T"),
        (["--param", "t_L", "--values", "0", "--s-T", "7"], "--s-T"),
        (["--param", "a_lat_max", "--values", "4", "--s-T", "7"], "--s-T"),
        (["--param", "N", "--values", "4", "--dt", "0.01"], "--dt"),
        (["--param", "N", "--values", "4", "--figure", "fig16"], "--figure"),
        (["--param", "s_T", "--values", "250", "--s-T", "300"], "--s-T"),
        (["--param", "s_T", "--values", "250", "--dt", "0.01"], "--dt"),
    ])
    def test_sweep_unread_flag_exit_2(self, tmp_path, capsys, argv, flag):
        # each sweep takes only the flags its parameter reads
        out = tmp_path / "out"
        rc = main(["sweep", *argv, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("param", ["t_L", "a_lat_max", "N"])
    def test_sweep_unknown_figure_exit_2(self, tmp_path, capsys, param):
        # --figure takes the named scenarios only, as simulate's does
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", param, "--figure", "bogus",
                  "--values", "0", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--figure" in err and "'bogus'" in err
        assert "Traceback" not in err
        assert not out.exists()

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

    def test_sweep_paths(self, tmp_path, capsys):
        rc = main(["sweep", "--param", "N", "--values", "2,3,4,5",
                   "--out", str(tmp_path)])
        assert rc == 0
        for n in (2, 3, 4, 5):
            assert (tmp_path / f"path_N{n}_sT250.csv").exists()
        assert (tmp_path / "paths.svg").exists()

    def test_path_export(self, tmp_path, capsys):
        rc = main(["path", "--kind", "periodic", "--N", "4", "--s-T", "250",
                   "--out", str(tmp_path), "--no-plot"])
        assert rc == 0
        lines = (tmp_path / "path.csv").read_text().splitlines()
        assert lines[0] == "s,x,y,psi,kappa"
        assert len(lines) == 1 + 10001

    @pytest.mark.parametrize("kind,length", [("circle", 2.0 * math.pi * 200.0),
                                             ("periodic", 1000.0)])
    def test_path_defaults_per_kind(self, tmp_path, capsys, kind, length):
        # a circle of radius 200 m, a periodic path of N = 4 and s_T = 250 m
        rc = main(["path", "--kind", kind, "--out", str(tmp_path),
                   "--no-plot"])
        assert rc == 0
        assert f"length {length:.2f} m, closed" in capsys.readouterr().out

    @pytest.mark.parametrize("args,flag", [
        (["--kind", "circle", "--N", "7", "--s-T", "3"], "--N"),
        (["--kind", "circle", "--s-T", "3"], "--s-T"),
        (["--kind", "periodic", "--radius", "5"], "--radius"),
        (["--radius", "5"], "--radius"),
        (["--kind", "straight", "--length", "10", "--N", "3"], "--N"),
        (["--kind", "straight", "--length", "10", "--radius", "5"], "--radius"),
    ])
    def test_path_flag_of_another_kind_exit_2(self, tmp_path, capsys, args,
                                              flag):
        out = tmp_path / "out"
        rc = main(["path", *args, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    def test_path_straight_needs_length(self, tmp_path, capsys):
        rc = main(["path", "--kind", "straight", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("args,key", [
        (["--kind", "straight", "--length", "inf"], "length"),
        (["--kind", "straight", "--length", "1e17"], "length"),
        (["--kind", "straight", "--length", "nan"], "length"),
        (["--kind", "straight", "--length", "0"], "length"),
        (["--kind", "straight"], "length"),
        (["--step", "nan"], "step"),
        (["--step", "1e-9"], "step"),
        (["--kind", "circle", "--length", "-5"], "length"),
    ])
    def test_path_bad_step_or_length_exit_2(self, tmp_path, capsys, args,
                                            key):
        out = tmp_path / "out"
        rc = main(["path", *args, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"key '{key}'" in err and "Traceback" not in err
        assert not out.exists()
