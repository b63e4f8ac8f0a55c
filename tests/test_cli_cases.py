"""Every CLI case as one row of a table, run through ``cli.main`` in-process
and, for the rows marked ``script``, through the console script.

A row gives the argv, an optional config text, the exit code, the text that
stderr must contain and what must hold afterwards. ``{cfg}`` in the argv is
the config file and ``{tmp}`` the row's own directory, which is also its
working directory. Every row runs with ``--out {tmp}/out`` unless it names
its own ``--out``.

Every failing row gets the same checks: the exit code, each named text on
stderr, no ``Traceback``, an empty stdout and ``{tmp}`` left as the row made
it (so ``--out`` is still absent). A failure from ``main`` is exactly one
line, ``config error: ...`` for exit 2 and ``guard tripped during
<command>: ...`` for exit 3; a ``usage`` row is argparse's rejection. In
process, an exit-2 row fails if it reaches the integrator or the stability
grid, unless it is marked ``in_run``.

The script is ``nonholo`` when ``shutil.which`` finds it, else
``python -m nonholo.cli``, run with the inherited ``PYTHONPATH`` (made
absolute) and a 10 s limit, so a row that should stop before the run fails
instead of hanging.
"""

import os
import shlex
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import pytest

from nonholo import cli
from nonholo.config import dump_config
from nonholo.sim import STEPS_MAX, named_scenario
from test_config_cli import MINIMAL


class Case(NamedTuple):
    argv: tuple[str, ...]
    code: int
    err: tuple[str, ...] = ()     # stderr contains each
    cfg: str | None = None        # the config text, written to {cfg}
    name: str = "case.cfg"        # the config file's name below {tmp}
    out: str | None = None        # stdout contains it; a dump is exactly it
    files: tuple[str, ...] = ()   # below {tmp}, non-empty afterwards
    absent: tuple[str, ...] = ()  # below {tmp}, missing afterwards
    keep: tuple[str, ...] = ()    # files holding "keep\n" before and after
    link: str | None = None       # a symlink to the missing {tmp}/missing
    usage: bool = False           # argparse rejects the argv
    in_run: bool = False          # exits 2 from inside the run
    script: bool = False          # also run through the console script


def case(argv: str, code: int, *err: str, **kw) -> Case:
    return Case(tuple(shlex.split(argv)), code, err, **kw)


def config(text: str, code: int, *err: str, argv: str = "", **kw) -> Case:
    return case(f"simulate --config {{cfg}} {argv}", code, *err, cfg=text,
                **kw)


# heads straight off a 200 m circle until 1 - kappa*e reaches zero
GUARD = ("path {\n    kind = circle\n    radius = 200\n}\n"
         "controller {\n    mode = none\n}\n"
         "sim {\n    duration = 15\n    V = 20\n    theta0 = 1.5707963\n"
         "    dt = 0.005\n}\n")
PERIODIC = "path {\n    kind = periodic\n    N = 4\n    s_T = 250\n"
DUMP = {f: dump_config(named_scenario(f))
        for f in ("fig13", "fig16", "fig17", "fig20")}

# configs that exit 2 naming a key: unknown, not read, or of a bad value
BAD_CONFIG = [
    ("sim {\n    warpdrive = 1\n}\n", "warpdrive"),
    ("sim {\n    duration = nan\n}\n", "'duration'"),
    ("controller {\n    wrapper_n = nan\n}\n", "'wrapper_n'"),
    # no key with a single legal value, a derived value or no effect
    ("sim {\n    model = wheel_torque_torque_steer\n}\n", "'model'"),
    ("sim {\n    model = skate_kinematic\n}\n", "'model'"),
    (PERIODIC + "    kappa_max = 0.012566370614359173\n}\n", "'kappa_max'"),
    ("path {\n    kind = circle\n    kappa_max = 0.005\n}\n", "'kappa_max'"),
    ("sim {\n    sigma1_0 = 20\n}\n", "'sigma1_0'"),
    ("sim {\n    gamma0 = 0.1\n}\n", "'gamma0'"),
    ("sim {\n    sigma2_0 = 0.1\n}\n", "'sigma2_0'"),
    ("controller {\n    mode = steer_longitudinal\n}\n"
     "sim {\n    gamma0 = 0.1\n}\n", "'gamma0'"),
    (PERIODIC + "    step = 60\n}\n", "'step'"),
    ("controller {\n    law = bogus\n}\n", "'law'"),
    ("controller {\n    wrapper_n = 1\n}\n", "'wrapper_n'"),
    ("controller {\n    wrapper_n = 1001\n}\n", "'wrapper_n'"),
    ("path {\n    kind = periodic\n    N = 2.5\n    s_T = 250\n}\n", "'N'"),
    ("controller {\n    mode = steer_longitudinal\n    law = linear\n}\n",
     "'law'"),
    ("controller {\n    mode = steer_longitudinal\n    t_L = 0.3\n}\n",
     "'t_L'"),
    ("sim {\n    duration = 1\n    dt = 0.3\n}\n", "'duration'"),
    ("controller {\n    mode = steer_only\n    t_L = 0.1\n}\n", "'t_L'"),
    ("path {\n    length = 0\n}\n", "'length'"),
    ("path {\n    length = 1e17\n}\n", "'length'"),
    ("path {\n    kind = circle\n    radius = 100\n    step = -1\n}\n",
     "'step'"),
    # a profile key of another kind of path
    ("path {\n    kind = circle\n    radius = 200\n    N = 7\n}\n", "'N'"),
    ("path {\n    kind = circle\n    s_T = 3\n    radius = 200\n}\n", "'s_T'"),
    ("path {\n    radius = 200\n    length = 900\n}\n", "'radius'"),
    ("path {\n    kind = straight\n    N = 4\n    length = 900\n}\n", "'N'"),
]
# --dump-config checks the path as a run does
BAD_PATH = [
    ("path {\n    length = -5\n}\n", "'length'"),
    ("path {\n    step = 0\n}\n", "'step'"),
    # 1000 m at 1e-5 m is more than PATH_STEPS_MAX steps
    (PERIODIC + "    step = 1e-5\n}\n", "'step'"),
    (PERIODIC + "    radius = 5\n}\n", "'radius'"),
]

CASES = [
    # simulate
    case("simulate --figure fig13", 0,
         files=("out/trace.csv", "out/fig13.svg"), script=True),
    case("simulate --figure fig13 --no-plot --dt 0.005", 0, out="no overshoot",
         files=("out/trace.csv",), absent=("out/fig13.svg",)),
    config(MINIMAL, 0, argv="--no-plot", files=("out/trace.csv",),
           name="minimal.cfg"),
    case("simulate --figure fig16 --dump-config", 0, out=DUMP["fig16"]),
    *(c for f in ("fig13", "fig17", "fig20") for c in (
        # a dump re-parses to itself and runs, in every simulated mode
        case(f"simulate --figure {f} --dump-config", 0, out=DUMP[f],
             script=True),
        config(DUMP[f], 0, argv="--dump-config", out=DUMP[f],
               name=f"{f}.cfg", script=True),
        config(DUMP[f], 0, argv="--no-plot --dt 0.01",
               files=("out/trace.csv",), name=f"{f}.cfg", script=True))),
    case("simulate --figure fig13 --dt 0", 2, "'dt'", script=True),
    case("simulate --config {tmp}/missing.cfg", 2, "--config"),
    *(config(text, 2, key) for text, key in BAD_CONFIG + BAD_PATH),
    *(config(text, 2, key, argv="--dump-config", script=i == 0)
      for i, (text, key) in enumerate(BAD_PATH)),
    # 30 s at 20 m/s runs 600 m along a 300 m open piece of the path
    config(PERIODIC + "    length = 300\n}\nsim {\n    dt = 0.005\n}\n", 2,
           "'length'", in_run=True),
    # a straight table starts at s = 0, so no length covers s0 < 0
    config("sim {\n    s0 = -5\n    duration = 1\n    dt = 0.01\n}\n", 2,
           "'s0'", in_run=True),
    # a key the mode or law does not read exits 2 and names it
    config("controller {\n    mode = steer_only\n    k_s = -100\n}\n", 2,
           "k_s", script=True),
    config("controller {\n    mode = steer_only\n    law = linear\n"
           "    a_lat_max = 1\n}\n", 2, "a_lat_max", script=True),
    config("sim {\n    duration = 0.1\n}\noutput {\n    dir =\n}\n", 2,
           "'dir'", script=True),
    config(GUARD, 3, "t=", name="guard.cfg", script=True),
    # simulate checks --out before it integrates: fig20 stops at once
    case("simulate --figure fig20 --out {tmp}/F", 2, "--out", keep=("F",),
         script=True),
    case("simulate --figure fig20 --out {tmp}/F/sub", 2, "--out",
         keep=("F",)),
    case("simulate --figure fig13 --dt 0.1 --no-plot --out {tmp}/F", 2,
         "--out", keep=("F",)),
    case("simulate --figure fig13 --out ''", 2, "--out"),
    # 1.2M steps of fig20 would outlast the script's time limit
    case("simulate --figure fig20 --dt 0.00005 --out {tmp}/L", 2, "--out",
         link="L", script=True),
    # more than STEPS_MAX steps exits 2 before anything is allocated,
    # naming dt below its default and duration otherwise
    config(PERIODIC + "}\nsim {\n    duration = 1e12\n}\n", 2, "'duration'",
           str(STEPS_MAX)),
    case("simulate --figure fig16 --dt 1e-12", 2, "'dt'", str(STEPS_MAX),
         script=True),
    # a subcommand registers only the flags it reads
    case("simulate --figure fig13 --seed 7", 2, "--seed", usage=True,
         script=True),
    case("simulate --figure randomcheck", 2, "randomcheck", usage=True),

    # stability
    case("stability --k1 -0.5 -0.5 1 --k2 0.02 0.02 1 --kappa 0", 0,
         out="kappa*=0: stable, eigenvalues [-0.452659", script=True),
    case("stability --speed 0", 2, "--speed", script=True),
    case("stability --kappa zero", 2, "--kappa"),
    *(case(f"stability {a}", 2, a.split()[0]) for a in (
        "--k1 -2 0.5 inf", "--k1 -2 0.5 nan", "--k1 -2 nan 5",
        "--k2 -0.05 inf 5", "--k2 -0.05 0.1 0", "--k2 -0.05 0.1 2.5",
        "--kappa nan", "--kappa 0,inf", "--speed nan", "--speed inf",
        "--speed -20")),
    # rejected before any grid array is allocated
    *(case(f"stability {a}", 2, "--k1", "--k2", "--kappa",
           str(cli.STABILITY_POINTS_MAX)) for a in (
        "--k1 -2 0.5 100000 --k2 -0.05 0.1 100000",
        "--k1 -2 0.5 1e12 --k2 -0.05 0.1 1 --kappa 0",
        "--k1 -2 0.5 601 --k2 -0.05 0.1 1000 --kappa 0",
        "--k1 -2 0.5 200 --k2 -0.05 0.1 1001")),
    case("stability --k1 -1 0 2 --k2 0 0.1 2 --out {tmp}/F", 2, "--out",
         keep=("F",)),
    case("stability --dt 1", 2, "--dt", usage=True, script=True),
    case("stability --no-plot", 2, "--no-plot", usage=True),

    # sweep
    case("sweep --param t_L --figure fig17 --dt 0.005 --values 0,0.3", 0,
         files=("out/sweep_t_L.csv",), script=True),
    case("sweep --param N --values 2,3,4,5", 0, files=(
        *(f"out/path_N{n}_sT250.csv" for n in (2, 3, 4, 5)), "out/paths.svg")),
    case("sweep --param bogus --values 1", 2, "--param"),
    case("sweep --param t_L --values 0.1 --dt 0.3", 2, "'duration'"),
    case("sweep --param t_L --figure fig20 --values 0.3", 2, "'t_L'",
         "value 0.3:"),
    case("sweep --param wrapper_n --values 2,1", 2, "'wrapper_n'", "value 1:"),
    # the value as typed, not as %g prints it
    case("sweep --param wrapper_n --values 2.0000001", 2, "'wrapper_n'",
         "value 2.0000001:"),
    case("sweep --param N --values 1", 2, "'N'", "value 1:"),
    case("sweep --param s_T --values -5", 2, "'s_T'", "value -5:"),
    case("sweep --param wrapper_n --values 2,1001", 2, "'wrapper_n'",
         "value 1001:"),
    case("sweep --param t_L --figure fig16 --values 0.3", 2, "'t_L'",
         "value 0.3:"),
    # 4 * 600 km at the default step is more table than the cap allows
    case("sweep --param s_T --values 250,600000", 2, "'s_T'", "value 600000:"),
    case("sweep --param N --values 4 --s-T 600000", 2, "'N'", "value 4:"),
    case("sweep --param t_L --values 0 --dt 0", 2, "'dt'"),
    case("sweep --param t_L --values 0 --dt 1e-12", 2, "'dt'",
         str(STEPS_MAX)),
    # two values that would write one file exit 2 before any lane runs
    case("sweep --param t_L --values 0.30000001,0.30000002 --dt 0.05", 2,
         "--values", "0.30000001 and 0.30000002", "trace_t_L_0.3.csv",
         script=True),
    case("sweep --param a_lat_max --values 4,4.0 --dt 0.05", 2, "--values",
         "4 and 4.0", "trace_a_lat_max_4.csv"),
    case("sweep --param s_T --values 250,300,250.0000001", 2, "--values",
         "250 and 250.0000001", "path_N4_sT250.csv"),
    case("sweep --param N --values 3,4,4", 2, "--values", "4 and 4",
         "path_N4_sT250.csv"),
    # each sweep takes only the flags its parameter reads
    case("sweep --param wrapper_n --values 2 --dt 5", 2, "--dt", script=True),
    *(case(f"sweep --param {a}", 2, a.split()[-2]) for a in (
        "wrapper_n --values 2 --figure fig17",
        "wrapper_n --values 2 --s-T 300",
        "t_L --values 0 --s-T 7", "a_lat_max --values 4 --s-T 7",
        "N --values 4 --dt 0.01", "N --values 4 --figure fig16",
        "s_T --values 250 --s-T 300", "s_T --values 250 --dt 0.01")),
    case("sweep --param wrapper_n --values 2 --out {tmp}/F", 2, "--out",
         keep=("F",)),
    # --figure takes the named scenarios only, as simulate's does
    *(case(f"sweep --param {p} --figure bogus --values 0", 2, "--figure",
           "'bogus'", usage=True, script=p == "t_L")
      for p in ("t_L", "a_lat_max", "N")),
    case("sweep --param t_L --values 0 --no-plot", 2, "--no-plot", usage=True),

    # path
    case("path --kind periodic", 0, files=("out/path.csv",), script=True),
    case("path --kind circle --no-plot", 0, out="length 1256.64 m, closed"),
    case("path --kind periodic --no-plot", 0, out="length 1000.00 m, closed"),
    case("path --kind circle --N 7", 2, "--N", script=True),
    *(case(f"path {a}", 2, flag) for a, flag in (
        ("--kind circle --N 7 --s-T 3", "--N"),
        ("--kind circle --s-T 3", "--s-T"),
        ("--kind periodic --radius 5", "--radius"), ("--radius 5", "--radius"),
        ("--kind straight --length 10 --N 3", "--N"),
        ("--kind straight --length 10 --radius 5", "--radius"))),
    case("path --kind straight --length inf", 2, "key 'length'", script=True),
    *(case(f"path {a}", 2, f"key '{key}'") for a, key in (
        ("--kind straight --length 1e17", "length"),
        ("--kind straight --length nan", "length"),
        ("--kind straight --length 0", "length"),
        ("--kind straight", "length"), ("--step nan", "step"),
        ("--step 1e-9", "step"), ("--kind circle --length -5", "length"))),
    case("path --kind periodic --out {tmp}/F", 2, "--out", keep=("F",),
         script=True),
    case("path --dt 1", 2, "--dt", usage=True, script=True),
]


def _params(cases):
    return [pytest.param(c, id=" ".join(c.argv).replace("{cfg}", c.name)
                         + "".join(f" {e}" for e in c.err)) for c in cases]


def _prepare(c: Case, tmp) -> list[str]:
    """Make what the row needs in ``tmp``; returns the argv to run."""
    if c.cfg is not None:
        (tmp / c.name).write_text(c.cfg)
    for name in c.keep:
        (tmp / name).write_text("keep\n")
    if c.link:
        (tmp / c.link).symlink_to(tmp / "missing")
    argv = [a.format(cfg=tmp / c.name, tmp=tmp) for a in c.argv]
    return argv if "--out" in argv else [*argv, "--out", str(tmp / "out")]


def _check(c: Case, tmp, made: set, code: int, out: str, err: str) -> None:
    assert code == c.code, err
    assert "Traceback" not in err
    for text in c.err:
        assert text in err
    for name in c.keep:
        assert (tmp / name).read_text() == "keep\n"
    if c.code or "--dump-config" in c.argv:
        # nothing written: --out is still absent, and no stray output
        assert set(tmp.iterdir()) == made
    if c.code:
        assert out == ""
        if c.usage:
            assert err.startswith("usage: nonholo ")
        else:
            assert err.count("\n") == 1 and err.endswith("\n")
            assert err.startswith("config error: " if c.code == 2 else
                                  f"guard tripped during {c.argv[0]}: ")
        return
    assert err == ""
    if c.out is not None:
        assert out == c.out if "--dump-config" in c.argv else c.out in out
    for name in c.files:
        assert (tmp / name).stat().st_size > 0
    for name in c.absent:
        assert not (tmp / name).exists()


@pytest.fixture
def no_run(monkeypatch):
    # a run that reached the integrator or the grid would fail here
    def fail(*args):
        raise AssertionError("the run was reached")
    monkeypatch.setattr(cli, "run_scenario", fail)
    monkeypatch.setattr(cli, "stability_grid", fail)


@pytest.mark.parametrize("c", _params(CASES))
def test_in_process(c, tmp_path, monkeypatch, capsys, request):
    argv = _prepare(c, tmp_path)
    made = set(tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    if c.code == 2 and not c.in_run:
        request.getfixturevalue("no_run")
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        assert c.usage, "argparse rejected a row that main should"
        code = exc.code
    captured = capsys.readouterr()
    _check(c, tmp_path, made, code, captured.out, captured.err)


SCRIPT = [shutil.which("nonholo")] if shutil.which("nonholo") \
    else [sys.executable, "-m", "nonholo.cli"]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p)}
SCRIPT_CASES = [c for c in CASES if c.script]


def _run_script(c: Case, tmp):
    argv = _prepare(c, tmp)
    made = set(tmp.iterdir())
    return tmp, made, subprocess.run([*SCRIPT, *argv], cwd=tmp, env=ENV,
                                     timeout=10, capture_output=True,
                                     text=True)


@pytest.fixture(scope="module")
def script_runs(tmp_path_factory):
    # two at a time: each run is mostly interpreter and numpy start-up
    with ThreadPoolExecutor(2) as pool:
        yield {c: pool.submit(_run_script, c, tmp_path_factory.mktemp("row"))
               for c in SCRIPT_CASES}


@pytest.mark.parametrize("c", _params(SCRIPT_CASES))
def test_script(c, script_runs):
    tmp, made, run = script_runs[c].result()
    _check(c, tmp, made, run.returncode, run.stdout, run.stderr)


# checks that do not fit a row

@pytest.mark.parametrize("below", ["", "sub"], ids=["link", "below_link"])
def test_out_dangling_symlink_exit_2_before_the_run(tmp_path, capsys, no_run,
                                                    below):
    link = tmp_path / "L"
    link.symlink_to(tmp_path / "missing")
    rc = cli.main(["simulate", "--figure", "fig13", "--dt", "0.01",
                   "--out", str(link / below)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--out" in err and "Traceback" not in err
    assert link.is_symlink() and not (tmp_path / "missing").exists()


def test_config_dir_is_a_file_exit_2(tmp_path, capsys, no_run):
    dest = tmp_path / "F"
    dest.write_text("keep\n")
    cfg = tmp_path / "dir.cfg"
    cfg.write_text(f"sim {{\n    duration = 0.1\n}}\n"
                   f"output {{\n    dir = {dest}\n    plot = false\n}}\n")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'dir'" in err and "--out" not in err
    assert dest.read_text() == "keep\n"


@pytest.mark.parametrize("extra", [[], ["--out", "X"], ["--dump-config"]],
                         ids=["run", "run_out", "dump"])
def test_empty_config_dir_exit_2(tmp_path, monkeypatch, capsys, no_run, extra):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "empty_dir.cfg"
    cfg.write_text("sim {\n    duration = 0.1\n}\noutput {\n    dir =\n}\n")
    assert cli.main(["simulate", "--config", str(cfg), *extra]) == 2
    captured = capsys.readouterr()
    assert "'dir'" in captured.err and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["empty_dir.cfg"]


def test_stability_grid_at_the_cap():
    args = cli.build_parser().parse_args(
        ["stability", "--k1", "-2", "0.5", "200", "--k2", "-0.05", "0.1",
         "1000"])
    k1, k2, kappas = cli._stability_axes(args)
    assert len(k1) * len(k2) * len(kappas) == cli.STABILITY_POINTS_MAX
