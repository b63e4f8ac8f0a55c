"""Plain-text scenario configuration with nested blocks.

Grammar (one item per line, ``#`` starts a comment):

    block_name {
        key = value
        ...
    }

Blocks: ``vehicle`` (the ``VehicleParams`` fields), ``path`` (kind plus
profile fields), ``controller`` (mode, law, wrapper index and the
``ControlGains`` fields), ``sim`` (timing, speed, initial state) and
``output``. Unknown blocks or keys are rejected, and so is a vehicle,
controller or sim key that the scenario does not read (``Scenario.reads``);
all units are SI. ``dump_config`` emits the canonical form, which holds
only the keys the scenario reads and re-parses to an identical scenario.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .params import ControlGains, VehicleParams
from .path import CurvatureProfile
from .sim import (CONTROLLER_KEYS, GAIN_KEYS, MODE_READS, SIM_KEYS,
                  VEHICLE_KEYS, Scenario)

_BLOCKS = {"vehicle": VEHICLE_KEYS,
           "path": ("kind", "radius", "N", "s_T", "step", "length"),
           "controller": (*CONTROLLER_KEYS, *GAIN_KEYS),
           "sim": SIM_KEYS, "output": ("dir", "plot")}
_MODE_BLOCKS = ("vehicle", "controller", "sim")   # the blocks MODE_READS covers


def parse_blocks(text: str, source: str = "<config>") -> dict[str, dict[str, str]]:
    blocks: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith("{"):
            name = line[:-1].strip()
            if current is not None:
                raise ConfigError(f"{source}:{lineno}: nested block {name!r}")
            if name not in _BLOCKS:
                raise ConfigError(f"{source}:{lineno}: unknown block {name!r}")
            if name in blocks:
                raise ConfigError(f"{source}:{lineno}: duplicate block {name!r}")
            blocks[name] = {}
            current = name
        elif line == "}":
            if current is None:
                raise ConfigError(f"{source}:{lineno}: unmatched '}}'")
            current = None
        else:
            if current is None:
                raise ConfigError(f"{source}:{lineno}: statement outside a block")
            if "=" not in line:
                raise ConfigError(f"{source}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _BLOCKS[current]:
                raise ConfigError(
                    f"{source}:{lineno}: unknown key {key!r} in block {current!r}")
            if key in blocks[current]:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            blocks[current][key] = value.strip()
    if current is not None:
        raise ConfigError(f"{source}: unterminated block {current!r}")
    return blocks


def _floats(block: dict[str, str], source: str) -> dict[str, float]:
    out = {}
    for key, value in block.items():
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"{source}: key {key!r}: bad number {value!r}") from exc
        if not math.isfinite(out[key]):
            raise ConfigError(f"{source}: key {key!r}: {value!r} is not finite")
    return out


# the path keys that only one kind of profile reads
_KIND_KEYS = {"radius": "circle", "N": "periodic", "s_T": "periodic"}


def _profile_from(kind: str, vals: dict[str, float],
                  source: str) -> CurvatureProfile:
    if kind not in ("straight", "circle", "periodic"):
        raise ConfigError(f"{source}: unknown path kind {kind!r}")
    for key in vals:
        if _KIND_KEYS.get(key, kind) != kind:
            raise ConfigError(f"{source}: key {key!r}: only a "
                              f"{_KIND_KEYS[key]} path reads it, not a "
                              f"{kind} path")
    if kind == "straight":
        return CurvatureProfile.straight()
    if kind == "circle":
        if "radius" in vals:
            return CurvatureProfile.circle(vals["radius"])
        raise ConfigError(f"{source}: circle path needs key 'radius'")
    try:
        N, s_T = vals["N"], vals["s_T"]
    except KeyError as exc:
        raise ConfigError(f"{source}: periodic path needs key {exc}") from exc
    if N != int(N):
        raise ConfigError(f"{source}: key 'N': {N:g} is not an integer")
    return CurvatureProfile.periodic(int(N), s_T)


def scenario_from_config(text: str, source: str = "<config>") -> tuple[Scenario, dict]:
    """Parse a config into a Scenario plus the output-block settings."""
    blocks = parse_blocks(text, source)
    cb = dict(blocks.get("controller", {}))
    mode = cb.pop("mode", "steer_only")
    params = VehicleParams(**_floats(blocks.get("vehicle", {}), source))

    law = cb.pop("law", "wrapped")
    wrapper_text = cb.pop("wrapper_n", "2")
    try:
        wrapper_n = math.inf if wrapper_text == "inf" else int(wrapper_text)
    except ValueError as exc:
        raise ConfigError(f"{source}: key 'wrapper_n': expected an "
                          f"integer or inf, got {wrapper_text!r}") from exc
    gains = ControlGains(**_floats(cb, source))

    path = dict(blocks.get("path", {}))
    kind = path.pop("kind", "straight")
    path_vals = _floats(path, source)
    profile = _profile_from(kind, path_vals, source)

    sim_kwargs = _floats(blocks.get("sim", {}), source)
    duration = sim_kwargs.pop("duration", 30.0)

    ob = blocks.get("output", {})
    plot_text = ob.get("plot", "true").lower()
    if plot_text not in ("true", "false"):
        raise ConfigError(f"{source}: key 'plot': expected true/false")
    output = {"dir": ob.get("dir", "out"), "plot": plot_text == "true"}
    if not output["dir"]:
        raise ConfigError(f"{source}: key 'dir': the path is empty")

    try:
        scenario = Scenario(name="config", profile=profile, mode=mode,
                            duration=duration, params=params,
                            gains=gains, law=law, wrapper_n=wrapper_n,
                            path_step=path_vals.get("step", 0.1),
                            path_length=path_vals.get("length"),
                            **sim_kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    # the Scenario holds unread keys at their defaults; here none may be given
    for block in _MODE_BLOCKS:
        for key in blocks.get(block, {}):
            if key not in scenario.reads:
                under = f" under law {law}" if key in MODE_READS[mode] else ""
                raise ConfigError(f"{source}: key {key!r}: mode {mode} "
                                  f"does not read it{under}")
    return scenario, output


def dump_config(sc: Scenario, output: dict | None = None) -> str:
    """Canonical config text of a scenario; re-parses identically."""
    output = output or {"dir": "out", "plot": True}
    prof = sc.profile
    held = {**{k: getattr(sc.params, k) for k in VEHICLE_KEYS},
            **{k: getattr(sc.gains, k) for k in GAIN_KEYS},
            **{k: getattr(sc, k) for k in (*CONTROLLER_KEYS, *SIM_KEYS)},
            "kind": prof.kind, "step": sc.path_step, "length": sc.path_length,
            "dir": output["dir"], "plot": "true" if output["plot"] else "false"}
    if prof.kind == "circle":
        held["radius"] = 1.0 / prof.kappa_const
    elif prof.kind == "periodic":
        held.update(N=prof.N, s_T=prof.s_T)
    if sc.wrapper_n == math.inf:
        held["wrapper_n"] = "inf"
    lines = []
    for name, keys in _BLOCKS.items():
        lines.append(f"{name} {{")
        for key in keys:
            value = held.get(key)
            if value is None or (name in _MODE_BLOCKS and key not in sc.reads):
                continue
            lines.append(f"    {key} = {value}" if isinstance(value, str)
                         else f"    {key} = {value:.17g}")
        lines.append("}")
    return "\n".join(lines) + "\n"
