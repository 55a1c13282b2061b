"""The config schema: one table per config section, and the one reader.

``SCENARIO`` (``emnav simulate``, through ``sim.scenario_from_dict``),
``ALLOC_BENCH`` and ``WORKSPACE`` are the top-level tables.  A table maps
each key to ``(kind, default)``: ``REQUIRED`` marks a key without a default,
an optional key whose default is None also takes JSON null, and defaults
are read like given values.  ``Section.read`` rejects unknown and missing
keys, wrong types and non-finite numbers with a ``ConfigError`` that names
the JSON path, such as ``agents[0].controller.r_weight must be finite``.
Each section then builds its value; the range checks of the built types
apply, and their messages are prefixed with the path too.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import partial
from typing import Any, Callable, Mapping

from .control import ControllerConfig
from .dynamics import PendulumParams
from .magmodel import PRESETS, ActuationModel, CoilSpec
from .sim import (
    EMNS_PRESETS,
    AgentSetup,
    DisturbanceEvent,
    EmnsConfig,
    Scenario,
    SetpointSpec,
)
from .workspace import GridSpec, TaskSet


class ConfigError(ValueError):
    """A problem with a config file (missing, malformed, or invalid)."""


REQUIRED = object()


def _at(path: str, key) -> str:
    """The JSON path of ``key`` (a name, or an index into a list) in ``path``."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


class _Number:
    """A finite number; a bool or a string is rejected."""

    def read(self, value, path: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path} must be finite, got {number}")
        return number


@dataclass(frozen=True)
class _Exactly:
    """A value of exactly type ``cls`` (so 1 is no bool, nor "1" a string)."""

    cls: type
    what: str

    def read(self, value, path: str):
        if type(value) is not self.cls:
            raise ConfigError(f"{path} must be {self.what}, got {value!r}")
        return value


NUMBER = _Number()
BOOL = _Exactly(bool, "true or false")
STRING = _Exactly(str, "a string")


@dataclass(frozen=True)
class Whole:
    """A whole number, at least ``minimum`` where one is given."""

    minimum: int | None = None

    def read(self, value, path: str) -> int:
        whole = type(value) is int or (type(value) is float and value.is_integer())
        if not whole or (self.minimum is not None and value < self.minimum):
            floor = "" if self.minimum is None else f" >= {self.minimum}"
            raise ConfigError(f"{path} must be a whole number{floor}, got {value!r}")
        return int(value)


@dataclass(frozen=True)
class ListOf:
    """A list whose every entry is read with ``item``."""

    item: Any

    def read(self, value, path: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return tuple(self.item.read(v, _at(path, i)) for i, v in enumerate(value))


@dataclass(frozen=True)
class Numbers(ListOf):
    """A list of numbers, of ``length`` entries where one is given."""

    item: Any = NUMBER
    length: int | None = None

    def read(self, value, path: str) -> tuple[float, ...]:
        numbers = super().read(value, path)
        if self.length not in (None, len(numbers)):
            raise ConfigError(f"{path} must hold {self.length} numbers")
        return numbers


@dataclass(frozen=True)
class Section:
    """A JSON object read with the table ``keys`` and built by ``build``,
    which gets every key as a keyword argument; ``name`` names it in
    messages about its keys."""

    name: str
    keys: Mapping[str, tuple]
    build: Callable = dict

    def read(self, value, path: str = ""):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or self.name} must be an object, got {value!r}")
        where = f"{path}: " if path else ""
        unknown = sorted(set(value) - set(self.keys))
        if unknown:
            raise ConfigError(f"unknown {self.name} keys: "
                              + ", ".join(_at(path, key) for key in unknown))
        values = {}
        for key, (kind, default) in self.keys.items():
            if key not in value and default is REQUIRED:
                raise ConfigError(f"{where}{self.name} is missing required key '{key}'")
            item = value.get(key, default)
            values[key] = (None if item is None and default is None
                           else kind.read(item, _at(path, key)))
        try:
            return self.build(**values)
        except ValueError as exc:  # a range check of the built type
            raise ConfigError(f"{where}{exc}") from exc


@dataclass(frozen=True)
class Preset:
    """A name from ``presets``, or a section read with ``section``."""

    section: Section
    presets: Mapping[str, Any]

    def read(self, value, path: str):
        if not isinstance(value, str):
            return self.section.read(value, path)
        if value not in self.presets:
            raise ConfigError(f"{path}: unknown {self.section.name} preset {value!r}; "
                              f"expected one of {sorted(self.presets)}")
        return self.presets[value]


def _fields(cls, **kinds) -> dict:
    """The table of dataclass ``cls``: each field, a ``NUMBER`` unless
    ``kinds`` names its kind, with the field's default."""
    return {
        f.name: (kinds.get(f.name, NUMBER),
                 REQUIRED if f.default is MISSING else f.default)
        for f in fields(cls)
    }


# --- shared by the commands --------------------------------------------------

COIL = Section("coil", {
    "position": (Numbers(length=3), REQUIRED),
    "axis": (Numbers(length=3), REQUIRED),
    "moment_per_ampere": (NUMBER, REQUIRED),
}, CoilSpec)
MODEL = Preset(Section("model", {
    "name": (STRING, REQUIRED),
    "coils": (ListOf(COIL), REQUIRED),
}, ActuationModel), PRESETS)
PLANT = Section("plant", _fields(PendulumParams), PendulumParams)

# --- emnav simulate ----------------------------------------------------------

CONTROLLER = Section("controller", _fields(
    ControllerConfig, q_diag=Numbers(), integral_enabled=BOOL,
), ControllerConfig)
SETPOINT = Section("setpoint", {
    "type": (STRING, "constant"),
    **dict.fromkeys(("alpha", "beta", "radius", "frequency", "phase"), (NUMBER, 0.0)),
}, lambda type, **values: SetpointSpec(kind=type, **values))
_STATE = ("alpha", "beta", "phi", "theta",
          "alpha_dot", "beta_dot", "phi_dot", "theta_dot")
INITIAL = Section("initial-state", dict.fromkeys(_STATE, (NUMBER, 0.0)),
                  lambda **state: tuple(state[name] for name in _STATE))
AGENT = Section("agent", {
    "position": (Numbers(length=3), (0.0, 0.0, 0.0)),
    "initial": (INITIAL, {}),
    "polarity": (Whole(), 1),
    "pendulum_attached": (BOOL, True),
    "release_time": (NUMBER, 0.0),
    "setpoint": (SETPOINT, {}),
    "controller": (CONTROLLER, None),
    "integral_windows": (ListOf(Numbers(length=2)), ()),
}, AgentSetup)
DISTURBANCE = Section("disturbance", {
    "type": (STRING, REQUIRED),
    "time": (NUMBER, REQUIRED),
    "magnitude": (NUMBER, REQUIRED),
    "agent": (Whole(0), 0),
    "channel": (STRING, "alpha"),
    "duration": (NUMBER, None),
}, lambda type, **values: DisturbanceEvent(kind=type, **values))
EMNS = Preset(Section("interface", _fields(EmnsConfig), EmnsConfig), EMNS_PRESETS)
SCENARIO = Section("scenario", {
    "kind": (STRING, "simulate"),
    "name": (STRING, "scenario"),
    "model": (MODEL, REQUIRED),
    "paradigm": (STRING, REQUIRED),
    "strategy": (STRING, REQUIRED),
    "emns": (EMNS, "octomag"),
    "duration": (NUMBER, REQUIRED),
    "seed": (Whole(0), 0),
    "agents": (ListOf(AGENT), REQUIRED),
    "plant": (PLANT, {}),
    "disturbances": (ListOf(DISTURBANCE), ()),
    "field_magnitude": (NUMBER, 0.0),
    "include_force": (BOOL, True),
    "measurement_noise_std": (NUMBER, 0.0),
}, lambda kind, **values: Scenario(**values))

# --- emnav alloc-bench -------------------------------------------------------

#: Most samples one alloc-bench run may take, checked before any is drawn:
#: the run holds every sample's draws and CSV values (about 140 B per
#: sample) until it writes them, as a simulation holds its trace
#: (``sim.MAX_AGENT_TICKS``).
MAX_ALLOC_SAMPLES = 1_000_000


def _alloc_bench(**config) -> dict:
    if config["samples"] > MAX_ALLOC_SAMPLES:
        raise ValueError(f"samples is {config['samples']}, more than the cap "
                         f"of {MAX_ALLOC_SAMPLES}")
    for key in ("tau_bar", "position_radius", "dipole_magnitude"):
        if not config[key] > 0.0:
            raise ValueError(f"{key} must be positive, got {config[key]}")
    if config["max_tilt"] < 0.0:
        raise ValueError(f"max_tilt must be non-negative, got {config['max_tilt']}")
    return config


ALLOC_BENCH = Section("alloc-bench", {
    "kind": (STRING, "alloc_bench"),
    "name": (STRING, None),  # None: the config file's stem
    "model": (MODEL, "octomag8"),
    "samples": (Whole(1), 1000),
    "seed": (Whole(0), 0),
    "tau_bar": (NUMBER, 0.002),
    "position_radius": (NUMBER, 0.04),
    "max_tilt": (NUMBER, 0.3),
    "dipole_magnitude": (NUMBER, 0.5),
}, _alloc_bench)

# --- emnav workspace ---------------------------------------------------------

GRID = Section("grid", {
    **dict.fromkeys("xyz", (Numbers(length=2), REQUIRED)),
    "spacing": (NUMBER, REQUIRED),
}, GridSpec)


def _tasks(**tasks) -> dict:
    given = {kind: task for kind, task in tasks.items() if task is not None}
    if not given:
        raise ValueError("workspace config needs at least one task")
    return given


TASKS = Section("task", {
    kind: (Section(kind, {key: (NUMBER, REQUIRED)}, partial(TaskSet, kind)), None)
    for kind, key in (("torque-box", "tau_bar"), ("fixed-field", "field_magnitude"))
}, _tasks)
WORKSPACE = Section("workspace", {
    "kind": (STRING, "workspace"),
    "name": (STRING, None),  # None: the config file's stem
    "model": (MODEL, "octomag8"),
    "current_limit": (NUMBER, REQUIRED),
    "grid": (GRID, REQUIRED),
    "tasks": (TASKS, REQUIRED),
    "plant": (Section("plant", {key: PLANT.keys[key] for key in (
        "dipole_magnitude", "magnet_offset")}, PendulumParams), {}),
    "second_agent": (Numbers(length=3), None),
    "orientation": (Numbers(length=2), (0.0, 0.0)),
})
