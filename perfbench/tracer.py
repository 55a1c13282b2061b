"""Spans around calls into each emnav module, recorded from outside.

Each hook replaces a name where its caller looks it up (a module global, a
module attribute or a class attribute) with a wrapper that records a span:
``[name, start, end, parent, note]``.  ``parent`` is the index of the
enclosing span, or -1.  A span's module is the prefix of its name.  Tracing
inside the program is not used; these spans are the benchmark's own.

A hook whose target no longer exists is skipped.  A metric whose every
target is missing is reported as ``None`` (null) rather than failing.
"""

from __future__ import annotations

import importlib
import time

import numpy as np


def _position_key(args, kwargs, result):
    return np.asarray(args[1], dtype=float).tobytes()


def _map_note(args, kwargs, result):
    task = args[1] if len(args) > 1 else kwargs["task"]
    return (task.kind, int(result.positions.shape[0]))


def _agent_ticks(args, kwargs, result):
    return int(result.alpha.size)


def _csv_rows(args, kwargs, result):
    return int(args[0].alpha.size)


# (object path, attribute, span name, note).  The object path names where the
# caller looks the function up, so the span sees every call made that way.
HOOKS = (
    ("emnav.cli", "_load_config", "cli.load_config", None),
    ("emnav.cli", "_parse_model", "cli.parse_model", None),
    ("emnav.cli", "_write_json", "cli.write_json", None),
    ("emnav.cli", "scenario_from_dict", "sim.scenario_from_dict", None),
    ("emnav.cli", "run_scenario", "sim.run_scenario", _agent_ticks),
    ("emnav.sim.SimTrace", "to_csv", "sim.to_csv", _csv_rows),
    ("emnav.cli", "allocate_torque_one_step", "alloc.torque_one_step", None),
    ("emnav.cli", "allocate_torque_two_step", "alloc.torque_two_step", None),
    ("emnav.alloc", "allocate_torque_one_step", "alloc.torque_one_step", None),
    ("emnav.alloc", "allocate_torque_two_step", "alloc.torque_two_step", None),
    ("emnav.alloc", "allocate_field_alignment", "alloc.field_alignment", None),
    ("emnav.alloc", "allocate_multi_torque", "alloc.multi_torque", None),
    ("emnav.alloc", "zeta_star", "alloc.zeta_star", None),
    ("emnav.workspace", "composed_torque_map", "alloc.composed_torque_map", None),
    ("emnav.alloc", "actuation_matrix", "magmodel.actuation_matrix", _position_key),
    ("emnav.sim", "actuation_matrix", "magmodel.actuation_matrix", _position_key),
    ("emnav.workspace", "actuation_matrix", "magmodel.actuation_matrix",
     _position_key),
    ("emnav.alloc", "field_and_gradient", "magmodel.field_and_gradient", None),
    ("emnav.alloc", "wrench_maps", "magmodel.wrench_maps", None),
    ("emnav.workspace", "field_matrix", "magmodel.field_matrix", None),
    ("emnav.cli", "get_model", "magmodel.get_model", None),
    ("emnav.sim", "get_model", "magmodel.get_model", None),
    ("emnav.sim", "lqr_gain", "control.lqr_gain", None),
    ("emnav.sim", "dare_residual", "control.dare_residual", None),
    ("emnav.sim", "closed_loop_spectral_radius",
     "control.closed_loop_spectral_radius", None),
    ("emnav.control", "dare_solve", "control.dare_solve", None),
    ("emnav.control.LqriController", "step", "control.lqri_step", None),
    ("emnav.sim", "linearize", "dynamics.linearize", None),
    ("emnav.sim", "linearize_actuator", "dynamics.linearize_actuator", None),
    ("emnav.sim", "finite_difference_linearization",
     "dynamics.finite_difference_linearization", None),
    ("emnav.cli", "workspace_map", "workspace.workspace_map", _map_note),
    ("emnav.cli", "max_feasible_standoff", "workspace.max_feasible_standoff", None),
    ("emnav.workspace.FeasibilityMap", "to_csv", "workspace.to_csv", None),
    ("emnav.workspace.FeasibilityMap", "write_metadata",
     "workspace.write_metadata", None),
)

MODULES = ("cli", "sim", "alloc", "magmodel", "control", "dynamics", "workspace")
_PARSE = ("cli.load_config", "cli.parse_model", "sim.scenario_from_dict")
_WRITE = ("cli.write_json", "sim.to_csv", "workspace.to_csv",
          "workspace.write_metadata")
_STRATEGIES = ("multi_torque", "torque_one_step", "torque_two_step",
               "field_alignment")
_SYNTHESIS = ("control.lqr_gain", "control.dare_residual",
              "control.closed_loop_spectral_radius", "control.dare_solve")
_LINEARIZE = ("dynamics.linearize", "dynamics.linearize_actuator",
              "dynamics.finite_difference_linearization")
ROOT = "cli.main"


# Per-layer metrics: unit, and the spans they are built from.  A name ending
# in "." stands for every span of that module.
PER_LAYER = {
    "magmodel.actuation_matrix.calls": ("count", ("magmodel.actuation_matrix",)),
    "magmodel.actuation_matrix.us_per_call": ("us", ("magmodel.actuation_matrix",)),
    "magmodel.actuation_matrix.calls_per_point": (
        "ratio", ("magmodel.actuation_matrix",)),
    "magmodel.field_and_gradient.calls": ("count", ("magmodel.field_and_gradient",)),
    "magmodel.busy_s": ("s", ("magmodel.",)),
    "magmodel.self_s": ("s", ("magmodel.",)),
    "alloc.busy_s": ("s", ("alloc.",)),
    "alloc.self_s": ("s", ("alloc.",)),
    "alloc.multi_torque.us_per_call": ("us", ("alloc.multi_torque",)),
    "alloc.torque_one_step.us_per_call": ("us", ("alloc.torque_one_step",)),
    "alloc.torque_two_step.us_per_call": ("us", ("alloc.torque_two_step",)),
    "alloc.field_alignment.us_per_call": ("us", ("alloc.field_alignment",)),
    "alloc.zeta_star.calls": ("count", ("alloc.zeta_star",)),
    "alloc.diag_share": ("ratio", ("alloc.zeta_star", "magmodel.field_and_gradient")),
    "alloc.rank_failures": ("count", ("alloc.",)),
    "control.synthesis_s": ("s", _SYNTHESIS),
    "control.dare_solves": ("count", ("control.dare_solve",)),
    "control.dare_ms_per_solve": ("ms", ("control.dare_solve",)),
    "control.lqri_step_us": ("us", ("control.lqri_step",)),
    "control.self_s": ("s", ("control.",)),
    "dynamics.linearize_ms": ("ms", _LINEARIZE),
    "dynamics.self_s": ("s", ("dynamics.",)),
    "sim.self_s": ("s", ("sim.run_scenario",)),
    "sim.self_us_per_agent_tick": ("us", ("sim.run_scenario",)),
    "sim.agent_ticks": ("count", ("sim.run_scenario",)),
    "sim.export_us_per_row": ("us", ("sim.to_csv",)),
    "workspace.us_per_point.torque_box": ("us", ("workspace.workspace_map",)),
    "workspace.us_per_point.fixed_field": ("us", ("workspace.workspace_map",)),
    "workspace.margin_evals": ("count", ("workspace.workspace_map",)),
    "workspace.self_s": ("s", ("workspace.",)),
    "cli.parse_s": ("s", _PARSE),
    "cli.write_s": ("s", _WRITE),
    "cli.self_s": ("s", ()),
    "cli.artifact_bytes": ("B", ()),
    "trace.overhead_s": ("s", ()),
    "trace.overhead_share": ("ratio", ()),
    "trace.spans": ("count", ()),
}


def _resolve(path: str):
    """The object at a dotted path (module, then attributes), or None."""
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Installs the hooks, records spans and turns them into metrics."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.hooked: set = set()
        self.errors: dict = {}

    def span(self, name: str, fn, note=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        errors = self.errors

        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                key = (name, type(exc).__name__)
                errors[key] = errors.get(key, 0) + 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if note is not None:
                try:
                    record[4] = note(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError):
                    record[4] = None
            return result

        return wrapper

    def install(self) -> None:
        self.hooked.clear()
        for path, attr, name, note in HOOKS:
            owner = _resolve(path)
            target = vars(owner).get(attr) if owner is not None else None
            if not callable(target):
                continue
            self._saved.append((owner, attr, target))
            setattr(owner, attr, self.span(name, target, note))
            self.hooked.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.errors.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(f'["{name}", {start!r}, {end!r}, {parent}]\n')

    def metrics(self) -> dict:
        """Per-module metrics of the spans recorded since the last reset."""
        return layer_metrics(self.spans, self.hooked, self.errors)


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was counted."""
    return num / den if den else 0.0


def layer_metrics(spans: list, hooked: set, errors: dict) -> dict:
    """Per-module metrics of one traced run; see PER_LAYER for units."""
    n = len(spans)
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * n
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    module = [name.split(".", 1)[0] for name, *_ in spans]

    def module_of_parent(i):
        parent = spans[i][3]
        return module[parent] if parent >= 0 else None

    by_name: dict = {}
    for i, (name, *_rest) in enumerate(spans):
        by_name.setdefault(name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(names):
        return sum(dur[i] for name in names for i in by_name.get(name, ()))

    def per_call(name, scale):
        return ratio(scale * total([name]), calls(name))

    busy = {m: 0.0 for m in MODULES}
    self_time = {m: 0.0 for m in MODULES}
    for i in range(n):
        m = module[i]
        if m not in busy:
            continue
        self_time[m] += dur[i] - child[i]
        if module_of_parent(i) != m:
            busy[m] += dur[i]

    positions = {spans[i][4] for i in by_name.get("magmodel.actuation_matrix", ())}
    positions.discard(None)
    am_calls = calls("magmodel.actuation_matrix")
    diag = total(["alloc.zeta_star"]) + sum(
        dur[i]
        for i in by_name.get("magmodel.field_and_gradient", ())
        if module_of_parent(i) == "alloc"
    )

    run_idx = by_name.get("sim.run_scenario", ())
    sim_self = sum(dur[i] - child[i] for i in run_idx)
    agent_ticks = sum(spans[i][4] or 0 for i in run_idx)
    csv_idx = by_name.get("sim.to_csv", ())
    csv_rows = sum(spans[i][4] or 0 for i in csv_idx)

    map_time = {"torque-box": 0.0, "fixed-field": 0.0}
    map_points = {"torque-box": 0, "fixed-field": 0}
    for i in by_name.get("workspace.workspace_map", ()):
        note = spans[i][4]
        if note is not None and note[0] in map_time:
            map_time[note[0]] += dur[i]
            map_points[note[0]] += note[1]

    synthesis = sum(
        dur[i]
        for name in _SYNTHESIS
        for i in by_name.get(name, ())
        if module_of_parent(i) != "control"
    )
    rank_failures = sum(
        count for (name, exc), count in errors.items()
        if name.startswith("alloc.") and exc == "RankDeficiencyError"
    )

    values = {
        "magmodel.actuation_matrix.calls": am_calls,
        "magmodel.actuation_matrix.us_per_call": per_call(
            "magmodel.actuation_matrix", 1e6),
        "magmodel.actuation_matrix.calls_per_point": ratio(am_calls, len(positions)),
        "magmodel.field_and_gradient.calls": calls("magmodel.field_and_gradient"),
        "magmodel.busy_s": busy["magmodel"],
        "alloc.busy_s": busy["alloc"],
        "alloc.zeta_star.calls": calls("alloc.zeta_star"),
        "alloc.diag_share": ratio(diag, busy["alloc"]),
        "alloc.rank_failures": rank_failures,
        "control.synthesis_s": synthesis,
        "control.dare_solves": calls("control.dare_solve"),
        "control.dare_ms_per_solve": per_call("control.dare_solve", 1e3),
        "control.lqri_step_us": per_call("control.lqri_step", 1e6),
        "dynamics.linearize_ms": 1e3 * total(_LINEARIZE),
        "sim.self_s": sim_self,
        "sim.self_us_per_agent_tick": ratio(1e6 * sim_self, agent_ticks),
        "sim.agent_ticks": agent_ticks,
        "sim.export_us_per_row": ratio(1e6 * total(["sim.to_csv"]), csv_rows),
        "workspace.us_per_point.torque_box": ratio(
            1e6 * map_time["torque-box"], map_points["torque-box"]),
        "workspace.us_per_point.fixed_field": ratio(
            1e6 * map_time["fixed-field"], map_points["fixed-field"]),
        "workspace.margin_evals": sum(map_points.values()),
        "cli.parse_s": total(_PARSE),
        "cli.write_s": total(_WRITE),
    }
    for strategy in _STRATEGIES:
        values[f"alloc.{strategy}.us_per_call"] = per_call(f"alloc.{strategy}", 1e6)
    for m in MODULES:
        if m != "sim":  # sim.self_s covers run_scenario only, as documented
            values[f"{m}.self_s"] = self_time[m]

    # A metric is missing when none of the hooks it is built from exists.
    def present(need):
        return any(h.startswith(need) for h in hooked) if need.endswith(".") \
            else need in hooked

    for metric, (_, needs) in PER_LAYER.items():
        if metric in values and needs and not any(map(present, needs)):
            values[metric] = None
    return values
