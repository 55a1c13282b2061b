"""Closed-loop zero-order-hold simulation of magnetically driven pendulums.

Each controller tick: measure angles (with optional latency, tilt bias, and
noise), evaluate the per-channel LQRI laws (each estimates its rates by
backward differences), allocate coil currents for the commanded task, clamp
to the current limit, and integrate the plant across the tick with the
first-order current-driver lag as the only inter-tick input variation.

The plant is driven physically: the applied currents produce a field and
gradient at each (fixed) agent position, the dipole wrench and its lever-arm
torque are projected onto the two gimbal axes, and the resulting generalized
forces feed the planar actuator/pendulum dynamics of each channel.  The two
channels couple through the shared dipole orientation.

The inner integration loop is fixed-step eighth-order Runge-Kutta (DOP853,
12 stages) at ``PLANT_DT`` on plain Python floats over one per-tick [b; g]
grid per agent at the stage times (the lag-filtered currents do not depend
on the plant state): one product of the tick's (stages, coils) current grid
with the agents' A(p)^T, stacked once per run, whose ``.tolist()`` is already
each agent's grid.  The fused tick from
``dynamics.make_tick`` runs it, fetched per agent before synthesis and
compiled only the first time a process runs that plant (pendulum attached,
signed dipole): synthesis designs the gains on the complex-step Jacobians
of one control period of that tick, checked by its central differences.  The
step is backed by a step-halving test: on the bundled scenarios, halving it
moves no angle by more than 1e-8 rad (``tests/test_sim.py::TestPlantStep``).  A plant that diverges (a domain
error, or a non-finite state, as an overflow leaves) ends the run with a
failure record, as an allocation failure (rank deficiency, an SVD that
does not converge, before the loop too, or a non-finite residual norm, which
any non-finite current leaves, 0 * inf being NaN) does.  Norms are formed
``magmodel.BLOCK`` ticks at a time, past such a tick: the trace ends at it.

What else the tick loop reads that does not depend on the plant state is
``Scenario.schedule``, built by ``_schedule`` when the scenario is checked:
tick times, impulses, tilt, bias and integrate tables by tick.  It records
each agent-tick once, into one table in the trace CSV's column order
(``SimTrace.rows``); the trace's named arrays are read-only views of it.
The other agents' ``i_1..i_n`` and every ``b_x, b_y, b_z`` are filled after
the loop from agent 0's currents.  Only noise builds numpy's random generator.

The allocation is a closure built once per run from the agents' fixed
actuation matrices A(p): ``_allocator`` picks ``alloc.torque_allocator`` or
``alloc.field_allocator`` by strategy.  A built ``Scenario`` is fully
checked, so a run fails only numerically, with numpy's overflow and invalid
warnings off: each stage classifies its own failures.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import alloc
from .alloc import RankDeficiencyError
from .control import (
    ControllerConfig,
    LqriController,
    SynthesisError,
    dare_residual,
    lqr_gain,
)
from .dynamics import (
    NODES,
    PendulumParams,
    finite_difference_linearization,
    linearize,
    make_tick,
)
from .export import write_csv
from .magmodel import (
    BLOCK,
    ActuationModel,
    SingularPositionError,
    actuation_matrix,
    coil_offsets,
)

#: Fixed plant step [s]: one DOP853 step (12 derivative evaluations) per
#: 200 Hz tick, two steps of 4 ms (24 evaluations) per 125 Hz tick.  Largest
#: angle deviation of each bundled scenario from its trace at PLANT_DT / 2,
#: then from the former fifth-order Dormand-Prince tick at 1.25e-3 s (24
#: evaluations per 200 Hz tick): multi_field_2x2d 1.6e-10 and 4.9e-10 rad,
#: multi_torque_async 3.4e-11 and 4.6e-11, multi_torque_inphase 3.4e-11 and
#: 4.5e-11, single_torque 7.0e-12 and 1.4e-11, single_field 2.0e-12 and
#: 7.8e-12, disturb_field_integral 7.7e-14 and 2.6e-13, disturb_field_p_only
#: 1.7e-16 and 5.0e-16; the 125 Hz navion3 two-step line at 0.12 m 2.3e-13
#: and 6.4e-12.  Against the fifth-order tick at 1.5625e-4 s, this step is
#: 2.3x to 4.8x closer than the fifth-order one at 1.25e-3 s on every
#: bundled scenario above roundoff (multi_field_2x2d 1.6e-10 against 6.5e-10
#: rad), and 28x on the navion3 line.  The error falls about 256x per
#: halving: 1.6e-10 rad is 60x under the 1e-8 rad bound of the step-halving
#: test.
PLANT_DT = 5e-3

#: Most ticks x agents one run may take, checked before the trace is
#: allocated.  The trace holds 13 + n_coils float64 values per agent-tick and
#: 1 + n_coils per tick, so a one-agent octomag8 run at the cap holds
#: 30 x 8 B x 1e6 = 240 MB; the largest bundled scenario takes
#: 2 x 2400 = 4,800 agent-ticks.
MAX_AGENT_TICKS = 1_000_000

SETPOINT_KINDS = ("constant", "circle")
DISTURBANCE_KINDS = ("impulse", "torque_bias", "measurement_tilt")
CHANNELS = ("alpha", "beta")

SINGLE_STRATEGIES_BY_PARADIGM = {
    "field": ("field_alignment",),
    "torque": ("torque_one_step", "torque_two_step"),
}
MULTI_STRATEGIES_BY_PARADIGM = {
    "field": ("multi_field",),
    "torque": ("multi_torque",),
}


def _first_tick(time: float, h: float) -> int:
    """The tick at which every scheduled time takes effect: the first k with
    k * h + 1e-12 >= ``time``, from the k * h the tick loop computes (so
    0.925 s is tick 111 at 120 Hz, though 111 / 120 rounds below it).  A
    time past ``MAX_AGENT_TICKS`` ticks maps past every run's last tick."""
    k = math.ceil(min(max(time - 1e-12, 0.0) / h, MAX_AGENT_TICKS + 1))
    if k > 0 and (k - 1) * h + 1e-12 >= time:
        return k - 1
    return k if k * h + 1e-12 >= time else k + 1


@dataclass(frozen=True)
class EmnsConfig:
    """Electromagnetic-navigation-system interface characteristics.

    Attributes:
        control_rate: Controller frequency [Hz].
        current_limit: Per-coil saturation bound [A].
        current_bandwidth: First-order current-driver -3 dB bandwidth [Hz];
            0 means ideal (instant) drivers.
        loop_latency: Measurement delay [s], rounded to whole ticks.
    """

    control_rate: float
    current_limit: float
    current_bandwidth: float = 0.0
    loop_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.control_rate <= 0:
            raise ValueError("control_rate must be positive")
        if self.current_limit <= 0:
            raise ValueError("current_limit must be positive")
        if not 0.0 <= 2.0 * math.pi * self.current_bandwidth < math.inf:
            raise ValueError("current_bandwidth must be non-negative with 2 pi f finite")
        if not 0.0 <= self.loop_latency * self.control_rate < math.inf:
            raise ValueError("loop_latency must be non-negative and finite in ticks")


EMNS_PRESETS = {
    "octomag": EmnsConfig(
        control_rate=200.0, current_limit=16.0, current_bandwidth=26.4
    ),
    "navion": EmnsConfig(
        control_rate=125.0, current_limit=25.0, current_bandwidth=24.5
    ),
}


@dataclass(frozen=True)
class SetpointSpec:
    """Tilt-angle setpoint trajectory for one agent.

    "constant" holds (alpha, beta); "circle" traces
    alpha = radius cos(2 pi f t + phase), beta = radius sin(2 pi f t + phase).
    A nonzero value of a key that the kind does not read is rejected.
    """

    kind: str = "constant"
    alpha: float = 0.0
    beta: float = 0.0
    radius: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SETPOINT_KINDS:
            raise ValueError(f"setpoint kind must be one of {SETPOINT_KINDS}")
        unread = (("alpha", "beta") if self.kind == "circle"
                  else ("radius", "frequency", "phase"))
        for name in unread:
            if getattr(self, name) != 0.0:
                raise ValueError(f"{name} does not apply to a '{self.kind}' "
                                 f"setpoint, got {getattr(self, name)}")

    def value(self, t: float) -> tuple[float, float]:
        if self.kind == "constant":
            return self.alpha, self.beta
        arg = 2.0 * math.pi * self.frequency * t + self.phase
        return self.radius * math.cos(arg), self.radius * math.sin(arg)


@dataclass(frozen=True)
class DisturbanceEvent:
    """A scheduled disturbance, snapped to the controller tick grid.

    Each window starts at the first tick with t + 1e-12 >= `time`
    (``_first_tick``); a `torque_bias` with a `duration` ends at the first
    tick with t + 1e-12 >= `time` + `duration`.  `duration` applies to
    `torque_bias` only.  A `time` after the last tick of the scenario is
    rejected, since the window would never start, and so is a window that
    holds no tick (both ends on one tick).

    kinds:
        impulse: adds `magnitude` [rad/s] to the channel's actuator rate at
            the first tick of its window.
        torque_bias: adds `magnitude` [N·m] to the channel's generalized
            force over its window (None `duration` = to the end).
        measurement_tilt: offsets the channel's measured angles by
            `magnitude` [rad] from its first tick onward.
    """

    kind: str
    time: float
    magnitude: float
    agent: int = 0
    channel: str = "alpha"
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in DISTURBANCE_KINDS:
            raise ValueError(f"disturbance kind must be one of {DISTURBANCE_KINDS}")
        if self.channel not in CHANNELS:
            raise ValueError(f"channel must be one of {CHANNELS}")
        if self.time < 0:
            raise ValueError("event time must be non-negative")
        if self.duration is not None and self.kind != "torque_bias":
            raise ValueError(f"duration applies to torque_bias events only, "
                             f"not {self.kind}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("event duration must be positive when given")


@dataclass(frozen=True)
class AgentSetup:
    """One pivoted pendulum unit in a scenario.

    initial: state (alpha, beta, phi, theta, alpha_dot, beta_dot, phi_dot,
    theta_dot) [rad, rad/s]; the pendulum entries are ignored when
    pendulum_attached is False.  controller and integral_windows apply to
    both tilt channels, each of which runs its own LqriController; its q_diag
    weighs the 4 states of a channel with the pendulum or the 2 without, and
    a None controller becomes (20, 40, 1, 1) or (20, 1) with r_weight 1.  The integral
    term accumulates only in integral_windows (ordered, disjoint [start, end)
    in seconds; none means always).
    """

    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    initial: tuple[float, ...] = (0.0,) * 8
    polarity: int = 1
    pendulum_attached: bool = True
    release_time: float = 0.0
    setpoint: SetpointSpec = field(default_factory=SetpointSpec)
    controller: ControllerConfig | None = None
    integral_windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        initial = tuple(float(v) for v in self.initial)
        if len(initial) != 8:
            raise ValueError("initial state must have 8 entries")
        object.__setattr__(self, "initial", initial)
        if self.polarity not in (-1, 1):
            raise ValueError("polarity must be +1 or -1")
        if self.release_time < 0:
            raise ValueError("release_time must be non-negative")
        states = 4 if self.pendulum_attached else 2
        if self.controller is None:
            object.__setattr__(self, "controller", ControllerConfig(
                q_diag=(20.0, 40.0, 1.0, 1.0) if states == 4 else (20.0, 1.0)))
        weights = len(self.controller.q_diag)
        if weights != states:
            raise ValueError(f"controller.q_diag has length {weights}, but the "
                             f"agent's plant has {states} states")
        prev_end = -math.inf
        for start, end in self.integral_windows:
            if end <= start:
                raise ValueError(f"window ({start}, {end}) is empty or reversed")
            if start < prev_end:
                raise ValueError("integral windows overlap or are out of order")
            prev_end = end


@dataclass(frozen=True)
class Scenario:
    """Complete description of one closed-loop simulation."""

    name: str
    model: ActuationModel
    paradigm: str
    strategy: str
    emns: EmnsConfig
    duration: float
    agents: tuple[AgentSetup, ...]
    plant: PendulumParams = field(default_factory=PendulumParams)
    disturbances: tuple[DisturbanceEvent, ...] = ()
    field_magnitude: float = 0.0
    include_force: bool = True
    measurement_noise_std: float = 0.0
    seed: int = 0
    #: The validated schedule, built once here and read by run_scenario.
    schedule: _Schedule = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # _schedule rejects a duration of no tick (duration <= 0 among them).
        if not 1 <= len(self.agents) <= 2:
            raise ValueError("scenarios support 1 or 2 agents")
        agent_ticks = self.duration * self.emns.control_rate * len(self.agents)
        if agent_ticks > MAX_AGENT_TICKS:
            raise ValueError(
                f"duration x control_rate x agents is {agent_ticks:.6g} "
                f"agent-ticks, more than the cap of {MAX_AGENT_TICKS}"
            )
        table = (
            SINGLE_STRATEGIES_BY_PARADIGM
            if len(self.agents) == 1
            else MULTI_STRATEGIES_BY_PARADIGM
        )
        if self.paradigm not in table:
            raise ValueError(f"paradigm must be one of {tuple(table)}")
        if self.strategy not in table[self.paradigm]:
            raise ValueError(
                f"strategy '{self.strategy}' invalid for paradigm "
                f"'{self.paradigm}' with {len(self.agents)} agent(s); "
                f"expected one of {table[self.paradigm]}"
            )
        if not self.include_force and self.strategy != "torque_one_step":
            raise ValueError(
                f"include_force is false, but strategy '{self.strategy}' "
                "does not take it: only torque_one_step chooses whether to "
                "use gradient forces"
            )
        if not math.isfinite(self.field_magnitude):
            raise ValueError("field_magnitude must be finite")
        if self.paradigm == "field" and self.field_magnitude <= 0:
            raise ValueError("field paradigm requires field_magnitude > 0")
        if not 0.0 <= self.measurement_noise_std < math.inf:
            raise ValueError("measurement_noise_std must be non-negative and finite")
        for idx, agent in enumerate(self.agents):
            if math.hypot(*agent.position) > 0.5:  # which does not overflow
                raise ValueError(f"agent {idx} position {agent.position} is "
                                 "outside the model validity region")
            try:
                coil_offsets(self.model, np.array([agent.position]))
            except SingularPositionError as exc:
                raise ValueError(f"agent {idx}: {exc}") from exc
        for ev in self.disturbances:
            if ev.agent >= len(self.agents):
                raise ValueError(f"disturbance references agent {ev.agent}")
        object.__setattr__(self, "schedule", _schedule(self))


class _Schedule(NamedTuple):
    """A run's schedule (``_schedule``); tables are indexed [tick][agent]."""

    ticks: int
    h: float  # control period [s]
    t: np.ndarray  # tick times, k * h
    release: list  # each agent's first integrated tick
    tilt: list  # (alpha, beta) summed measurement_tilt magnitudes [rad]
    bias: list  # (alpha, beta) summed torque_bias magnitudes [N·m]
    impulses: dict  # tick -> [(agent, state index, magnitude)], event order
    integrate: list  # whether the integral term accumulates


#: The joint state the plant integrates, by pendulum_attached, as indices
#: into AgentSetup.initial (alpha, beta, phi, theta, then their rates).
_PACKED = {True: (0, 2, 4, 6, 1, 3, 5, 7), False: (0, 4, 1, 5)}


def _schedule(scenario: Scenario) -> _Schedule:
    """The one mapping of scheduled times to ticks (``_first_tick``), checked
    as it is made, and the tables built from it.  A table entry sums, in
    event order from 0.0, the magnitudes of the events of its kind that hold
    the tick (ticks k0 <= k < k1); ticks on which no window starts or ends
    share one row.  Raises ValueError for a run of no tick, else for the first
    start after the last tick or window without a tick (disturbances, then
    each agent's release, windows and circle setpoint's phase)."""
    h = 1.0 / scenario.emns.control_rate
    ticks = round(scenario.duration * scenario.emns.control_rate)
    if ticks < 1:
        raise ValueError(
            f"duration {scenario.duration:.6g} s is shorter than half a control "
            f"tick at {scenario.emns.control_rate:.6g} Hz: the run would have "
            "no ticks"
        )
    agents, events = scenario.agents, scenario.disturbances

    def span(name: str, what: str, start: float, end: float | None = None):
        # The ticks k0 <= k < k1 of [start, end), to the last tick without an
        # end: a start must not fall after the last tick; a window, hold one.
        k0 = _first_tick(start, h)
        if k0 >= ticks:
            raise ValueError(f"{name}{what} {start:.6g} s falls after the last control "
                             f"tick of the {scenario.duration:.6g} s duration, at "
                             f"{(ticks - 1) * h:.6g} s")
        k1 = ticks if end is None else _first_tick(end, h)
        if k1 == k0:
            raise ValueError(f"{name} window [{start:.6g}, {end:.6g}) s holds no "
                             f"control tick at {scenario.emns.control_rate:.6g} Hz")
        return k0, k1

    spans, impulses = [], {}
    for i, ev in enumerate(events):
        end = None if ev.duration is None else ev.time + ev.duration
        k0, k1 = span(f"disturbances[{i}]", " time", ev.time, end)
        spans.append((k0, k0 + 1 if ev.kind == "impulse" else k1))
        if ev.kind == "impulse":
            packed = _PACKED[agents[ev.agent].pendulum_attached]
            index = packed.index(4 + CHANNELS.index(ev.channel))  # its rate
            impulses.setdefault(k0, []).append((ev.agent, index, ev.magnitude))
    release, integral_spans = [], []
    for i, s in enumerate(agents):
        release.append(span(f"agents[{i}]", ".release_time", s.release_time)[0])
        integral_spans.append(tuple(
            span(f"agents[{i}].integral_windows[{j}]", " start", *window)
            for j, window in enumerate(s.integral_windows)))
        # SetpointSpec.value's phase is monotone in t: finite at the last tick.
        sp, t_last = s.setpoint, (ticks - 1) * h
        if not math.isfinite(2.0 * math.pi * sp.frequency * t_last + sp.phase):
            raise ValueError(f"agents[{i}].setpoint: the phase 2 pi frequency t + "
                             f"phase is not finite at the last tick, {t_last:.6g} s")
    bounds = {k for span in spans + [w for s in integral_spans for w in s]
              for k in span if 0 < k < ticks}
    cuts = sorted(bounds | {0, ticks})

    def table(row_at) -> list:
        return [row for k0, k1 in zip(cuts, cuts[1:])
                for row in [row_at(k0)] * (k1 - k0)]

    def summed(kind: str, k: int) -> tuple:
        row = [[0.0, 0.0] for _ in agents]
        for ev, (k0, k1) in zip(events, spans):
            if ev.kind == kind and k0 <= k < k1:
                row[ev.agent][CHANNELS.index(ev.channel)] += ev.magnitude
        return tuple(map(tuple, row))

    tilt = table(lambda k: summed("measurement_tilt", k))
    bias = table(lambda k: summed("torque_bias", k))
    integrate = table(lambda k: tuple(
        not s or any(k0 <= k < k1 for k0, k1 in s) for s in integral_spans))
    return _Schedule(ticks, h, np.arange(ticks) * h, release, tilt, bias,
                     impulses, integrate)


def _view(index) -> property:
    """A read-only view of ``SimTrace.rows`` at ``index``."""
    def get(trace: SimTrace) -> np.ndarray:
        view = trace.rows[index]
        view.flags.writeable = False
        return view
    return property(get)


@dataclass
class SimTrace:
    """Uniform-rate closed-loop trace.

    ``rows`` is the trace CSV's table, shape (ticks, n_agents, 13 + n_coils);
    the named arrays are read-only views of it, (ticks, n_agents) per agent.
    `outputs_*` hold the per-channel controller outputs: torques [N·m] in the
    torque paradigm, commanded field angles [rad] in the field paradigm.
    `currents` (ticks, n_coils) are the applied (lagged, saturated) coil
    currents at the tick instant; `currents_cmd` the post-clamp commands
    issued at that tick and `residuals` the allocation's, not in the CSV.
    """

    rows: np.ndarray
    currents_cmd: np.ndarray
    residuals: np.ndarray
    synthesis: list
    summary: dict
    failure: dict | None = None

    t = _view(np.s_[:, 0, 0])
    alpha, beta, phi, theta, alpha_sp, beta_sp = (
        _view(np.s_[:, :, j]) for j in range(2, 8))
    outputs_beta = _view(np.s_[:, :, 8])  # tau_x
    outputs_alpha = _view(np.s_[:, :, 9])  # tau_y
    currents = _view(np.s_[:, 0, 10:-3])
    fields = _view(np.s_[:, :, -3:])

    @property
    def n_agents(self) -> int:
        return self.rows.shape[1]

    def to_csv(self, path: str | Path) -> None:
        """Write the fixed-schema trace CSV (one row per tick per agent)."""
        header = (["t", "agent", "alpha", "beta", "phi", "theta", "alpha_sp",
                   "beta_sp", "tau_x", "tau_y"]
                  + [f"i_{k + 1}" for k in range(self.rows.shape[2] - 13)]
                  + ["b_x", "b_y", "b_z"])
        table = self.rows.reshape(-1, len(header))
        write_csv(path, header, table.shape[0],
                  lambda start, stop: [*table[start:stop].T])


def _joint_angles(y: tuple, attached: bool) -> tuple[float, float, float, float]:
    """(alpha, beta, phi, theta) from the packed joint state."""
    if attached:
        return y[0], y[4], y[1], y[5]
    return y[0], y[2], 0.0, 0.0


@np.errstate(over="ignore", invalid="ignore")
def run_scenario(scenario: Scenario) -> SimTrace:
    """Simulate a scenario tick by tick; see the module docstring.

    Returns a SimTrace.  A failed synthesis, or a ValueError or
    ArithmeticError in it, raises SynthesisError.  A numerical failure
    mid-run is recorded in `trace.failure` with its stage ("allocation" for
    a rank failure, a ValueError or a non-finite solve, "integration" for a
    diverging plant), time and tick (and agent, for integration), and the
    trace is truncated at the failing tick.
    """
    emns = scenario.emns
    params = scenario.plant
    n_agents = len(scenario.agents)
    n_coils = scenario.model.n_coils
    sched = scenario.schedule
    ticks, h = sched.ticks, sched.h
    substeps = max(1, int(round(h / PLANT_DT)))
    dt = h / substeps
    # A latency as long as the run reads the first measurement throughout.
    latency_ticks = min(round(emns.loop_latency * emns.control_rate), ticks)
    noise_std = scenario.measurement_noise_std
    # Only noise imports numpy.random, which costs about 5 MB.
    rng = np.random.default_rng(scenario.seed) if noise_std > 0.0 else None

    # --- plants and synthesis ---------------------------------------------
    # One tick is fetched per agent; ``make_tick`` compiles each distinct
    # plant (pendulum attached, signed dipole) once.  Each layout (pendulum
    # attached or not) takes its synthesis model from one control period of
    # its first agent's tick: central differences first, since on the real
    # tick a diverging plant fails with a math domain error, then the complex
    # step, which reuses the compiled code.  Each distinct (layout, q_diag,
    # r_weight) is solved once.  An agent's two channels share its gain,
    # each with its own controller.
    plants: dict[bool, tuple] = {}
    solutions: dict[tuple, tuple] = {}
    synthesis = []
    controllers: list[tuple[LqriController, LqriController]] = []
    try:
        plant_ticks = [make_tick(params, s.pendulum_attached,
                                 params.dipole_magnitude * s.polarity)
                       for s in scenario.agents]
        for a_idx, setup in enumerate(scenario.agents):
            attached = setup.pendulum_attached
            if attached not in plants:
                period = (plant_ticks[a_idx], scenario.paradigm, substeps, dt,
                          scenario.field_magnitude, attached, setup.polarity)
                a_fd, b_fd = finite_difference_linearization(*period)
                a_d, b_d = linearize(*period)
                plants[attached] = (a_d, b_d, float(
                    max(np.max(np.abs(a_d - a_fd)), np.max(np.abs(b_d - b_fd)))
                ))
            a_d, b_d, fd_match = plants[attached]
            cfg = setup.controller
            key = (attached, cfg.q_diag, cfg.r_weight)
            if key not in solutions:
                gain, p, rho = lqr_gain(a_d, b_d, cfg)
                q, r = np.diag(cfg.q_diag), np.array([[cfg.r_weight]])
                residual = dare_residual(p, a_d, b_d, q, r)
                solutions[key] = (gain, residual, rho)
            gain, residual, rho = solutions[key]
            controllers.append(tuple(LqriController(gain, cfg, h) for _ in CHANNELS))
            synthesis += [
                {
                    "agent": a_idx,
                    "channel": channel,
                    "gain": [float(v) for v in gain[0]],
                    "dare_residual": float(residual),
                    "spectral_radius": float(rho),
                    "fd_linearization_match": fd_match,
                }
                for channel in CHANNELS
            ]
    except (ValueError, ArithmeticError) as exc:
        raise SynthesisError(
            f"controller synthesis failed: {type(exc).__name__}: {exc}") from exc

    # --- precomputation ----------------------------------------------------
    a_mats = [actuation_matrix(scenario.model, np.asarray(s.position, dtype=float))
              for s in scenario.agents]
    try:
        allocate, logged_residuals = _allocator(scenario, a_mats)
    except (ValueError, ArithmeticError) as exc:  # an SVD that does not converge
        def allocate(*_, error=exc):  # fails the first tick's allocation
            raise error
        logged_residuals = np.zeros  # of no logged tick
    a_t = np.stack([a_mat.T for a_mat in a_mats])  # (agents, n_coils, 8)
    b_all = np.vstack([a_mat[:3] for a_mat in a_mats])  # the field rows
    grid_times = np.append(np.add.outer(np.arange(substeps), NODES), substeps) * dt
    omega = 2.0 * math.pi * emns.current_bandwidth
    if emns.current_bandwidth > 0.0:  # a row per stage, the tick's end last
        decay_grid = np.exp(-omega * grid_times)[:, None]
    else:
        decay_grid = np.zeros((grid_times.size, 1))
    upper = np.full(n_coils, emns.current_limit)
    lower = -upper

    # --- state -------------------------------------------------------------
    states = [tuple(s.initial[i] for i in _PACKED[s.pendulum_attached])
              for s in scenario.agents]
    i_applied = np.zeros(n_coils)
    meas_buffers = [deque(maxlen=latency_ticks + 1) for _ in scenario.agents]

    # The trace table (SimTrace.rows), its t and agent columns filled once.
    rows = np.zeros((ticks, n_agents, 13 + n_coils))
    rows[:, :, 0] = sched.t[:, None]
    rows[:, :, 1] = np.arange(n_agents)
    currents_cmd = np.zeros((ticks, n_coils))
    residuals = np.zeros(ticks)
    failure = None
    logged = 0  # ticks whose allocation is logged

    for k in range(ticks):
        t = k * h
        for a_idx, index, magnitude in sched.impulses.get(k, ()):
            y = list(states[a_idx])
            y[index] += magnitude
            states[a_idx] = tuple(y)

        # Per agent: the plant state and field at the tick instant, the
        # measurement (tilt bias + optional noise, integer-tick latency) and
        # the controller outputs.
        meas_agents = []
        outputs = []
        tilts, integrate = sched.tilt[k], sched.integrate[k]
        for a_idx, setup in enumerate(scenario.agents):
            angles = _joint_angles(states[a_idx], setup.pendulum_attached)
            # (alpha, beta, phi, theta) + (tilt_a, tilt_b, tilt_a, tilt_b)
            meas = [v + tilt for v, tilt in zip(angles, tilts[a_idx] * 2)]
            if noise_std > 0.0:
                meas = [v + float(rng.normal(0.0, noise_std)) for v in meas]
            buf = meas_buffers[a_idx]
            buf.append(meas)
            m_al, m_be, m_ph, m_th = buf[0]
            sp_a, sp_b = setup.setpoint.value(t)
            alpha_ctl, beta_ctl = controllers[a_idx]
            out_a = alpha_ctl.step(m_al, m_ph, sp_a, integrate[a_idx])
            out_b = beta_ctl.step(m_be, m_th, sp_b, integrate[a_idx])
            meas_agents.append(buf[0])
            outputs.append((out_a, out_b))
            rows[k, a_idx, 2:10] = (*angles, sp_a, sp_b, out_b, out_a)
        rows[k, 0, 10:-3] = i_applied  # the other agents' and fields: after the loop

        # Allocation (on measured orientations); LinAlgError and a math
        # domain error are ValueErrors.  A full block of logged solves forms
        # its residual norms; a non-finite one stops the loop.
        try:
            i_cmd = allocate(meas_agents, outputs, k % BLOCK)
        except (RankDeficiencyError, ValueError, ArithmeticError) as exc:
            failure = {"stage": "allocation", "time": float(t), "tick": k,
                       "error": str(exc)}
            break
        logged = k + 1
        if logged % BLOCK == 0:
            residuals[logged - BLOCK:logged] = logged_residuals(BLOCK)
            if not np.isfinite(residuals[logged - BLOCK:logged]).all():
                break
        currents_cmd[k] = i_cmd = np.minimum(np.maximum(i_cmd, lower), upper)

        # The (stages, n_coils) currents at the stage times under the lag,
        # the tick's end last.
        diff = i_applied - i_cmd
        i_grid = i_cmd + decay_grid * diff
        i_applied = np.minimum(np.maximum(i_grid[-1], lower), upper)

        # Integrate each agent's plant across the tick over its [b; g] grid
        # (grids[agent][stage]).
        grids = (i_grid @ a_t).tolist()
        biases = sched.bias[k]
        for a_idx in range(n_agents):
            if k < sched.release[a_idx]:
                continue  # still held at its initial pose
            try:
                y = plant_ticks[a_idx](states[a_idx], substeps, dt, grids[a_idx],
                                       *biases[a_idx])
            except (ValueError, ArithmeticError) as exc:  # sin(inf), det 0
                error = f"plant diverged: {type(exc).__name__}: {exc}"
            else:
                if all(map(math.isfinite, y)):
                    states[a_idx] = y
                    continue
                error = "plant diverged: non-finite state"
            failure = {"stage": "integration", "time": float(t), "tick": k,
                       "agent": a_idx, "error": error}
            break
        if failure is not None:
            break

    # The last block's norms; the first non-finite one fails its tick.
    residuals[logged - logged % BLOCK:logged] = logged_residuals(logged % BLOCK)
    bad = np.flatnonzero(~np.isfinite(residuals[:logged]))
    if bad.size:
        k = int(bad[0])
        residuals[k], currents_cmd[k] = 0.0, 0.0
        failure = {"stage": "allocation", "time": float(k * h), "tick": k,
                   "error": "non-finite allocation currents or residual"}
    n = ticks if failure is None else k + 1  # through the failing tick
    # The stacked matmul takes one matrix-vector product per tick, so each
    # tick's fields have the bits of b_all @ its currents.
    rows[:n, 1:, 10:-3] = rows[:n, :1, 10:-3]
    rows[:n, :, -3:] = (b_all @ rows[:n, 0, 10:-3, None]).reshape(n, n_agents, 3)
    trace = SimTrace(rows[:n], currents_cmd[:n], residuals[:n], synthesis, {},
                     failure)
    trace.summary = _summarize(scenario, trace)
    return trace


def _allocator(scenario: Scenario, a_mats: list):
    """The per-tick allocation of one run, built once from the agents' A(p):
    ``alloc.field_allocator`` or ``alloc.torque_allocator`` for the
    scenario's strategy, as ``(allocate, logged_residuals)``: a tick calls
    ``allocate(meas_agents, outputs, slot)``."""
    agents = scenario.agents
    if scenario.paradigm == "field":
        return alloc.field_allocator(a_mats, [s.polarity for s in agents],
                                     scenario.field_magnitude)
    params = scenario.plant
    mag_pols = [params.dipole_magnitude * s.polarity for s in agents]
    lever = params.magnet_offset if scenario.include_force else 0.0
    two_step = scenario.strategy == "torque_two_step"
    return alloc.torque_allocator(a_mats, mag_pols, lever,
                                  agents[0].position if two_step else None)


def _settling_tick(within: np.ndarray) -> int | None:
    """The first tick from which ``within`` holds to the end: the tick after
    its last False, or None when that is the last tick (or there is none)."""
    outside = np.flatnonzero(~within)
    k = int(outside[-1]) + 1 if outside.size else 0
    return k if k < within.shape[0] else None


def _summarize(scenario: Scenario, trace: SimTrace) -> dict:
    """Settling (all four angles within 0.5 deg to the end), tracking, and
    current metrics plus synthesis diagnostics."""
    ticks = trace.t.shape[0]
    steady_from = int(0.75 * ticks)
    err_mag = np.hypot(trace.alpha - trace.alpha_sp, trace.beta - trace.beta_sp)
    angles = np.stack([trace.alpha, trace.beta, trace.phi, trace.theta])
    within = np.all(np.abs(angles) < math.radians(0.5), axis=0)
    agents = range(trace.n_agents)
    settling = [_settling_tick(within[:, a_idx]) for a_idx in agents]
    return {
        "scenario": scenario.name,
        "paradigm": scenario.paradigm,
        "strategy": scenario.strategy,
        "duration": float(scenario.duration),
        "ticks": int(ticks),
        "n_agents": trace.n_agents,
        "seed": int(scenario.seed),
        "metrics": {
            "settling_time": [None if k is None else float(trace.t[k])
                              for k in settling],
            "rms_tracking_last_quarter": [
                float(np.sqrt(np.mean(err_mag[steady_from:, a_idx] ** 2)))
                for a_idx in agents
            ],
            "max_current": float(np.max(np.abs(trace.currents))),
            "steady_max_current": float(np.max(np.abs(trace.currents[steady_from:]))),
            "max_allocation_residual": float(np.max(trace.residuals)),
            "max_abs_alpha": float(np.max(np.abs(trace.alpha))),
            "max_abs_angle": float(np.max(np.abs(angles))),
        },
        "synthesis": trace.synthesis,
        "failure": trace.failure,
    }


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario from a plain (JSON-loaded) dict.

    Raises:
        ConfigError: A ValueError whose message names the JSON path of the
            first problem (see ``emnav.config.SCENARIO``).
    """
    from .config import SCENARIO  # config builds its tables from this module

    return SCENARIO.read(data)
