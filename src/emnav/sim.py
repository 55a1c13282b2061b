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

The inner integration loop is fixed-step RK4 at ``PLANT_DT`` on plain Python
floats over per-tick precomputed field/gradient grids (the lag-filtered
currents do not depend on the plant state), run by each agent's fused tick
from ``dynamics.make_tick``, compiled once per run.  The step is backed by a
step-halving test: on the bundled scenarios, halving it moves no angle by
more than 1e-8 rad (``tests/test_sim.py::TestPlantStep``).  A plant that
diverges (overflow, domain error or a non-finite state) ends the run with a
failure record, as an allocation failure (rank deficiency or an SVD that
does not converge) does.

The allocation is a closure built once per run from the agents' fixed
actuation matrices A(p) (``_allocator``): the field strategies' task map is
constant, so its pseudoinverse is taken once per run, and the torque
strategy is chosen once.  Every torque strategy runs in the body-frame
(tau_x, tau_y) plane, from two ``torque_rows`` per agent filled from the
measured angles each tick.  The one-step and multi-agent solves take one
batched product with the stacked A(p) and one ``alloc.solve_torque``; the
two-step solve takes the field rows' pseudoinverse once per run and, per
tick, the closed-form field of ``alloc.two_step_field``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import alloc
from .alloc import FieldCommand, RankDeficiencyError
from .control import (
    ControllerConfig,
    LqriController,
    closed_loop_spectral_radius,
    dare_residual,
    lqr_gain,
)
from .dynamics import (
    PendulumParams,
    finite_difference_linearization,
    linearize,
    make_tick,
)
from .export import write_csv
from .magmodel import (
    ActuationModel,
    SingularPositionError,
    actuation_matrix,
    coil_offsets,
    pinv_rank,
    torque_rows,
)

#: Fixed plant substep for the RK4 integrator [s]: 20 substeps per 200 Hz
#: tick, 32 per 125 Hz tick.  Largest angle deviation of the bundled
#: scenarios from their trace at 1e-4 s, at 2.5e-4 s and at 5e-4 s:
#: multi_field_2x2d 9.8e-10 and 1.6e-8 rad, multi_torque_* 1.0e-10 and
#: 1.7e-9, single_torque 3e-11 and 4.9e-10, single_field 1.6e-11 and
#: 2.6e-10, disturb_field_integral 5.1e-13 and 8.3e-12, disturb_field_p_only
#: 5.7e-15 and 3.0e-14.  RK4's error falls about 16x per halving; at 5e-4 s
#: multi_field_2x2d moves 1.5e-8 rad from its 2.5e-4 s trace, over the
#: 1e-8 rad bound of the step-halving test.
PLANT_DT = 2.5e-4

#: Most ticks x agents one run may take, checked before the trace is
#: allocated.  The trace holds 11 float64 values per agent-tick and
#: 2 + 2 * n_coils per tick, so a one-agent octomag8 run at the cap holds
#: 29 x 8 B x 1e6 = 232 MB; the largest bundled scenario takes
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
        if self.current_bandwidth < 0:
            raise ValueError("current_bandwidth must be non-negative")
        if self.loop_latency < 0:
            raise ValueError("loop_latency must be non-negative")


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
    rejected, since the window would never start.

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
    both tilt channels, each of which runs its own LqriController; a None
    controller takes the default weights of the agent's plant.  The integral
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

    def __post_init__(self) -> None:
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        if not 1 <= len(self.agents) <= 2:
            raise ValueError("scenarios support 1 or 2 agents")
        agent_ticks = self.duration * self.emns.control_rate * len(self.agents)
        if agent_ticks > MAX_AGENT_TICKS:
            raise ValueError(
                f"duration x control_rate x agents is {agent_ticks:.6g} "
                f"agent-ticks, more than the cap of {MAX_AGENT_TICKS}"
            )
        ticks = round(self.duration * self.emns.control_rate)
        if ticks < 1:
            raise ValueError(
                f"duration {self.duration:.6g} s is shorter than half a control "
                f"tick at {self.emns.control_rate:.6g} Hz: the run would have "
                "no ticks"
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
        if not math.isfinite(self.measurement_noise_std):
            raise ValueError("measurement_noise_std must be finite")
        if self.measurement_noise_std < 0:
            raise ValueError("measurement_noise_std must be non-negative")
        for idx, agent in enumerate(self.agents):
            pos = np.asarray(agent.position, dtype=float)
            if np.linalg.norm(pos) > 0.5:
                raise ValueError(f"agent {idx} position {agent.position} is "
                                 "outside the model validity region")
            try:
                coil_offsets(self.model, pos[None, :])
            except SingularPositionError as exc:
                raise ValueError(f"agent {idx}: {exc}") from exc
        times = []  # scheduled times, which must not fall after the last tick
        for idx, ev in enumerate(self.disturbances):
            if ev.agent >= len(self.agents):
                raise ValueError(f"disturbance references agent {ev.agent}")
            times.append((f"disturbances[{idx}] time", ev.time))
        for idx, agent in enumerate(self.agents):
            times.append((f"agents[{idx}].release_time", agent.release_time))
            times += [(f"agents[{idx}].integral_windows[{j}] start", start)
                      for j, (start, _) in enumerate(agent.integral_windows)]
        h = 1.0 / self.emns.control_rate
        for name, time in times:
            if _first_tick(time, h) >= ticks:
                raise ValueError(
                    f"{name} {time:.6g} s falls after the last control tick "
                    f"of the {self.duration:.6g} s duration, at "
                    f"{(ticks - 1) * h:.6g} s"
                )


@dataclass
class SimTrace:
    """Uniform-rate closed-loop trace.

    All per-agent arrays have shape (ticks, n_agents); currents have shape
    (ticks, n_coils).  `outputs_*` hold the per-channel controller outputs:
    torques [N·m] in the torque paradigm, commanded field angles [rad] in the
    field paradigm.  `currents` are the applied (lagged, saturated) coil
    currents at the tick instant; `currents_cmd` the post-clamp commands
    issued at that tick.
    """

    t: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    alpha_sp: np.ndarray
    beta_sp: np.ndarray
    outputs_alpha: np.ndarray
    outputs_beta: np.ndarray
    currents: np.ndarray
    currents_cmd: np.ndarray
    fields: np.ndarray  # (ticks, n_agents, 3)
    residuals: np.ndarray
    synthesis: list
    summary: dict
    failure: dict | None = None

    @property
    def n_agents(self) -> int:
        return self.alpha.shape[1]

    def to_csv(self, path: str | Path) -> None:
        """Write the fixed-schema trace CSV (one row per tick per agent)."""
        ticks, n_agents = self.alpha.shape
        n_coils = self.currents.shape[1]
        header = (
            ["t", "agent", "alpha", "beta", "phi", "theta", "alpha_sp", "beta_sp",
             "tau_x", "tau_y"]
            + [f"i_{k + 1}" for k in range(n_coils)]
            + ["b_x", "b_y", "b_z"]
        )
        per_agent = (
            self.alpha, self.beta, self.phi, self.theta, self.alpha_sp,
            self.beta_sp,
            self.outputs_beta,  # tau_x = beta channel
            self.outputs_alpha,  # tau_y = alpha channel
        )

        def block(start: int, stop: int) -> np.ndarray:
            # Rows are tick-major; build the ticks the rows span.
            k0, k1 = start // n_agents, -(-stop // n_agents)
            cols = np.empty((k1 - k0, n_agents, len(header)))
            cols[:, :, 0] = self.t[k0:k1, None]
            cols[:, :, 1] = np.arange(n_agents)
            for j, column in enumerate(per_agent, 2):
                cols[:, :, j] = column[k0:k1]
            cols[:, :, 10:10 + n_coils] = self.currents[k0:k1, None, :]
            cols[:, :, 10 + n_coils:] = self.fields[k0:k1]
            skip = k0 * n_agents
            return cols.reshape(-1, len(header))[start - skip:stop - skip]

        write_csv(path, header, ticks * n_agents, block)


#: SimTrace's (ticks, n_agents) arrays, in the order run_scenario records them.
_PER_AGENT = ("alpha", "beta", "phi", "theta", "alpha_sp", "beta_sp",
              "outputs_alpha", "outputs_beta")


def _initial_joint_state(setup: AgentSetup) -> tuple:
    a0, b0, ph0, th0, ad0, bd0, phd0, thd0 = setup.initial
    if setup.pendulum_attached:
        return (a0, ph0, ad0, phd0, b0, th0, bd0, thd0)
    return (a0, ad0, b0, bd0)


def _joint_angles(y: tuple, attached: bool) -> tuple[float, float, float, float]:
    """(alpha, beta, phi, theta) from the packed joint state."""
    if attached:
        return y[0], y[4], y[1], y[5]
    return y[0], y[2], 0.0, 0.0


def run_scenario(scenario: Scenario) -> SimTrace:
    """Simulate a scenario tick by tick; see the module docstring.

    Returns a SimTrace.  Controller synthesis failures raise SynthesisError
    (the scenario precondition).  A numerical failure mid-run is recorded in
    `trace.failure` with its stage ("allocation" for a rank failure or a
    LinAlgError, "integration" for a diverging plant), time and tick (and
    agent, for integration), and the trace is truncated at the failing tick.
    """
    model = scenario.model
    emns = scenario.emns
    params = scenario.plant
    n_agents = len(scenario.agents)
    n_coils = model.n_coils
    h = 1.0 / emns.control_rate
    ticks = int(round(scenario.duration * emns.control_rate))
    substeps = max(1, int(round(h / PLANT_DT)))
    dt = h / substeps
    latency_ticks = int(round(emns.loop_latency * emns.control_rate))
    rng = np.random.default_rng(scenario.seed)

    # --- synthesis ---------------------------------------------------------
    # Each distinct plant (pendulum attached or not) is linearized and
    # checked once, and each distinct (plant, q_diag, r_weight) solved once.
    # An agent's two channels share its gain, each with its own controller.
    plants: dict[bool, tuple] = {}
    solutions: dict[tuple, tuple] = {}
    synthesis = []
    controllers: list[tuple[LqriController, LqriController]] = []
    for a_idx, setup in enumerate(scenario.agents):
        attached = setup.pendulum_attached
        if attached not in plants:
            sys = linearize(params, scenario.paradigm, scenario.field_magnitude,
                            h, attached)
            a_fd, b_fd = finite_difference_linearization(
                params, scenario.paradigm, b_mag=scenario.field_magnitude,
                attached=attached,
            )
            plants[attached] = (sys, float(
                max(np.max(np.abs(sys.a - a_fd)), np.max(np.abs(sys.b - b_fd)))
            ))
        sys, fd_match = plants[attached]
        cfg = setup.controller or ControllerConfig(
            q_diag=(20.0, 40.0, 1.0, 1.0) if attached else (20.0, 1.0))
        key = (attached, cfg.q_diag, cfg.r_weight)
        if key not in solutions:
            gain, p = lqr_gain(sys, cfg)
            q, r = np.diag(cfg.q_diag), np.array([[cfg.r_weight]])
            residual = dare_residual(p, sys.a_d, sys.b_d, q, r)
            rho = closed_loop_spectral_radius(sys, gain)
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

    # --- precomputation ----------------------------------------------------
    a_mats = [
        actuation_matrix(model, np.asarray(s.position, dtype=float))
        for s in scenario.agents
    ]
    a_field_rows = [m[:3] for m in a_mats]
    a_grad_rows = [m[3:] for m in a_mats]
    allocate = _allocator(scenario, a_mats)
    plant_ticks = [
        make_tick(
            params,
            s.pendulum_attached,
            params.dipole_magnitude * s.polarity,
        )
        for s in scenario.agents
    ]
    grid_times = np.arange(2 * substeps + 1) * (0.5 * dt)
    omega = 2.0 * math.pi * emns.current_bandwidth
    if emns.current_bandwidth > 0.0:
        decay_grid = np.exp(-omega * grid_times)
        decay_end = float(np.exp(-omega * h))
    else:
        decay_grid = np.zeros_like(grid_times)
        decay_end = 0.0
    limit = emns.current_limit

    # --- schedule: every scheduled time as a tick index ---------------------
    # Each event holds over ticks k0 <= k < k1; an impulse fires at k0 only.
    events = []
    for ev in scenario.disturbances:
        k0 = _first_tick(ev.time, h)
        if ev.kind == "impulse":
            k1 = k0 + 1
        elif ev.duration is None:
            k1 = ticks
        else:
            k1 = _first_tick(ev.time + ev.duration, h)
        events.append((ev, k0, k1))
    release_ticks = [_first_tick(s.release_time, h) for s in scenario.agents]
    integral_spans = [
        tuple((_first_tick(a, h), _first_tick(b, h)) for a, b in s.integral_windows)
        for s in scenario.agents
    ]

    def in_force(kind: str, agent: int, channel: str, k: int) -> float:
        # Summed magnitude, in event order, of the events of `kind` on
        # (agent, channel) whose window holds tick k.
        total = 0.0
        for ev, k0, k1 in events:
            if (ev.kind == kind and ev.agent == agent and ev.channel == channel
                    and k0 <= k < k1):
                total += ev.magnitude
        return total

    # --- state -------------------------------------------------------------
    states = [_initial_joint_state(s) for s in scenario.agents]
    i_applied = np.zeros(n_coils)
    meas_buffers = [deque() for _ in scenario.agents]
    noise_std = scenario.measurement_noise_std

    tr = {name: np.zeros((ticks, n_agents)) for name in _PER_AGENT}
    tr.update(
        t=np.zeros(ticks),
        currents=np.zeros((ticks, n_coils)),
        currents_cmd=np.zeros((ticks, n_coils)),
        fields=np.zeros((ticks, n_agents, 3)),
        residuals=np.zeros(ticks),
    )
    failure = None
    completed = ticks

    for k in range(ticks):
        t = k * h
        tr["t"][k] = t

        for ev, k0, _ in events:
            if ev.kind == "impulse" and k == k0:
                y = list(states[ev.agent])
                attached = scenario.agents[ev.agent].pendulum_attached
                if ev.channel == "alpha":
                    y[2 if attached else 1] += ev.magnitude
                else:
                    y[6 if attached else 3] += ev.magnitude
                states[ev.agent] = tuple(y)

        # Per agent: the plant state and field at the tick instant, the
        # measurement (tilt bias + optional noise, integer-tick latency) and
        # the controller outputs.
        meas_agents = []
        outputs = []
        for a_idx, setup in enumerate(scenario.agents):
            angles = _joint_angles(states[a_idx], setup.pendulum_attached)
            tilt_a = in_force("measurement_tilt", a_idx, "alpha", k)
            tilt_b = in_force("measurement_tilt", a_idx, "beta", k)
            al, be, ph, th = angles
            meas = [al + tilt_a, be + tilt_b, ph + tilt_a, th + tilt_b]
            if noise_std > 0.0:
                meas = [v + float(rng.normal(0.0, noise_std)) for v in meas]
            buf = meas_buffers[a_idx]
            buf.append(meas)
            if len(buf) > latency_ticks + 1:
                buf.popleft()
            m_al, m_be, m_ph, m_th = buf[0]
            sp_a, sp_b = setup.setpoint.value(t)
            spans = integral_spans[a_idx]
            integrate = not spans or any(k0 <= k < k1 for k0, k1 in spans)
            alpha_ctl, beta_ctl = controllers[a_idx]
            out_a = alpha_ctl.step(m_al, m_ph, sp_a, integrate)
            out_b = beta_ctl.step(m_be, m_th, sp_b, integrate)
            meas_agents.append(buf[0])
            outputs.append((out_a, out_b))
            for name, v in zip(_PER_AGENT, (*angles, sp_a, sp_b, out_a, out_b)):
                tr[name][k, a_idx] = v
            tr["fields"][k, a_idx] = a_field_rows[a_idx] @ i_applied
        tr["currents"][k] = i_applied

        # Allocation (on measured orientations).
        try:
            result = allocate(meas_agents, outputs)
        except (RankDeficiencyError, np.linalg.LinAlgError) as exc:
            failure = {"stage": "allocation", "time": float(t), "tick": k,
                       "error": str(exc)}
            completed = k + 1
            break
        tr["residuals"][k] = result.residual_norm
        i_cmd = np.clip(result.currents, -limit, limit)
        tr["currents_cmd"][k] = i_cmd

        # Current grids across the tick under the first-order driver lag.
        diff = i_applied - i_cmd
        i_grid = i_cmd[:, None] + diff[:, None] * decay_grid[None, :]
        i_applied = np.clip(i_cmd + diff * decay_end, -limit, limit)

        # Integrate each agent's plant across the tick.
        for a_idx, setup in enumerate(scenario.agents):
            if k < release_ticks[a_idx]:
                continue  # still held at its initial pose
            b_grid = (a_field_rows[a_idx] @ i_grid).T.tolist()
            g_grid = (a_grad_rows[a_idx] @ i_grid).T.tolist()
            try:
                y = plant_ticks[a_idx](
                    states[a_idx],
                    substeps,
                    dt,
                    b_grid,
                    g_grid,
                    in_force("torque_bias", a_idx, "alpha", k),
                    in_force("torque_bias", a_idx, "beta", k),
                )
            except (OverflowError, ValueError) as exc:
                error = f"plant diverged: {type(exc).__name__}: {exc}"
            else:
                if all(map(math.isfinite, y)):
                    states[a_idx] = y
                    continue
                error = "plant diverged: non-finite state"
            failure = {"stage": "integration", "time": float(t), "tick": k,
                       "agent": a_idx, "error": error}
            completed = k + 1
            break
        if failure is not None:
            break

    trace = SimTrace(
        **{name: a[:completed] for name, a in tr.items()},
        synthesis=synthesis, summary={}, failure=failure,
    )
    trace.summary = _summarize(scenario, trace)
    return trace


def _allocator(scenario: Scenario, a_mats: list):
    """The per-tick allocation of one run, built once.

    Returns ``allocate(meas_agents, outputs)``: the AllocationResult of one
    tick's task, from the measured angles and the controller outputs.
    ``a_mats`` holds each agent's actuation matrix A(p), computed once per
    run because the agents do not move.  The field strategies' task map is
    then constant too, so its pseudoinverse is taken here, once.  Each
    tick, the torque strategies fill the agents' body-plane rows
    (``torque_rows``) from the measured angles; the target is the controller
    outputs as they are, (tau_x, tau_y) = (beta out, alpha out) per agent.
    The one-step and multi-agent solves stack the A(p) here and take one
    batched product with the stack.  The two-step solve uses the lever-0
    rows and takes the field rows' pseudoinverse and rank here; a rank
    below 3 fails every tick, so the run records the failure at its first.
    """
    params = scenario.plant
    agents = scenario.agents
    if scenario.paradigm == "field":
        if scenario.strategy == "field_alignment":
            task_mat = alloc.field_alignment_map(a_mats[0])
        else:
            task_mat = alloc.multi_field_map(a_mats)
        pinv = pinv_rank(task_mat)[0]
        magnitude = scenario.field_magnitude

        def allocate_field(meas_agents: list, outputs: list):
            # A polarity -1 magnet aligns antiparallel to the field, so its
            # commanded field direction is inverted: -b(u, v) = b(pi + u, -v).
            commands = [
                FieldCommand(
                    u_alpha=out_a if setup.polarity == 1 else math.pi + out_a,
                    u_beta=out_b if setup.polarity == 1 else -out_b,
                    magnitude=magnitude,
                )
                for setup, (out_a, out_b) in zip(agents, outputs)
            ]
            return alloc.solve_field(task_mat, pinv, commands)

        return allocate_field

    mag_pols = [params.dipole_magnitude * setup.polarity for setup in agents]
    lever = params.magnet_offset if scenario.include_force else 0.0
    a_stack = np.stack(a_mats)  # (agents, 8, n_coils)
    rows = np.empty((len(agents), 2, 8))
    n_rows = 2 * len(agents)
    two_step = scenario.strategy == "torque_two_step"
    if two_step:  # pure field torque, through A_b^+ (one agent)
        lever = 0.0
        a_b = a_mats[0][:3]
        pinv_b, rank_b = pinv_rank(a_b)
        rank_failure = alloc.FIELD_RANK_FAILURE.format(
            tuple(float(c) for c in agents[0].position)
        )

    def allocate_plane(meas_agents: list, outputs: list):
        for idx, (meas, mag_pol) in enumerate(zip(meas_agents, mag_pols)):
            rows[idx] = torque_rows(meas[0], meas[1], mag_pol, lever)
        target = np.array([t for out_a, out_b in outputs for t in (out_b, out_a)])
        if not two_step:
            return alloc.solve_torque((rows @ a_stack).reshape(n_rows, -1), target)
        if rank_b < 3:
            raise RankDeficiencyError(rank_failure)
        return alloc.solve_two_step(rows[0, :, :3], a_b, pinv_b, target, mag_pols[0])

    return allocate_plane


def _settling_tick(within: np.ndarray) -> int | None:
    """The first tick from which ``within`` holds to the end: the tick after
    its last False, or None when that is the last tick (or there is none)."""
    outside = np.flatnonzero(~within)
    k = int(outside[-1]) + 1 if outside.size else 0
    return k if k < within.shape[0] else None


def _summarize(scenario: Scenario, trace: SimTrace) -> dict:
    """Settling, tracking, and current metrics plus synthesis diagnostics."""
    ticks = trace.t.shape[0]
    n_agents = trace.n_agents
    steady_from = int(0.75 * ticks)

    err_a = trace.alpha - trace.alpha_sp
    err_b = trace.beta - trace.beta_sp
    err_mag = np.hypot(err_a, err_b)

    settle_threshold = math.radians(0.5)
    settling = []
    for a_idx in range(n_agents):
        angles = np.stack(
            [
                np.abs(trace.alpha[:, a_idx]),
                np.abs(trace.phi[:, a_idx]),
            ]
        )
        k = _settling_tick(np.all(angles < settle_threshold, axis=0))
        settling.append(None if k is None else float(trace.t[k]))

    rms_tracking = [
        float(np.sqrt(np.mean(err_mag[steady_from:, a_idx] ** 2)))
        for a_idx in range(n_agents)
    ]

    summary = {
        "scenario": scenario.name,
        "paradigm": scenario.paradigm,
        "strategy": scenario.strategy,
        "duration": float(scenario.duration),
        "ticks": int(ticks),
        "n_agents": n_agents,
        "seed": int(scenario.seed),
        "metrics": {
            "settling_time": settling,
            "rms_tracking_last_quarter": rms_tracking,
            "max_current": float(np.max(np.abs(trace.currents))),
            "steady_max_current": float(
                np.max(np.abs(trace.currents[steady_from:]))
            ),
            "max_allocation_residual": float(np.max(trace.residuals)),
            "max_abs_alpha": float(np.max(np.abs(trace.alpha))),
        },
        "synthesis": trace.synthesis,
        "failure": trace.failure,
    }
    return summary


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario from a plain (JSON-loaded) dict.

    Raises:
        ConfigError: A ValueError whose message names the JSON path of the
            first problem (see ``emnav.config.SCENARIO``).
    """
    from .config import SCENARIO  # config builds its tables from this module

    return SCENARIO.read(data)
