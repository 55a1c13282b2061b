"""Electromagnetic navigation control stack.

Library for magnetically actuated pendulum experiments: synthetic coil-array
models, torque/field current allocation, LQRI stabilization, closed-loop
simulation, and feasibility-margin workspace analysis.
"""

__version__ = "0.1.0"

from .magmodel import (
    ActuationModel,
    CoilSpec,
    DipoleAgent,
    WrenchMaps,
    actuation_matrix,
    get_model,
    wrench_maps,
)
from .dynamics import PendulumParams, LinearSystem
from .alloc import (
    AllocationResult,
    FieldCommand,
    RankDeficiencyError,
    WrenchTask,
    allocate_field_alignment,
    allocate_multi_field,
    allocate_multi_torque,
    allocate_torque_one_step,
    allocate_torque_two_step,
    zeta_star,
)
from .control import (
    ControllerConfig,
    IntegralSchedule,
    LqriController,
    SynthesisError,
    VelocityEstimator,
    lqr_gain,
)
from .sim import (
    AgentSetup,
    DisturbanceEvent,
    EmnsConfig,
    Scenario,
    SetpointSpec,
    SimTrace,
    run_scenario,
    scenario_from_dict,
)
from .workspace import (
    FeasibilityMap,
    GridSpec,
    TaskSet,
    feasibility_margin_field,
    feasibility_margin_torque,
    max_feasible_standoff,
    workspace_map,
)

__all__ = [
    "AgentSetup",
    "DisturbanceEvent",
    "EmnsConfig",
    "Scenario",
    "SetpointSpec",
    "SimTrace",
    "run_scenario",
    "scenario_from_dict",
    "FeasibilityMap",
    "GridSpec",
    "TaskSet",
    "feasibility_margin_field",
    "feasibility_margin_torque",
    "max_feasible_standoff",
    "workspace_map",
    "AllocationResult",
    "FieldCommand",
    "RankDeficiencyError",
    "WrenchTask",
    "allocate_field_alignment",
    "allocate_multi_field",
    "allocate_multi_torque",
    "allocate_torque_one_step",
    "allocate_torque_two_step",
    "zeta_star",
    "ControllerConfig",
    "IntegralSchedule",
    "LqriController",
    "SynthesisError",
    "VelocityEstimator",
    "lqr_gain",
    "ActuationModel",
    "CoilSpec",
    "DipoleAgent",
    "WrenchMaps",
    "actuation_matrix",
    "get_model",
    "wrench_maps",
    "PendulumParams",
    "LinearSystem",
    "__version__",
]
