"""Core population-protocol machinery: protocols, configurations, schedulers, simulator."""

from repro.core.configuration import (
    Configuration,
    configuration_from_factory,
    random_configuration,
    uniform_configuration,
)
from repro.core.encoding import DEFAULT_MAX_STATES, StateEncoder
from repro.core.errors import (
    ConvergenceError,
    InvalidConfigurationError,
    InvalidParameterError,
    InvalidStateError,
    ReproError,
    ScheduleExhaustedError,
    StateSpaceError,
    TopologyError,
)
from repro.core.fast_simulator import ENGINES, BatchedSimulation
from repro.core.metrics import LeaderTrajectory, StepMetrics
from repro.core.protocol import (
    FOLLOWER_OUTPUT,
    LEADER_OUTPUT,
    LeaderElectionProtocol,
    Protocol,
)
from repro.core.recorder import ExecutionTrace, FieldWatcher, InteractionRecord, TraceRecorder
from repro.core.rng import RandomSource, ensure_source
from repro.core.scheduler import (
    InterleavedScheduler,
    Scheduler,
    SequenceScheduler,
    UniformRandomScheduler,
    concat,
    full_clockwise_sweep,
    full_counterclockwise_sweep,
    repeat,
    seq_l,
    seq_r,
    token_round_trip,
)
from repro.core.simulator import Oracle, RunResult, Simulation

__all__ = [
    "BatchedSimulation",
    "Configuration",
    "ConvergenceError",
    "DEFAULT_MAX_STATES",
    "ENGINES",
    "ExecutionTrace",
    "FieldWatcher",
    "FOLLOWER_OUTPUT",
    "InteractionRecord",
    "InterleavedScheduler",
    "InvalidConfigurationError",
    "InvalidParameterError",
    "InvalidStateError",
    "LEADER_OUTPUT",
    "LeaderElectionProtocol",
    "LeaderTrajectory",
    "Oracle",
    "Protocol",
    "RandomSource",
    "ReproError",
    "RunResult",
    "ScheduleExhaustedError",
    "Scheduler",
    "SequenceScheduler",
    "Simulation",
    "StateEncoder",
    "StateSpaceError",
    "StepMetrics",
    "TopologyError",
    "TraceRecorder",
    "UniformRandomScheduler",
    "concat",
    "configuration_from_factory",
    "ensure_source",
    "full_clockwise_sweep",
    "full_counterclockwise_sweep",
    "random_configuration",
    "repeat",
    "seq_l",
    "seq_r",
    "token_round_trip",
    "uniform_configuration",
]
