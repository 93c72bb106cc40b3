"""repro: reproduction of the PODC 2023 near time-optimal SS-LE ring protocol.

The package implements, from scratch, the population-protocol simulation
substrate, the paper's protocol ``P_PL`` (self-stabilizing leader election on
directed rings with ``polylog(n)`` states), the ring-orientation protocol
``P_OR``, the Table-1 baseline protocols, and the experiment harnesses that
regenerate every table and figure of the paper.

Quickstart
----------
>>> from repro import DirectedRing, PPLProtocol, Simulation
>>> from repro.protocols.ppl import adversarial_configuration, is_safe
>>> protocol = PPLProtocol.for_population(16, kappa_factor=4)
>>> ring = DirectedRing(16)
>>> start = adversarial_configuration(16, protocol.params, rng=1)
>>> sim = Simulation(protocol, ring, start, rng=2)
>>> result = sim.run_until(lambda s: is_safe(s, protocol.params),
...                        max_steps=400_000, check_interval=64)
>>> result.satisfied
True
"""

from repro.api import (
    ExperimentBuilder,
    ExperimentConfig,
    ExperimentResult,
    ProtocolSpec,
    experiment,
    run_spec,
)
from repro.core import (
    BatchedSimulation,
    Configuration,
    ConvergenceError,
    RandomSource,
    ReproError,
    RunResult,
    SequenceScheduler,
    Simulation,
    StateEncoder,
    StateSpaceError,
    UniformRandomScheduler,
)
from repro.protocols.ppl import PPLParams, PPLProtocol, PPLState
from repro.topology import (
    CompleteGraph,
    DirectedRing,
    Population,
    RandomRegularGraph,
    Torus2D,
    UndirectedRing,
    build_topology,
    topology_names,
)

__version__ = "1.1.0"

__all__ = [
    "BatchedSimulation",
    "CompleteGraph",
    "Configuration",
    "ConvergenceError",
    "DirectedRing",
    "ExperimentBuilder",
    "ExperimentConfig",
    "ExperimentResult",
    "PPLParams",
    "PPLProtocol",
    "PPLState",
    "Population",
    "ProtocolSpec",
    "RandomRegularGraph",
    "RandomSource",
    "ReproError",
    "RunResult",
    "SequenceScheduler",
    "Simulation",
    "StateEncoder",
    "StateSpaceError",
    "Torus2D",
    "UndirectedRing",
    "UniformRandomScheduler",
    "__version__",
    "build_topology",
    "experiment",
    "run_spec",
    "topology_names",
]
