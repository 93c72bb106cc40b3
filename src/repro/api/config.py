"""Shared run configuration for the experiment API.

:class:`ExperimentConfig` is the single bag of sweep parameters understood by
every layer of the stack — the :mod:`repro.api.registry` specs, the trial
executor, the fluent builder, and the experiment modules.  It is a frozen,
picklable dataclass so trial tasks can ship it to worker processes verbatim.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.rng import RandomSource
from repro.scenario.spec import normalize_scenario
from repro.topology.registry import DEFAULT_TOPOLOGY


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters shared by the timing experiments.

    ``kappa_factor`` applies to ``P_PL`` only; the paper's constant is 32 but
    the default here is 4 so that the full sweep finishes in benchmark time —
    every report states the value used.  The constant is more than a w.h.p.
    margin: from the leaderless trap, mean convergence times are 8.3-8.4x
    larger at 32 than at 4 (n = 32 and 64), while from uniform adversarial
    starts the two are nearly equal (DESIGN.md §1.6).

    ``engine`` selects the simulation engine for every trial: ``"auto"``
    (default) and ``"batched"`` run the batched engine's lazily filled
    table, ``"step"`` the step loop, for every simulated spec.  Both engines
    produce bit-identical trial results for the same seed.

    ``topology`` names the population graph every trial runs on (a
    :mod:`repro.topology.registry` name; default: the paper's directed
    ring), and ``topology_params`` carries its constructor parameters as a
    sorted tuple of ``(name, value)`` pairs — a tuple, not a dict, so the
    config stays frozen, hashable, and picklable for the worker processes,
    which rebuild the population from these fields deterministically.

    ``scenario`` carries the canonical phased scenario (see
    :mod:`repro.scenario.spec`): a tuple of
    ``(perturbation, params, stop, budget)`` phase tuples.  It is
    normalized on construction, so the degenerate single-convergence
    scenario — however it was spelled — always canonicalizes to the empty
    tuple and keeps legacy configs' store digests byte-identical.
    """

    sizes: Sequence[int] = (8, 16, 32)
    trials: int = 3
    max_steps: int = 2_000_000
    check_interval: int = 128
    kappa_factor: int = 4
    seed: int = 2023
    engine: str = "auto"
    topology: str = DEFAULT_TOPOLOGY
    topology_params: Tuple[Tuple[str, int], ...] = ()
    scenario: Tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario", normalize_scenario(self.scenario))

    def rng(self, label: str) -> RandomSource:
        """A reproducible random stream for one experiment component."""
        return RandomSource(self.seed).spawn(label)

    def topology_kwargs(self) -> Dict[str, int]:
        """The topology parameters as keyword arguments for the factory."""
        return dict(self.topology_params)

    def cache_key(self) -> Tuple:
        """A hashable identity for batch-level caches (``sizes`` tuple-ized).

        Two configs with equal keys produce identical trials, so batch
        resources built for one — worker-side config records — can serve
        the other.  Derived from the dataclass fields so
        a future field can never be silently left out of the identity.
        """
        return tuple(
            tuple(value) if isinstance(value, (list, range)) else value
            for value in (getattr(self, field.name)
                          for field in dataclasses.fields(self))
        )


def freeze_topology_params(params: "Dict[str, int] | None",
                           ) -> Tuple[Tuple[str, int], ...]:
    """Canonicalize a params dict into the frozen tuple-of-pairs form."""
    return tuple(sorted((params or {}).items()))
