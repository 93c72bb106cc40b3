"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch every failure raised by this package with a single ``except`` clause
while still being able to distinguish configuration problems from protocol
violations or simulation misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class InvalidParameterError(ReproError, ValueError):
    """A protocol or simulation parameter is outside its legal range.

    Examples: a ring of fewer than two agents, ``psi`` smaller than the
    paper's minimum of two, a negative step budget.
    """


class InvalidStateError(ReproError, ValueError):
    """An agent state violates the declared state space of its protocol.

    Protocols validate states when asked (e.g. in :meth:`Protocol.validate`),
    and adversarial-configuration builders use this error to reject states
    that could never occur even in an arbitrary initial configuration.
    """


class InvalidConfigurationError(ReproError, ValueError):
    """A configuration is malformed (wrong size, wrong state types)."""


class ScheduleExhaustedError(ReproError, RuntimeError):
    """A deterministic scheduler ran out of scheduled interactions.

    Raised by :class:`repro.core.scheduler.SequenceScheduler` when the
    simulation requests more steps than the sequence contains.
    """


class ConvergenceError(ReproError, RuntimeError):
    """A run did not reach the requested predicate within its step budget.

    Carries the number of steps executed so callers can report partial
    progress.
    """

    def __init__(self, message: str, steps: int) -> None:
        super().__init__(message)
        self.steps = steps


class StateSpaceError(ReproError, RuntimeError):
    """A protocol's states cannot be coded into a transition table.

    Raised by :class:`repro.core.encoding.StateEncoder` when the reachable
    state space exceeds the enumeration cap (or the protocol's declared
    ``state_space_size`` bound already does) — the model checker reports
    such points as skipped — and by both the encoder and the batched
    engine's lazy table when a state is neither hashable nor a dataclass.
    """


class TopologyError(ReproError, ValueError):
    """A population graph does not satisfy the requirements of a protocol.

    For instance, running the directed-ring protocol ``P_PL`` on an
    undirected ring or on a complete graph.
    """
