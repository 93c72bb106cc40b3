"""Protocol abstraction of the population-protocol model (Section 2 of the paper).

A protocol ``P = (Q, Y, T, pi_out)`` consists of a state set ``Q``, an output
alphabet ``Y``, a transition function ``T : Q x Q -> Q x Q`` applied to the
(initiator, responder) pair of an interaction, and an output function
``pi_out : Q -> Y``.

This module defines the abstract :class:`Protocol` interface every protocol in
this package implements, plus the standard leader-election output alphabet.

Design notes
------------
* Population protocols are deterministic: all randomness comes from the
  uniformly random scheduler.  Some substitute protocols in this repository
  (the two-hop coloring substrate of Section 5) extract randomness from the
  scheduler by using the initiator/responder role as a fair coin, exactly as
  the paper's ``EliminateLeaders()`` does, so the :meth:`Protocol.transition`
  signature stays purely deterministic.
* Self-stabilizing protocols have no distinguished initial state: any mapping
  of agents to states is a legal starting configuration.  Protocols therefore
  expose :meth:`Protocol.random_state` so adversarial-configuration generators
  can draw arbitrary states uniformly from (a superset of) the reachable state
  space.
"""

from __future__ import annotations

import abc
from typing import Generic, Hashable, Iterable, Tuple, TypeVar

from repro.core.errors import InvalidStateError
from repro.core.rng import RandomSource

#: Output symbol of a leader agent.
LEADER_OUTPUT = "L"
#: Output symbol of a follower (non-leader) agent.
FOLLOWER_OUTPUT = "F"

StateT = TypeVar("StateT", bound=Hashable)


class Protocol(abc.ABC, Generic[StateT]):
    """Abstract population protocol ``P = (Q, Y, T, pi_out)``.

    Subclasses implement the transition function, the output function, state
    validation and (optionally) an estimate of the size of the state space
    ``|Q|`` used by the state-complexity experiments.
    """

    #: Human readable protocol name used in experiment reports.
    name: str = "protocol"

    # ------------------------------------------------------------------ #
    # Core interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def transition(self, initiator: StateT, responder: StateT) -> Tuple[StateT, StateT]:
        """Apply the transition function ``T`` to one interaction.

        Parameters
        ----------
        initiator:
            State of the initiator (the paper's ``l``, the left agent on a
            directed ring).
        responder:
            State of the responder (the paper's ``r``, the right agent).

        Returns
        -------
        tuple
            The pair of successor states ``(initiator', responder')``.  The
            returned objects must not alias the inputs if the state type is
            mutable; protocols in this package return fresh objects.
        """

    @abc.abstractmethod
    def output(self, state: StateT) -> str:
        """Return ``pi_out(state)``, e.g. ``"L"`` or ``"F"`` for SS-LE."""

    @abc.abstractmethod
    def random_state(self, rng: RandomSource) -> StateT:
        """Draw an arbitrary legal state, used to build adversarial starts."""

    # ------------------------------------------------------------------ #
    # Optional interface with sensible defaults
    # ------------------------------------------------------------------ #
    def validate(self, state: StateT) -> None:
        """Raise :class:`InvalidStateError` if ``state`` is not in ``Q``.

        The default implementation accepts everything; protocols with a
        structured state space override it.
        """

    def state_space_size(self) -> int:
        """Upper bound on ``|Q|`` (number of per-agent states).

        Used by the Table-1 state-complexity experiment.  Protocols that do
        not implement a bound raise :class:`NotImplementedError`.
        """
        raise NotImplementedError(f"{self.name} does not report a state-space bound")

    def canonical_states(self) -> Iterable[StateT]:
        """Yield a small set of representative states (used by tests).

        The default yields nothing; protocols may override for convenience.
        """
        return ()

    # ------------------------------------------------------------------ #
    # Convenience helpers
    # ------------------------------------------------------------------ #
    def is_leader(self, state: StateT) -> bool:
        """True when ``pi_out(state)`` is the leader symbol."""
        return self.output(state) == LEADER_OUTPUT

    def require_valid(self, state: StateT) -> StateT:
        """Validate ``state`` and return it (fluent helper for builders)."""
        self.validate(state)
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class LeaderElectionProtocol(Protocol[StateT]):
    """Base class for protocols whose output alphabet is ``{L, F}``.

    Adds helpers shared by every leader-election protocol in the package:
    counting leaders in a configuration and the default leader output
    implementation driven by :meth:`leader_flag`.
    """

    @abc.abstractmethod
    def leader_flag(self, state: StateT) -> bool:
        """Return True when the agent with this state is a leader."""

    def output(self, state: StateT) -> str:
        return LEADER_OUTPUT if self.leader_flag(state) else FOLLOWER_OUTPUT

    def is_leader(self, state: StateT) -> bool:
        """The leader flag itself, without building the output symbol."""
        return bool(self.leader_flag(state))

    def count_leaders(self, states: Iterable[StateT]) -> int:
        """Number of leader agents among ``states``."""
        return sum(1 for state in states if self.leader_flag(state))


def require_in_range(name: str, value: int, low: int, high: int) -> None:
    """Validate that ``low <= value <= high`` else raise :class:`InvalidStateError`.

    Shared by the structured state validators of the concrete protocols.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidStateError(f"{name} must be an int, got {value!r}")
    if not low <= value <= high:
        raise InvalidStateError(f"{name}={value} outside [{low}, {high}]")
