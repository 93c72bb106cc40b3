"""State-space encoding: compile a protocol into an integer transition table.

For protocols with a small state space there are only ``|Q|^2`` distinct
interactions.  A :class:`StateEncoder` enumerates the reachable state space
once (closure of the seed states under the transition function), assigns
each state an integer code, and compiles the transition function into dense
flat tables indexed by ``initiator_code * |Q| + responder_code``.  The model
checker (:mod:`repro.check`) builds its configuration graphs from those
tables.  (The batched engine, :mod:`repro.core.fast_simulator`, fills its
own table lazily and needs no enumeration; it codes states with the same
:func:`state_key`.)

The enumerate-or-raise contract
-------------------------------
``StateEncoder.build`` either returns a *complete* table — every state
reachable from the seeds is encoded, so a run driven by the table can never
step outside it — or raises :class:`StateSpaceError` when the closure grows
past ``max_states``.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import (
    Callable, Dict, Generic, Hashable, Iterable, List, Sequence, Tuple, TypeVar,
)

from repro.core.errors import InvalidParameterError, InvalidStateError, StateSpaceError
from repro.core.protocol import Protocol
from repro.core.rng import RandomSource

StateT = TypeVar("StateT")

#: Enumeration cap: |Q| states means |Q|^2 compiled transitions, so the cap
#: bounds table build time (~|Q|^2 protocol calls) and memory (3 flat lists of
#: |Q|^2 entries).  512 states -> at most ~262k transition calls, well under a
#: second.
DEFAULT_MAX_STATES = 512


#: One key function per state class, built on first sight of the class.
_KEY_FUNCTIONS: Dict[type, Callable[[object], Hashable]] = {}


def _itself(state: Hashable) -> Hashable:
    return state


def state_key(state: object) -> Hashable:
    """A hashable identity for ``state`` consistent with its ``__eq__``.

    Hashable states are their own key.  The mutable dataclass states of this
    package (``__slots__``, ``eq=True``) are unhashable, so they are keyed by
    ``(class, *compare-fields)``, read by one ``operator.attrgetter`` —
    equal exactly when dataclass equality, which the step engine's
    ``changed`` comparison uses, says so.
    """
    cls = state.__class__
    key = _KEY_FUNCTIONS.get(cls)
    if key is None:
        if cls.__hash__ is not None:
            key = _itself
        elif dataclasses.is_dataclass(cls):
            names = [field.name for field in dataclasses.fields(cls) if field.compare]
            key = operator.attrgetter("__class__", *names)
        else:
            raise StateSpaceError(
                f"states of type {cls.__name__} are neither hashable nor "
                "dataclasses; they cannot be given integer codes"
            )
        _KEY_FUNCTIONS[cls] = key
    return key(state)


def fresh_copy(state: StateT) -> StateT:
    """``state``'s own ``copy()`` when it has one (mutable states), else itself."""
    copy = getattr(state, "copy", None)
    return copy() if copy is not None else state


class StateEncoder(Generic[StateT]):
    """Integer codes plus a compiled transition table for one protocol.

    Instances are immutable after :meth:`build`.
    """

    def __init__(
        self,
        protocol: Protocol[StateT],
        states: List[StateT],
        index: Dict[Hashable, int],
        initiator_out: List[int],
        responder_out: List[int],
    ) -> None:
        self._protocol = protocol
        self._states = states
        self._index = index
        self._initiator_out = initiator_out
        self._responder_out = responder_out
        width = len(states)
        self._changed = [
            initiator_out[qq] != qq // width or responder_out[qq] != qq % width
            for qq in range(width * width)
        ]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        protocol: Protocol[StateT],
        seeds: Sequence[StateT] = (),
        max_states: int = DEFAULT_MAX_STATES,
    ) -> "StateEncoder[StateT]":
        """Enumerate the closure of ``seeds`` under ``protocol.transition``.

        ``seeds`` defaults to ``protocol.canonical_states()`` when empty.
        Raises :class:`StateSpaceError` when the state space cannot be
        enumerated within ``max_states`` (see the module docstring for the
        contract).
        """
        if max_states < 1:
            raise InvalidParameterError(f"max_states must be >= 1, got {max_states}")
        try:
            bound = protocol.state_space_size()
        except NotImplementedError:
            bound = None
        seed_states = list(seeds) if seeds else list(protocol.canonical_states())
        if not seed_states:
            raise InvalidParameterError(
                f"{protocol.name}: no seed states to enumerate from "
                "(pass the initial configuration's states)"
            )

        states: List[StateT] = []
        index: Dict[Hashable, int] = {}

        def intern(state: StateT) -> int:
            key = state_key(state)
            code = index.get(key)
            if code is not None:
                return code
            if len(states) >= max_states:
                # Name the state that overflowed and the declared bound:
                # when a spec mis-declares state_space_size() this is the
                # first (and only) place the mismatch surfaces.
                declared = (f"declares {bound} states per agent"
                            if bound is not None
                            else "declares no finite state bound")
                raise StateSpaceError(
                    f"{protocol.name}: reachable state space exceeds the "
                    f"enumeration cap of {max_states}: state {state!r} "
                    f"would be state #{max_states + 1} "
                    f"(the protocol {declared})"
                )
            code = len(states)
            index[key] = code
            states.append(state)
            return code

        for state in seed_states:
            intern(state)

        # Closure: compile every (initiator, responder) code pair, interning
        # newly discovered successor states; repeat until a full pass adds
        # nothing.  ``pairs`` keeps already-compiled entries across passes so
        # each pair's transition runs exactly once.
        pairs: Dict[Tuple[int, int], Tuple[int, int]] = {}
        while True:
            size = len(states)
            for ci in range(size):
                for cr in range(size):
                    if (ci, cr) in pairs:
                        continue
                    after_i, after_r = protocol.transition(states[ci], states[cr])
                    pairs[(ci, cr)] = (intern(after_i), intern(after_r))
            if len(states) == size:
                break

        width = len(states)
        initiator_out = [0] * (width * width)
        responder_out = [0] * (width * width)
        for (ci, cr), (ni, nr) in pairs.items():
            qq = ci * width + cr
            initiator_out[qq] = ni
            responder_out[qq] = nr
        return cls(protocol, states, index, initiator_out, responder_out)

    # ------------------------------------------------------------------ #
    # Codes
    # ------------------------------------------------------------------ #
    @property
    def num_states(self) -> int:
        """``|Q|``: number of enumerated (reachable) states."""
        return len(self._states)

    def encode(self, state: StateT) -> int:
        """Integer code of ``state``; unknown states raise :class:`InvalidStateError`."""
        code = self._index.get(state_key(state))
        if code is None:
            raise InvalidStateError(
                f"state {state!r} is outside the enumerated state space of "
                f"{self._protocol.name} ({self.num_states} states)"
            )
        return code

    def encode_all(self, states: Iterable[StateT]) -> List[int]:
        """Codes for a whole configuration, in agent order."""
        return [self.encode(state) for state in states]

    def covers(self, states: Iterable[StateT]) -> bool:
        """True when every state of ``states`` is inside the enumerated space
        (the table is a closure, so covered seeds can never step outside it)."""
        index = self._index
        return all(state_key(state) in index for state in states)

    def decode_view(self, codes: Iterable[int]) -> List[StateT]:
        """Zero-copy decoding: representative objects, possibly aliased.

        Agents in equal states share one object, so callers must treat the
        result as read-only.  Used for predicate evaluation on the hot path.
        """
        states = self._states
        return [states[code] for code in codes]

    # ------------------------------------------------------------------ #
    # Compiled tables (consumed by the model checker)
    # ------------------------------------------------------------------ #
    def tables(self) -> Tuple[List[int], List[int], List[bool]]:
        """``(initiator_out, responder_out, changed)``, each a flat list
        indexed by ``initiator_code * num_states + responder_code``.

        ``changed[qq]`` is exactly the step engine's "did some state change"
        comparison.
        """
        return self._initiator_out, self._responder_out, self._changed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<StateEncoder protocol={self._protocol.name!r} "
                f"states={self.num_states}>")


#: Probe draws for :func:`coverage_seeds`, relative to the declared state
#: bound: with ``32 * bound`` uniform samples the chance of any reachable
#: state being missed is below ``bound * e^-32`` — negligible, and a start
#: the seeds miss is added to the checker's seeds, never lost.
_PROBE_FACTOR = 32
_MAX_PROBES = 4096


def coverage_seeds(protocol: Protocol[StateT],
                   max_states: int = DEFAULT_MAX_STATES) -> List[StateT]:
    """Seed states for an encoder that must cover adversarial starts.

    The model checker compiles one table per population size before any
    trial's configuration exists, so its seeds must span the states an
    adversarial family may draw: the canonical states plus a deterministic
    sweep of ``protocol.random_state`` samples (an independent fixed-label
    stream, so no trial stream is perturbed).  Protocols without a declared
    finite bound get the canonical states only.
    """
    seeds = list(protocol.canonical_states())
    try:
        bound = protocol.state_space_size()
    except NotImplementedError:
        bound = None
    if bound is not None and bound <= max_states:
        probe_rng = RandomSource(0).spawn(f"encoder-probe-{protocol.name}")
        probes = min(_PROBE_FACTOR * bound, _MAX_PROBES)
        seeds.extend(protocol.random_state(probe_rng) for _ in range(probes))
    return seeds
