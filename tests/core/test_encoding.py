"""Tests for the state-space encoder (the model checker's compiler) and the
per-class state key the batched engine codes states with."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.api import ExperimentConfig, get_spec, list_specs
from repro.core.configuration import random_configuration
from repro.core.encoding import DEFAULT_MAX_STATES, StateEncoder, fresh_copy, state_key
from repro.core.errors import InvalidParameterError, InvalidStateError, StateSpaceError
from repro.core.protocol import Protocol
from repro.core.rng import RandomSource
from repro.protocols.baselines.angluin_modk import AngluinModKProtocol
from repro.protocols.baselines.fischer_jiang import FischerJiangProtocol, FischerJiangState


def _fischer_jiang_encoder():
    protocol = FischerJiangProtocol()
    initial = random_configuration(protocol, 16, RandomSource(3))
    return protocol, StateEncoder.build(protocol, initial.states())


def test_encoder_enumerates_small_state_space_completely():
    protocol, encoder = _fischer_jiang_encoder()
    assert 1 <= encoder.num_states <= protocol.state_space_size()


def test_compiled_table_matches_the_transition_function_on_every_pair():
    protocol, encoder = _fischer_jiang_encoder()
    initiator_out, responder_out, changed = encoder.tables()
    width = encoder.num_states
    states = encoder.decode_view(range(width))
    for ci in range(width):
        for cr in range(width):
            before_i, before_r = states[ci].copy(), states[cr].copy()
            after_i, after_r = protocol.transition(before_i, before_r)
            qq = ci * width + cr
            assert states[initiator_out[qq]] == after_i
            assert states[responder_out[qq]] == after_r
            assert changed[qq] == ((after_i != before_i) or (after_r != before_r))


def test_encode_and_decode_view_round_trip():
    _, encoder = _fischer_jiang_encoder()
    state = FischerJiangState.fresh_leader()
    code = encoder.encode(state)
    assert encoder.decode_view([code]) == [state]
    assert encoder.encode_all([state, state]) == [code, code]


def test_encode_rejects_states_outside_the_enumerated_space():
    _, encoder = _fischer_jiang_encoder()
    # The oracle's absence flag is only ever raised from outside the pairwise
    # transition function, so absence=1 states are unreachable here.
    foreign = FischerJiangState(leader=0, bullet=0, shield=0, absence=1)
    with pytest.raises(InvalidStateError):
        encoder.encode(foreign)


def test_enumeration_cap_stops_the_closure():
    protocol = FischerJiangProtocol()
    with pytest.raises(StateSpaceError):
        StateEncoder.build(protocol, list(protocol.canonical_states()),
                           max_states=2)


def test_enumeration_cap_error_names_the_state_and_the_declared_bound():
    class Growing(Protocol):
        name = "growing"

        def transition(self, initiator, responder):
            return initiator, responder + 1

        def output(self, state):  # pragma: no cover
            return "F"

        def random_state(self, rng):  # pragma: no cover
            return 0

        def state_space_size(self):
            return 1000

        def canonical_states(self):
            return (0,)

    with pytest.raises(StateSpaceError) as excinfo:
        StateEncoder.build(Growing(), max_states=3)
    message = str(excinfo.value)
    # The diagnostic names the state that overflowed the cap and the
    # protocol's declared bound, so a mis-declared state_space_size() is
    # visible at the point where the mismatch first surfaces.
    assert "growing" in message
    assert "enumeration cap of 3" in message
    assert "state 3" in message  # 0, 1, 2 fit; interning 3 overflows
    assert "state #4" in message
    assert "declares 1000 states per agent" in message


def test_enumeration_cap_error_without_a_declared_bound():
    class Unbounded(Protocol):
        name = "unbounded"

        def transition(self, initiator, responder):
            return initiator, responder + 1

        def output(self, state):  # pragma: no cover
            return "F"

        def random_state(self, rng):  # pragma: no cover
            return 0

    with pytest.raises(StateSpaceError, match="declares no finite state bound"):
        StateEncoder.build(Unbounded(), seeds=(0,), max_states=2)


def test_canonical_states_are_the_default_seeds():
    protocol = AngluinModKProtocol(2)
    encoder = StateEncoder.build(protocol)
    assert encoder.num_states <= protocol.state_space_size() <= DEFAULT_MAX_STATES


def test_encoder_requires_some_seed_states():
    class Opaque(Protocol):
        name = "opaque"

        def transition(self, initiator, responder):  # pragma: no cover
            return initiator, responder

        def output(self, state):  # pragma: no cover
            return "F"

        def random_state(self, rng):  # pragma: no cover
            return 0

    with pytest.raises(InvalidParameterError):
        StateEncoder.build(Opaque())


# ---------------------------------------------------------------------- #
# The per-class state key
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", [spec.name for spec in list_specs() if spec.is_simulated])
def test_state_key_agrees_with_equality_on_every_registered_spec(name):
    spec = get_spec(name)
    n = next(k for k in range(4, 20) if spec.supports(k))
    protocol = spec.build_protocol(n, ExperimentConfig())
    rng = RandomSource(8)
    states = [protocol.random_state(rng) for _ in range(80)]
    # Successors reach values random_state never draws; copies make equal,
    # distinct objects.
    states += [after for initiator, responder in zip(states, states[1:])
               for after in protocol.transition(initiator, responder)]
    states += [fresh_copy(state) for state in states[::2]]
    keys = [state_key(state) for state in states]
    equal_pairs = 0
    for i, state in enumerate(states):
        for j, other in enumerate(states):
            assert (keys[i] == keys[j]) == (state == other), (state, other)
            equal_pairs += i != j and state == other
    assert equal_pairs


def test_state_key_separates_classes_and_refuses_unkeyable_states():
    @dataclass(eq=True)
    class Left:
        __slots__ = ("value",)
        value: int

    @dataclass(eq=True)
    class Right:
        __slots__ = ("value",)
        value: int

    assert Left(1) != Right(1)
    assert state_key(Left(1)) != state_key(Right(1))
    assert state_key(Left(1)) == state_key(Left(1))

    class Opaque:
        __hash__ = None

    for state in ([0, 1], Opaque()):
        with pytest.raises(StateSpaceError):
            state_key(state)
