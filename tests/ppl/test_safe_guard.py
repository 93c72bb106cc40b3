"""``StageTable.may_be_safe``, the guard of ``P_PL``'s stop predicate, is sound.

The table engine decodes the agents and runs ``is_safe`` only where the
guard holds, so the guard must hold on every safe configuration: a guard
that rejects one would let a run pass its stop.  Each configuration below
is loaded into a fresh table with ``code(states)``, and the guard is
checked against ``is_safe`` and against the conjuncts of ``S_PL`` it reads,
decoded: one leader, ``dist`` and ``last`` relative to it, and the segment
IDs.
"""

from __future__ import annotations

import pytest

from repro.adversary.initial_configs import ADVERSARIES
from repro.api import get_spec
from repro.core.rng import RandomSource
from repro.core.simulator import Simulation
from repro.protocols.ppl import PPLProtocol, is_safe, perfect_configuration
from repro.protocols.ppl.params import expected_segment_count
from repro.protocols.ppl.safety import segment_ids_consistent, unique_leader_index
from repro.protocols.ppl.stages import StageTable
from repro.topology.ring import DirectedRing

SIZES = (8, 16, 33, 64)

#: Steps between two sampled configurations of a run.
SAMPLE_EVERY = 64


def _protocol(n: int) -> PPLProtocol:
    return PPLProtocol.for_population(n, kappa_factor=4)


def _coded_conjuncts(states, params) -> bool:
    """The conjuncts of ``S_PL`` the guard reads, on decoded states."""
    leader = unique_leader_index(states)
    if leader is None:
        return False
    n = len(states)
    last_segment_start = params.psi * (expected_segment_count(n, params.psi) - 1)
    for offset in range(n):
        state = states[(leader + offset) % n]
        if (state.dist != offset % params.dist_modulus
                or state.last != int(offset >= last_segment_start)):
            return False
    return segment_ids_consistent(states, params)


def _guard(states, params) -> bool:
    table = StageTable(params)
    table.code(states)
    return table.may_be_safe()


def _assert_sound(states, params) -> bool:
    """The guard on ``states``: implied by ``is_safe``, and equal to the
    decoded conjuncts it stands for."""
    guard = _guard(states, params)
    safe = is_safe(states, params)
    assert guard or not safe, "the guard rejects a safe configuration"
    assert guard == _coded_conjuncts(states, params)
    return safe


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", sorted(ADVERSARIES))
def test_the_guard_holds_wherever_an_adversarial_start_is_safe(n, family):
    params = _protocol(n).params
    for seed in range(8):
        states = ADVERSARIES[family](n, params, RandomSource(seed)).states()
        _assert_sound(states, params)


def _perfect(n: int, params, leader_at: int, start_id: int):
    return perfect_configuration(n, params, leader_at=leader_at, start_id=start_id).states()


def _starts(n: int, params):
    """Leader positions, and first segment IDs, the last two of which make
    a later segment's ID wrap."""
    modulus = params.segment_id_modulus
    for leader_at in sorted({0, 1, n // 2, n - 1}):
        for start_id in (0, 3, modulus - 2, modulus - 1):
            yield leader_at, start_id


@pytest.mark.parametrize("n", SIZES)
def test_perfect_configurations_are_safe_and_pass_the_guard(n):
    """Wherever the leader sits, and with segment IDs that run past
    ``2**psi - 1`` and start again at 0: ``S_PL`` counts them modulo
    ``2**psi``, so such a ring is safe."""
    params = _protocol(n).params
    assert expected_segment_count(n, params.psi) >= 3, "an ID can wrap between two segments"
    for leader_at, start_id in _starts(n, params):
        assert _assert_sound(_perfect(n, params, leader_at, start_id), params)


def _one_change(states, params, leader: int):
    """Every configuration one change away from ``states``: a ``b``
    flipped, a ``dist`` shifted either way, a ``last`` flipped, or the
    leader moved to another agent."""
    n = len(states)
    for agent in range(n):
        state = states[agent]
        changed = [
            state._replace(b=1 - state.b),
            state._replace(dist=(state.dist + 1) % params.dist_modulus),
            state._replace(dist=(state.dist - 1) % params.dist_modulus),
            state._replace(last=1 - state.last),
        ]
        for variant in changed:
            yield states[:agent] + [variant] + states[agent + 1:]
        if agent != leader:
            moved = list(states)
            moved[leader] = states[leader]._replace(leader=0)
            moved[agent] = state._replace(leader=1)
            yield moved


@pytest.mark.parametrize("n", SIZES)
def test_one_change_to_a_perfect_configuration_keeps_the_guard_sound(n):
    params = _protocol(n).params
    rejected = 0
    for leader_at, start_id in _starts(n, params):
        states = _perfect(n, params, leader_at, start_id)
        for variant in _one_change(states, params, leader_at % n):
            _assert_sound(variant, params)
            rejected += not _guard(variant, params)
    assert rejected, "no change was caught: the test checks nothing"


def _sampled_run(n: int, family: str, seed: int, max_steps: int = 400_000):
    """Configurations every :data:`SAMPLE_EVERY` steps of a step-loop run,
    from its start until the first safe one."""
    protocol = _protocol(n)
    spec = get_spec("ppl")
    initial = spec.build_configuration(family, protocol, n, RandomSource(seed))
    simulation = Simulation(protocol, DirectedRing(n), initial, rng=seed)
    states = simulation.states()
    for _ in range(0, max_steps, SAMPLE_EVERY):
        yield states
        if is_safe(states, protocol.params):
            return
        simulation.run(SAMPLE_EVERY)
        states = simulation.states()
    raise AssertionError(f"n={n} {family} seed {seed}: not safe after {max_steps} steps")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", ["uniform", "half-leaders", "corrupted-safe"])
def test_the_guard_is_sound_along_runs_until_they_are_safe(n, family):
    params = _protocol(n).params
    safe = 0
    for seed in range(3):
        for states in _sampled_run(n, family, seed):
            safe += _assert_sound(states, params)
    assert safe == 3, "every run ends at a safe configuration"
