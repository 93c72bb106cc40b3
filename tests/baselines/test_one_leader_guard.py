"""The one-leader guard of the baselines' stop predicates is sound.

Every built-in leader-election stop predicate other than ``P_PL``'s carries
the guard :func:`~repro.core.fast_simulator.one_leader`: the table engine
runs the predicate only where its coded table counts exactly one leader.
So a true predicate must imply exactly one leader, which is checked here
over random configurations, configurations sampled along runs until the
predicate holds, and every configuration of the model checker's small-n
graphs.
"""

from __future__ import annotations

import itertools

import pytest

from repro.api import ExperimentConfig, get_spec
from repro.core.encoding import StateEncoder, coverage_seeds
from repro.core.fast_simulator import JointTable, one_leader
from repro.core.rng import RandomSource
from repro.protocols.baselines.angluin_modk import AngluinModKProtocol
from repro.topology.registry import build_topology

#: (spec, topology): the ring and the off-ring predicate of angluin-modk.
PREDICATES = [
    ("yokota2021", "directed-ring"),
    ("angluin-modk", "directed-ring"),
    ("angluin-modk", "complete"),
    ("fischer-jiang", "directed-ring"),
    ("fischer-jiang", "complete"),
]


def _predicate(spec, protocol, population):
    predicate = spec.build_stop_predicate(protocol, population)
    assert predicate.guard is one_leader
    return predicate


def _assert_sound(protocol, predicate, states) -> bool:
    """A true predicate implies exactly one leader, on the states and on
    the joint table that codes them."""
    holds = predicate(states)
    if holds:
        assert protocol.count_leaders(states) == 1
        assert one_leader(JointTable(protocol, states))
    return holds


def _with_leaders(protocol, states, rng: RandomSource):
    """``states`` with zero, one or two leader flags set (a uniform draw
    rarely has exactly one on a larger ring)."""
    agents = list(range(len(states)))
    rng.shuffle(agents)
    leaders = set(agents[:rng.choice([0, 1, 1, 2])])
    configuration = []
    for agent, state in enumerate(states):
        state = state.copy()
        state.leader = int(agent in leaders)
        configuration.append(state)
    return configuration


@pytest.mark.parametrize("name,topology", PREDICATES)
@pytest.mark.parametrize("n", [5, 9])
def test_a_random_configuration_that_passes_has_one_leader(name, topology, n):
    spec = get_spec(name)
    config = ExperimentConfig(topology=topology)
    protocol = spec.build_protocol(n, config)
    predicate = _predicate(spec, protocol, spec.build_population(n, config))
    rng = RandomSource(n)
    for _ in range(1_000):
        states = [protocol.random_state(rng) for _ in range(n)]
        _assert_sound(protocol, predicate, states)
        _assert_sound(protocol, predicate, _with_leaders(protocol, states, rng))


@pytest.mark.parametrize("name,topology", PREDICATES)
def test_configurations_along_a_run_until_it_stops_keep_the_guard_sound(name, topology):
    spec = get_spec(name)
    config = ExperimentConfig(topology=topology)
    n = 9 if topology == "directed-ring" else 5
    protocol = spec.build_protocol(n, config)
    population = spec.build_population(n, config)
    predicate = _predicate(spec, protocol, population)
    stopped = 0
    for seed in range(3):
        initial = spec.build_configuration(spec.default_family, protocol, n,
                                           RandomSource(seed), population=population)
        simulation = spec.build_simulation(protocol, population, initial,
                                           RandomSource(seed), engine="step")
        for _ in range(20_000):
            if _assert_sound(protocol, predicate, simulation.states()):
                stopped += 1
                break
            simulation.run(16)
    assert stopped == 3, "every run reaches its stop"


#: (protocol, spec it is built like, topology, n): points whose full
#: configuration graph the model checker enumerates, each at most
#: 884,736 configurations; angluin's k=3 protocol runs at n = 2.
EXHAUSTIVE = [
    ("yokota2021", None, "directed-ring", 2),
    ("angluin-modk", None, "directed-ring", 3),
    ("angluin-modk", None, "complete", 3),
    ("angluin-modk", 3, "directed-ring", 2),
    ("angluin-modk", 3, "complete", 2),
    ("fischer-jiang", None, "directed-ring", 4),
    ("fischer-jiang", None, "complete", 4),
]


@pytest.mark.parametrize("name,k,topology,n", EXHAUSTIVE)
def test_every_legal_configuration_of_a_small_graph_has_one_leader(name, k, topology, n):
    spec = get_spec(name)
    protocol = (spec.build_protocol(n, ExperimentConfig()) if k is None
                else AngluinModKProtocol(k))
    predicate = _predicate(spec, protocol, build_topology(topology, n))
    encoder = StateEncoder.build(protocol, coverage_seeds(protocol, max_states=4096),
                                 max_states=4096)
    states = encoder.decode_view(range(encoder.num_states))
    legal = 0
    for configuration in itertools.product(states, repeat=n):
        if predicate(configuration):
            legal += 1
            assert protocol.count_leaders(configuration) == 1
    assert legal, "no legal configuration: the test checks nothing"
