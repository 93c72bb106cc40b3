"""Pinned behaviour of ``P_PL``: transition outputs and whole trials.

The expected values below were recorded from the mutable-dataclass
implementation of Algorithms 1-5 and must never move: any rewrite of the
protocol layer (state representation, transition functions) has to
reproduce them bit for bit.  Two complementary pins:

* a digest of ``transition`` outputs over seeded uniformly random state
  pairs, for several ``(psi, c1)`` — every branch of Algorithms 2-5 that a
  random pair can reach, at both small and large ``kappa_max``;
* per-trial steps and a final-configuration digest of ``n = 16`` trials
  from five adversarial families, on both engines, run to the safety
  predicate with ``check_interval = 1`` (true hitting times).

The steps of the two commands that build their own ``P_PL`` run on the
table engine, ``demo`` and the orientation pipeline's election phase, are
pinned too: the stop check they pass to ``run_until`` may skip work but
never move a stop.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import ExperimentConfig, get_spec
from repro.cli import main
from repro.core.rng import RandomSource
from repro.protocols.orientation.pipeline import OrientedRingPipeline
from repro.protocols.ppl import PPLParams, PPLProtocol, random_state

#: State pairs drawn per parameter set (four sets: 20,000 pairs in all).
PAIRS = 5_000

#: ``(psi, c1) -> blake2b`` of the transition outputs of PAIRS random pairs.
TRANSITION_DIGESTS = {
    (2, 1): "ed1280c43a8832ae53b0d365b57108c1",
    (3, 4): "19e865724c4c368737609a86d8b8cf9b",
    (7, 4): "e35888d0cb4f57d6159d0cb05d62841c",
    (7, 32): "e956ef17d2b890e6cd365204c8ce2949",
}

TRIAL_SIZE = 16
TRIAL_BUDGET = 200_000
TRIALS_PER_FAMILY = 3

#: ``family -> [(steps, converged, final-configuration digest), ...]``.
TRIALS = {
    "adversarial": [(2041, True, "3edebc9fb248bedba0df941b986d2764"),
                    (1103, True, "5d7e9041deb8e6bb0834d2a4db56701f"),
                    (768, True, "69d7e738d998b37f2cfe82406d79342b")],
    "leaderless-trap": [(3761, True, "0bd559da040cce62cd56eacf70dfb381"),
                        (3408, True, "7ead33fa4d0fa078c5bf1bc6e651c1b7"),
                        (3772, True, "d4426bae8fae41035c4be81b4ada713d")],
    "all-leaders": [(1884, True, "6ebdbe2d9f332ff340c1bd603067cbef"),
                    (1258, True, "7bb405b1971572ade0b4149502bab678"),
                    (1160, True, "4b761eb0619776677e7f0f33a22fd51f")],
    "stale-signals": [(4851, True, "40ae180fd48d2852f3f92f8660cdd412"),
                      (6354, True, "df39f8ee1536d55289c835fe82a4e14f"),
                      (5668, True, "edb0578622c64d4446875f91128cfbd9")],
    "invalid-tokens": [(424, True, "06e3f0ee0d65ba1da8210fdd04a35125"),
                       (721, True, "6dfe65467694d3946f3bc95f866a0b43"),
                       (8, True, "4058b322b938ab6001c64c8160fe0da6")],
}

#: ``demo --sizes N --format json`` at its other defaults: ``n -> steps``.
DEMO_STEPS = {8: 384, 32: 6016}

#: ``OrientedRingPipeline(n=12, seed=3).run_election_phase``: steps and
#: the leader's index.
ELECTION = (528, 2)


def _digest(rows) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for row in rows:
        hasher.update(repr(row).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def transition_digest(psi: int, kappa_factor: int, pairs: int = PAIRS) -> str:
    """Digest of ``transition`` on ``pairs`` seeded random state pairs."""
    params = PPLParams(psi=psi, kappa_factor=kappa_factor)
    protocol = PPLProtocol(params)
    rng = RandomSource(1_000 * psi + kappa_factor)
    rows = []
    for _ in range(pairs):
        initiator = random_state(rng, params)
        responder = random_state(rng, params)
        after_i, after_r = protocol.transition(initiator, responder)
        rows.append((after_i.as_tuple(), after_r.as_tuple()))
    return _digest(rows)


def trial_outcome(family: str, trial: int, engine: str):
    """``(steps, converged, final digest)`` of one pinned ``ppl`` trial."""
    spec = get_spec("ppl")
    config = ExperimentConfig()
    protocol = spec.build_protocol(TRIAL_SIZE, config)
    population = spec.build_population(TRIAL_SIZE, config)
    initial = spec.build_configuration(family, protocol, TRIAL_SIZE,
                                       RandomSource(500 + trial),
                                       population=population)
    simulation = spec.build_simulation(protocol, population, initial,
                                       RandomSource(700 + trial), engine=engine)
    run = simulation.run_until(spec.build_stop_predicate(protocol, population),
                               max_steps=TRIAL_BUDGET, check_interval=1)
    final = _digest(state.as_tuple() for state in run.configuration)
    return run.steps, run.satisfied, final


@pytest.mark.parametrize("psi,kappa_factor", sorted(TRANSITION_DIGESTS))
def test_transition_outputs_are_pinned(psi, kappa_factor):
    assert transition_digest(psi, kappa_factor) == TRANSITION_DIGESTS[psi, kappa_factor]


@pytest.mark.parametrize("engine", ["step", "batched"])
@pytest.mark.parametrize("family", sorted(TRIALS))
def test_trials_are_pinned_on_both_engines(family, engine):
    outcomes = [trial_outcome(family, trial, engine)
                for trial in range(TRIALS_PER_FAMILY)]
    assert outcomes == TRIALS[family]


@pytest.mark.parametrize("n", sorted(DEMO_STEPS))
def test_demo_steps_are_pinned(n, capsys):
    assert main(["demo", "--sizes", str(n), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["converged"], payload["steps"]) == (True, DEMO_STEPS[n])


def test_election_phase_steps_are_pinned():
    pipeline = OrientedRingPipeline(n=12, seed=3)
    elected, steps = pipeline.run_election_phase(max_steps=2_000_000)
    leaders = [agent for agent, state in enumerate(elected) if state.leader == 1]
    assert (steps, leaders) == (ELECTION[0], [ELECTION[1]])
