"""Pinned behaviour of the Fischer–Jiang baseline run with its oracle.

The expected values below were recorded while the oracle ran only inside a
step-loop subclass of ``Simulation``, and must never move: whichever engine
``build_simulation`` picks has to consult the oracle at the same steps and
reproduce every trial bit for bit.  Each trial runs from a seeded start —
the ``adversarial`` and ``packed-row`` families, or a hand-built
all-follower ring that the oracle must seed with leaders — on directed
rings of 8 and 33, the complete graph of 16 and a 4x4 torus, to the stop
predicate at check intervals 1 and 128, on the ``auto`` and ``step``
engines.  A ``corrupt-recover:k=2`` scenario pins the phased runtime too.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import ExperimentConfig, experiment, get_spec
from repro.core.configuration import Configuration
from repro.core.rng import RandomSource
from repro.protocols.baselines.fischer_jiang import FischerJiangState

TRIAL_BUDGET = 400_000
TRIALS_PER_POINT = 3

#: ``(topology, n)`` points the trials run on.
POINTS = [("directed-ring", 8), ("directed-ring", 33), ("complete", 16), ("torus", 16)]
#: Starts: two registered families and the leaderless all-follower ring.
STARTS = ["adversarial", "packed-row", "all-followers"]
CHECK_INTERVALS = [1, 128]

#: ``(topology, n, start, check_interval) -> [(steps, converged,
#: effective steps, final-configuration digest), ...]``.
TRIALS = {
    ("directed-ring", 8, "adversarial", 1): [
        (49, True, 33, "4e655f5ee58be9bfed068781e67a23b6"),
        (43, True, 26, "7bbe0cedfba9a5f520b15f5b2e2b1b91"),
        (48, True, 20, "b3b30ace8e481525618bb92893a74478"),
    ],
    ("directed-ring", 8, "adversarial", 128): [
        (128, True, 76, "db25613f24833be59c8d80557023b8b0"),
        (256, True, 147, "73f135a0eea9226c8d201f5f6541260b"),
        (128, True, 55, "df9812a3ba2dbd35943ac12c3242b8ab"),
    ],
    ("directed-ring", 8, "packed-row", 1): [
        (24, True, 13, "30a3eb05d9b123e7c3487c2e39e85a30"),
        (6, True, 5, "4b25bf3938117a2e1de5f7501848a88a"),
        (9, True, 7, "e569061a2f731baba0c8b8a35fdca33b"),
    ],
    ("directed-ring", 8, "packed-row", 128): [
        (128, True, 75, "d73863a6adc93c6d4c8239fdef6b66d4"),
        (128, True, 86, "9909edc4829bdd4f72a20283d3431f49"),
        (256, True, 102, "27b1a37e127a39d868b6e8914cf39afc"),
    ],
    ("directed-ring", 8, "all-followers", 1): [
        (69, True, 48, "b1b142269bea912ec267152e8b1f0a66"),
        (85, True, 54, "b116ada0daabb89f01bcf72edf9a6e8d"),
        (59, True, 28, "89a908c507f34fdf3fd92798da2b92ac"),
    ],
    ("directed-ring", 8, "all-followers", 128): [
        (128, True, 73, "4f62b973f53c3230acd8679d3c0629b3"),
        (128, True, 69, "ef03e6f0c4696a31a6bb9839cf9d8865"),
        (128, True, 60, "dcc3425ba314dafd5760e81cc78da26b"),
    ],
    ("directed-ring", 33, "adversarial", 1): [
        (465, True, 237, "c8413d050b83ffea6ef393305c3bf154"),
        (724, True, 328, "6ba5add9e21c2821c7bb823fa9fa74db"),
        (322, True, 175, "f2bc2e8d5544ff91fbe9e274cd7bb474"),
    ],
    ("directed-ring", 33, "adversarial", 128): [
        (512, True, 253, "cf31323030b0c7d4aceaf75d339778be"),
        (768, True, 340, "39605ff6dc3b4f0a9336a28b4eeba24d"),
        (384, True, 189, "6ab2d455099a0fb7ec1a33f647d55784"),
    ],
    ("directed-ring", 33, "packed-row", 1): [
        (316, True, 101, "c28e6442f36e6af08fe2f7d997774880"),
        (295, True, 102, "bfe95cf2ebfabc72fca29487e88b814b"),
        (289, True, 89, "c3fdca5186075a6a90636566ad5a0f67"),
    ],
    ("directed-ring", 33, "packed-row", 128): [
        (384, True, 125, "6be03c988587712cf3256655fc14ddaa"),
        (896, True, 224, "c09bb9a135e14f290f05a31faaf623e8"),
        (2048, True, 645, "1e985a9f7cedd6bcec3d45ad7837f75c"),
    ],
    ("directed-ring", 33, "all-followers", 1): [
        (1596, True, 556, "0932d0459b4f5e03de2a11d920071fb8"),
        (1576, True, 612, "e26ccad808c8ae91350edf65aa01ba28"),
        (678, True, 311, "3f54a4a9b5872bd2abb9004dee17ef04"),
    ],
    ("directed-ring", 33, "all-followers", 128): [
        (1664, True, 572, "f7e0d939654fb37f79cc19b7797912c6"),
        (1664, True, 635, "2edaf6cba8bfe883474ff970572a003c"),
        (896, True, 356, "36e61e8dc425e3a0a70d4e49ca336652"),
    ],
    ("complete", 16, "adversarial", 1): [
        (354, True, 152, "5f1d007e289129fc02e8455d503ed73a"),
        (89, True, 57, "250bf14a528b0c6df21c2ae92cf32cb6"),
        (252, True, 97, "6e9577a7dbbc6f841872d5adc94fe910"),
    ],
    ("complete", 16, "adversarial", 128): [
        (1920, True, 931, "2712f047a44b2a288733aa8e65f741ec"),
        (128, True, 69, "ebb76b7afad4c3d1bbb757f843023b5c"),
        (256, True, 98, "9655e02ebdef1b46f1f58760d5b41d6b"),
    ],
    ("complete", 16, "packed-row", 1): [
        (29, True, 19, "5334fca22ac3c5a0dd9bf1407d8ac7ce"),
        (38, True, 22, "9d4165908345c12950630e57fb86caaf"),
        (23, True, 15, "330f17e04628cea30cf1a137449c9295"),
    ],
    ("complete", 16, "packed-row", 128): [
        (640, True, 323, "e8b60b7c0c7455e6cd390dfb2a6e3f86"),
        (128, True, 55, "b29508cedadbb861b73fa4d092790e22"),
        (256, True, 79, "c97f956ae03a6f2e6a057409d1c99723"),
    ],
    ("complete", 16, "all-followers", 1): [
        (179, True, 107, "31503c1cf72f737b73d092a76afcaf0a"),
        (236, True, 135, "f26c57154f456ce70d59d0d1ddbeae38"),
        (208, True, 110, "5a97ab2f49c0026fb231e6bd1dd89327"),
    ],
    ("complete", 16, "all-followers", 128): [
        (256, True, 129, "27648e0bb97382c036a43c1d4ac3d475"),
        (512, True, 278, "29379df09774c6c0e19881d62dc9bb62"),
        (384, True, 161, "6f384349966e5e1adf2940bed82b6e85"),
    ],
    ("torus", 16, "adversarial", 1): [
        (143, True, 68, "9e9f407f7b5ebaa3c571658a7dd89899"),
        (63, True, 44, "85e51b328bd406144c8da3a3532acfbd"),
        (254, True, 152, "22cfc6a6689974affaab43420a81b8ca"),
    ],
    ("torus", 16, "adversarial", 128): [
        (1408, True, 599, "5bc58044c680024b628811862699656e"),
        (1280, True, 653, "b0098206d279d1e35f529c7a90b74bdb"),
        (256, True, 153, "91dc4a7a15d8397ba69cd77d40ad5b92"),
    ],
    ("torus", 16, "packed-row", 1): [
        (97, True, 41, "314de4140de73f0ab8b0e5c9d58d944a"),
        (52, True, 27, "db4feeaa5c16d9d08338bdb9db21eaad"),
        (133, True, 50, "5fc731028845ebbe312952f26e606f42"),
    ],
    ("torus", 16, "packed-row", 128): [
        (256, True, 89, "b387fe4c47f6681db44301cc5ae6b946"),
        (1024, True, 466, "45ef6cca718eba960ebbd316a30efe3e"),
        (384, True, 188, "ae2c3a4fca80eb29cafce770bd8ae2cf"),
    ],
    ("torus", 16, "all-followers", 1): [
        (217, True, 117, "2ac853bad42a8d4e6f4c946ec59a9f52"),
        (198, True, 102, "59eb0ff144736c7070610229e5da111b"),
        (230, True, 103, "3803b2c170503271fff58d54c1af54d2"),
    ],
    ("torus", 16, "all-followers", 128): [
        (512, True, 256, "d50a1c2c7e304d184ff9a878da48ed47"),
        (512, True, 244, "02207e160417674b5c8d608710f23607"),
        (640, True, 275, "577ff6e19701efb94bea386253bfe036"),
    ],
}

#: ``[(steps, converged, ((phase steps, phase converged), ...)), ...]`` of
#: the ``corrupt-recover:k=2`` scenario on the directed ring of 8.
SCENARIO_TRIALS = [
    (195, True, ((25, True), (170, True))),
    (7, True, ((7, True), (0, True))),
    (16, True, ((16, True), (0, True))),
]


def _digest(states) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for state in states:
        hasher.update(repr((state.leader, state.bullet, state.shield,
                            state.absence)).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def trial_outcome(topology: str, n: int, start: str, check_interval: int,
                  trial: int, engine: str):
    """``(steps, converged, effective steps, final digest)`` of one trial."""
    spec = get_spec("fischer-jiang")
    config = ExperimentConfig(topology=topology)
    protocol = spec.build_protocol(n, config)
    population = spec.build_population(n, config)
    if start == "all-followers":
        initial = Configuration([FischerJiangState.follower() for _ in range(n)])
    else:
        initial = spec.build_configuration(start, protocol, n,
                                           RandomSource(300 + trial),
                                           population=population)
    simulation = spec.build_simulation(protocol, population, initial,
                                       RandomSource(900 + trial), engine=engine)
    run = simulation.run_until(spec.build_stop_predicate(protocol, population),
                               max_steps=TRIAL_BUDGET,
                               check_interval=check_interval)
    return (run.steps, run.satisfied, simulation.metrics.effective_steps,
            _digest(run.configuration))


def scenario_outcome(engine: str):
    result = (experiment("fischer-jiang").on_ring(8)
              .scenario("corrupt-recover:k=2").trials(TRIALS_PER_POINT)
              .seed(23).check_interval(1).engine(engine).run())
    return [(trial.steps, trial.converged,
             tuple((phase.steps, phase.converged) for phase in trial.phases))
            for trial in result.trials]


@pytest.mark.parametrize("engine", ["auto", "step"])
@pytest.mark.parametrize("topology,n,start,check_interval", sorted(TRIALS))
def test_trials_are_pinned_on_both_engines(topology, n, start, check_interval,
                                           engine):
    outcomes = [trial_outcome(topology, n, start, check_interval, trial, engine)
                for trial in range(TRIALS_PER_POINT)]
    assert outcomes == TRIALS[topology, n, start, check_interval]


@pytest.mark.parametrize("engine", ["auto", "step"])
def test_scenario_is_pinned_on_both_engines(engine):
    assert scenario_outcome(engine) == SCENARIO_TRIALS
