"""Pinned output of the hitting-time solver and the rotation quotient.

The expected values below were recorded from the solver that walked
flattened successor arrays, and from the quotient that canonicalized
every successor through a dict of representatives.  Any rewrite of
:mod:`repro.check.probability` or :class:`repro.check.symmetry.QuotientGraph`
has to reproduce them bit for bit.  Three chains are pinned:

* ``yokota2021`` at n=2 on the directed ring, as ``check --quant`` solves
  it: on the full graph and on the rotation quotient (``--symmetry
  force``);
* the 3-state max-propagation chain on the 4-ring, legal = all twos, on
  the iterative solver (``exact_limit=0``).

For each solve: a blake2b digest of ``float.hex`` of every hitting time,
``residual.hex()``, the sweep count and the transient count.  For the
quotient, digests of every orbit's ``successors`` list, of
``orbit_sizes`` and of ``orbit_of`` over every full configuration.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import pytest

from repro.check import quant
from repro.check.probability import hitting_times
from repro.check.symmetry import QuotientGraph

from test_probability import max_rule, ring_graph


def _digest(lines) -> str:
    blob = "\n".join(str(line) for line in lines).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _solve_summary(times) -> dict:
    return {
        "values": _digest(float.hex(value) for value in times.values),
        "residual": times.residual.hex(),
        "sweeps": times.sweeps,
        "transient": times.transient,
    }


def _quant_solve(symmetry: str):
    """The graph ``check --quant yokota2021 --n 2`` solves, and its times."""
    captured = {}

    def capture(graph, legal, **kwargs):
        captured["graph"] = graph
        captured["times"] = hitting_times(graph, legal, **kwargs)
        return captured["times"]

    with mock.patch.object(quant, "hitting_times", capture):
        report = quant.quant_spec("yokota2021", n=2, topology="directed-ring",
                                  symmetry=symmetry, simulate=False)
    assert report["status"] == "verified", report
    return captured["graph"], captured["times"]


#: ``symmetry -> solve summary`` of ``yokota2021`` n=2 on the directed ring.
YOKOTA_SOLVES = {
    "off": {"values": "9276dfa847f0b866649e64407321b7c4",
            "residual": "0x1.e000000000000p-35", "sweeps": 20, "transient": 9060},
    "force": {"values": "fe5f63db6382756c4f04f02f283848cc",
              "residual": "0x0.0p+0", "sweeps": 5, "transient": 4578},
}

#: The rotation quotient of that point: successor lists, orbit sizes and
#: the orbit of every full configuration.
YOKOTA_QUOTIENT = {
    "successors": "4285444bef32c119af7a273bc1540236",
    "orbit_sizes": "f6621afc3621988aa8e0e6f7e84cb73a",
    "orbit_of": "b4ed31aa603f1fdffbbbe0857c6d5c3e",
}

#: ``ring_graph(3, 4, max_rule)``, legal = all twos, at ``exact_limit=0``.
MAX_RING_SOLVE = {"values": "90c0e0f13bcfee634be69bd0e7f28d0c",
                  "residual": "0x0.0p+0", "sweeps": 4, "transient": 64}


@pytest.mark.parametrize("symmetry", sorted(YOKOTA_SOLVES))
def test_yokota_quant_solve_is_pinned(symmetry):
    graph, times = _quant_solve(symmetry)
    assert times.method == "iterative"
    assert _solve_summary(times) == YOKOTA_SOLVES[symmetry]


def test_yokota_quotient_is_pinned():
    graph, _ = _quant_solve("force")
    assert isinstance(graph, QuotientGraph)
    full = graph.graph
    observed = {
        "successors": _digest(graph.successors(orbit)
                              for orbit in range(graph.num_configs)),
        "orbit_sizes": _digest(graph.orbit_sizes),
        "orbit_of": _digest(graph.orbit_of(full.digits(cid))
                            for cid in range(full.num_configs)),
    }
    assert observed == YOKOTA_QUOTIENT


def test_max_ring_iterative_solve_is_pinned():
    graph = ring_graph(3, 4, max_rule)
    legal = bytearray(1 if all(d == 2 for d in graph.digits(node)) else 0
                      for node in range(graph.num_configs))
    times = hitting_times(graph, legal, exact_limit=0)
    assert times.method == "iterative"
    assert _solve_summary(times) == MAX_RING_SOLVE
