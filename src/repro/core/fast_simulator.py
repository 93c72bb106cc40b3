"""The table engine: interactions replayed over integer state codes.

:class:`BatchedSimulation` is a drop-in replacement for
:class:`~repro.core.simulator.Simulation`.  Instead of one
``protocol.transition`` Python call, two state copies, two equality checks,
and an observer loop per interaction, it

* draws scheduler arcs in blocks (one ``randrange`` per step, run as its own
  ``getrandbits`` rejection loop: the same draws in the same order as
  :class:`~repro.core.scheduler.UniformRandomScheduler`, so random streams
  are bit-identical across engines),
* hands each block to a coded table (:class:`CodedTable`), which holds the
  agents as integer codes and applies the block through lazily filled
  lookup tables, and
* tracks ``steps`` / ``effective_steps`` / per-agent interaction counts
  incrementally, with the table keeping the leader count, so metrics cost
  O(1) per step and ``leader_count()`` is O(1) instead of an O(n) scan.

The table is the protocol's own when it has a ``coded_table()`` method —
``P_PL`` runs on three stage tables over the components of its states
(:class:`~repro.protocols.ppl.stages.StageTable`) — and otherwise the
:class:`JointTable`: a state gets a code the first time it is seen
(:func:`~repro.core.encoding.state_key`), and a ``(code_i, code_r)`` pair
calls ``protocol.transition`` only on its first occurrence, every repeat
being one dict lookup.  Its memory is bounded by :data:`MAX_CODED_STATES`:
once that many states have been coded since the table was built, the next
miss rebuilds it from the agents' current states.  A table memoizes a pure
function, so when an entry is filled, and which code a state gets, cannot
change a result.

An :class:`~repro.core.simulator.Oracle` runs between blocks: every block
ends at the latest at the oracle's next report, and the states it rewrites
are re-coded, so the hot loop never sees it.

Equivalence contract
--------------------
Driven by the same arc stream (an explicit
:class:`~repro.core.scheduler.SequenceScheduler`, or the internal random
draws from the same seed), a :class:`BatchedSimulation` produces
**bit-identical** final configurations, step counts, effective-step counts,
and per-agent interaction counts to :class:`Simulation` — the cross-check
suite in ``tests/core/test_fast_simulator.py`` asserts this for every
registered protocol spec on every topology it supports.  What the table
engine does *not* support are per-interaction observers (there is
deliberately no per-step callback on the hot path); use the step engine when
a :class:`~repro.core.recorder.TraceRecorder` or
:class:`~repro.core.recorder.FieldWatcher` is attached.  The joint table
shares one object per code, so no engine may mutate a state in place.
"""

from __future__ import annotations

import copy
import typing
from typing import Callable, Dict, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.configuration import Configuration
from repro.core.encoding import fresh_copy, state_key
from repro.core.errors import (
    InvalidConfigurationError,
    InvalidParameterError,
    ScheduleExhaustedError,
)
from repro.core.metrics import StepMetrics
from repro.core.protocol import Protocol
from repro.core.rng import RandomSource, ensure_source
from repro.core.scheduler import Scheduler
from repro.core.simulator import Oracle, RunResult, StatePredicate
from repro.topology.graph import Population

StateT = TypeVar("StateT")

#: The engine names understood across the stack (config, registry, CLI).
ENGINES = ("auto", "step", "batched")

#: Upper bound on one internal block: bounds the arc-draw buffer (a list of
#: ints) regardless of how many steps a single run()/run_until() burst asks for.
_MAX_BLOCK = 65_536

#: Memory bound of the joint table: the states it may code between two
#: builds.  Read when a table is constructed.
MAX_CODED_STATES = 1024

#: A table entry: ``()`` when the interaction changes neither state, else
#: ``(initiator code, responder code, leader-count delta)`` after it.
_Entry = Tuple[int, ...]


class CodedTable(typing.Protocol[StateT]):
    """What :class:`BatchedSimulation` asks of the table that holds its
    agents: a protocol's ``coded_table()`` when it has one, else a
    :class:`JointTable`.

    A table holds the agents' current states as codes of its own choosing.
    It memoizes a pure function, so how it codes states and when it fills
    or drops entries cannot change a result.
    """

    #: The number of agents in a leader state.
    leaders: int

    def code(self, states: Sequence[StateT]) -> None:
        """Hold ``states`` as the agents' states, and count their leaders."""

    def view(self) -> List[StateT]:
        """The agents' states, as never-mutated objects."""

    def apply(self, arcs: Sequence[Tuple[int, int]], counts: List[int]) -> int:
        """Run the interactions of ``arcs`` in order, count each agent's in
        ``counts`` and return how many changed some state."""


#: A stop predicate's guard: a necessary condition on the coded table.
Guard = Callable[[CodedTable], bool]

PredicateT = TypeVar("PredicateT", bound=Callable)


def guarded(guard: Guard) -> Callable[[PredicateT], PredicateT]:
    """A decorator that gives a stop predicate ``guard``: a condition on the
    coded table that holds wherever the predicate does.

    :meth:`BatchedSimulation.run_until` decodes the agents and calls the
    predicate only where the guard holds, so a guard saves work and cannot
    change a step count; the step loop never reads it.  The guard is kept in
    the predicate's ``__dict__`` (a method's bound objects share their
    function's), which a wrapper made with :func:`functools.wraps` copies.
    """
    def attach(predicate: PredicateT) -> PredicateT:
        predicate.guard = guard  # type: ignore[attr-defined]
        return predicate
    return attach


def one_leader(table: CodedTable) -> bool:
    """Exactly one leader: the guard of every stop predicate that requires it."""
    return table.leaders == 1


class JointTable(Generic[StateT]):
    """The lazily filled table over whole states: every protocol's unless
    it brings its own.

    A state gets a code the first time it is seen
    (:func:`~repro.core.encoding.state_key`), and a ``(code_i, code_r)``
    pair calls ``protocol.transition`` only on its first occurrence; every
    repeat is one dict lookup.  The table is first built from the initial
    states; once :data:`MAX_CODED_STATES` states have been coded since the
    last build, the next miss rebuilds it from the agents' current states.
    """

    def __init__(self, protocol: Protocol[StateT], initial: Sequence[StateT]) -> None:
        self._protocol = protocol
        self._coded: List[StateT] = []  # code -> state
        self._index: Dict[Hashable, int] = {}  # state key -> code
        self._leader_flags: List[int] = []  # code -> leader flag
        self._table: Dict[int, _Entry] = {}  # code_i * stride + code_r -> entry
        self._max_new = MAX_CODED_STATES
        # A build codes at most n states and at most max_new + 1 follow it.
        self._stride = len(initial) + self._max_new + 2
        self._codes: List[int] = [self._intern(state) for state in initial]
        self._rebuild_at = len(self._coded) + self._max_new
        flags = self._leader_flags
        #: The number of agents in a leader state.
        self.leaders = sum(flags[code] for code in self._codes)

    def code(self, states: Sequence[StateT]) -> None:
        """Hold ``states`` as the agents' codes (rebuilding if that passes
        the cap, which keeps every code below the stride), and count their
        leaders."""
        self._codes = [self._intern(state) for state in states]
        if len(self._coded) >= self._rebuild_at:
            self._rebuild()
        flags = self._leader_flags
        self.leaders = sum(flags[code] for code in self._codes)

    def view(self) -> List[StateT]:
        """The agents' states: one shared object per code."""
        coded = self._coded
        return [coded[code] for code in self._codes]

    def apply(self, arcs: Sequence[Tuple[int, int]], counts: List[int]) -> int:
        """Run the interactions of ``arcs`` in order, count each agent's in
        ``counts`` and return how many changed some state."""
        codes = self._codes
        stride = self._stride
        lookup = self._table.get
        fill = self._fill
        effective = 0
        leaders = self.leaders
        for initiator, responder in arcs:
            entry = lookup(codes[initiator] * stride + codes[responder])
            if entry is None:
                entry = fill(initiator, responder)
            if entry:
                codes[initiator], codes[responder], delta = entry
                effective += 1
                leaders += delta
            counts[initiator] += 1
            counts[responder] += 1
        self.leaders = leaders
        return effective

    def _intern(self, state: StateT) -> int:
        """The code of ``state``, assigned on first sight."""
        key = state_key(state)
        code = self._index.get(key)
        if code is None:
            code = self._index[key] = len(self._coded)
            self._coded.append(state)
            self._leader_flags.append(int(self._protocol.is_leader(state)))
        return code

    def _rebuild(self) -> None:
        """Re-code the agents' current states and drop every entry (in
        place, so the hot loop's aliases stay valid)."""
        renumber: Dict[int, int] = {}
        self._codes[:] = [renumber.setdefault(code, len(renumber)) for code in self._codes]
        coded, flags = self._coded, self._leader_flags
        coded[:] = [coded[code] for code in renumber]
        flags[:] = [flags[code] for code in renumber]
        self._index.clear()
        self._index.update((state_key(state), code) for code, state in enumerate(coded))
        self._table.clear()
        self._rebuild_at = len(coded) + self._max_new

    def _fill(self, initiator: int, responder: int) -> _Entry:
        """Fill the entry of the two agents' current pair (a table miss).

        Once :data:`MAX_CODED_STATES` states have been coded since the last
        build, the table is first rebuilt from the agents' current states:
        one code path that bounds memory and follows drifting state spaces.
        """
        if len(self._coded) >= self._rebuild_at:
            self._rebuild()
        codes, coded = self._codes, self._coded
        before_i, before_r = codes[initiator], codes[responder]
        after_i, after_r = self._protocol.transition(coded[before_i], coded[before_r])
        code_i, code_r = self._intern(after_i), self._intern(after_r)
        entry: _Entry = ()
        if code_i != before_i or code_r != before_r:
            flags = self._leader_flags
            entry = (code_i, code_r, flags[code_i] + flags[code_r]
                     - flags[before_i] - flags[before_r])
        self._table[before_i * self._stride + before_r] = entry
        return entry


class BatchedSimulation(Generic[StateT]):
    """Executes one protocol on one population through a coded table.

    Parameters mirror :class:`~repro.core.simulator.Simulation`: pass either
    a ``scheduler`` (any :class:`Scheduler`, e.g. a ``SequenceScheduler`` for
    replay/cross-checks) or an ``rng`` seed/source for the built-in uniformly
    random drawing, and optionally an ``oracle``.  On the joint table states
    must be hashable or dataclasses.  Execution runs in blocks of at most
    ``_MAX_BLOCK`` interactions, with stop predicates evaluated on the
    table's view of the agents.
    """

    #: The engine name trial results report (as ``Simulation.tier``).
    tier = "batched"

    def __init__(
        self,
        protocol: Protocol[StateT],
        population: Population,
        initial: Configuration[StateT],
        scheduler: Optional[Scheduler] = None,
        rng: "RandomSource | int | None" = None,
        oracle: Optional[Oracle] = None,
    ) -> None:
        if len(initial) != population.size:
            raise InvalidConfigurationError(
                f"configuration has {len(initial)} agents but the population has "
                f"{population.size}"
            )
        # Shared immutable structure (protocol, topology, layout constants).
        self._protocol = protocol  # repro: allow[REP006]
        self._population = population  # repro: allow[REP006]
        # The agents' states, held as codes by the protocol's own coded
        # table or by the joint table; a snapshot captures the states.
        make_table = getattr(protocol, "coded_table", None)
        self._table: CodedTable[StateT]
        if make_table is not None:
            self._table = make_table()
            self._table.code(initial.states())
        else:
            self._table = JointTable(protocol, initial.states())
        self._scheduler = scheduler
        self._rng = None if scheduler is not None else ensure_source(rng)
        self._oracle = oracle
        self._num_arcs = population.num_arcs  # repro: allow[REP006]
        # Bits per arc draw: randrange(num_arcs) draws this many bits until
        # the value falls below num_arcs.
        self._draw_bits = self._num_arcs.bit_length()  # repro: allow[REP006]
        # Index an arc list only when the population already has one; lazy
        # populations (large complete graphs) stay allocation-free via the
        # closed-form arc_by_index path.
        self._arc_list = population.arcs if population.has_materialized_arcs else None  # repro: allow[REP006]
        self._total_steps = 0
        self._effective_steps = 0
        self._interactions = [0] * population.size

    # ------------------------------------------------------------------ #
    # Accessors (mirroring Simulation)
    # ------------------------------------------------------------------ #
    @property
    def protocol(self) -> Protocol[StateT]:
        """The protocol being executed."""
        return self._protocol

    @property
    def population(self) -> Population:
        """The population graph."""
        return self._population

    @property
    def steps(self) -> int:
        """Total number of steps executed so far."""
        return self._total_steps

    @property
    def effective_steps(self) -> int:
        """Steps in which the transition actually changed some state."""
        return self._effective_steps

    def leader_count(self) -> int:
        """Number of agents currently outputting the leader symbol (O(1))."""
        return self._table.leaders

    def add_observer(self, observer: object) -> None:
        """Unsupported: observers would reintroduce a Python call per step."""
        raise InvalidParameterError(
            f"the {self.tier} engine does not support per-interaction observers; "
            "use the step engine (Simulation) for traced runs"
        )

    @property
    def metrics(self) -> StepMetrics:
        """Step metrics, materialized from the incremental counters.

        Unlike :class:`Simulation`, the returned object is a snapshot (the
        counters live in flat arrays on the hot path); its contents equal the
        step engine's metrics for the same arc stream.
        """
        per_agent = {
            agent: count
            for agent, count in enumerate(self._interactions)
            if count
        }
        return StepMetrics(
            steps=self._total_steps,
            interactions_per_agent=per_agent,
            effective_steps=self._effective_steps,
        )

    def state_of(self, agent: int) -> StateT:
        """Current state of one agent; out-of-range indices raise ``IndexError``."""
        if not 0 <= agent < len(self._interactions):
            raise IndexError(
                f"agent {agent} out of range for a population of {len(self._interactions)}"
            )
        return fresh_copy(self._table.view()[agent])

    def states(self) -> List[StateT]:
        """Snapshot of the agent states (decoded fresh on every call)."""
        return [fresh_copy(state) for state in self._table.view()]

    def configuration(self) -> Configuration[StateT]:
        """Immutable snapshot of the current configuration."""
        return Configuration(self.states())

    # ------------------------------------------------------------------ #
    # State capture (the engine snapshot/restore contract)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Capture the full execution state (same contract as ``Simulation``).

        Agents are captured as their (never mutated) states, not as codes,
        which are the table's own; the oracle is deep-copied.
        """
        return {
            "states": self._table.view(),
            "oracle": copy.deepcopy(self._oracle),
            "stream": (self._rng.getstate() if self._rng is not None
                       else self._scheduler.getstate()),
            "total_steps": self._total_steps,
            "effective_steps": self._effective_steps,
            "interactions": list(self._interactions),
        }

    def restore(self, snapshot: dict) -> None:
        """Rewind to a state captured by :meth:`snapshot` (same simulation)."""
        self._table.code(snapshot["states"])
        self._oracle = copy.deepcopy(snapshot["oracle"])
        if self._rng is not None:
            self._rng.setstate(snapshot["stream"])
        else:
            self._scheduler.setstate(snapshot["stream"])
        self._total_steps = snapshot["total_steps"]
        self._effective_steps = snapshot["effective_steps"]
        self._interactions = list(snapshot["interactions"])

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _advance_chunked(self, count: int) -> None:
        """Execute ``count`` interactions in block-bounded chunks, each
        ending at the latest at the oracle's next report."""
        oracle = self._oracle
        remaining = count
        while remaining > 0:
            chunk = min(remaining, _MAX_BLOCK)
            if oracle is not None:
                chunk = min(chunk, oracle.report_interval
                            - self._total_steps % oracle.report_interval)
            self._advance(chunk)
            remaining -= chunk
            if oracle is not None and self._total_steps % oracle.report_interval == 0:
                self._consult_oracle()

    def _consult_oracle(self) -> None:
        """Show the oracle the configuration and re-code what it rewrote."""
        view = self._table.view()
        if self._oracle.observe_and_report(view):
            self._table.code(view)

    def step(self) -> bool:
        """Execute one interaction; return True when the transition changed
        some state (as :meth:`Simulation.step`)."""
        before = self._effective_steps
        self._advance_chunked(1)
        return self._effective_steps != before

    def run(self, steps: int) -> Configuration[StateT]:
        """Execute exactly ``steps`` interactions and return the final snapshot."""
        if steps < 0:
            raise InvalidParameterError(f"steps must be non-negative, got {steps}")
        self._advance_chunked(steps)
        return self.configuration()

    def run_sequence(self) -> Configuration[StateT]:
        """Run until the (deterministic) scheduler is exhausted."""
        if self._scheduler is None:
            raise InvalidParameterError(
                "run_sequence needs an explicit (finite) scheduler; this "
                "simulation draws from a random source"
            )
        try:
            while True:
                self._advance_chunked(_MAX_BLOCK)
        except ScheduleExhaustedError:
            pass
        return self.configuration()

    def run_until(
        self,
        predicate: StatePredicate,
        max_steps: int,
        check_interval: int = 1,
    ) -> RunResult[StateT]:
        """Run until ``predicate(states)`` holds — identical semantics (and,
        per arc stream, identical step counts) to :meth:`Simulation.run_until`.

        The predicate sees the table's view: on the joint table agents in
        equal states share one object, so predicates must treat the
        sequence as read-only (all predicates in this package do).  A
        predicate's guard (:func:`guarded`) is evaluated on the table first,
        and the agents are decoded for the predicate only where it holds.
        """
        if max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {max_steps}")
        if check_interval < 1:
            raise ValueError(f"check_interval must be positive, got {check_interval}")
        table = self._table
        guard = getattr(predicate, "guard", None)

        def satisfied() -> bool:
            return (guard is None or guard(table)) and predicate(table.view())

        if satisfied():
            return RunResult(True, 0, self.configuration())
        executed = 0
        while executed < max_steps:
            burst = min(check_interval, max_steps - executed)
            self._advance_chunked(burst)
            executed += burst
            if satisfied():
                return RunResult(True, executed, self.configuration())
        return RunResult(False, executed, self.configuration())

    def _advance(self, count: int) -> None:
        """Execute ``count`` interactions through the table (one block).

        The block's arcs are collected first.  When an explicit schedule
        runs out mid-block, the executed prefix is applied and counted
        before the error propagates, matching the step engine.
        """
        exhausted = None
        if self._scheduler is not None:
            arcs = []
            next_arc = self._scheduler.next_arc
            try:
                for _ in range(count):
                    arcs.append(next_arc())
            except ScheduleExhaustedError as error:
                exhausted = error
        else:
            # The same randrange stream, in the same order, as the
            # uniformly random scheduler: randrange's own rejection loop.
            getrandbits = self._rng.getrandbits_callable()
            bits = self._draw_bits
            num_arcs = self._num_arcs
            arcs = []
            append = arcs.append
            arc_list = self._arc_list
            if arc_list is not None:
                for _ in range(count):
                    index = getrandbits(bits)
                    while index >= num_arcs:
                        index = getrandbits(bits)
                    append(arc_list[index])
            else:
                arc_by_index = self._population.arc_by_index
                for _ in range(count):
                    index = getrandbits(bits)
                    while index >= num_arcs:
                        index = getrandbits(bits)
                    append(arc_by_index(index))
        self._effective_steps += self._table.apply(arcs, self._interactions)
        self._total_steps += len(arcs)
        if exhausted is not None:
            raise exhausted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} protocol={self._protocol.name!r} "
            f"population={self._population.name!r} steps={self._total_steps}>"
        )
