"""The table engines: interactions replayed over integer state codes.

:class:`BatchedSimulation` is a drop-in replacement for
:class:`~repro.core.simulator.Simulation`.  Instead of one
``protocol.transition`` Python call, two state copies, two equality checks,
and an observer loop per interaction, it

* draws scheduler arcs in blocks (one ``randrange`` per step, the same draws
  in the same order as :class:`~repro.core.scheduler.UniformRandomScheduler`,
  so random streams are bit-identical across engines),
* holds the agents as integer codes — a state gets one the first time it is
  seen (:func:`~repro.core.encoding.state_key`) — and fills a transition
  table lazily: a ``(code_i, code_r)`` pair calls ``protocol.transition``
  only on its first occurrence, every repeat is one dict lookup, and
* tracks ``steps`` / ``effective_steps`` / per-agent interaction counts /
  the leader count incrementally, so metrics cost O(1) per step and
  ``leader_count()`` is O(1) instead of an O(n) scan.

The table memoizes a pure function, so when an entry is filled, and which
code a state gets, cannot change a result.  Its memory is bounded by
:data:`MAX_CODED_STATES`: once that many states have been coded since the
table was built, the next miss rebuilds it from the agents' current states.

The third tier, :class:`NumpySimulation`, vectorizes the replay itself over
a table a :class:`~repro.core.encoding.StateEncoder` enumerated up front: arc
indices are recovered from bulk generator words (the exact ``randrange``
stream, see :meth:`~repro.core.rng.RandomSource.randbits_words`), endpoints
come from the population's vectorized ``numpy_endpoints``, and each block is
partitioned into conflict-free layers — within a layer no agent appears
twice, so the table applications commute and run as one gather/scatter —
with all counters updated by vectorized reductions.  ``numpy`` is an
*optional* dependency: nothing here imports it at module load, and
:func:`numpy_available` gates every selection path so the package keeps
working (on the step and batched tiers) without it.

Equivalence contract
--------------------
Driven by the same arc stream (an explicit
:class:`~repro.core.scheduler.SequenceScheduler`, or the internal random
draws from the same seed), a :class:`BatchedSimulation` or
:class:`NumpySimulation` produces **bit-identical** final configurations,
step counts, effective-step counts, and per-agent interaction counts to
:class:`Simulation` — the cross-check suites in
``tests/core/test_fast_simulator.py`` and
``tests/core/test_numpy_simulator.py`` assert this for every registered
protocol spec (the latter over every supported topology too).  What the
table engines do *not* support are per-interaction observers (there is
deliberately no per-step callback on the hot path); use the step engine when
a :class:`~repro.core.recorder.TraceRecorder` or
:class:`~repro.core.recorder.FieldWatcher` is attached.  Both share one
object per code, so no engine may mutate a state in place.
"""

from __future__ import annotations

import importlib.util
from typing import Dict, Generic, Hashable, List, Optional, Tuple, TypeVar

from repro.core.configuration import Configuration
from repro.core.encoding import DEFAULT_MAX_STATES, StateEncoder, fresh_copy, state_key
from repro.core.errors import (
    InvalidConfigurationError,
    InvalidParameterError,
    ScheduleExhaustedError,
)
from repro.core.metrics import StepMetrics
from repro.core.protocol import Protocol
from repro.core.rng import RandomSource, ensure_source
from repro.core.scheduler import Scheduler
from repro.core.simulator import RunResult, StatePredicate, resolve_check_cap
from repro.topology.graph import Population

StateT = TypeVar("StateT")

#: The engine names understood across the stack (config, registry, CLI).
ENGINES = ("auto", "step", "batched", "numpy")

#: Upper bound on one internal block: bounds the arc-draw buffer (a list of
#: ints) regardless of how many steps a single run()/run_until() burst asks for.
_MAX_BLOCK = 65_536

#: Memory bound of the batched engine's lazy table: the states it may code
#: between two builds.  Read when a simulation is constructed.
MAX_CODED_STATES = 1024

#: Block bounds for the numpy engine.  Conflict-layer count grows with
#: ``block / n`` while per-block fixed costs shrink with it, so the block
#: tracks the population size between these clamps.
_MIN_NUMPY_BLOCK = 1_024
_MAX_NUMPY_BLOCK = 32_768

_NUMPY_AVAILABLE: Optional[bool] = None


def numpy_available() -> bool:
    """True when the optional ``numpy`` dependency is importable (cached)."""
    global _NUMPY_AVAILABLE
    if _NUMPY_AVAILABLE is None:
        try:
            _NUMPY_AVAILABLE = importlib.util.find_spec("numpy") is not None
        except ImportError:  # a meta-path finder may veto the lookup outright
            _NUMPY_AVAILABLE = False
    return _NUMPY_AVAILABLE


def _require_numpy():
    """Import numpy for the vectorized engine, or fail with guidance."""
    if not numpy_available():
        raise InvalidParameterError(
            "the numpy engine requires the optional numpy dependency; "
            "install numpy or use --engine auto/batched/step"
        )
    import numpy

    return numpy


#: A table entry: ``()`` when the interaction changes neither state, else
#: ``(initiator code, responder code, leader-count delta)`` after it.
_Entry = Tuple[int, ...]


class _TableSimulation(Generic[StateT]):
    """What the two table engines share: the accessors, and execution in
    blocks of at most ``_block`` interactions through ``_advance(count)``,
    with stop predicates evaluated on the zero-copy ``_view()``."""

    #: The engine name trial results report (as ``Simulation.tier``).
    tier = ""
    #: Interactions per ``_advance`` call (an upper bound).
    _block = _MAX_BLOCK

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
        return self._leaders

    def add_observer(self, observer: object) -> None:
        """Unsupported: observers would reintroduce a Python call per step."""
        raise InvalidParameterError(
            f"the {self.tier} engine does not support per-interaction observers; "
            "use the step engine (Simulation) for traced runs"
        )

    def _advance_chunked(self, count: int) -> None:
        """Execute ``count`` interactions in block-bounded chunks."""
        remaining = count
        while remaining > 0:
            chunk = min(remaining, self._block)
            self._advance(chunk)
            remaining -= chunk

    def step(self) -> bool:
        """Execute one interaction; return True when some state changed."""
        before = self._effective_steps
        self._advance(1)
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
                self._advance(self._block)
        except ScheduleExhaustedError:
            pass
        return self.configuration()

    def run_until(
        self,
        predicate: StatePredicate,
        max_steps: int,
        check_interval: int = 1,
        check_backoff: bool = False,
        check_interval_cap: Optional[int] = None,
    ) -> RunResult[StateT]:
        """Run until ``predicate(states)`` holds — identical semantics (and,
        per arc stream, identical step counts) to :meth:`Simulation.run_until`,
        including the optional geometric check-interval backoff.

        The predicate sees a zero-copy view: agents in equal states share one
        object, so predicates must treat the sequence as read-only (all
        predicates in this package do).
        """
        if max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {max_steps}")
        cap = resolve_check_cap(check_interval, check_backoff, check_interval_cap)
        if predicate(self._view()):
            return RunResult(True, 0, self.configuration())
        executed = 0
        interval = check_interval
        while executed < max_steps:
            burst = min(interval, max_steps - executed)
            self._advance_chunked(burst)
            executed += burst
            if predicate(self._view()):
                return RunResult(True, executed, self.configuration())
            if check_backoff and interval < cap:
                interval = min(interval * 2, cap)
        return RunResult(False, executed, self.configuration())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} protocol={self._protocol.name!r} "
            f"population={self._population.name!r} steps={self._total_steps}>"
        )


class BatchedSimulation(_TableSimulation[StateT]):
    """Executes one protocol on one population through a lazily filled table.

    Parameters mirror :class:`~repro.core.simulator.Simulation`: pass either
    a ``scheduler`` (any :class:`Scheduler`, e.g. a ``SequenceScheduler`` for
    replay/cross-checks) or an ``rng`` seed/source for the built-in uniformly
    random drawing.  States must be hashable or dataclasses.
    """

    tier = "batched"

    def __init__(
        self,
        protocol: Protocol[StateT],
        population: Population,
        initial: Configuration[StateT],
        scheduler: Optional[Scheduler] = None,
        rng: "RandomSource | int | None" = None,
    ) -> None:
        if len(initial) != population.size:
            raise InvalidConfigurationError(
                f"configuration has {len(initial)} agents but the population has "
                f"{population.size}"
            )
        # Shared immutable structure (protocol, topology, layout constants)
        # and the lazy table's caches — code -> state, state key -> code,
        # code -> leader flag, pair ``code_i * stride + code_r`` -> entry.
        # The caches memoize a pure function: a restore re-codes the
        # captured states, and a rebuild may renumber every code, without
        # changing the run, so none of it is run state.
        self._protocol = protocol  # repro: allow[REP006]
        self._population = population  # repro: allow[REP006]
        self._coded: List[StateT] = []  # repro: allow[REP006]
        self._index: Dict[Hashable, int] = {}  # repro: allow[REP006]
        self._leader_flags: List[int] = []  # repro: allow[REP006]
        self._table: Dict[int, _Entry] = {}  # repro: allow[REP006]
        self._max_new = MAX_CODED_STATES  # repro: allow[REP006]
        # A build codes at most n states and at most max_new + 1 follow it.
        self._stride = population.size + self._max_new + 2  # repro: allow[REP006]
        self._codes: List[int] = [self._intern(state) for state in initial]
        self._rebuild_at = len(self._coded) + self._max_new  # repro: allow[REP006]
        self._scheduler = scheduler
        self._rng = None if scheduler is not None else ensure_source(rng)
        self._num_arcs = population.num_arcs  # repro: allow[REP006]
        # Index an arc list only when the population already has one; lazy
        # populations (large complete graphs) stay allocation-free via the
        # closed-form arc_by_index path.
        self._arc_list = population.arcs if population.has_materialized_arcs else None  # repro: allow[REP006]
        self._leaders = sum(self._leader_flags[code] for code in self._codes)
        self._total_steps = 0
        self._effective_steps = 0
        self._interactions = [0] * population.size

    # ------------------------------------------------------------------ #
    # Accessors (mirroring Simulation)
    # ------------------------------------------------------------------ #
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
        if not 0 <= agent < len(self._codes):
            raise IndexError(
                f"agent {agent} out of range for a population of {len(self._codes)}"
            )
        return fresh_copy(self._coded[self._codes[agent]])

    def states(self) -> List[StateT]:
        """Snapshot of the agent states (decoded fresh on every call)."""
        coded = self._coded
        return [fresh_copy(coded[code]) for code in self._codes]

    def codes(self) -> List[int]:
        """The live integer state array (read-only for callers)."""
        return self._codes

    def configuration(self) -> Configuration[StateT]:
        """Immutable snapshot of the current configuration."""
        return Configuration(self.states())

    def _view(self) -> List[StateT]:
        coded = self._coded
        return [coded[code] for code in self._codes]

    # ------------------------------------------------------------------ #
    # State capture (the engine snapshot/restore contract)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Capture the full execution state (same contract as ``Simulation``).

        Agents are captured as their (never mutated) states, not as codes,
        which a rebuild renumbers.
        """
        coded = self._coded
        return {
            "states": [coded[code] for code in self._codes],
            "stream": (self._rng.getstate() if self._rng is not None
                       else self._scheduler.getstate()),
            "total_steps": self._total_steps,
            "effective_steps": self._effective_steps,
            "interactions": list(self._interactions),
            "leaders": self._leaders,
        }

    def restore(self, snapshot: dict) -> None:
        """Rewind to a state captured by :meth:`snapshot` (same simulation)."""
        self._codes = [self._intern(state) for state in snapshot["states"]]
        if len(self._coded) >= self._rebuild_at:
            self._rebuild()  # keeps every code below the stride
        if self._rng is not None:
            self._rng.setstate(snapshot["stream"])
        else:
            self._scheduler.setstate(snapshot["stream"])
        self._total_steps = snapshot["total_steps"]
        self._effective_steps = snapshot["effective_steps"]
        self._interactions = list(snapshot["interactions"])
        self._leaders = snapshot["leaders"]

    # ------------------------------------------------------------------ #
    # The lazy table
    # ------------------------------------------------------------------ #
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

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
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
            # uniformly random scheduler.
            randrange = self._rng.randrange_callable()
            num_arcs = self._num_arcs
            if self._arc_list is not None:
                arc_list = self._arc_list
                arcs = [arc_list[randrange(num_arcs)] for _ in range(count)]
            else:
                arc_by_index = self._population.arc_by_index
                arcs = [arc_by_index(randrange(num_arcs)) for _ in range(count)]
        codes = self._codes
        stride = self._stride
        lookup = self._table.get
        fill = self._fill
        counts = self._interactions
        effective = 0
        leaders = self._leaders
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
        self._total_steps += len(arcs)
        self._effective_steps += effective
        self._leaders = leaders
        if exhausted is not None:
            raise exhausted


def batched_simulation_factory(
    protocol: Protocol[StateT],
    population: Population,
    initial: Configuration[StateT],
    rng: RandomSource,
) -> BatchedSimulation[StateT]:
    """Batched counterpart of ``default_simulation_factory``.

    Consumes exactly one ``rng.randint`` draw — the same draw, in the same
    position, as the step-engine factory — so switching engines never shifts
    any other random stream and per-trial results stay bit-identical.
    """
    return BatchedSimulation(
        protocol, population, initial,
        rng=rng.randint(0, 2 ** 31 - 1),
    )


class _BlockDraws:
    """Vectorized, bit-exact replica of a :class:`RandomSource`'s
    ``randrange(upper)`` stream.

    ``random.Random.randrange`` reduces to ``_randbelow``: take the top
    ``k = upper.bit_length()`` bits of one generator word (two words when
    ``k > 32``, packed low-word-first with the last word right-shifted — the
    ``getrandbits`` layout) and redraw while the value is ``>= upper``.
    Applied to the flat word stream, the rejection rule is a *filter*: the
    ``i``-th accepted candidate equals the ``i``-th ``randrange`` result, and
    the words consumed are exactly those up to that acceptance.  This class
    pulls words in bulk (:meth:`RandomSource.randbits_words`), filters them
    vectorized, and tracks the consumption point so every block of draws is
    identical to per-call ``randrange`` on the same seed.

    The source is owned by this stream once constructed (bulk reads advance
    it past unconsumed buffered words).
    """

    _MIN_REFILL_WORDS = 32_768

    def __init__(self, source: RandomSource) -> None:
        import numpy

        self._numpy = numpy
        self._source = source
        self._buffer = numpy.empty(0, dtype=numpy.uint32)
        # Acceptance filter, recomputed per refill (and on an upper change):
        # accepted randrange values in stream order, the word index of each
        # acceptance (for exact consumption tracking), and a cursor into both.
        self._filter_upper = 0
        self._filter_words_per_draw = 1
        self._accepted = numpy.empty(0, dtype=numpy.int64)
        self._accepted_word = numpy.empty(0, dtype=numpy.int64)
        self._cursor = 0

    def _consumed_words(self) -> int:
        """Words of the current buffer consumed by the draws handed out."""
        if self._cursor == 0:
            return 0
        return (int(self._accepted_word[self._cursor - 1]) + 1) \
            * self._filter_words_per_draw

    def _refilter(self, upper: int, k: int, words_per_draw: int) -> None:
        """Apply the ``_randbelow`` rejection rule to the whole buffer."""
        numpy = self._numpy
        window = self._buffer
        if words_per_draw == 1:
            candidates = window >> numpy.uint32(32 - k)
            mask = candidates < upper
        else:
            pairs = window[:(window.size // 2) * 2].astype(numpy.uint64).reshape(-1, 2)
            candidates = (
                pairs[:, 0]
                | ((pairs[:, 1] >> numpy.uint64(64 - k)) << numpy.uint64(32))
            )
            mask = candidates < upper
        self._accepted_word = numpy.flatnonzero(mask)
        self._accepted = candidates[self._accepted_word].astype(numpy.int64)
        self._cursor = 0
        self._filter_upper = upper
        self._filter_words_per_draw = words_per_draw

    def _refill(self, upper: int, k: int, words_per_draw: int,
                minimum_words: int) -> None:
        numpy = self._numpy
        words = max(minimum_words, self._MIN_REFILL_WORDS)
        fresh = numpy.frombuffer(self._source.randbits_words(words), dtype="<u4")
        leftover = self._buffer[self._consumed_words():]
        self._buffer = numpy.concatenate((leftover, fresh)) if leftover.size else fresh
        self._refilter(upper, k, words_per_draw)

    def block(self, upper: int, count: int):
        """``count`` consecutive ``randrange(upper)`` draws as an ``int64`` array."""
        k = upper.bit_length()
        if not 1 <= k <= 63:
            raise InvalidParameterError(
                f"randrange upper bound out of the vectorized range: {upper}"
            )
        words_per_draw = 1 if k <= 32 else 2
        if upper != self._filter_upper:
            # Re-key the filter on the (rare) upper change, preserving the
            # unconsumed word stream exactly.
            self._buffer = self._buffer[self._consumed_words():]
            self._refilter(upper, k, words_per_draw)
        while self._accepted.size - self._cursor < count:
            # Words for the missing acceptances at rate upper / 2^k (>= 1/2),
            # plus variance margin; a short refill simply loops.
            missing = count - (self._accepted.size - self._cursor)
            estimate = (int(missing * ((1 << k) / upper) * 1.04) + 64) * words_per_draw
            self._refill(upper, k, words_per_draw, estimate)
        cursor = self._cursor
        self._cursor = cursor + count
        return self._accepted[cursor:cursor + count]

    def getstate(self) -> tuple:
        """Snapshot of the draw stream: source state plus buffered filter.

        The buffer/acceptance arrays are only ever *reassigned* (never
        mutated in place) by :meth:`_refill`/:meth:`_refilter`, but copies
        are taken anyway so a held snapshot can never alias live arrays.
        """
        return (
            self._source.getstate(),
            self._buffer.copy(),
            self._filter_upper,
            self._filter_words_per_draw,
            self._accepted.copy(),
            self._accepted_word.copy(),
            self._cursor,
        )

    def setstate(self, state: tuple) -> None:
        """Rewind to a stream position captured by :meth:`getstate`."""
        (source_state, buffer, upper, words_per_draw,
         accepted, accepted_word, cursor) = state
        self._source.setstate(source_state)
        self._buffer = buffer.copy()
        self._filter_upper = upper
        self._filter_words_per_draw = words_per_draw
        self._accepted = accepted.copy()
        self._accepted_word = accepted_word.copy()
        self._cursor = cursor


class NumpySimulation(_TableSimulation[StateT]):
    """The vectorized third engine tier: block replay over ``numpy`` arrays.

    API and semantics mirror :class:`BatchedSimulation` (the same
    constructor plus a compiled ``encoder``, which is built from the initial
    configuration when omitted; the same accessors; the same equivalence
    contract with :class:`Simulation`); the execution strategy differs:

    * arc indices come from :class:`_BlockDraws` (the exact ``randrange``
      stream, recovered from bulk generator words) or, under an explicit
      scheduler, from per-step ``next_arc`` calls batched into arrays;
    * each block is partitioned into conflict-free layers by iterated
      first-occurrence peeling: a step is ready when no *earlier unapplied*
      step touches either of its agents, so layer members commute and apply
      as one gather through the transition tables plus two scatters;
    * ``steps`` / ``effective_steps`` / per-agent counts / the leader count
      are vectorized reductions (``bincount`` and table-gather sums).

    Construction requires numpy (:class:`InvalidParameterError` otherwise);
    selection paths gate on :func:`numpy_available` first.  When constructed
    from an ``rng``, the simulation owns that source (bulk word reads
    advance it ahead of any per-call consumer).
    """

    tier = "numpy"

    def __init__(
        self,
        protocol: Protocol[StateT],
        population: Population,
        initial: Configuration[StateT],
        scheduler: Optional[Scheduler] = None,
        rng: "RandomSource | int | None" = None,
        encoder: "StateEncoder[StateT] | None" = None,
        max_states: int = DEFAULT_MAX_STATES,
    ) -> None:
        numpy = _require_numpy()
        if len(initial) != population.size:
            raise InvalidConfigurationError(
                f"configuration has {len(initial)} agents but the population has "
                f"{population.size}"
            )
        # Shared immutable structure (module handle, protocol, topology,
        # compiled tables, layout constants, read-only scratch index
        # vectors): identical across snapshot/restore by construction.
        self._numpy = numpy  # repro: allow[REP006]
        self._protocol = protocol  # repro: allow[REP006]
        self._population = population  # repro: allow[REP006]
        self._encoder = encoder if encoder is not None else StateEncoder.build(  # repro: allow[REP006]
            protocol, initial.states(), max_states=max_states
        )
        self._codes = numpy.array(self._encoder.encode_all(initial.states()),
                                  dtype=numpy.int64)
        tables = self._encoder.numpy_tables()
        self._initiator_out = tables["initiator_out"]  # repro: allow[REP006]
        self._responder_out = tables["responder_out"]  # repro: allow[REP006]
        self._changed = tables["changed"]  # repro: allow[REP006]
        self._leader_delta = tables["leader_delta"]  # repro: allow[REP006]
        self._width = self._encoder.num_states  # repro: allow[REP006]
        self._leaders = int(tables["leader_flags"][self._codes].sum())
        self._scheduler = scheduler
        self._draws = None if scheduler is not None else _BlockDraws(ensure_source(rng))
        self._num_arcs = population.num_arcs  # repro: allow[REP006]
        size = population.size
        self._interactions = numpy.zeros(size, dtype=numpy.int64)
        self._total_steps = 0
        self._effective_steps = 0
        # Half the population size balances conflict-layer count (which
        # grows with block/n) against per-block fixed costs (measured
        # optimum on the ring benchmarks), inside the global clamps.
        self._block = max(_MIN_NUMPY_BLOCK, min(_MAX_NUMPY_BLOCK, size // 2))  # repro: allow[REP006]
        # Scratch arrays reused across blocks (see _apply_block); int32 —
        # they hold in-block positions, never agent indices — to halve the
        # per-pass fill/scatter/gather traffic.  Overwritten before every
        # read, so they carry no run state across a restore.
        self._first_initiator = numpy.empty(size, dtype=numpy.int32)  # repro: allow[REP006]
        self._first_responder = numpy.empty(size, dtype=numpy.int32)  # repro: allow[REP006]
        self._ascending = numpy.arange(self._block, dtype=numpy.int32)  # repro: allow[REP006]
        self._descending = self._ascending[::-1].copy()  # repro: allow[REP006]

    # ------------------------------------------------------------------ #
    # Accessors (mirroring BatchedSimulation)
    # ------------------------------------------------------------------ #
    @property
    def encoder(self) -> StateEncoder[StateT]:
        """The compiled state encoder driving this simulation."""
        return self._encoder

    @property
    def metrics(self) -> StepMetrics:
        """Step metrics snapshot, materialized from the vectorized counters."""
        counts = self._interactions
        per_agent = {
            int(agent): int(counts[agent])
            for agent in self._numpy.flatnonzero(counts)
        }
        return StepMetrics(
            steps=self._total_steps,
            interactions_per_agent=per_agent,
            effective_steps=self._effective_steps,
        )

    def state_of(self, agent: int) -> StateT:
        """Current state of one agent; out-of-range indices raise ``IndexError``."""
        if not 0 <= agent < self._codes.shape[0]:
            raise IndexError(
                f"agent {agent} out of range for a population of "
                f"{self._codes.shape[0]}"
            )
        return self._encoder.decode(int(self._codes[agent]))

    def states(self) -> List[StateT]:
        """Snapshot of the agent states (decoded fresh on every call)."""
        return self._encoder.decode_all(self._codes.tolist())

    def codes(self) -> List[int]:
        """Snapshot of the integer state array as a plain list."""
        return self._codes.tolist()

    def configuration(self) -> Configuration[StateT]:
        """Immutable snapshot of the current configuration."""
        return Configuration(self._encoder.decode_all(self._codes.tolist()))

    def _view(self) -> List[StateT]:
        return self._encoder.decode_view(self._codes.tolist())

    # ------------------------------------------------------------------ #
    # State capture (the engine snapshot/restore contract)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Capture the full execution state (same contract as ``Simulation``).

        In rng mode the stream snapshot includes :class:`_BlockDraws`'
        buffered-but-unconsumed generator words, so a restore resumes the
        ``randrange`` stream at the exact draw the capture was taken at.
        """
        return {
            "codes": self._codes.copy(),
            "stream": (self._draws.getstate() if self._draws is not None
                       else self._scheduler.getstate()),
            "total_steps": self._total_steps,
            "effective_steps": self._effective_steps,
            "interactions": self._interactions.copy(),
            "leaders": self._leaders,
        }

    def restore(self, snapshot: dict) -> None:
        """Rewind to a state captured by :meth:`snapshot` (same simulation)."""
        self._codes = snapshot["codes"].copy()
        if self._draws is not None:
            self._draws.setstate(snapshot["stream"])
        else:
            self._scheduler.setstate(snapshot["stream"])
        self._total_steps = snapshot["total_steps"]
        self._effective_steps = snapshot["effective_steps"]
        self._interactions = snapshot["interactions"].copy()
        self._leaders = snapshot["leaders"]

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _apply_block(self, initiators, responders) -> None:
        """Apply one block of interactions through the tables, vectorized.

        The block is peeled into conflict-free layers: each pass applies
        every step whose agents' *first occurrence* among the still-unapplied
        steps is the step itself.  Within a layer no agent repeats (a later
        step sharing an agent sees that agent's earlier occurrence), and the
        earliest unapplied step is always ready, so the loop terminates in
        at most max-multiplicity passes.  Per-agent state order — and hence
        the final configuration, effective-step count, and leader count — is
        exactly the sequential one.
        """
        numpy = self._numpy
        block = initiators.shape[0]
        if block == 0:
            return
        codes = self._codes
        width = self._width
        initiator_out = self._initiator_out
        responder_out = self._responder_out
        first_initiator = self._first_initiator
        first_responder = self._first_responder
        ascending = self._ascending
        descending = self._descending
        far = self._block  # larger than any in-layer position
        size = self._interactions.shape[0]
        self._interactions += numpy.bincount(initiators, minlength=size)
        self._interactions += numpy.bincount(responders, minlength=size)
        applied_pairs = []
        while True:
            remaining = initiators.shape[0]
            first_initiator.fill(far)
            first_responder.fill(far)
            # Reversed scatter: last write wins, so each agent slot ends at
            # its smallest position — its first occurrence this pass.
            first_initiator[initiators[::-1]] = descending[self._block - remaining:]
            first_responder[responders[::-1]] = descending[self._block - remaining:]
            earliest = numpy.minimum(first_initiator, first_responder,
                                     out=first_initiator)
            positions = ascending[:remaining]
            ready = (earliest[initiators] == positions) \
                & (earliest[responders] == positions)
            chosen = numpy.flatnonzero(ready)
            layer_initiators = initiators[chosen]
            layer_responders = responders[chosen]
            pair_codes = codes[layer_initiators] * width + codes[layer_responders]
            codes[layer_initiators] = initiator_out[pair_codes]
            codes[layer_responders] = responder_out[pair_codes]
            applied_pairs.append(pair_codes)
            if chosen.shape[0] == remaining:
                break
            deferred = numpy.flatnonzero(~ready)
            initiators = initiators[deferred]
            responders = responders[deferred]
        all_pairs = (numpy.concatenate(applied_pairs)
                     if len(applied_pairs) > 1 else applied_pairs[0])
        self._effective_steps += int(self._changed[all_pairs].sum())
        self._leaders += int(self._leader_delta[all_pairs].sum())
        self._total_steps += block

    def _advance(self, count: int) -> None:
        """Execute ``count <= block`` interactions (one vectorized block)."""
        if self._draws is not None:
            indices = self._draws.block(self._num_arcs, count)
            initiators, responders = self._population.numpy_endpoints(indices)
            self._apply_block(initiators, responders)
            return
        # Scheduler mode: batch per-step next_arc() calls into one block;
        # on exhaustion apply the executed prefix, then propagate — the
        # counters end exactly at the prefix, matching the other engines.
        numpy = self._numpy
        next_arc = self._scheduler.next_arc
        arcs = []
        error = None
        try:
            for _ in range(count):
                arcs.append(next_arc())
        except ScheduleExhaustedError as exhausted:
            error = exhausted
        if arcs:
            pairs = numpy.array(arcs, dtype=numpy.int64)
            self._apply_block(numpy.ascontiguousarray(pairs[:, 0]),
                              numpy.ascontiguousarray(pairs[:, 1]))
        if error is not None:
            raise error


def numpy_simulation_factory(
    protocol: Protocol[StateT],
    population: Population,
    initial: Configuration[StateT],
    rng: RandomSource,
    encoder: "StateEncoder[StateT] | None" = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> NumpySimulation[StateT]:
    """Vectorized counterpart of the other engine factories.

    Consumes exactly one ``rng.randint`` draw — the same draw, in the same
    position, as the step and batched factories — so switching engines never
    shifts any other random stream and per-trial results stay bit-identical.
    """
    return NumpySimulation(
        protocol, population, initial,
        rng=rng.randint(0, 2 ** 31 - 1),
        encoder=encoder, max_states=max_states,
    )
