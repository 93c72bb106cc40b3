"""Traced re-run of one workload command, with a span at each layer boundary.

    python3 perfbench/tracing.py --spans FILE -- -m repro.cli scaling --sizes 32,64
    python3 perfbench/tracing.py --spans FILE -- perfbench/quant_point.py yokota2021 --n 2
    python3 perfbench/tracing.py --pieces FILE --unit repro.api.executor:execute_trial \
        -- -m repro.cli scaling --sizes 32,64

runs the command in this process, as ``python3 <command>`` would, after
wrapping the public functions each layer is entered through (``TARGETS``).
A wrapper looks its target up by module and attribute name when it is
installed, so a function that a refactor deleted or renamed is reported
``absent`` instead of breaking the run.  Span totals and counters stay in
memory and are written to FILE as JSON when the command returns.

A span's *self* time is its duration minus the duration of the spans it
called.  The wrappers live here, outside the program: spans inside ``src/``
are a separate change.

With ``--pieces`` instead of ``--spans`` the command is cut into pieces,
the samples of the benchmark's timed runs (``run.py``), and FILE gets their
durations in order.  A piece runs from one *mark* to the next inside a call
of the ``--unit`` function; marks are the entry and exit of that call, of
each ``--mark`` function and of each ``import`` statement, and every call of
a stop predicate the registry builds (``PREDICATE_BUILDER``).  The marks fall
at the same points of the work in every run of the command, so piece ``i``
of one run is the same work as piece ``i`` of any other.  FILE holds one
list of durations per call of the unit.  Without ``--unit``, or when it is
absent, the unit is the whole command, loading its entry module included.
"""

from __future__ import annotations

import argparse
import builtins
import functools
import importlib
import importlib.abc
import importlib.util
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence

perf_counter = time.perf_counter

#: Marks a wrapper, so a function reached twice (a re-export, a protocol
#: instance the registry hands out again) is wrapped once.
_WRAPPED = "__perfbench_wrapped__"

#: ``hook(*args, **kwargs)`` runs before a traced call and returns
#: ``done(result) -> (counter increments, result to return)``, run after
#: it.  Both stay outside the span's time.
Hook = Callable[..., Callable[[object], tuple]]


class Tracer:
    """In-memory span totals: per span name ``[calls, total_s, self_s]``."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}
        self.counters: Counter = Counter()
        #: Time inside outermost spans (those entered with no span open).
        self.top_s = 0.0
        self._open: List[float] = []  # child time of each open span

    def wrap(self, span: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        """``fn``, timed as ``span``."""
        stats = self.spans.setdefault(span, [0, 0.0, 0.0])
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            done = hook(*args, **kwargs) if hook is not None else None
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                else:
                    self.top_s += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
            if done is None:
                return result
            counts, result = done(result)
            self.counters.update(counts)
            return result

        setattr(traced, _WRAPPED, True)
        return traced

    def snapshot(self) -> Dict[str, object]:
        return {
            "spans": {name: {"calls": int(calls), "total_s": total, "self_s": own}
                      for name, (calls, total, own) in self.spans.items()},
            "counters": dict(self.counters),
            "top_s": self.top_s,
        }


# ---------------------------------------------------------------------- #
# Hooks: counters read, and results wrapped, at the layer boundaries
# ---------------------------------------------------------------------- #
def _effective_steps(simulation) -> int:
    value = getattr(simulation, "effective_steps", None)
    if value is None:
        value = getattr(getattr(simulation, "metrics", None), "effective_steps", 0)
    return int(value or 0)


def _run_until(layer: str) -> Callable[[Tracer], Hook]:
    def make(tracer: Tracer) -> Hook:
        def hook(simulation, *args, **kwargs):
            before = _effective_steps(simulation)

            def done(run):
                return ({f"{layer}.steps": int(getattr(run, "steps", 0)),
                         f"{layer}.effective": _effective_steps(simulation) - before},
                        run)
            return done
        return hook
    return make


def _after(count: Callable[[object], Dict[str, int]]) -> Callable[[Tracer], Hook]:
    """A hook that only reads counters from the result."""
    def done(result):
        return count(result), result
    return lambda tracer: (lambda *args, **kwargs: done)


def _quotient(tracer: Tracer) -> Hook:
    def hook(graph, *args, **kwargs):
        return lambda result: (
            {"check.symmetry.orbits": int(getattr(graph, "num_configs", 0))}, result)
    return hook


def _protocol(tracer: Tracer) -> Hook:
    """Time the ``transition`` of the protocol the registry returns."""
    def done(protocol):
        transition = getattr(protocol, "transition", None)
        if transition is not None and not getattr(transition, _WRAPPED, False):
            protocol.transition = tracer.wrap("protocols.transition", transition)
        return {}, protocol
    return lambda *args, **kwargs: done


def _predicate(tracer: Tracer) -> Hook:
    """Time the stop predicate the registry builds and count its hits."""
    def hit(satisfied):
        return ({"protocols.predicate.hits": 1} if satisfied else {}), satisfied

    def done(predicate):
        return {}, tracer.wrap("protocols.predicate", predicate,
                               lambda *args, **kwargs: hit)
    return lambda *args, **kwargs: done


#: (span, "module:attribute path", hook maker or None).
TARGETS = (
    ("api.registry.build", "repro.api.registry:ProtocolSpec.build_protocol", _protocol),
    ("api.registry.build", "repro.api.registry:ProtocolSpec.build_population", None),
    ("api.registry.build", "repro.api.registry:ProtocolSpec.build_configuration", None),
    ("api.registry.build", "repro.api.registry:ProtocolSpec.build_stop_predicate",
     _predicate),
    ("api.registry.build_simulation",
     "repro.api.registry:ProtocolSpec.build_simulation", None),
    ("api.executor.execute_trial", "repro.api.executor:execute_trial", None),
    ("core.encoding.build", "repro.core.encoding:StateEncoder.build",
     _after(lambda encoder: {"core.encoding.builds": 1,
                             "core.encoding.states": int(encoder.num_states)})),
    ("core.simulator.run_until", "repro.core.simulator:Simulation.run_until",
     _run_until("core.simulator")),
    ("core.fast_simulator.run_until",
     "repro.core.fast_simulator:BatchedSimulation.run_until",
     _run_until("core.fast_simulator")),
    ("core.fast_simulator.run_until",
     "repro.core.fast_simulator:NumpySimulation.run_until",
     _run_until("core.fast_simulator")),
    ("check.model.select_point", "repro.check.model:select_point", None),
    ("check.symmetry.quotient", "repro.check.symmetry:QuotientGraph.__init__",
     _quotient),
    ("check.probability.hitting_times", "repro.check.probability:hitting_times",
     _after(lambda times: {"check.probability.sweeps": int(getattr(times, "sweeps", 0)),
                           "check.probability.transient":
                               int(getattr(times, "transient", 0))})),
    ("check.quant.cross_validate", "repro.check.quant:_cross_validate", None),
)

#: Spans entered through the result of another target: present when it is.
DERIVED = {"protocols.transition": "repro.api.registry:ProtocolSpec.build_protocol",
           "protocols.predicate": "repro.api.registry:ProtocolSpec.build_stop_predicate"}


def _resolve(target: str):
    """``(owner, name, value)`` of ``"module:Attr.path"``; raises on absence."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # Patch the class that defines the attribute, so an inherited method
        # is wrapped once, where it lives.
        for klass in owner.__mro__:
            if name in vars(klass):
                return klass, name, vars(klass)[name]
        raise AttributeError(f"{owner.__name__} has no attribute {name!r}")
    return owner, name, getattr(owner, name)


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every loaded ``repro`` module's import of ``original`` at
    ``wrapper``: ``from x import f`` copies the binding at import time."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _patch(target: str, make: Callable[[Callable], Callable]) -> bool:
    """Replace ``target`` ("module:attribute") by ``make(target)``; False,
    and nothing replaced, when it is absent."""
    try:
        owner, name, value = _resolve(target)
    except (ImportError, AttributeError):
        return False
    if isinstance(value, (classmethod, staticmethod)):
        setattr(owner, name, type(value)(make(value.__func__)))
    else:
        wrapper = make(value)
        setattr(owner, name, wrapper)
        if not isinstance(owner, type):
            _rebind(value, wrapper)
    return True


def install(tracer: Tracer, targets=TARGETS) -> Dict[str, str]:
    """Wrap every target; returns ``{span: "ok" | "absent"}``.

    A span is absent when none of its targets resolved; a ``DERIVED`` span
    when the target whose result it wraps did not.
    """
    found: Dict[str, bool] = {}
    status: Dict[str, str] = {}
    for span, target, make_hook in targets:
        hook = make_hook(tracer) if make_hook is not None else None

        def wrap(fn: Callable, span: str = span, hook: Optional[Hook] = hook) -> Callable:
            return fn if getattr(fn, _WRAPPED, False) else tracer.wrap(span, fn, hook)

        found[target] = _patch(target, wrap)
        if found[target]:
            status[span] = "ok"
        else:
            status.setdefault(span, "absent")
    for span, source in DERIVED.items():
        status[span] = "ok" if found.get(source) else "absent"
    return status


class _ImportSpan(importlib.abc.MetaPathFinder):
    """Times the import of one top-level module as a span, wherever in the
    run it happens (numpy is imported lazily, by the tiers that use it)."""

    def __init__(self, tracer: Tracer, module: str, span: str) -> None:
        self._tracer, self._module, self._span = tracer, module, span
        self._finding = False

    def find_spec(self, fullname, path=None, target=None):
        if fullname != self._module or self._finding:
            return None
        self._finding = True  # let the other finders locate it
        try:
            spec = importlib.util.find_spec(fullname)
        finally:
            self._finding = False
        # Every lookup gets a fresh loader; the one the import executes is timed.
        if spec is not None and spec.loader is not None:
            spec.loader.exec_module = self._tracer.wrap(self._span,
                                                        spec.loader.exec_module)
        return spec


#: Its stop predicates mark a piece every ``check_interval`` steps.
PREDICATE_BUILDER = "repro.api.registry:ProtocolSpec.build_stop_predicate"


class Pieces:
    """Durations between consecutive marks inside calls of the timed unit,
    one list per call."""

    def __init__(self) -> None:
        self.calls: List[List[float]] = []
        self._last: Optional[float] = None  # the last mark; None outside the unit
        self._depth = 0

    def mark(self) -> None:
        if self._last is not None:
            now = perf_counter()
            self.calls[-1].append(now - self._last)
            self._last = now

    def unit(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._depth == 0:
                self.calls.append([])
                self._last = perf_counter()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.mark()
                    self._last = None
        return timed

    def marking(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            self.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark()
        return marked

    def marking_results(self, build: Callable) -> Callable:
        """``build``, whose results mark each call."""
        @functools.wraps(build)
        def built(*args, **kwargs):
            predicate = build(*args, **kwargs)

            @functools.wraps(predicate)
            def marked(*args, **kwargs):
                self.mark()
                return predicate(*args, **kwargs)
            return marked
        return built


def _load_entry(command: Sequence[str]):
    """Import the command's entry module; returns ``(main, argv)``.

    ``-m pkg.mod args`` imports ``pkg.mod``; ``path.py args`` loads the file
    as a module.  Either way the entry module has a ``main(argv) -> int``.
    ``-c code`` runs ``code`` as the entry.
    """
    if command[0] == "-c":
        return (lambda argv: exec(command[1], {"__name__": "__main__"})), []
    if command[0] == "-m":
        module = importlib.import_module(command[1])
        return module.main, list(command[2:])
    spec = importlib.util.spec_from_file_location("__perfbench_entry__", command[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main, list(command[1:])


def _call(entry: Callable, argv: List[str]) -> int:
    try:
        code = entry(argv)
    except SystemExit as stop:
        code = stop.code
    sys.stdout.flush()
    return 0 if code is None else code if isinstance(code, int) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    output = parser.add_mutually_exclusive_group(required=True)
    output.add_argument("--spans", help="JSON file to write the spans to")
    output.add_argument("--pieces", help="JSON file to write the piece durations to")
    parser.add_argument("--unit", help="module:attribute of the function --pieces "
                                       "cuts (default: the whole command)")
    parser.add_argument("--mark", action="append", default=[],
                        help="module:attribute of a function whose entry and exit "
                             "end a piece (repeatable)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-m MODULE ARGS..., SCRIPT ARGS... or -c CODE")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command to trace")
    if args.pieces is not None:
        pieces = Pieces()
        builtins.__import__ = pieces.marking(builtins.__import__)

        def mark() -> None:
            # Wrapped before the entry module loads, so that its imports of
            # these functions bind the wrappers.  Resolving them imports
            # most of the program.
            for target in args.mark:
                _patch(target, pieces.marking)
            _patch(PREDICATE_BUILDER, pieces.marking_results)

        def run() -> int:
            return _call(*_load_entry(command))

        present = args.unit is not None and _patch(args.unit, pieces.unit)
        if present:
            mark()
            code = run()
        else:
            # The whole command is the unit, its imports included.
            code = pieces.unit(lambda: (mark(), run())[1])()
        with open(args.pieces, "w", encoding="utf-8") as handle:
            json.dump({"unit": args.unit if present else "whole",
                       "pieces": pieces.calls, "exit_code": code}, handle)
        return code

    tracer = Tracer()
    sys.meta_path.insert(0, _ImportSpan(tracer, "numpy", "cli.numpy_import"))
    entry, entry_argv = tracer.wrap("cli.import", _load_entry)(command)
    started = perf_counter()
    status = install(tracer)
    install_s = perf_counter() - started
    code = _call(entry, entry_argv)
    with open(args.spans, "w", encoding="utf-8") as handle:
        json.dump({**tracer.snapshot(), "install_s": install_s,
                   "absent_spans": sorted(span for span, state in status.items()
                                          if state == "absent"),
                   "exit_code": code}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
