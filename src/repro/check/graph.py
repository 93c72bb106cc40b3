"""The explicit configuration graph of a compiled protocol, and its SCCs.

The dynamic experiments sample convergence from a handful of adversarial
starts; *self-stabilization* claims much more — convergence from **every**
configuration.  For protocols whose state space encodes
(:class:`repro.core.encoding.StateEncoder`) and small populations, that
universal claim is finitely checkable: a configuration of ``n`` agents is a
mixed-radix integer over ``|Q|`` digits, each scheduler-enabled interaction
is one arc of the population graph applied through the compiled transition
table, and the whole configuration space is ``|Q|^n`` nodes whose strongly
connected components answer the three verification questions directly:

* **closure** — no edge leaves the legal set;
* **stabilization reachability** — every component can reach a component
  containing a legal configuration;
* **livelock freedom** — no *bottom* (sink) component is legal-free, i.e.
  the protocol cannot be trapped cycling forever through illegal
  configurations.

Everything here is pure python and deliberately protocol-agnostic: the
graph is defined by ``(num_states, num_agents, arcs, tables)`` and a legal
mask, nothing else.  :mod:`repro.check.model` layers the registry-aware
spec verdicts on top.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.errors import InvalidParameterError

#: Configuration-count ceiling a caller should stay under for interactive
#: checks: ~1e6 configs keeps a full SCC analysis in single-digit seconds
#: of pure python (measured: 96^3 = 884736 configs in ~5 s).
DEFAULT_MAX_CONFIGS = 1_000_000


class ConfigurationGraph:
    """``|Q|^n`` configurations as mixed-radix integers, edges by table.

    A configuration id encodes agent ``i``'s state code as digit ``i``
    (least significant first): ``cid = sum(code_i * |Q|^i)``.  The
    successor under arc ``(u, v)`` is a constant-time digit update, so the
    graph is generated on the fly — no adjacency lists are materialised.
    Self-loop edges (``changed`` false) are skipped: they never affect
    SCCs, reachability, or closure.
    """

    def __init__(self, num_states: int, num_agents: int,
                 arcs: Sequence[Tuple[int, int]],
                 initiator_out: Sequence[int],
                 responder_out: Sequence[int],
                 changed: Sequence[bool]) -> None:
        if num_states < 1:
            raise InvalidParameterError(
                f"num_states must be >= 1, got {num_states}")
        if num_agents < 1:
            raise InvalidParameterError(
                f"num_agents must be >= 1, got {num_agents}")
        if len(initiator_out) != num_states * num_states:
            raise InvalidParameterError(
                f"table width mismatch: {len(initiator_out)} entries for "
                f"|Q|={num_states} (expected {num_states * num_states})")
        self.num_states = num_states
        self.num_agents = num_agents
        self.arcs = [(int(u), int(v)) for (u, v) in arcs]
        for (u, v) in self.arcs:
            if not (0 <= u < num_agents and 0 <= v < num_agents):
                raise InvalidParameterError(
                    f"arc ({u}, {v}) is outside the agent range "
                    f"0..{num_agents - 1}")
        self._initiator_out = initiator_out
        self._responder_out = responder_out
        self._changed = changed
        self._weights = [num_states ** i for i in range(num_agents)]

    @property
    def num_configs(self) -> int:
        """``|Q|^n``: total number of configurations."""
        return self.num_states ** self.num_agents

    def digits(self, cid: int) -> List[int]:
        """Agent state codes of configuration ``cid``, in agent order."""
        out = []
        width = self.num_states
        for _ in range(self.num_agents):
            cid, digit = divmod(cid, width)
            out.append(digit)
        return out

    def encode(self, codes: Sequence[int]) -> int:
        """Configuration id of per-agent state ``codes`` (inverse of digits)."""
        if len(codes) != self.num_agents:
            raise InvalidParameterError(
                f"expected {self.num_agents} agent codes, got {len(codes)}")
        return sum(map(mul, codes, self._weights))

    def successors(self, cid: int) -> List[int]:
        """Configurations one *state-changing* interaction away from ``cid``.

        One entry per enabled arc whose compiled transition changes some
        state; duplicates are possible (two arcs producing the same
        successor) and harmless to every analysis below.
        """
        width = self.num_states
        digits = self.digits(cid)
        ti = self._initiator_out
        tr = self._responder_out
        changed = self._changed
        weights = self._weights
        out = []
        for (u, v) in self.arcs:
            du = digits[u]
            dv = digits[v]
            qq = du * width + dv
            if changed[qq]:
                out.append(cid + (ti[qq] - du) * weights[u]
                           + (tr[qq] - dv) * weights[v])
        return out

    def legal_mask(self, predicate: Callable[[List[object]], bool],
                   states: Sequence[object]) -> bytearray:
        """Per-configuration truth of ``predicate`` over decoded states.

        ``states`` maps state code -> state object (the encoder's decode
        view); the predicate receives the configuration as a list of state
        objects in agent order, exactly as the simulator's stop predicate
        does.
        """
        width = self.num_states
        n = self.num_agents
        mask = bytearray(self.num_configs)
        for cid in range(self.num_configs):
            x = cid
            decoded = []
            for _ in range(n):
                x, digit = divmod(x, width)
                decoded.append(states[digit])
            if predicate(decoded):
                mask[cid] = 1
        return mask


@dataclass
class SCCResult:
    """Tarjan output: ``component[cid]`` and the component count.

    Components are numbered in **reverse topological order**: for every
    edge ``u -> w`` crossing components, ``component[u] >= component[w]``.
    Sinks therefore carry the smallest ids, which is what lets
    :func:`components_reaching` propagate reachability in one ascending
    pass.
    """

    component: array
    count: int


def tarjan_components(graph: ConfigurationGraph) -> SCCResult:
    """Strongly connected components of the full configuration graph.

    Iterative Tarjan (an explicit work stack instead of recursion — the
    graph has up to ~1e6 nodes, far beyond any recursion limit), one
    successor expansion per node cached for the duration of its stack
    frame.
    """
    total = graph.num_configs
    index = array("l", [-1]) * total
    low = array("l", [0]) * total
    component = array("l", [-1]) * total
    on_stack = bytearray(total)
    stack: List[int] = []
    counter = 0
    count = 0
    successors = graph.successors
    for root in range(total):
        if index[root] != -1:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        frame_succs = {}
        while work:
            node, cursor = work.pop()
            if cursor == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = 1
                frame_succs[node] = successors(node)
            else:
                returned = frame_succs[node][cursor - 1]
                if low[returned] < low[node]:
                    low[node] = low[returned]
            succs = frame_succs[node]
            descended = False
            for position in range(cursor, len(succs)):
                succ = succs[position]
                if index[succ] == -1:
                    work.append((node, position + 1))
                    work.append((succ, 0))
                    descended = True
                    break
                if on_stack[succ] and index[succ] < low[node]:
                    low[node] = index[succ]
            if descended:
                continue
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    component[member] = count
                    if member == node:
                        break
                count += 1
            del frame_succs[node]
    return SCCResult(component=component, count=count)


def closure_violations(graph: ConfigurationGraph, legal: bytearray,
                       limit: int = 5) -> List[Tuple[int, int]]:
    """Edges that leave the legal set, up to ``limit`` examples.

    Empty means the legal set is *closed* (the stop predicate is
    absorbing): once a configuration satisfies it, no enabled interaction
    can falsify it.  Predicates that mark an *event* rather than an
    invariant (e.g. "a sole undisputed leader exists right now") fail this
    check by design; :mod:`repro.check.model` lets a spec scope the claim.
    """
    violations: List[Tuple[int, int]] = []
    for cid in range(graph.num_configs):
        if not legal[cid]:
            continue
        for succ in graph.successors(cid):
            if not legal[succ]:
                violations.append((cid, succ))
                if len(violations) >= limit:
                    return violations
    return violations


def component_has(graph: ConfigurationGraph, scc: SCCResult,
                  mask: bytearray) -> List[bool]:
    """Per-component: does any member configuration satisfy ``mask``?"""
    flags = [False] * scc.count
    component = scc.component
    for cid in range(graph.num_configs):
        if mask[cid]:
            flags[component[cid]] = True
    return flags


def components_reaching(graph: ConfigurationGraph, scc: SCCResult,
                        target: List[bool]) -> List[bool]:
    """Per-component: can it reach a component where ``target`` holds?

    Single pass exploiting the reverse-topological component numbering:
    every edge points from a higher (or equal) component id to a lower
    one, so visiting configurations grouped by *ascending* component id
    sees each edge only after its head's component verdict is final.
    """
    reaches = list(target)
    component = scc.component
    order = sorted(range(graph.num_configs), key=component.__getitem__)
    for cid in order:
        home = component[cid]
        if reaches[home]:
            continue
        for succ in graph.successors(cid):
            if reaches[component[succ]]:
                reaches[home] = True
                break
    return reaches


def bottom_components(graph: ConfigurationGraph,
                      scc: SCCResult) -> List[bool]:
    """Per-component: is it a *bottom* (no edge leaves it)?

    A run that enters a bottom component never leaves; a bottom component
    with no legal configuration is a livelock certificate.
    """
    is_bottom = [True] * scc.count
    component = scc.component
    for cid in range(graph.num_configs):
        home = component[cid]
        if not is_bottom[home]:
            continue
        for succ in graph.successors(cid):
            if component[succ] != home:
                is_bottom[home] = False
                break
    return is_bottom


@dataclass
class GraphAnalysis:
    """Everything one full-graph verification pass establishes."""

    num_configs: int
    num_legal: int
    scc_count: int
    #: Up to five ``(legal_cid, illegal_successor_cid)`` example edges;
    #: empty iff the legal set is closed.
    closure_violations: List[Tuple[int, int]] = field(default_factory=list)
    #: Components from which no legal configuration is reachable.
    unreachable_components: int = 0
    #: Example configuration id inside an unreachable component (or None).
    unreachable_example: Optional[int] = None
    bottom_components: int = 0
    #: Bottom components containing no legal configuration (livelocks).
    livelock_components: int = 0
    livelock_example: Optional[int] = None

    @property
    def closed(self) -> bool:
        return not self.closure_violations

    @property
    def stabilizing(self) -> bool:
        """A legal configuration is reachable from every configuration."""
        return self.unreachable_components == 0

    @property
    def livelock_free(self) -> bool:
        return self.livelock_components == 0


def analyze(graph: ConfigurationGraph, legal: bytearray,
            violation_limit: int = 5) -> GraphAnalysis:
    """Run the whole battery: closure, reachability, livelock detection."""
    if len(legal) != graph.num_configs:
        raise InvalidParameterError(
            f"legal mask covers {len(legal)} configurations, "
            f"graph has {graph.num_configs}")
    scc = tarjan_components(graph)
    has_legal = component_has(graph, scc, legal)
    reaches_legal = components_reaching(graph, scc, has_legal)
    bottoms = bottom_components(graph, scc)
    analysis = GraphAnalysis(
        num_configs=graph.num_configs,
        num_legal=sum(legal),
        scc_count=scc.count,
        closure_violations=closure_violations(graph, legal,
                                              limit=violation_limit),
        unreachable_components=sum(1 for flag in reaches_legal if not flag),
        bottom_components=sum(bottoms),
        livelock_components=sum(
            1 for home in range(scc.count)
            if bottoms[home] and not has_legal[home]),
    )
    if not analysis.stabilizing or not analysis.livelock_free:
        component = scc.component
        for cid in range(graph.num_configs):
            home = component[cid]
            if (analysis.unreachable_example is None
                    and not reaches_legal[home]):
                analysis.unreachable_example = cid
            if (analysis.livelock_example is None
                    and bottoms[home] and not has_legal[home]):
                analysis.livelock_example = cid
            if (analysis.unreachable_example is not None
                    and (analysis.livelock_example is not None
                         or analysis.livelock_free)):
                break
    return analysis
