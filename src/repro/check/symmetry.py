"""Symmetry reduction: quotient the configuration graph by automorphisms.

The configuration space of an *anonymous* protocol (the compiled |Q|^2
transition table never reads agent identities) on a vertex-transitive
population carries a symmetry group: any graph automorphism ``g`` that
permutes the arc set bijectively commutes with the uniform scheduler's
transition kernel, so configurations in the same orbit have identical
futures — identical reachability verdicts *and* identical expected
hitting times.  Working on one representative per orbit divides the node
count by (almost) the group order:

* **directed / undirected rings** — the rotation group ``Z_n`` (order
  ``n``); a configuration's orbit representative is its lexicographically
  minimal rotation, and the representatives are exactly the *necklaces*
  over the state alphabet, generated directly (without scanning
  ``|Q|^n``) by the FKM (Fredricksen-Kierstead-Maier) algorithm;
* **2-D tori** — the translation group ``Z_h x Z_w`` (order ``w*h``);
  representatives are found by scanning the full space once, which keeps
  the *analysis* ``w*h`` times smaller even though enumeration stays
  ``O(|Q|^{wh})``.

Orbit counts come from Burnside's lemma, so feasibility is decided
*before* anything is enumerated.  Lumping is only sound when the legal
predicate is constant on orbits; :meth:`QuotientGraph.legal_mask`
spot-checks that invariance on a deterministic stride of orbits and the
test suite checks it exhaustively at toy sizes.
"""

from __future__ import annotations

from array import array
from math import gcd
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.check.graph import ConfigurationGraph
from repro.core.errors import InvalidParameterError
from repro.topology.ring import DirectedRing, UndirectedRing
from repro.topology.torus import Torus2D


def _totient(value: int) -> int:
    """Euler's totient, by trial-division factorization (value <= ~64)."""
    result = value
    factor = 2
    remaining = value
    while factor * factor <= remaining:
        if remaining % factor == 0:
            while remaining % factor == 0:
                remaining //= factor
            result -= result // factor
        factor += 1
    if remaining > 1:
        result -= result // remaining
    return result


class RotationSymmetry:
    """The cyclic rotation group ``Z_n`` acting on ring configurations.

    Rotation by ``k`` maps agent ``i``'s state to agent ``(i + k) % n`` —
    an automorphism of both ring topologies (arc ``(i, i+1)`` maps to arc
    ``(i+k, i+k+1)``, bijectively).
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise InvalidParameterError(f"ring size must be >= 1, got {size}")
        self.size = size
        self.group_size = size
        self.name = f"ring-rotation(Z_{size})"

    def images(self, digits: Sequence[int]) -> Iterator[Tuple[int, ...]]:
        """Every group image of ``digits`` (with repeats for periodic ones)."""
        base = tuple(digits)
        for shift in range(self.size):
            yield base[shift:] + base[:shift]

    def canonize(self, digits: Sequence[int]) -> Tuple[int, ...]:
        """The lexicographically minimal rotation: the orbit representative."""
        return min(self.images(digits))

    def orbit_size(self, digits: Sequence[int]) -> int:
        """Distinct configurations in the orbit: ``n / period``."""
        base = tuple(digits)
        for period in range(1, self.size + 1):
            if self.size % period == 0:
                if base[period:] + base[:period] == base:
                    return period
        return self.size

    def orbit_count(self, num_states: int) -> int:
        """Burnside: ``(1/n) * sum over d|n of phi(d) * |Q|^(n/d)``."""
        total = 0
        for divisor in range(1, self.size + 1):
            if self.size % divisor == 0:
                total += _totient(divisor) * num_states ** (self.size // divisor)
        return total // self.size

    def enumeration_cost(self, num_states: int) -> int:
        """Candidate visits needed to produce the representatives.

        FKM generation is output-sensitive: cost is proportional to the
        number of necklaces, never ``|Q|^n``.
        """
        return self.orbit_count(num_states)

    def representatives(self, num_states: int) -> Iterator[Tuple[int, ...]]:
        """All necklaces of length ``n`` over ``num_states`` symbols, in
        lexicographic order (each is its own minimal rotation) — FKM."""
        n = self.size
        if num_states == 1:
            yield (0,) * n
            return
        word = [0] * (n + 1)

        def generate(t: int, p: int) -> Iterator[Tuple[int, ...]]:
            if t > n:
                if n % p == 0:
                    yield tuple(word[1:n + 1])
                return
            word[t] = word[t - p]
            yield from generate(t + 1, p)
            for symbol in range(word[t - p] + 1, num_states):
                word[t] = symbol
                yield from generate(t + 1, t)

        yield from generate(1, 1)


class TranslationSymmetry:
    """The translation group ``Z_h x Z_w`` acting on torus configurations.

    Agents are row-major (:class:`repro.topology.torus.Torus2D`); a
    translation by ``(dr, dc)`` maps agent ``(r, c)`` to
    ``((r + dr) % h, (c + dc) % w)`` and permutes the four-direction arc
    enumeration bijectively.
    """

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise InvalidParameterError(
                f"torus dimensions must be >= 1, got {width}x{height}")
        self.width = width
        self.height = height
        self.size = width * height
        self.group_size = width * height
        self.name = f"torus-translation(Z_{height}xZ_{width})"

    def images(self, digits: Sequence[int]) -> Iterator[Tuple[int, ...]]:
        base = tuple(digits)
        w, h = self.width, self.height
        for dr in range(h):
            for dc in range(w):
                yield tuple(base[((r - dr) % h) * w + ((c - dc) % w)]
                            for r in range(h) for c in range(w))

    def canonize(self, digits: Sequence[int]) -> Tuple[int, ...]:
        return min(self.images(digits))

    def orbit_size(self, digits: Sequence[int]) -> int:
        return len(set(self.images(digits)))

    def orbit_count(self, num_states: int) -> int:
        """Burnside: average of ``|Q|^(#cycles)`` over all translations.

        Translation ``(a, b)`` has order ``lcm(h/gcd(a,h), w/gcd(b,w))``
        and decomposes the ``w*h`` cells into cycles of that length.
        """
        w, h = self.width, self.height
        total = 0
        for a in range(h):
            for b in range(w):
                row_order = h // gcd(a, h) if a else 1
                col_order = w // gcd(b, w) if b else 1
                order = row_order * col_order // gcd(row_order, col_order)
                total += num_states ** (w * h // order)
        return total // (w * h)

    def enumeration_cost(self, num_states: int) -> int:
        """Representative discovery scans the whole space once."""
        return num_states ** (self.width * self.height)

    def representatives(self, num_states: int) -> Iterator[Tuple[int, ...]]:
        """Canonical configurations, by scanning all ``|Q|^(wh)`` tuples.

        No FKM analogue exists for two dimensions; the scan keeps the
        orbit *analysis* (SCCs, linear solves) ``w*h`` times smaller, which
        is where the superlinear cost lives.
        """
        n = self.size
        digits = [0] * n
        total = num_states ** n
        for _ in range(total):
            candidate = tuple(digits)
            if self.canonize(candidate) == candidate:
                yield candidate
            for position in range(n):
                digits[position] += 1
                if digits[position] < num_states:
                    break
                digits[position] = 0


def symmetry_for(population) -> Optional[object]:
    """The symmetry group of a population, or ``None`` when unexploited.

    Only groups whose action is implemented (and verified automorphic by
    the contract tests) are returned; complete graphs carry the full
    symmetric group but quotienting by ``S_n`` needs multiset canonization
    plus non-uniform arc multiplicities — left to a future PR.
    """
    if isinstance(population, DirectedRing):
        return RotationSymmetry(population.size)
    if isinstance(population, UndirectedRing):
        return RotationSymmetry(population.size)
    if isinstance(population, Torus2D):
        return TranslationSymmetry(population.width, population.height)
    return None


#: Spot-check stride for legal-mask invariance: every ``_INVARIANCE_STRIDE``-th
#: orbit has its whole orbit evaluated under the predicate (plus the first
#: ``_INVARIANCE_HEAD`` orbits).  A predicate that reads agent identities
#: breaks invariance on essentially every orbit, so a sparse deterministic
#: probe catches it; exhaustive verification lives in the test suite.
_INVARIANCE_STRIDE = 997
_INVARIANCE_HEAD = 64


class QuotientGraph:
    """The configuration graph modulo a symmetry group, node-per-orbit.

    Duck-types the :class:`repro.check.graph.ConfigurationGraph` surface
    that :func:`repro.check.graph.analyze` and
    :mod:`repro.check.probability` consume — ``num_configs`` (the orbit
    count), ``successors``, ``digits``, ``legal_mask``, ``arcs`` — so every
    qualitative and quantitative analysis runs unchanged on the reduced
    space.  Soundness: orbit members have identical verdicts and hitting
    times because the group commutes with the kernel (lumpability), and
    the uniform-scheduler probability of moving from orbit ``O`` to orbit
    ``O'`` is the same measured from any member of ``O`` — which is what
    ``successors`` (one entry per moving arc of the representative)
    encodes.  Unlike the full graph, a *moving* arc can stay inside its
    own orbit (rotating the configuration), so self-entries are kept: they
    are real transition probability, not lazy self-loop mass.
    """

    def __init__(self, graph: ConfigurationGraph, symmetry) -> None:
        self.graph = graph
        self.symmetry = symmetry
        if getattr(symmetry, "size", graph.num_agents) != graph.num_agents:
            raise InvalidParameterError(
                f"symmetry acts on {symmetry.size} agents, "
                f"graph has {graph.num_agents}")
        reps = array("l")
        sizes = array("l")
        # Orbit index of every full configuration id, filled from each
        # representative's images: a successor's orbit is one lookup.  It
        # grows with the full space, so it holds 4-byte ints: orbit counts
        # stay far below 2**31 under any feasible budget.
        orbit_of = array("i", [0]) * graph.num_configs
        encode = graph.encode
        for digits in symmetry.representatives(graph.num_states):
            orbit = len(reps)
            reps.append(encode(digits))
            sizes.append(symmetry.orbit_size(digits))
            for image in symmetry.images(digits):
                orbit_of[encode(image)] = orbit
        self._reps = reps
        self._orbit_of = orbit_of
        self.orbit_sizes = sizes
        self.full_configs = graph.num_configs

    @property
    def num_configs(self) -> int:
        """Orbit count: the number of nodes the analyses traverse."""
        return len(self._reps)

    @property
    def num_states(self) -> int:
        return self.graph.num_states

    @property
    def num_agents(self) -> int:
        return self.graph.num_agents

    @property
    def arcs(self) -> List[Tuple[int, int]]:
        """The underlying population's arcs — the uniform scheduler still
        draws from ``len(arcs)`` alternatives per step."""
        return self.graph.arcs

    def representative(self, orbit: int) -> int:
        """The representative's configuration id in the *full* space."""
        return self._reps[orbit]

    def digits(self, orbit: int) -> List[int]:
        return self.graph.digits(self._reps[orbit])

    def orbit_of(self, codes: Sequence[int]) -> int:
        """Orbit index of an arbitrary (full-space) configuration."""
        return self._orbit_of[self.graph.encode(codes)]

    def successors(self, orbit: int) -> List[int]:
        """Orbit indices one moving arc away — one entry per moving arc of
        the representative, duplicates (and self-entries) preserved."""
        orbit_of = self._orbit_of
        return [orbit_of[successor]
                for successor in self.graph.successors(self._reps[orbit])]

    def legal_mask(self, predicate, states) -> bytearray:
        """Per-orbit predicate truth, with an invariance spot-check.

        Raises :class:`InvalidParameterError` when a probed orbit is not
        predicate-constant — lumping such a predicate would silently
        corrupt every verdict downstream.
        """
        mask = bytearray(len(self._reps))
        graph = self.graph
        for orbit, rep in enumerate(self._reps):
            decoded = [states[digit] for digit in graph.digits(rep)]
            verdict = bool(predicate(decoded))
            mask[orbit] = 1 if verdict else 0
            if orbit < _INVARIANCE_HEAD or orbit % _INVARIANCE_STRIDE == 0:
                for image in self.symmetry.images(graph.digits(rep)):
                    if bool(predicate([states[d] for d in image])) != verdict:
                        raise InvalidParameterError(
                            f"legal predicate is not invariant under "
                            f"{self.symmetry.name}: orbit of "
                            f"{list(graph.digits(rep))} mixes verdicts "
                            f"(image {list(image)} disagrees); symmetry "
                            f"reduction is unsound for this predicate")
        return mask
