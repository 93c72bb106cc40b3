"""Random-source abstraction shared by schedulers and adversaries.

Everything random in this package flows through :class:`RandomSource`, a thin
wrapper around :class:`random.Random`, so that

* every experiment is reproducible from a single integer seed,
* independent components (scheduler, adversary, oracle baselines) can be given
  independent sub-streams derived from the same master seed, and
* tests can substitute a deterministic stub.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Optional, Sequence, TypeVar

ItemT = TypeVar("ItemT")


class RandomSource:
    """Seedable random source with the handful of primitives the package needs."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    # ------------------------------------------------------------------ #
    # Stream management
    # ------------------------------------------------------------------ #
    @property
    def seed(self) -> Optional[int]:
        """Seed this source was created with (``None`` for entropy-seeded)."""
        return self._seed

    def getstate(self) -> object:
        """Opaque snapshot of the stream position (pass to :meth:`setstate`).

        Used by schedulers to support exact replay: a snapshot taken at
        construction lets ``reset()`` rewind the stream to that point even
        when the source was entropy-seeded or handed over mid-stream.
        """
        return self._random.getstate()

    def setstate(self, state: object) -> None:
        """Rewind the stream to a snapshot previously taken with :meth:`getstate`."""
        self._random.setstate(state)

    def spawn(self, label: str) -> "RandomSource":
        """Derive an independent child stream identified by ``label``.

        Children of the same parent with different labels produce independent
        sequences; the same (seed, label) pair always produces the same child,
        which keeps multi-component experiments reproducible.  The derivation
        uses a stable hash — Python's built-in ``hash()`` of a string is
        salted per process (``PYTHONHASHSEED``), which would make the "same"
        seed produce different streams in every new interpreter.
        """
        if self._seed is None:
            return RandomSource(self._random.getrandbits(64))
        digest = hashlib.blake2b(
            f"{self._seed}\x1f{label}".encode("utf-8"), digest_size=8
        ).digest()
        return RandomSource(int.from_bytes(digest, "big"))

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #
    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        return self._random.randint(low, high)

    def randrange(self, upper: int) -> int:
        """Uniform integer in ``[0, upper)``."""
        return self._random.randrange(upper)

    def getrandbits_callable(self) -> Callable[[int], int]:
        """The generator's own ``getrandbits``: ``k -> [0, 2**k)``.

        For a positive ``upper``, ``random.Random.randrange(upper)`` draws
        ``getrandbits(upper.bit_length())`` until the value falls below
        ``upper``.  A hot loop that runs that rejection loop itself on this
        callable (the batched engine draws one arc index per interaction)
        consumes the seeded stream exactly as :meth:`randrange` does, without
        its two Python-level calls per draw; the engine cross-check suite
        asserts the two streams agree.
        """
        return self._random.getrandbits

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    def coin(self) -> bool:
        """Fair coin flip."""
        return self._random.random() < 0.5

    def choice(self, items: Sequence[ItemT]) -> ItemT:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(items)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomSource(seed={self._seed!r})"


def ensure_source(rng: "RandomSource | int | None") -> RandomSource:
    """Coerce ``rng`` into a :class:`RandomSource`.

    Accepts an existing source (returned unchanged), an integer seed, or
    ``None`` (entropy-seeded).  This lets public APIs accept the most
    convenient spelling at call sites.
    """
    if isinstance(rng, RandomSource):
        return rng
    return RandomSource(rng)
