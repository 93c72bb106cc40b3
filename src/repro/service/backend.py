"""The warm execution backend: one long-lived pool shared by every job.

Before the service existed, every experiment invocation paid the pool
cold-start — fork the workers, re-import the package — and threw it away on
exit.  :class:`WarmPool` keeps ONE
:class:`~concurrent.futures.ProcessPoolExecutor` alive for the lifetime of
the service process: jobs submit their trial tasks to it through the same
:func:`repro.api.executor.run_trials` core the CLI uses (so results are
bit-identical), and the workers' imports survive from job to job.

Each point runs through :meth:`run_point`, a blocking call made from the
job's own thread: with a real pool that thread merely waits on pool IPC,
so the HTTP threads (and other jobs) stay responsive.  ``workers=0`` is the
inline mode — no pool, no worker processes — used by tests and tiny
deployments; trials then execute serially on the job's thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

from concurrent.futures.process import BrokenProcessPool

from repro.api.executor import (
    OnResult,
    TrialResult,
    TrialTask,
    _pool_context,
    run_trials,
)


class WarmPool:
    """A long-lived process pool shared by every job's thread."""

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        #: Worker processes; 0 = inline serial execution (no pool at all).
        self.workers = (os.cpu_count() or 1) if workers is None else workers
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Pools rebuilt after a :class:`BrokenProcessPool` (observability:
        #: a climbing count means worker processes keep dying under jobs).
        self.rebuilds = 0

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    @property
    def pool(self) -> Optional[ProcessPoolExecutor]:
        """The shared executor, created on first use (``None`` inline)."""
        if self.workers == 0:
            return None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             mp_context=_pool_context())
        return self._pool

    def warm(self) -> "WarmPool":
        """Create the pool now (servers call this at startup so the first
        job never pays the fork cost)."""
        self.pool
        return self

    def close(self) -> None:
        """Shut the pool down; queued work is dropped, in-flight finishes."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def rebuild(self) -> None:
        """Replace a broken pool with a fresh one (counted in ``rebuilds``).

        A dead worker process poisons the whole executor — every later
        submission raises :class:`BrokenProcessPool` — so the only recovery
        is a new pool, whose fresh workers re-import the package.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self.rebuilds += 1
        self.warm()

    def __enter__(self) -> "WarmPool":
        return self.warm()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run_point(self, tasks: Sequence[TrialTask], store=None,
                  on_result: Optional[OnResult] = None) -> List[TrialResult]:
        """Run one point's tasks on the shared pool (blocking call).

        Exactly :func:`run_trials` — store-first, bit-identical, per-trial
        ``on_result`` progress — with the warm pool substituted for a
        per-invocation one.

        A :class:`BrokenProcessPool` (a worker process died under us) is
        survived once: the pool is rebuilt and the point re-runs — with a
        store, the re-run's already-finished batches are served from the
        write-backs the executor made before re-raising, so only the
        genuinely in-flight trials recompute.  A second break fails the
        point with a diagnostic instead of hanging or looping.  Note
        ``on_result`` may fire again for trials the re-run serves or
        recomputes — progress counters are best-effort across a rebuild.
        """
        try:
            return run_trials(tasks, store=store, on_result=on_result,
                              pool=self.pool)
        except BrokenProcessPool:
            self.rebuild()
        try:
            return run_trials(tasks, store=store, on_result=on_result,
                              pool=self.pool)
        except BrokenProcessPool as error:
            raise RuntimeError(
                "process pool broke twice while executing a point "
                f"({len(tasks)} trials); a worker process is dying "
                "repeatedly — likely killed by the OS (OOM) or crashing "
                "on a specific trial. The pool was rebuilt once "
                f"(rebuilds={self.rebuilds}); giving up on this point."
            ) from error
