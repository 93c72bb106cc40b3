"""Content-addressed results store: trial batches keyed by what produced them.

Every trial in this repo is a pure function of ``(spec name, population
size, family, ExperimentConfig)``: the per-trial seeds are derived from the
config's master seed by a stable blake2b chain (:meth:`RandomSource.spawn`),
so running the same batch twice — on any engine tier, serially or across
worker processes — produces bit-identical :class:`TrialResult` records.
This module exploits that purity: a batch's results are persisted under a
digest of exactly the inputs that determine them, and a later run with the
same identity is served from disk instead of recomputed.

Key derivation
--------------
:func:`batch_digest` hashes, with blake2b, the canonical JSON of

* the spec name, the population size, the configuration family, and the
  resolved RNG label (the label is part of the seed-derivation chain, so
  two batches that differ only in it must never share records);
* the :class:`ExperimentConfig` fields that affect trial outcomes —
  everything except ``sizes`` (the population size is keyed separately),
  ``trials`` (the trial *count* is extendable: seeds are derived per trial
  index, so a stored 20-trial batch is a bit-identical prefix of the same
  batch at 50 trials), and ``engine`` (every engine tier produces identical
  results by construction — asserted by the cross-engine identity suites —
  so a batch computed on one tier serves requests for any other); future
  config fields are included automatically, mirroring
  :meth:`ExperimentConfig.cache_key`, and retired ones stay in at their
  fixed value (:data:`LEGACY_CONFIG_FIELDS`);
* :data:`SCHEMA_VERSION`, so a record format change invalidates every old
  record instead of misreading it.

Records
-------
One JSON file per digest under ``<root>/<digest[:2]>/<digest>.json``,
written atomically (temp file + rename).  Records carry the full key fields
and the engine that actually executed each trial, so ``repro-ssle cache
info`` can explain any record and tests can assert a warm hit is
bit-identical to a cold run.  A record that fails validation — truncated,
garbage, wrong schema, non-contiguous trial indices — is treated as a miss
and recomputed (and overwritten on the next write), never raised.

The store is off by default: it activates only through an explicit path
(CLI ``--store`` / the ``store=`` parameters) or the :data:`ENV_VAR`
environment variable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

try:  # advisory per-record write locks (POSIX; saves degrade gracefully)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.api.config import ExperimentConfig
from repro.api.executor import PhaseResult, TrialResult

#: Bump on any record-format or key-derivation change: old records then
#: miss (different digests) instead of being misread.
SCHEMA_VERSION = 1

#: Environment variable naming the default store root (CLI ``--store`` and
#: explicit ``store=`` arguments take precedence).
ENV_VAR = "REPRO_STORE"

#: Config fields that do not affect per-trial outcomes (see module docstring).
_NON_IDENTITY_FIELDS = frozenset({"sizes", "trials", "engine"})

#: Retired config fields at the one value every run now has. Each digest
#: written while a field existed hashes it, so it stays in the canonical
#: config and those records stay warm.
LEGACY_CONFIG_FIELDS: Dict[str, object] = {"check_backoff": False}

#: TrialResult fields, in record order, with their required JSON types.
_TRIAL_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("trial", int),
    ("steps", int),
    ("converged", bool),
    ("wall_time", float),
    ("engine", str),
    ("protocol_name", str),
)

#: PhaseResult fields with their required JSON types (scenario records only).
_PHASE_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("phase", int),
    ("perturbation", str),
    ("steps", int),
    ("converged", bool),
    ("engine", str),
    ("population_size", int),
)


def _jsonify(value: object) -> object:
    """Tuples (arbitrarily nested) as JSON lists, everything else verbatim."""
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    return value


def canonical_config(config: ExperimentConfig) -> Dict[str, object]:
    """The config's identity-bearing fields as a JSON-ready mapping.

    Derived from the dataclass fields minus :data:`_NON_IDENTITY_FIELDS`,
    so a future config field can never be silently left out of the store
    key (the same guarantee :meth:`ExperimentConfig.cache_key` gives the
    in-process caches).

    The ``scenario`` field is omitted when it is the canonical empty tuple:
    a legacy single-convergence config therefore hashes to exactly the
    digest it had before scenarios existed, keeping every pre-scenario
    record warm.  Non-empty scenarios *are* hashed (nested tuples as JSON
    lists), so a perturb-and-re-converge run never collides with the plain
    run it started from.  Retired fields are always written at their fixed
    value (:data:`LEGACY_CONFIG_FIELDS`), for the same reason.
    """
    payload: Dict[str, object] = dict(LEGACY_CONFIG_FIELDS)
    for field in dataclasses.fields(config):
        if field.name in _NON_IDENTITY_FIELDS:
            continue
        value = getattr(config, field.name)
        if field.name == "scenario" and value == ():
            continue
        payload[field.name] = _jsonify(value)
    return payload


def batch_digest(spec_name: str, population_size: int, family: str,
                 rng_label: str, config: ExperimentConfig) -> str:
    """The content address of one trial batch (stable hex digest)."""
    payload = {
        "schema": SCHEMA_VERSION,
        "spec": spec_name,
        "population_size": population_size,
        "family": family,
        "rng_label": rng_label,
        "config": canonical_config(config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


class ResultsStore:
    """A directory of content-addressed trial-batch records.

    ``write=False`` makes the store read-only: cached trials are still
    served, but completed batches are not persisted (CLI
    ``--no-store-write``).  The ``served``/``executed`` counters are
    maintained by the executor so callers — the CLI's JSON payloads, the CI
    reuse gate — can assert how much work a run actually did.
    """

    #: How long :meth:`save` waits for a record's advisory lock before
    #: falling back to the unlocked verify-and-retry path (seconds). A
    #: writer that died holding the lock — SIGKILL mid-write-back — must
    #: not wedge every later writer of that record forever.
    DEFAULT_LOCK_TIMEOUT = 10.0

    def __init__(self, root: "str | os.PathLike", write: bool = True,
                 lock_timeout: Optional[float] = None) -> None:
        self.root = Path(root)
        self.write = write
        self.lock_timeout = (self.DEFAULT_LOCK_TIMEOUT
                             if lock_timeout is None else lock_timeout)
        #: Trials served from cached records during this process's runs.
        self.served = 0
        #: Trials actually executed (cache misses and top-ups).
        self.executed = 0

    @classmethod
    def from_env(cls, write: bool = True) -> "Optional[ResultsStore]":
        """The store named by :data:`ENV_VAR`, or ``None`` when unset/empty."""
        root = os.environ.get(ENV_VAR, "").strip()
        return cls(root, write=write) if root else None

    # ------------------------------------------------------------------ #
    # Record IO
    # ------------------------------------------------------------------ #
    def record_path(self, digest: str) -> Path:
        """Where ``digest``'s record lives (two-level fan-out directory)."""
        return self.root / digest[:2] / f"{digest}.json"

    def load(self, digest: str) -> Optional[List[TrialResult]]:
        """The stored trials for ``digest``, or ``None`` on miss/corruption.

        Trials come back ordered by trial index, a contiguous prefix
        ``0..m-1`` — the validated invariant that makes partial top-ups
        (extend a stored batch by running only the missing tail) sound.
        """
        record = self.record(digest)
        if record is None:
            return None
        return validate_trials(record.get("trials"))

    def record(self, digest: str) -> Optional[Dict[str, object]]:
        """The raw record document for ``digest`` (schema- and digest-checked),
        or ``None`` on miss/corruption.  What the fabric's store server puts
        on the wire; :meth:`load` is this plus trial validation."""
        record = self._read_record(self.record_path(digest))
        if record is None or record.get("digest") != digest:
            return None
        return record

    @contextmanager
    def _record_lock(self, path: Path):
        """Advisory exclusive lock serializing writers of one record.

        Concurrent top-ups of the same record group (two sweeps, two service
        jobs) each merge cache-plus-fresh snapshots that may lag each other;
        the lock makes the read-compare-replace in :meth:`save` atomic so
        the longer record always survives.

        Yields whether the lock was actually acquired.  The wait is
        *bounded* by ``lock_timeout``: a writer that died holding the lock
        (kill -9 mid-write-back leaves the flock held until its process is
        reaped — or forever, if the handle leaked to a live descendant)
        must not wedge every later writer.  On timeout — or without
        ``fcntl`` at all — the caller proceeds unlocked and compensates
        with read-compare-retry (see :meth:`_replace_record`).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield False
            return
        lock_path = path.parent / f".{path.stem}.lock"
        with open(lock_path, "w") as handle:
            deadline = time.monotonic() + max(0.0, self.lock_timeout)
            locked = False
            while True:
                try:
                    fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    locked = True
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        break
                    time.sleep(min(0.05, self.lock_timeout or 0.05))
            try:
                yield locked
            finally:
                if locked:
                    fcntl.flock(handle, fcntl.LOCK_UN)

    def save(self, digest: str, meta: Dict[str, object],
             trials: Sequence[TrialResult]) -> None:
        """Persist one batch record atomically (no-op for read-only stores).

        Saves never shrink a record: under the per-record lock, a valid
        existing record holding at least as many trials wins and the save
        is skipped — sound because every record of one digest is a prefix
        of the same deterministic trial sequence, so the longer of two
        concurrent write-backs is a superset of the shorter.  When the lock
        cannot be acquired within ``lock_timeout`` (a writer died holding
        it), the save proceeds unlocked and re-verifies after publishing —
        see :meth:`_replace_record`.
        """
        if not self.write:
            return
        path = self.record_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._record_lock(path) as locked:
            self._replace_record(digest, meta, trials, path, locked=locked)

    #: Unlocked publishes re-verify this many times before conceding the
    #: race (the record stays valid either way — at worst shorter, which a
    #: future run tops up).
    _UNLOCKED_RETRIES = 3

    def _replace_record(self, digest: str, meta: Dict[str, object],
                        trials: Sequence[TrialResult], path: Path,
                        locked: bool = True) -> None:
        existing = self._read_record(path)
        if existing is not None and existing.get("digest") == digest:
            current = validate_trials(existing.get("trials"))
            if current is not None and len(current) >= len(trials):
                return
        self._publish_record(digest, meta, trials, path)
        if locked:
            return
        # Unlocked fallback: without the flock, a concurrent writer may
        # replace our freshly-published record with a *shorter* one (its
        # read-compare predates our publish).  Read-compare-retry restores
        # never-shrink: all records of one digest are prefixes of the same
        # deterministic sequence, so republishing the longer is always safe.
        for _ in range(self._UNLOCKED_RETRIES):
            published = self._read_record(path)
            current = (validate_trials(published.get("trials"))
                       if published is not None
                       and published.get("digest") == digest else None)
            if current is not None and len(current) >= len(trials):
                return
            self._publish_record(digest, meta, trials, path)

    def _publish_record(self, digest: str, meta: Dict[str, object],
                        trials: Sequence[TrialResult], path: Path) -> None:
        record = {
            "schema": SCHEMA_VERSION,
            "digest": digest,
            **meta,
            "versions": {
                "schema": SCHEMA_VERSION,
                "python": platform.python_version(),
            },
            "trials": [result.to_dict() for result in trials],
        }
        # Atomic publish: a reader (or a crash) can never observe a
        # half-written record — it sees the old record or the new one.
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=f".{digest}.", suffix=".tmp",
            delete=False, encoding="utf-8",
        )
        try:
            with handle:
                json.dump(record, handle, sort_keys=True, indent=1)
            os.replace(handle.name, path)
        except BaseException:
            os.unlink(handle.name)
            raise

    # ------------------------------------------------------------------ #
    # Inspection / maintenance (the `repro-ssle cache` commands)
    # ------------------------------------------------------------------ #
    def record_digests(self) -> List[str]:
        """Digests of every well-named record file under the root, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            path.stem
            for path in self.root.glob("??/*.json")
            if path.stem.startswith(path.parent.name)
        )

    def records(self) -> List[Dict[str, object]]:
        """One summary row per stored record (corrupt records flagged).

        ``age_days`` is the record file's age by mtime — the time of the
        last write-back, which is what the ``--older-than`` GC evicts by.
        """
        now = time.time()  # repro: allow[REP004] (record age, not identity)
        rows: List[Dict[str, object]] = []
        for digest in self.record_digests():
            path = self.record_path(digest)
            record = self._read_record(path)
            trials = (validate_trials(record.get("trials"))
                      if record is not None and record.get("digest") == digest
                      else None)
            try:
                stat = path.stat()
            except OSError:
                continue  # raced away by a concurrent clear
            age_days = round(max(0.0, now - stat.st_mtime) / 86400.0, 4)
            if trials is None:
                rows.append({"digest": digest, "corrupt": True,
                             "bytes": stat.st_size, "age_days": age_days})
                continue
            rows.append({
                "digest": digest,
                "corrupt": False,
                "spec": record.get("spec"),
                "population_size": record.get("population_size"),
                "family": record.get("family"),
                "trials": len(trials),
                "converged": sum(1 for trial in trials if trial.converged),
                "engines": sorted({trial.engine for trial in trials}),
                "bytes": stat.st_size,
                "age_days": age_days,
            })
        return rows

    def record_info(self, digest_prefix: str) -> Dict[str, object]:
        """The full record whose digest starts with ``digest_prefix``.

        Raises :class:`KeyError` on no match and :class:`ValueError` on an
        ambiguous prefix, with the candidates named.
        """
        matches = [digest for digest in self.record_digests()
                   if digest.startswith(digest_prefix)]
        if not matches:
            raise KeyError(
                f"no record with digest prefix {digest_prefix!r} in {self.root}"
            )
        if len(matches) > 1:
            raise ValueError(
                f"digest prefix {digest_prefix!r} is ambiguous: "
                f"{', '.join(matches)}"
            )
        record = self._read_record(self.record_path(matches[0]))
        if record is None:
            return {"digest": matches[0], "corrupt": True}
        record.setdefault("corrupt",
                          validate_trials(record.get("trials")) is None)
        return record

    def clear(self, digest_prefix: str = "",
              older_than_days: Optional[float] = None,
              max_bytes: Optional[int] = None) -> int:
        """Delete records and count them.

        ``digest_prefix`` restricts deletion to matching digests;
        ``older_than_days`` keeps any record written (or last topped up —
        the mtime of its file) more recently than that many days ago.  The
        two compose, so ``cache clear --older-than 30`` is the store's
        age-based GC policy.

        ``max_bytes`` switches from "delete everything that matches" to a
        size budget: the matching records are evicted oldest-first (by file
        mtime, i.e. least recently written back) until the ones remaining
        total at most that many bytes — ``cache clear --max-bytes N`` is
        the store's size-capped GC policy.  It composes with the other two
        filters: only matching records are counted against, or evicted for,
        the budget.
        """
        if older_than_days is not None and older_than_days < 0:
            raise ValueError(
                f"older_than_days must be >= 0, got {older_than_days}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        now = time.time()  # repro: allow[REP004] (GC age policy, not identity)
        matches: List[Tuple[float, int, Path]] = []
        for digest in self.record_digests():
            if not digest.startswith(digest_prefix):
                continue
            path = self.record_path(digest)
            try:
                stat = path.stat()
            except OSError:
                continue  # raced away by a concurrent clear
            if older_than_days is not None:
                if (now - stat.st_mtime) / 86400.0 < older_than_days:
                    continue
            matches.append((stat.st_mtime, stat.st_size, path))
        if max_bytes is not None:
            # Oldest-first eviction until the matching set fits the budget.
            matches.sort(key=lambda entry: entry[0])
            excess = sum(size for _, size, _ in matches) - max_bytes
            victims = []
            for mtime, size, path in matches:
                if excess <= 0:
                    break
                victims.append((mtime, size, path))
                excess -= size
            matches = victims
        removed = 0
        for _, _, path in matches:
            try:
                path.unlink()
            except OSError:
                continue  # raced away by a concurrent clear
            lock = path.parent / f".{path.stem}.lock"
            if lock.exists():  # drop the record's advisory lock file too
                lock.unlink()
            removed += 1
        return removed

    def summary(self) -> Dict[str, object]:
        """Whole-store totals: record/trial counts, bytes, and the age range.

        ``age_days`` spans the youngest to the oldest record (by file
        mtime, i.e. last write-back); ``None`` for an empty store.  This is
        what ``repro-ssle cache info`` (without a digest) reports, and what
        an operator consults before ``cache clear --older-than``.
        """
        rows = self.records()
        ages = [row["age_days"] for row in rows]
        return {
            "root": str(self.root),
            "records": len(rows),
            "corrupt": sum(1 for row in rows if row["corrupt"]),
            "trials": sum(row.get("trials", 0) for row in rows),
            "bytes": sum(row["bytes"] for row in rows),
            "age_days": ({"newest": min(ages), "oldest": max(ages)}
                         if ages else None),
        }

    def stats(self) -> Dict[str, object]:
        """This process's reuse counters plus the store location (JSON-ready)."""
        return {
            "root": str(self.root),
            "write": self.write,
            "served": self.served,
            "executed": self.executed,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultsStore(root={str(self.root)!r}, write={self.write})"

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _read_record(path: Path) -> Optional[Dict[str, object]]:
        """Parse one record file; any defect is a miss, never an exception."""
        try:
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("schema") != SCHEMA_VERSION:
            return None
        return record


def validate_trials(raw: object) -> Optional[List[TrialResult]]:
    """Rebuild a record's trial list, or ``None`` when anything is off.

    Checks every field's presence and type and that the trial indices form
    the contiguous prefix ``0..m-1`` (partial top-ups extend records by
    index, so a gap would silently misattribute seeds to trials).
    """
    if not isinstance(raw, list):
        return None
    trials: List[TrialResult] = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            return None
        values = {}
        for name, kind in _TRIAL_FIELDS:
            value = entry.get(name)
            if kind is float and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                return None
            values[name] = value
        if values["trial"] != index:
            return None
        phases = _validate_phases(entry.get("phases"))
        if phases is None:
            return None
        trials.append(TrialResult(phases=phases, **values))
    return trials


def _validate_phases(raw: object) -> Optional[Tuple[PhaseResult, ...]]:
    """Rebuild a trial's per-phase breakdown; ``None`` flags a corrupt record.

    Pre-scenario records carry no ``phases`` key at all — that (or an
    explicit empty list) is the valid legacy shape and maps to the empty
    tuple, so old records stay readable without a schema bump.
    """
    if raw is None:
        return ()
    if not isinstance(raw, list):
        return None
    phases: List[PhaseResult] = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            return None
        values = {}
        for name, kind in _PHASE_FIELDS:
            value = entry.get(name)
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                return None
            values[name] = value
        if values["phase"] != index:
            return None
        phases.append(PhaseResult(**values))
    return tuple(phases)


def resolve_store(path: "str | os.PathLike | None" = None,
                  write: bool = True):
    """The store an explicit ``path`` or the environment selects (else ``None``).

    The precedence every entry point shares: an explicit path wins, the
    :data:`ENV_VAR` environment variable is the fallback, and with neither
    set the store is off and behavior is exactly pre-store.

    A value starting with ``http://`` — from either source — selects a
    :class:`repro.fabric.remote.RemoteStore` speaking to a
    ``repro-ssle store-serve`` daemon instead of a local directory, so
    every ``--store`` flag and the :data:`ENV_VAR` variable accept a URL
    transparently.  (``https://`` is rejected by the fabric transport with
    an explanation; a lab fabric speaks plain http.)
    """
    selected = str(path).strip() if path is not None else ""
    if not selected:
        selected = os.environ.get(ENV_VAR, "").strip()
    if not selected:
        return None
    if selected.startswith(("http://", "https://")):
        from repro.fabric.remote import RemoteStore  # lazy: avoids a cycle

        return RemoteStore(selected, write=write)
    return ResultsStore(selected, write=write)
