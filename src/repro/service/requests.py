"""Parsing and eager validation of experiment-service job requests.

A submission body is plain JSON naming a protocol plus any subset of the
sweep parameters the CLI exposes as flags::

    {"protocol": "fischer-jiang", "sizes": [8, 16], "trials": 2,
     "max_steps": 600000, "seed": 7, "topology": "torus:width=4,height=4"}

:meth:`JobRequest.from_payload` turns that into a typed, frozen request —
rejecting unknown keys, wrong types, and out-of-range values with messages
the HTTP layer returns as a 400 — and :meth:`JobRequest.validate` then runs
the registries' own fail-fast checks (:func:`repro.api.executor.validate_batch`:
spec exists and is simulated, engine/size/topology/family all apply) so a
request that could never run is refused at submission, not discovered
minutes later by a queued job.

Seed derivation is untouched: the request builds the same
:class:`ExperimentConfig` and the same per-point :class:`BatchRequest` a CLI
``run`` would, which is what makes service results bit-identical to the
equivalent CLI invocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.config import (
    DEFAULT_TOPOLOGY,
    ExperimentConfig,
    freeze_topology_params,
)
from repro.api.executor import BatchRequest, validate_batch
from repro.core.errors import TopologyError
from repro.scenario.spec import (
    CanonicalScenario,
    parse_scenario,
    scenario_from_json,
    scenario_to_json,
)
from repro.topology.registry import parse_topology


class ValidationError(ValueError):
    """A request defect the HTTP layer reports as a 400, message verbatim."""


#: Payload keys that configure the shared :class:`ExperimentConfig`, with
#: their expected types and (inclusive) lower bounds.
_CONFIG_KEYS: Dict[str, Tuple[type, Optional[int]]] = {
    "trials": (int, 1),
    "max_steps": (int, 0),
    "check_interval": (int, 1),
    "kappa_factor": (int, 1),
    "seed": (int, None),
}

_KNOWN_KEYS = frozenset(
    ("protocol", "sizes", "family", "engine", "topology", "topology_params",
     "scenario", *_CONFIG_KEYS)
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _int_field(payload: Dict[str, object], key: str, default: int,
               minimum: Optional[int]) -> int:
    value = payload.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{key!r} must be an integer, got {value!r}")
    if minimum is not None:
        _require(value >= minimum, f"{key!r} must be >= {minimum}, got {value}")
    return value


def _parse_sizes(payload: Dict[str, object]) -> Tuple[int, ...]:
    raw = payload.get("sizes", list(ExperimentConfig.sizes))
    _require(isinstance(raw, list) and raw,
             f"'sizes' must be a non-empty list of integers, got {raw!r}")
    for size in raw:
        _require(isinstance(size, int) and not isinstance(size, bool),
                 f"'sizes' entries must be integers, got {size!r}")
        _require(size >= 2, f"population sizes must be >= 2, got {size}")
    # Deduplicated and sorted exactly like the CLI's --sizes argument.
    return tuple(sorted(set(raw)))


def _parse_topology(payload: Dict[str, object],
                    ) -> Tuple[str, Tuple[Tuple[str, int], ...]]:
    raw = payload.get("topology", DEFAULT_TOPOLOGY)
    _require(isinstance(raw, str) and raw.strip(),
             f"'topology' must be a topology name, got {raw!r}")
    try:
        name, params = parse_topology(raw)
    except TopologyError as error:
        raise ValidationError(str(error)) from None
    extra = payload.get("topology_params", {})
    _require(isinstance(extra, dict),
             f"'topology_params' must be an object, got {extra!r}")
    for key, value in extra.items():
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"topology parameter {key!r} must be an integer, got {value!r}")
        _require(key not in params,
                 f"topology parameter {key!r} given both inline and in "
                 "'topology_params'")
    params.update(extra)
    return name, freeze_topology_params(params)


def _parse_request_scenario(payload: Dict[str, object]) -> CanonicalScenario:
    """The request's phased scenario in canonical form (default: none).

    Accepts the CLI's catalog-string grammar (``"corrupt-recover:k=2"``) or
    the explicit JSON phase list the status endpoint echoes back — so a
    client can round-trip a described job verbatim.
    """
    raw = payload.get("scenario")
    if raw is None:
        return ()
    try:
        if isinstance(raw, str):
            return parse_scenario(raw)
        if isinstance(raw, list):
            return scenario_from_json(raw)
    except ValueError as error:
        raise ValidationError(str(error)) from None
    raise ValidationError(
        f"'scenario' must be a catalog string like 'corrupt-recover:k=2' "
        f"or a list of phase objects, got {raw!r}")


@dataclass(frozen=True)
class JobRequest:
    """One validated experiment request: a protocol swept over sizes."""

    protocol: str
    sizes: Tuple[int, ...]
    family: Optional[str]
    config: ExperimentConfig

    @classmethod
    def from_payload(cls, payload: object) -> "JobRequest":
        """Parse a JSON submission body (raises :class:`ValidationError`)."""
        _require(isinstance(payload, dict),
                 f"the request body must be a JSON object, got {type(payload).__name__}")
        assert isinstance(payload, dict)
        unknown = sorted(set(payload) - _KNOWN_KEYS)
        _require(not unknown,
                 f"unknown request key(s): {', '.join(unknown)}; "
                 f"known keys: {', '.join(sorted(_KNOWN_KEYS))}")
        protocol = payload.get("protocol")
        _require(isinstance(protocol, str) and bool(protocol),
                 "'protocol' is required and must be a protocol name "
                 "(see GET / for the registered specs)")
        family = payload.get("family")
        _require(family is None or isinstance(family, str),
                 f"'family' must be a string, got {family!r}")
        engine = payload.get("engine", ExperimentConfig.engine)
        _require(isinstance(engine, str),
                 f"'engine' must be a string, got {engine!r}")
        sizes = _parse_sizes(payload)
        topology, topology_params = _parse_topology(payload)
        scenario = _parse_request_scenario(payload)
        config = ExperimentConfig(
            sizes=sizes,
            trials=_int_field(payload, "trials", ExperimentConfig.trials,
                              _CONFIG_KEYS["trials"][1]),
            max_steps=_int_field(payload, "max_steps",
                                 ExperimentConfig.max_steps,
                                 _CONFIG_KEYS["max_steps"][1]),
            check_interval=_int_field(payload, "check_interval",
                                      ExperimentConfig.check_interval,
                                      _CONFIG_KEYS["check_interval"][1]),
            kappa_factor=_int_field(payload, "kappa_factor",
                                    ExperimentConfig.kappa_factor,
                                    _CONFIG_KEYS["kappa_factor"][1]),
            seed=_int_field(payload, "seed", ExperimentConfig.seed, None),
            engine=engine,
            topology=topology,
            topology_params=topology_params,
            scenario=scenario,
        )
        return cls(protocol=protocol, sizes=sizes, family=family,
                   config=config)

    # ------------------------------------------------------------------ #
    # Derived shapes
    # ------------------------------------------------------------------ #
    def batch_requests(self) -> List[BatchRequest]:
        """One :class:`BatchRequest` per size — the exact per-point shape
        ``run_spec``/``run_batches`` derive seeds from, in size order."""
        return [
            BatchRequest(spec_name=self.protocol, population_size=n,
                         config=self.config, family=self.family)
            for n in self.sizes
        ]

    def validate(self) -> List[str]:
        """The registries' fail-fast checks for every point, at submit time.

        Returns the resolved per-point families (the spec default where the
        request named none); any defect raises :class:`ValidationError`
        with the registry's own message.
        """
        families = []
        for request in self.batch_requests():
            try:
                families.append(validate_batch(request))
            except (KeyError, ValueError) as error:
                message = error.args[0] if error.args else str(error)
                raise ValidationError(str(message)) from None
        return families

    def describe(self) -> Dict[str, object]:
        """The request as the status endpoint echoes it back (JSON-ready)."""
        return {
            "protocol": self.protocol,
            "sizes": list(self.sizes),
            "family": self.family,
            "trials": self.config.trials,
            "max_steps": self.config.max_steps,
            "check_interval": self.config.check_interval,
            "kappa_factor": self.config.kappa_factor,
            "seed": self.config.seed,
            "engine": self.config.engine,
            "topology": self.config.topology,
            "topology_params": dict(self.config.topology_params),
            "scenario": scenario_to_json(self.config.scenario),
        }
