"""Scenario (de)serialization.

Experiments are friendlier to share as data than as code: this module
round-trips every parameter dataclass — virus, user, network, detection,
the six response configs, whole scenarios — through plain dicts and JSON.
The format is versioned and validated on load (unknown keys, unknown
response kinds, and bad enum values are errors, not silent defaults).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Type, Union

from .parameters import (
    BlacklistConfig,
    DetectionAlgorithmConfig,
    DetectionParameters,
    GatewayScanConfig,
    ImmunizationConfig,
    LimitPeriod,
    MobilityParameters,
    MonitoringConfig,
    NetworkParameters,
    ResponseConfig,
    ResponseDeployment,
    ScenarioConfig,
    Targeting,
    UserEducationConfig,
    UserParameters,
    VirusParameters,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simulation import ScenarioResult

#: Format version written into every serialized scenario.
FORMAT_VERSION = 1

_RESPONSE_KINDS: Dict[str, Type] = {
    "gateway_scan": GatewayScanConfig,
    "detection_algorithm": DetectionAlgorithmConfig,
    "user_education": UserEducationConfig,
    "immunization": ImmunizationConfig,
    "monitoring": MonitoringConfig,
    "blacklist": BlacklistConfig,
}
_KIND_BY_TYPE = {cls: kind for kind, cls in _RESPONSE_KINDS.items()}


class SerializationError(ValueError):
    """Raised for malformed scenario documents."""


def _dataclass_to_dict(value: Any) -> Dict[str, Any]:
    result = {}
    for field in dataclasses.fields(value):
        item = getattr(value, field.name)
        if isinstance(item, (Targeting, LimitPeriod)):
            item = item.value
        result[field.name] = item
    return result


def _dict_to_dataclass(cls: Type, data: Dict[str, Any], context: str) -> Any:
    if not isinstance(data, dict):
        raise SerializationError(f"{context}: expected an object, got {type(data).__name__}")
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - field_names
    if unknown:
        raise SerializationError(f"{context}: unknown keys {sorted(unknown)}")
    kwargs = dict(data)
    if cls is VirusParameters:
        if "targeting" in kwargs:
            kwargs["targeting"] = _parse_enum(Targeting, kwargs["targeting"], context)
        if "limit_period" in kwargs:
            kwargs["limit_period"] = _parse_enum(
                LimitPeriod, kwargs["limit_period"], context
            )
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"{context}: {exc}") from exc


def _parse_enum(enum_cls, value, context: str):
    if isinstance(value, enum_cls):
        return value
    try:
        return enum_cls(value)
    except ValueError:
        valid = [member.value for member in enum_cls]
        raise SerializationError(
            f"{context}: {value!r} is not one of {valid}"
        ) from None


def response_to_dict(response: ResponseConfig) -> Dict[str, Any]:
    """Serialize one response config with its ``kind`` tag."""
    try:
        kind = _KIND_BY_TYPE[type(response)]
    except KeyError:
        raise SerializationError(
            f"unknown response config type {type(response).__name__}"
        ) from None
    document = _dataclass_to_dict(response)
    document["kind"] = kind
    return document


def response_from_dict(data: Dict[str, Any]) -> ResponseConfig:
    """Deserialize one tagged response config."""
    if not isinstance(data, dict) or "kind" not in data:
        raise SerializationError("response entry must be an object with a 'kind'")
    kind = data["kind"]
    try:
        cls = _RESPONSE_KINDS[kind]
    except KeyError:
        raise SerializationError(
            f"unknown response kind {kind!r}; known: {sorted(_RESPONSE_KINDS)}"
        ) from None
    payload = {k: v for k, v in data.items() if k != "kind"}
    return _dict_to_dataclass(cls, payload, f"response[{kind}]")


def scenario_to_dict(scenario: ScenarioConfig) -> Dict[str, Any]:
    """Serialize a scenario to a plain dict.

    The ``engine`` key is emitted only for non-default engines, and the
    ``mobility``/``deployment`` keys only when those axes are attached,
    so that documents produced before the axes existed (cache entries,
    golden fixtures) remain byte-identical for core-engine /
    non-proximity / instantaneous-deployment scenarios.
    """
    document = {
        "format_version": FORMAT_VERSION,
        "name": scenario.name,
        "duration": scenario.duration,
        "virus": _dataclass_to_dict(scenario.virus),
        "user": _dataclass_to_dict(scenario.user),
        "network": _dataclass_to_dict(scenario.network),
        "detection": _dataclass_to_dict(scenario.detection),
        "responses": [response_to_dict(r) for r in scenario.responses],
    }
    if scenario.engine != "core":
        document["engine"] = scenario.engine
    if scenario.mobility is not None:
        document["mobility"] = _dataclass_to_dict(scenario.mobility)
    if scenario.deployment is not None:
        document["deployment"] = _dataclass_to_dict(scenario.deployment)
    return document


def scenario_from_dict(data: Dict[str, Any]) -> ScenarioConfig:
    """Deserialize a scenario from a plain dict (validating everything)."""
    if not isinstance(data, dict):
        raise SerializationError("scenario document must be an object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format_version {version!r} (expected {FORMAT_VERSION})"
        )
    required = {"name", "duration", "virus"}
    missing = required - set(data)
    if missing:
        raise SerializationError(f"scenario document missing keys {sorted(missing)}")
    responses: List[ResponseConfig] = [
        response_from_dict(entry) for entry in data.get("responses", [])
    ]
    sections = dict(
        virus=_dict_to_dataclass(VirusParameters, data["virus"], "virus"),
        user=_dict_to_dataclass(UserParameters, data.get("user", {}), "user"),
        network=_dict_to_dataclass(NetworkParameters, data.get("network", {}), "network"),
        detection=_dict_to_dataclass(
            DetectionParameters, data.get("detection", {}), "detection"
        ),
        mobility=(
            _dict_to_dataclass(MobilityParameters, data["mobility"], "mobility")
            if data.get("mobility") is not None
            else None
        ),
        deployment=(
            _dict_to_dataclass(
                ResponseDeployment, data["deployment"], "deployment"
            )
            if data.get("deployment") is not None
            else None
        ),
    )
    # Each section checked itself above; the top-level values (duration,
    # engine, ...) are checked by the constructor.
    try:
        return ScenarioConfig(
            name=data["name"],
            duration=data["duration"],
            responses=tuple(responses),
            engine=data.get("engine", "core"),
            **sections,
        )
    except (TypeError, ValueError) as exc:
        raise SerializationError(str(exc)) from exc


def result_to_dict(result: "ScenarioResult") -> Dict[str, Any]:
    """Serialize one :class:`ScenarioResult` to a plain dict.

    The scenario config is embedded via :func:`scenario_to_dict`, so a
    stored result document is self-describing and survives code reloads.
    """
    return {
        "format_version": FORMAT_VERSION,
        "scenario": scenario_to_dict(result.config),
        "seed": result.seed,
        "replication": result.replication,
        "final_time": result.final_time,
        "infection_times": list(result.infection_times),
        "counters": dict(result.counters),
        "response_stats": {
            name: dict(stats) for name, stats in result.response_stats.items()
        },
        "detection_time": result.detection_time,
        "patient_zero": result.patient_zero,
        "susceptible_count": result.susceptible_count,
        "population": result.population,
    }


def result_from_dict(data: Dict[str, Any]) -> "ScenarioResult":
    """Deserialize one :class:`ScenarioResult` (validating the envelope)."""
    from .simulation import ScenarioResult

    if not isinstance(data, dict):
        raise SerializationError("result document must be an object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format_version {version!r} (expected {FORMAT_VERSION})"
        )
    required = {
        "scenario", "seed", "replication", "final_time", "infection_times",
        "counters", "response_stats", "susceptible_count", "population",
    }
    missing = required - set(data)
    if missing:
        raise SerializationError(f"result document missing keys {sorted(missing)}")
    try:
        return ScenarioResult(
            config=scenario_from_dict(data["scenario"]),
            seed=int(data["seed"]),
            replication=int(data["replication"]),
            final_time=float(data["final_time"]),
            infection_times=[float(t) for t in data["infection_times"]],
            counters={str(k): int(v) for k, v in data["counters"].items()},
            response_stats={
                str(name): {str(k): float(v) for k, v in stats.items()}
                for name, stats in data["response_stats"].items()
            },
            detection_time=(
                float(data["detection_time"])
                if data.get("detection_time") is not None
                else None
            ),
            patient_zero=(
                int(data["patient_zero"])
                if data.get("patient_zero") is not None
                else None
            ),
            susceptible_count=int(data["susceptible_count"]),
            population=int(data["population"]),
        )
    except (TypeError, ValueError, AttributeError) as exc:
        raise SerializationError(f"malformed result document: {exc}") from exc


def scenario_to_json(scenario: ScenarioConfig, indent: int = 2) -> str:
    """Serialize a scenario to a JSON string."""
    return json.dumps(scenario_to_dict(scenario), indent=indent, sort_keys=True)


def scenario_from_json(text: str) -> ScenarioConfig:
    """Deserialize a scenario from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return scenario_from_dict(data)


def save_scenario(scenario: ScenarioConfig, path: Union[str, Path]) -> Path:
    """Write a scenario to a JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(scenario_to_json(scenario), encoding="utf-8")
    return path


def load_scenario(path: Union[str, Path]) -> ScenarioConfig:
    """Read a scenario from a JSON file."""
    return scenario_from_json(Path(path).read_text(encoding="utf-8"))


__all__ = [
    "FORMAT_VERSION",
    "SerializationError",
    "scenario_to_dict",
    "scenario_from_dict",
    "scenario_to_json",
    "scenario_from_json",
    "save_scenario",
    "load_scenario",
    "response_to_dict",
    "response_from_dict",
    "result_to_dict",
    "result_from_dict",
]
