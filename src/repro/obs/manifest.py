"""Per-run JSONL run manifests.

A *run manifest* is the durable record of one execution — a CLI run, a
figure batch, a sweep, one benchmark workload, or a profile pass.  Every
record is a single JSON object on its own line (JSONL, append-only), so
thousands of Monte-Carlo campaign runs accumulate in one greppable file
and any record can be schema-checked in isolation.

The schema (version :data:`MANIFEST_SCHEMA_VERSION`) has a small required
core plus optional sections:

required
    ``manifest_schema``, ``kind`` (one of :data:`MANIFEST_KINDS`),
    ``label``, ``created`` (UTC ISO-8601), ``wall_seconds``,
    ``events_executed``, ``events_per_second``, ``host``.
optional sections
    ``seed``/``seeds``, ``replications``, ``scenarios`` (name + config
    hash + job count each), ``scheduler`` (scheduled/executed/cache-hit
    job counts), ``cache`` (hits/misses/writes/hit_ratio and the
    *resolved* cache directory — see
    :func:`repro.core.cache.default_cache_dir` on why the directory
    matters), ``workers`` (per-worker jobs/events/busy-seconds/rates),
    ``kernel`` (events fired/cancelled, heap peak), ``resilience``
    (retry/quarantine counts, pool respawns, every failure event, and
    the checkpoint resume reconciliation — the durable record that a
    campaign survived faults), ``design`` (one record per design-backed
    experiment: the factor grid, point count, Latin-square subsample
    seed, and — on the compiled path — requested/unique job counts and
    the dedup ratio), ``service`` (required for ``kind == "service"``
    records: the campaign id, the journal recovery report, the shard
    fleet accounting, and per-op request counts from the daemon's
    request log), ``frontier`` (a solved response-time frontier: the
    containment-predicate configuration, the bisection bracket trace,
    every probe's per-replication finals, the scheduler's cache-dedup
    accounting, and — when the analytic gate ran — the mean-field
    cross-check verdict; see :mod:`repro.frontier`), ``metrics`` (a full
    :meth:`repro.obs.metrics.Metrics.snapshot`), ``extra``.

:func:`validate_manifest` returns a list of problems (empty = valid);
:func:`append_manifest` refuses to write an invalid record, so a manifest
file can only ever contain schema-valid lines.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
import socket
from collections import namedtuple
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.parameters import ScenarioConfig
from ..core.serialization import scenario_to_dict

#: Bump when the required core or the meaning of a section changes.
MANIFEST_SCHEMA_VERSION = 1

#: The record kinds a manifest file may contain.  ``service`` records
#: are appended by the campaign daemon (:mod:`repro.service`) — one per
#: completed campaign, carrying the queue recovery report, the shard
#: fleet accounting, and the request-log counters.
MANIFEST_KINDS = ("run", "profile", "service")

#: The frontier axes a ``frontier`` record may declare.
_FRONTIER_AXES = ("latency", "rollout")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The schema is data: a spec is a scalar ``_Kind`` (accepted types, how
# to describe them, and a value rule), a ``_ListOf`` items, a ``_MapOf``
# string-keyed values, or a dict — an object whose keys ending in ``?``
# are optional (absent or ``None``).  Keys a spec does not list pass
# unchecked.  :func:`_check` walks a record against :data:`_SCHEMA`.
_Kind = namedtuple("_Kind", "types expected valid invalid", defaults=(None, ""))
_ListOf = namedtuple("_ListOf", "item min_items", defaults=(0,))
_MapOf = namedtuple("_MapOf", "value")

# ``bool`` is an ``int`` subclass in Python; no numeric kind accepts it.
_INT = _Kind((int,), "an int")
_COUNT = _Kind((int,), "a non-negative int", lambda v: v >= 0, "negative")
_NUMBER = _Kind((int, float), "a number")
_SECONDS = _Kind((int, float), "a non-negative number", lambda v: v >= 0, "negative")
_RATIO = _Kind((int, float), "a ratio", lambda v: 0 <= v <= 1, "outside [0, 1]")
_SHARE = _Kind((int, float), "a share", lambda v: 0 < v <= 1, "outside (0, 1]")
_STR = _Kind((str,), "a string")
_BOOL = _Kind((bool,), "a bool")
_PAIR = _Kind(
    (list, tuple), "[low, high]",
    lambda v: len(v) == 2 and all(_is_number(x) for x in v), "not [low, high]",
)

#: One solved-frontier record (see ``FrontierResult.manifest_section``)
#: with its full evidence trail: the predicate configuration, the
#: bisection bracket trace, every probe's per-replication finals, and
#: the scheduler's cache-dedup accounting.
_FRONTIER_RECORD = {
    "scenario": _STR,
    "engine": _STR,
    "status": _STR,
    "axis": _Kind((str,), "a frontier axis", lambda v: v in _FRONTIER_AXES,
                  f"not one of {_FRONTIER_AXES}"),
    "predicate": {"plateau": _NUMBER, "fraction": _NUMBER, "threshold": _NUMBER},
    "critical": _NUMBER,
    "interval": _PAIR,
    "confidence": {"low": _NUMBER, "high": _NUMBER},
    "bracket": _ListOf(
        {"low": _NUMBER, "high": _NUMBER, "probe": _NUMBER, "contained": _BOOL}
    ),
    "probes": _ListOf(
        {"value": _NUMBER, "finals": _ListOf(_NUMBER, 1), "contained": _BOOL}, 1
    ),
    "replications": _INT,
    "seed": _INT,
    "cache": {"scheduled": _COUNT, "executed": _COUNT, "cache_hits": _COUNT},
}

#: The whole record; the module docstring says what each section means.
_SCHEMA = {
    "manifest_schema": _Kind((int,), "an int", lambda v: v == MANIFEST_SCHEMA_VERSION,
                             f"not schema version {MANIFEST_SCHEMA_VERSION}"),
    "kind": _Kind((str,), "a string", lambda v: v in MANIFEST_KINDS,
                  f"not one of {MANIFEST_KINDS}"),
    "label": _STR,
    "created": _STR,
    "wall_seconds": _SECONDS,
    "events_executed": _COUNT,
    "events_per_second": _SECONDS,
    "host": {},
    "events_total?": _COUNT,
    "seed?": _INT,
    "seeds?": _ListOf(_INT),
    "replications?": _COUNT,
    "scenarios?": _ListOf({"name": _STR, "hash": _Kind((str,), "a config hash")}),
    "cache?": {
        "hits": _COUNT, "misses": _COUNT, "writes": _COUNT,
        "hit_ratio": _RATIO, "dir": _STR,
    },
    "workers?": _ListOf({
        "pid": _COUNT, "jobs": _COUNT, "events": _COUNT,
        "busy_seconds": _SECONDS, "events_per_second": _SECONDS,
    }),
    "resilience?": {
        "retries": _COUNT, "quarantined": _COUNT, "pool_respawns": _COUNT,
        "degraded_to_serial": _BOOL,
        "events": _ListOf({"kind": _STR, "action": _STR}),
    },
    "service?": {
        "campaign": _STR,
        "queue": {
            "pending": _COUNT, "in_flight": _COUNT,
            "torn_lines": _COUNT, "segments_swept": _COUNT,
        },
        "shards": {
            "executed": _COUNT, "cache_hits": _COUNT, "respawns": _COUNT,
            "inline_fallback": _COUNT, "reassigned_tasks": _COUNT,
        },
        "requests": _MapOf(_COUNT),
    },
    "design?": _ListOf({
        "experiment": _STR,
        "factors": _ListOf({"name": _STR, "levels": _COUNT}),
        "points": _COUNT,
        "dedup_ratio?": _SHARE,
    }),
    "frontier?": {
        "production": _FRONTIER_RECORD,
        "crosscheck?": {
            "simulated": _FRONTIER_RECORD,
            "analytic": {"critical": _NUMBER},
            "passed": _BOOL,
            "slack": _NUMBER,
        },
    },
}


def _shape(spec: Any) -> Tuple[tuple, str]:
    """The types a spec accepts and how a problem describes them."""
    if isinstance(spec, _Kind):
        return spec.types, spec.expected
    if isinstance(spec, _ListOf):
        return (list, tuple), "a list"
    return (Mapping,), "an object"


def _check(value: Any, spec: Any, path: str, problems: List[str]) -> None:
    """Append every way ``value`` (at dotted ``path``) fails ``spec``."""
    where = path or "record"
    types, expected = _shape(spec)
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        problems.append(f"{where} has type {type(value).__name__}, expected {expected}")
    elif isinstance(spec, _Kind):
        if spec.valid is not None and not spec.valid(value):
            problems.append(f"{where} = {value!r} is {spec.invalid}")
    elif isinstance(spec, _ListOf):
        if len(value) < spec.min_items:
            problems.append(f"{where} is empty")
        for position, item in enumerate(value):
            _check(item, spec.item, f"{where}[{position}]", problems)
    elif isinstance(spec, _MapOf):
        for key, item in value.items():
            _check(item, spec.value, f"{where}[{key!r}]", problems)
    else:
        for key, field_spec in spec.items():
            name, optional = key.rstrip("?"), key.endswith("?")
            field = f"{path}.{name}" if path else name
            if name in value and not (optional and value[name] is None):
                _check(value[name], field_spec, field, problems)
            elif not optional:
                problems.append(
                    f"missing required field {field!r} ({_shape(field_spec)[1]})"
                )


def scenario_hash(config: ScenarioConfig) -> str:
    """Content hash of a scenario's canonical JSON.

    The same canonicalization the result cache keys on, so a manifest's
    scenario hash identifies exactly which configuration produced a run.
    """
    canonical = json.dumps(
        scenario_to_dict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def host_info() -> Dict[str, Any]:
    """Host/interpreter identity recorded with every manifest."""
    try:
        hostname = socket.gethostname()
    except OSError:  # pragma: no cover - exotic environments
        hostname = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "hostname": hostname,
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
    }


def utc_timestamp() -> str:
    """UTC creation timestamp in ISO-8601 (second resolution)."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )


def _plain(section: Any) -> Any:
    """A fresh copy of one optional section: mappings become dicts,
    sequences lists (item by item), and scalars (seeds, counts) ints."""
    if isinstance(section, Mapping):
        return dict(section)
    if isinstance(section, Iterable):
        return [_plain(item) for item in section]
    return int(section)


def build_manifest(
    kind: str,
    label: str,
    *,
    wall_seconds: float,
    events_executed: int = 0,
    events_total: Optional[int] = None,
    seed: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    replications: Optional[int] = None,
    scenarios: Optional[Sequence[Mapping[str, Any]]] = None,
    scheduler: Optional[Mapping[str, Any]] = None,
    design: Optional[Sequence[Mapping[str, Any]]] = None,
    cache: Optional[Mapping[str, Any]] = None,
    workers: Optional[Sequence[Mapping[str, Any]]] = None,
    kernel: Optional[Mapping[str, Any]] = None,
    resilience: Optional[Mapping[str, Any]] = None,
    service: Optional[Mapping[str, Any]] = None,
    frontier: Optional[Mapping[str, Any]] = None,
    metrics: Optional[Mapping[str, Any]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one schema-valid manifest record.

    ``events_per_second`` is derived from ``events_executed`` over
    ``wall_seconds`` (0.0 when either is zero — e.g. a fully cached run
    executes nothing).  Optional sections are included only when given.
    """
    rate = (
        events_executed / wall_seconds
        if wall_seconds > 0 and events_executed > 0
        else 0.0
    )
    document: Dict[str, Any] = {
        "manifest_schema": MANIFEST_SCHEMA_VERSION,
        "kind": kind,
        "label": label,
        "created": utc_timestamp(),
        "wall_seconds": round(float(wall_seconds), 6),
        "events_executed": int(events_executed),
        "events_per_second": round(rate, 1),
        "host": host_info(),
    }
    sections = dict(
        events_total=events_total, seed=seed, seeds=seeds,
        replications=replications, scenarios=scenarios, scheduler=scheduler,
        design=design, cache=cache, workers=workers, kernel=kernel,
        resilience=resilience, service=service, frontier=frontier,
        metrics=metrics, extra=extra,
    )
    for name, section in sections.items():
        if section is not None:
            document[name] = _plain(section)
    return document


def validate_manifest(document: Mapping[str, Any]) -> List[str]:
    """Schema-check one record; returns problems (empty list = valid)."""
    problems: List[str] = []
    _check(document, _SCHEMA, "", problems)
    if isinstance(document, Mapping) and document.get("kind") == "service":
        if document.get("service") is None:
            problems.append("kind 'service' requires a service section")
    return problems


def append_manifest(
    path: Union[str, Path], document: Mapping[str, Any]
) -> Path:
    """Validate ``document`` and append it as one JSONL line.

    Raises :class:`ValueError` listing the problems when the record is
    not schema-valid — manifest files never accumulate junk lines.
    """
    problems = validate_manifest(document)
    if problems:
        raise ValueError(
            "refusing to append invalid manifest record: " + "; ".join(problems)
        )
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(document, sort_keys=True, separators=(",", ":"))
    with target.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    return target


def read_manifests(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse every record of a manifest file (blank lines are skipped)."""
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{number}: not valid JSON: {exc}") from exc
    return records


__all__ = [
    "MANIFEST_KINDS",
    "MANIFEST_SCHEMA_VERSION",
    "append_manifest",
    "build_manifest",
    "host_info",
    "read_manifests",
    "scenario_hash",
    "utc_timestamp",
    "validate_manifest",
]
