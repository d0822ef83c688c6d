"""Run telemetry: metrics registry, run manifests, and hot-path profiling.

``repro.obs`` is the observability layer threaded through every execution
path — the DES kernel, the worker pool, the replication scheduler, the
campaign daemon, and the CLI:

* :mod:`repro.obs.metrics` — a :class:`Metrics` registry of counters,
  gauges, and timers with a near-zero-cost disabled path (model and
  kernel code always holds a registry; the default :data:`NULL_METRICS`
  makes every record call a single boolean check);
* :mod:`repro.obs.manifest` — the per-run JSONL **run manifest**: one
  schema-validated record per run (scenario hashes, seeds, wall time,
  events/sec, cache stats, per-worker rates, host info) appended by the
  scheduler, the campaign daemon, and ``repro-sim profile``;
* :mod:`repro.obs.profile` — runs a short scenario under full
  instrumentation and reports a per-event-label hot-path breakdown.

``python -m repro.obs check manifest.jsonl`` validates manifest files
(used by CI as a schema gate).
"""

from .metrics import NULL_METRICS, Counter, Gauge, Metrics, Timer

#: Lazy re-exports (PEP 562).  The DES kernel imports ``repro.obs.metrics``
#: while :mod:`repro.obs.manifest`/:mod:`repro.obs.profile` import the core
#: model layers built *on* the kernel — eagerly importing them here would
#: make loading the metrics registry circular.
_LAZY_EXPORTS = {
    "MANIFEST_KINDS": "manifest",
    "MANIFEST_SCHEMA_VERSION": "manifest",
    "append_manifest": "manifest",
    "build_manifest": "manifest",
    "host_info": "manifest",
    "read_manifests": "manifest",
    "scenario_hash": "manifest",
    "validate_manifest": "manifest",
    "ProfileReport": "profile",
    "run_profile": "profile",
}


def __getattr__(name):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module_name}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))

__all__ = [
    "Counter",
    "Gauge",
    "MANIFEST_KINDS",
    "MANIFEST_SCHEMA_VERSION",
    "Metrics",
    "NULL_METRICS",
    "ProfileReport",
    "Timer",
    "append_manifest",
    "build_manifest",
    "host_info",
    "read_manifests",
    "run_profile",
    "scenario_hash",
    "validate_manifest",
]
