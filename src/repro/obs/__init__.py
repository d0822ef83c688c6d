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

from .._lazy import lazy_surface

#: Each public name is imported from its submodule on first use (PEP 562).
#: The DES kernel imports ``repro.obs.metrics`` while ``obs.manifest`` and
#: ``obs.profile`` import the core model layers built *on* the kernel, so
#: loading them with the metrics registry would be circular.
__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    globals(),
    {
        ".metrics": ("Counter", "Gauge", "Metrics", "NULL_METRICS", "Timer"),
        ".manifest": (
            "MANIFEST_KINDS",
            "MANIFEST_SCHEMA_VERSION",
            "append_manifest",
            "build_manifest",
            "host_info",
            "read_manifests",
            "scenario_hash",
            "validate_manifest",
        ),
        ".profile": ("ProfileReport", "run_profile"),
    },
)
