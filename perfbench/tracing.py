"""Outside-in per-layer tracing for the benchmark.

The benchmark never edits the program under test.  A traced trial
instead wraps the public entry point of each layer -- the functions and
methods listed in :data:`PROBES` -- before any worker or shard process
is forked, so the wrappers are inherited and record calls made in every
process of the trial.  Each wrapped call appends one JSON line
``[probe, seconds, parent, fields]`` to a per-process file in the trace
directory; ``parent`` is the innermost probe active in the same process
when the call began (the span that caused it).  :func:`layer_metrics`
folds those records into the per-layer metrics ``BENCHMARK.json``
declares.

Untraced trials never import this module's wrappers, so their timings
carry no tracing cost.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``before(args, kwargs) -> token`` runs ahead of the wrapped call;
#: ``after(token, result, args, kwargs) -> fields`` runs after it and may
#: return ``None`` to drop the record (e.g. an empty queue poll).
Before = Callable[[tuple, dict], Any]
After = Callable[[Any, Any, tuple, dict], Optional[Dict[str, Any]]]


@dataclass(frozen=True)
class Probe:
    """One wrapped binding: ``"module:Qual.name"`` recorded as ``name``."""

    target: str
    name: str
    before: Optional[Before] = None
    after: Optional[After] = None


def _csr_digest(_token, adjacency, _args, _kwargs):
    digest = hashlib.sha1(adjacency.indptr.tobytes())
    digest.update(adjacency.indices.tobytes())
    return {"graph": digest.hexdigest()}


def _graph_digest(_token, graph, _args, _kwargs):
    lists = graph.neighbor_lists()
    return {"graph": hashlib.sha1(repr(lists).encode()).hexdigest()}


def _xl_run(_token, _result, args, _kwargs):
    counters = args[0].counters
    return {"rounds": counters["xl_rounds"], "events": counters["events_fired"]}


def _core_run(_token, _result, args, _kwargs):
    return {"events": args[0].sim.events_fired}


def _scheduler_before(args, _kwargs):
    scheduler = args[0]
    return (
        scheduler.stats.executed,
        scheduler.stats.cache_hits,
        len(scheduler.dispatch_decisions),
    )


def _scheduler_after(token, _result, args, _kwargs):
    scheduler = args[0]
    executed = scheduler.stats.executed - token[0]
    hits = scheduler.stats.cache_hits - token[1]
    modes = [d["mode"] for d in scheduler.dispatch_decisions[token[2]:]]
    if executed == 0:
        mode = "cached"
    elif "parallel" in modes:
        mode = "parallel"
    else:
        # Degraded batches and one-process schedulers both run inline.
        mode = "serial"
    return {"executed": executed, "hits": hits, "mode": mode}


def _pool_startup_before(args, _kwargs):
    return args[0].started


def _pool_startup_after(was_started, _result, _args, _kwargs):
    return None if was_started else {}


def _imap_before(args, kwargs):
    pool = args[0]
    count = kwargs.get("job_count")
    if count is None and len(args) > 2:
        count = args[2]
    workers = pool.processes if count is None else min(pool.processes, count)
    return {"workers": max(1, min(workers, os.cpu_count() or 1))}


def _imap_after(token, _result, _args, _kwargs):
    return dict(token)


def _cache_get(_token, result, _args, _kwargs):
    return {"hit": result is not None}


def _cache_put(_token, path, _args, _kwargs):
    return {"bytes": os.path.getsize(path)}


def _compiled_jobs(_token, compiled, _args, _kwargs):
    return {"jobs": len(compiled.jobs)}


def _claimed(_token, claimed, _args, _kwargs):
    return None if claimed is None else {}


def _shard_execute(_token, report, args, kwargs):
    tasks = kwargs.get("tasks", args[1] if len(args) > 1 else ())
    return {"tasks": len(tasks), "respawns": report.respawns}


def _frontier_after(_token, result, _args, _kwargs):
    return {"probes": len(result.probes), "jobs": result.jobs_scheduled}


#: Every wrapped binding.  A module-level function is also rebound in
#: each other ``repro`` module that imported it by name, unless that
#: binding has a probe of its own (the shard's ``run_indexed_job`` is
#: the pool's worker function, recorded under its own name).
PROBES: Tuple[Probe, ...] = (
    Probe("repro.topology.csr:csr_powerlaw", "topology.csr_powerlaw",
          after=_csr_digest),
    Probe("repro.topology.csr:CSRAdjacency.from_edges", "topology.from_edges"),
    Probe("repro.topology.generators:contact_network",
          "topology.contact_network", after=_graph_digest),
    Probe("repro.xl.engine:XLEngine.__init__", "xl.build"),
    Probe("repro.xl.engine:XLEngine.run", "xl.run", after=_xl_run),
    Probe("repro.core.model:PhoneNetworkModel.__init__", "core.build"),
    Probe("repro.core.model:PhoneNetworkModel.run", "core.run",
          after=_core_run),
    Probe("repro.experiments.scheduler:ReplicationScheduler.run_jobs",
          "scheduler.run_jobs", before=_scheduler_before,
          after=_scheduler_after),
    Probe("repro.experiments.scheduler:ReplicationScheduler.replicate",
          "scheduler.replicate"),
    Probe("repro.core.parallel:WorkerPool._ensure_pool", "pool.startup",
          before=_pool_startup_before, after=_pool_startup_after),
    Probe("repro.core.parallel:WorkerPool.imap_indexed", "pool.imap",
          before=_imap_before, after=_imap_after),
    Probe("repro.core.parallel:_run_indexed", "pool.job"),
    Probe("repro.service.shard:run_indexed_job", "shard.job"),
    Probe("repro.frontier.solver:FrontierSolver.solve", "frontier.solve",
          after=_frontier_after),
    Probe("repro.core.cache:ResultCache.get", "cache.get", after=_cache_get),
    Probe("repro.core.cache:ResultCache.put", "cache.put", after=_cache_put),
    Probe("repro.core.serialization:result_to_dict", "serialization.to_dict"),
    Probe("repro.core.serialization:result_from_dict",
          "serialization.from_dict"),
    Probe("repro.design.compile:compile_design", "design.compile",
          after=_compiled_jobs),
    Probe("repro.service.journal:PersistentQueue.submit", "journal.op"),
    Probe("repro.service.journal:PersistentQueue.claim", "journal.op",
          after=_claimed),
    Probe("repro.service.journal:PersistentQueue.ack", "journal.op"),
    Probe("repro.service.journal:PersistentQueue.cancel", "journal.op"),
    Probe("repro.resilience.checkpoint:CampaignCheckpoint.record",
          "checkpoint.record"),
    Probe("os:fsync", "fsync"),
    Probe("repro.service.shard:ShardManager.execute", "shard.execute",
          after=_shard_execute),
    Probe("repro.service.client:ServiceClient.submit", "protocol.submit"),
    Probe("repro.service.client:ServiceClient.results", "protocol.results"),
)


#: Attribute that marks a probe wrapper (see :meth:`Tracer.leftovers`).
_WRAPPER_MARK = "__perfbench_probe__"


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` of a ``module:Qual.name`` target.

    The raw value is read from the owner's ``__dict__`` so classmethods
    stay classmethod objects.
    """
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, vars(owner)[attribute]


class Tracer:
    """Installs the probes and writes their records under ``trace_dir``."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._installed: List[Tuple[Any, str, Any]] = []
        self._fd: Optional[int] = None
        self._fd_pid: Optional[int] = None
        self._spans = threading.local()

    # -- recording -----------------------------------------------------------

    def _active(self) -> List[str]:
        """This thread's open probes, innermost last."""
        pid = os.getpid()
        if getattr(self._spans, "pid", None) != pid:
            # A forked child starts with no open spans of its own.
            self._spans.stack = []
            self._spans.pid = pid
        return self._spans.stack

    def emit(self, name: str, seconds: float, parent: Optional[str],
             fields: Dict[str, Any]) -> None:
        pid = os.getpid()
        if self._fd_pid != pid:
            # Two threads racing here each open the file; with O_APPEND
            # both descriptors still write whole lines.
            self._fd = os.open(
                self.trace_dir / f"{pid}.jsonl",
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            self._fd_pid = pid
        line = json.dumps([name, seconds, parent, fields]) + "\n"
        os.write(self._fd, line.encode())

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def generator_wrapper(*args, **kwargs):
                token = probe.before(args, kwargs) if probe.before else None
                stack = tracer._active()
                parent = stack[-1] if stack else None
                started = time.perf_counter()
                inside = 0.0
                first: Optional[float] = None
                items = 0
                inner = original(*args, **kwargs)
                try:
                    while True:
                        resumed = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            inside += time.perf_counter() - resumed
                            break
                        now = time.perf_counter()
                        inside += now - resumed
                        if first is None:
                            first = now - started
                        items += 1
                        yield item
                finally:
                    inner.close()
                    fields = {
                        "items": items,
                        "first": first or 0.0,
                        "span": time.perf_counter() - started,
                    }
                    if probe.after is not None:
                        fields.update(probe.after(token, None, args, kwargs) or {})
                    tracer.emit(probe.name, inside, parent, fields)

            setattr(generator_wrapper, _WRAPPER_MARK, probe.name)
            return generator_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = probe.before(args, kwargs) if probe.before else None
            stack = tracer._active()
            parent = stack[-1] if stack else None
            stack.append(probe.name)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - started
                stack.pop()
            fields: Optional[Dict[str, Any]] = {}
            if probe.after is not None:
                fields = probe.after(token, result, args, kwargs)
            if fields is not None:
                tracer.emit(probe.name, seconds, parent, fields)
            return result

        setattr(wrapper, _WRAPPER_MARK, probe.name)
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every probe target (and by-name imports of functions)."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        resolved = [(probe, *_resolve(probe.target)) for probe in PROBES]
        own_bindings = {(id(owner), attr) for _, owner, attr, _ in resolved}
        try:
            for probe, owner, attribute, raw in resolved:
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self._wrap(probe, raw.__func__))
                else:
                    wrapped = self._wrap(probe, raw)
                self._set(owner, attribute, raw, wrapped)
                if inspect.ismodule(owner):
                    for module in _repro_modules():
                        for name, value in list(vars(module).items()):
                            if value is raw and (id(module), name) not in own_bindings:
                                self._set(module, name, raw, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def _set(self, owner: Any, attribute: str, raw: Any, wrapped: Any) -> None:
        setattr(owner, attribute, wrapped)
        self._installed.append((owner, attribute, raw))

    def uninstall(self) -> None:
        """Restore every original binding (idempotent)."""
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)
        if self._fd is not None and self._fd_pid == os.getpid():
            os.close(self._fd)
        self._fd = None
        self._fd_pid = None

    def leftovers(self) -> List[str]:
        """Bindings that still hold a probe wrapper (empty after uninstall)."""
        found = []
        for probe in PROBES:
            _, _, raw = _resolve(probe.target)
            if _is_wrapper(raw):
                found.append(probe.target)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if _is_wrapper(value):
                    found.append(f"{module.__name__}:{name}")
        return sorted(set(found))


def _is_wrapper(value: Any) -> bool:
    if isinstance(value, classmethod):
        value = value.__func__
    return hasattr(value, _WRAPPER_MARK)


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def read_records(trace_dir: Path) -> List[list]:
    """Every record every process of a traced trial wrote."""
    records = []
    for path in sorted(Path(trace_dir).glob("*.jsonl")):
        with path.open(encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


#: Per-layer metric -> (unit, better).  ``layer_metrics`` emits exactly
#: these keys, except ``trace.overhead_s`` and ``warm_wall_s``, which
#: the runner fills in from the untraced trials.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "topology.csr_powerlaw_s": ("s", "lower"),
    "topology.from_edges_s": ("s", "lower"),
    "topology.contact_network_s": ("s", "lower"),
    "topology.builds": ("count", "lower"),
    "topology.distinct_graphs": ("count", "lower"),
    "xl.build_s": ("s", "lower"),
    "xl.run_s": ("s", "lower"),
    "xl.rounds": ("count", "lower"),
    "xl.events": ("count", "lower"),
    "xl.run_events_per_s": ("1/s", "higher"),
    "core.build_s": ("s", "lower"),
    "core.run_s": ("s", "lower"),
    "core.events": ("count", "lower"),
    "core.run_events_per_s": ("1/s", "higher"),
    "scheduler.batches_serial": ("count", "lower"),
    "scheduler.batches_parallel": ("count", "higher"),
    "scheduler.batches_cached": ("count", "higher"),
    "scheduler.replicate_s": ("s", "lower"),
    "scheduler.executed": ("count", "lower"),
    "scheduler.cache_hits": ("count", "higher"),
    "pool.startup_s": ("s", "lower"),
    "pool.imap_s": ("s", "lower"),
    "pool.worker_busy_s": ("s", "lower"),
    "pool.utilization": ("ratio", "higher"),
    "frontier.probes": ("count", "lower"),
    "frontier.probe_s": ("s", "lower"),
    "frontier.jobs_scheduled": ("count", "lower"),
    "cache.gets": ("count", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.get_s": ("s", "lower"),
    "cache.puts": ("count", "lower"),
    "cache.put_s": ("s", "lower"),
    "cache.bytes_written": ("bytes", "lower"),
    "serialization.to_dict_s": ("s", "lower"),
    "serialization.from_dict_s": ("s", "lower"),
    "serialization.calls": ("count", "lower"),
    "design.compile_s": ("s", "lower"),
    "design.jobs": ("count", "lower"),
    "journal.ops": ("count", "lower"),
    "journal.op_s": ("s", "lower"),
    "checkpoint.records": ("count", "lower"),
    "checkpoint.record_s": ("s", "lower"),
    "fsync.calls": ("count", "lower"),
    "fsync.s": ("s", "lower"),
    "shard.execute_s": ("s", "lower"),
    "shard.tasks": ("count", "lower"),
    "shard.respawns": ("count", "lower"),
    "protocol.submit_s": ("s", "lower"),
    "protocol.first_result_s": ("s", "lower"),
    "protocol.frames": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "warm_wall_s": ("s", "lower"),
}


def layer_metrics(records: List[list]) -> Dict[str, float]:
    """Fold trace records into the :data:`LAYER_METRICS` values.

    Seconds are summed over every call in every process.  A layer the
    workload never reached reads 0 calls and 0 seconds, and its rates
    read 0.
    """
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    by_name: Dict[str, List[list]] = {}
    for record in records:
        name, spent = record[0], record[1]
        seconds[name] = seconds.get(name, 0.0) + spent
        calls[name] = calls.get(name, 0) + 1
        by_name.setdefault(name, []).append(record)

    def total(name: str, field: str) -> float:
        return sum(r[3].get(field, 0) for r in by_name.get(name, ()))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else 0.0

    builds = by_name.get("topology.csr_powerlaw", []) + by_name.get(
        "topology.contact_network", []
    )
    modes = [r[3]["mode"] for r in by_name.get("scheduler.run_jobs", ())]
    pool_capacity = sum(
        r[3]["span"] * r[3]["workers"] for r in by_name.get("pool.imap", ())
    )
    gets = by_name.get("cache.get", ())
    results_calls = by_name.get("protocol.results", ())
    metrics = {
        "topology.csr_powerlaw_s": seconds.get("topology.csr_powerlaw", 0.0),
        "topology.from_edges_s": seconds.get("topology.from_edges", 0.0),
        "topology.contact_network_s": seconds.get("topology.contact_network", 0.0),
        "topology.builds": len(builds),
        "topology.distinct_graphs": len({r[3]["graph"] for r in builds}),
        "xl.build_s": seconds.get("xl.build", 0.0),
        "xl.run_s": seconds.get("xl.run", 0.0),
        "xl.rounds": total("xl.run", "rounds"),
        "xl.events": total("xl.run", "events"),
        "xl.run_events_per_s": ratio(total("xl.run", "events"), seconds.get("xl.run", 0.0)),
        "core.build_s": seconds.get("core.build", 0.0),
        "core.run_s": seconds.get("core.run", 0.0),
        "core.events": total("core.run", "events"),
        "core.run_events_per_s": ratio(total("core.run", "events"), seconds.get("core.run", 0.0)),
        "scheduler.batches_serial": modes.count("serial"),
        "scheduler.batches_parallel": modes.count("parallel"),
        "scheduler.batches_cached": modes.count("cached"),
        "scheduler.replicate_s": seconds.get("scheduler.replicate", 0.0),
        "scheduler.executed": total("scheduler.run_jobs", "executed"),
        "scheduler.cache_hits": total("scheduler.run_jobs", "hits"),
        "pool.startup_s": seconds.get("pool.startup", 0.0),
        "pool.imap_s": seconds.get("pool.imap", 0.0),
        "pool.worker_busy_s": seconds.get("pool.job", 0.0),
        "pool.utilization": ratio(seconds.get("pool.job", 0.0), pool_capacity),
        "frontier.probes": total("frontier.solve", "probes"),
        "frontier.probe_s": sum(
            r[1] for r in by_name.get("scheduler.replicate", ())
            if r[2] == "frontier.solve"
        ),
        "frontier.jobs_scheduled": total("frontier.solve", "jobs"),
        "cache.gets": len(gets),
        "cache.hits": sum(1 for r in gets if r[3]["hit"]),
        "cache.get_s": seconds.get("cache.get", 0.0),
        "cache.puts": calls.get("cache.put", 0),
        "cache.put_s": seconds.get("cache.put", 0.0),
        "cache.bytes_written": total("cache.put", "bytes"),
        "serialization.to_dict_s": seconds.get("serialization.to_dict", 0.0),
        "serialization.from_dict_s": seconds.get("serialization.from_dict", 0.0),
        "serialization.calls": calls.get("serialization.to_dict", 0)
        + calls.get("serialization.from_dict", 0),
        "design.compile_s": seconds.get("design.compile", 0.0),
        "design.jobs": total("design.compile", "jobs"),
        "journal.ops": calls.get("journal.op", 0),
        "journal.op_s": seconds.get("journal.op", 0.0),
        "checkpoint.records": calls.get("checkpoint.record", 0),
        "checkpoint.record_s": seconds.get("checkpoint.record", 0.0),
        "fsync.calls": calls.get("fsync", 0),
        "fsync.s": seconds.get("fsync", 0.0),
        "shard.execute_s": seconds.get("shard.execute", 0.0),
        "shard.tasks": total("shard.execute", "tasks"),
        "shard.respawns": total("shard.execute", "respawns"),
        "protocol.submit_s": seconds.get("protocol.submit", 0.0),
        "protocol.first_result_s": results_calls[0][3]["first"] if results_calls else 0.0,
        "protocol.frames": total("protocol.results", "items"),
    }
    return metrics
