"""Benchmark entry point: measure one workload, print one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every trial runs in a fresh subprocess (``perfbench/trial.py``) with its
own temporary cache root and spool under ``.perfbench-tmp/``, so neither
heap state nor cache entries leak between workloads, trials or runs.
Trials repeat until ``--seconds`` is spent; the end-to-end metrics are
medians over them.  ``setup_s`` is the median of at least
:data:`MIN_SETUPS` set-ups, topped up with set-up-only trials when the
work itself leaves too few.  While a trial runs, this process samples
the RSS of its whole process tree (the trial plus its workers, daemon
and shards).

``--trace 1`` adds one traced trial after the untraced ones and reports
the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the result object; the line before
it records the host, every trial and every failed check.  The exit code
is 0 whenever a result was printed (``correct`` says whether the
outputs were right) and 2 when the benchmark could not run at all, for
instance outside a checkout that holds ``src/repro``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import SMALL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench-tmp"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = tuple(WORKLOADS)

#: End-to-end metric -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

#: Set-ups measured per run (the median is reported).
MIN_SETUPS = 3
#: Full trials per run, whatever ``--seconds`` allows.  Two at least, so
#: that no figure rests on a single process.
MIN_TRIALS = 2
MAX_TRIALS = 9
#: Every trial must end this long after the run started.
RUN_DEADLINE_S = 170.0
#: RSS sampling period of the process-tree sampler.
SAMPLE_S = 0.02

_PAGE = os.sysconf("SC_PAGE_SIZE")


class TreeSampler(threading.Thread):
    """Samples the summed RSS of a process and all its descendants.

    A process counts from the second sample that finds it.  A child
    forked only to exec a helper (``platform`` runs ``uname`` that way)
    briefly shows its parent's whole RSS; it has exec'd or exited by
    then, so it does not count that RSS twice.
    """

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_bytes = 0
        self._halt = threading.Event()
        self._previous: set = set()

    @staticmethod
    def _children(pid: int) -> List[int]:
        found: List[int] = []
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as handle:
                    found.extend(int(c) for c in handle.read().split())
        except OSError:
            pass
        return found

    @staticmethod
    def _rss(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/statm") as handle:
                return int(handle.read().split()[1]) * _PAGE
        except (OSError, IndexError, ValueError):
            return 0

    def tree_rss(self) -> int:
        pending, seen, total = [self.pid], set(), 0
        while pending:
            pid = pending.pop()
            seen.add(pid)
            if pid in self._previous:
                total += self._rss(pid)
            pending.extend(self._children(pid))
        self._previous = seen
        return total

    def run(self) -> None:
        while not self._halt.is_set():
            self.peak_bytes = max(self.peak_bytes, self.tree_rss())
            self._halt.wait(SAMPLE_S)

    def stop(self) -> None:
        self._halt.set()
        self.join()


def _become_subreaper() -> None:
    """Adopt orphaned descendants so leftovers can be killed and reaped."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _reap_leftovers(pgid: int) -> None:
    """Kill whatever a trial left behind and wait for it to end.

    That is the trial's process group, plus any orphan that left the
    group and was reparented here.  Between trials this process has no
    children of its own.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    for pid in TreeSampler._children(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


class Runner:
    """Runs the trials of one workload and folds them into a result."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        TMP_ROOT.mkdir(exist_ok=True)
        self.tmp = TMP_ROOT / f"run-{os.getpid()}"
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir()
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    def trial(self, trace: bool = False, setup_only: bool = False) -> Dict[str, Any]:
        """One fresh-subprocess trial; its report plus what the parent saw."""
        self._count += 1
        workdir = self.tmp / f"trial-{self._count}"
        workdir.mkdir()
        out = workdir / "report.json"
        command = [
            sys.executable, str(HERE / "trial.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--workdir", str(workdir), "--out", str(out),
        ]
        command += ["--trace"] if trace else []
        command += ["--setup-only"] if setup_only else []
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(workdir))
        stderr_path = workdir / "stderr.txt"
        with stderr_path.open("wb") as stderr:
            spawned = time.perf_counter()
            process = subprocess.Popen(
                command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                stderr=stderr, start_new_session=True,
            )
            sampler = TreeSampler(process.pid)
            sampler.start()
            remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
            timer = threading.Timer(
                max(1.0, remaining), os.killpg, (process.pid, signal.SIGKILL)
            )
            timer.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            except BaseException:
                # Interrupted (SIGTERM, Ctrl-C): take the trial down too.
                _reap_leftovers(process.pid)
                raise
            finally:
                timer.cancel()
                sampler.stop()
            process.returncode = os.waitstatus_to_exitcode(status)
            ended = time.perf_counter()
        _reap_leftovers(process.pid)
        report: Dict[str, Any] = {"exit_code": process.returncode}
        if process.returncode == 0 and out.exists():
            report.update(json.loads(out.read_text(encoding="utf-8")))
        else:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace")
            report["crash"] = tail[-2000:] or f"exit code {process.returncode}"
        if "ready" in report:
            report["setup_s"] = report["ready"] - spawned
        peak = max(sampler.peak_bytes, usage.ru_maxrss * 1024)
        report["peak_rss_mib"] = peak / (1024 * 1024)
        report["duration_s"] = ended - spawned
        return report

    def untraced_trials(self) -> List[Dict[str, Any]]:
        trials = []
        while True:
            trials.append(self.trial())
            if "crash" in trials[-1]:
                return trials
            elapsed = time.perf_counter() - self.started
            typical = statistics.median(t["duration_s"] for t in trials)
            if len(trials) >= MAX_TRIALS or (
                len(trials) >= MIN_TRIALS and elapsed + typical > self.seconds
            ):
                return trials


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def _mem_total_kib() -> Optional[int]:
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def host_record(spool: Path, numpy_version: Optional[str]) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "mem_total_kib": _mem_total_kib(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "spool_fs": _fs_type(spool),
    }


def _load_reference(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    if SMALL or not REFERENCE.exists():
        return None
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def judge(workload: str, seed: int, trials: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Count attempted and failed results and list every failed check.

    Beyond each trial's own checks, every trial of a seed must produce
    the same outputs (the traced one included), those outputs must
    match the reference values recorded for the seed, if any, and no
    probe wrapper may survive a traced trial.
    """
    attempted = failed = 0
    errors: List[str] = []
    reference = _load_reference(workload, seed)
    digests = set()
    for number, trial in enumerate(trials, 1):
        if "crash" in trial:
            attempted += 1
            failed += 1
            errors.append(f"trial {number} crashed: {trial['crash']}")
            continue
        if "digest" not in trial:
            continue  # set-up only
        attempted += trial["attempted"]
        failed += trial["failed"]
        errors.extend(f"trial {number}: {e}" for e in trial["errors"])
        digests.add(trial["digest"])
        if reference is not None and (
            trial["digest"] != reference["digest"]
            or trial["summary"] != reference["summary"]
        ):
            failed += trial["cold_attempted"]
            errors.append(
                f"trial {number}: outputs {trial['summary']} differ from the "
                f"reference {reference['summary']}"
            )
        if trial.get("leftover_wrappers"):
            failed += 1
            errors.append(f"wrappers left installed: {trial['leftover_wrappers']}")
    if len(digests) > 1:
        failed += 1
        errors.append("trials of one seed produced different outputs")
    return {
        "attempted": max(attempted, 1),
        "failed": min(failed, max(attempted, 1)),
        "errors": errors,
        "reference": "none" if reference is None else "checked",
    }


def end_to_end_metrics(trials: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over the run's trials (set-up-only trials give ``setup_s``)."""
    work = [t for t in trials if "wall_s" in t]
    return {
        "setup_s": statistics.median(t["setup_s"] for t in trials if "setup_s" in t),
        "wall_s": statistics.median(t["wall_s"] for t in work),
        "peak_rss_mib": statistics.median([t["peak_rss_mib"] for t in work]),
    }


def layer_metric_values(traced: Dict[str, Any], untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    values = dict(traced["layers"])
    work = [t for t in untraced if "wall_s" in t]
    values["trace.overhead_s"] = traced["wall_s"] - statistics.median(
        t["wall_s"] for t in work
    )
    # A trial's warm passes take about a second together and all see the
    # same phase of host contention, which can double a ms-scale pass;
    # the fastest pass of the run is the repeatable figure.
    values["warm_wall_s"] = min(min(t["warm_s"]) for t in work)
    return values


def _with_units(values: Dict[str, float], units: Dict[str, Any]) -> Dict[str, Any]:
    return {name: {"value": values[name], "unit": units[name][0]} for name in units}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2

    _become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        trials = runner.untraced_trials()
        crashed = any("crash" in t for t in trials)
        traced = None
        if args.trace and not crashed:
            traced = runner.trial(trace=True)
            crashed = "crash" in traced
        else:
            while sum("setup_s" in t for t in trials) < MIN_SETUPS and not crashed:
                trials.append(runner.trial(setup_only=True))
                crashed = "crash" in trials[-1]
        verdict = judge(args.workload, args.seed, trials + ([traced] if traced else []))
        numpy_version = next((t["numpy"] for t in trials if "numpy" in t), None)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "host": host_record(runner.tmp, numpy_version),
            "reference": verdict["reference"],
            "trials": [
                {k: t.get(k) for k in ("setup_s", "wall_s", "warm_s", "peak_rss_mib",
                                       "duration_s", "summary", "digest")}
                for t in trials
            ],
            "errors": verdict["errors"],
        }
        if traced is not None:
            detail["traced"] = {
                k: traced.get(k) for k in ("wall_s", "digest", "leftover_wrappers")
            }
        if crashed:
            metrics: Dict[str, Any] = {}
        elif traced is not None:
            from tracing import LAYER_METRICS

            metrics = _with_units(layer_metric_values(traced, trials), LAYER_METRICS)
        else:
            metrics = _with_units(end_to_end_metrics(trials), END_TO_END)
    finally:
        runner.close()
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not crashed and verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
