"""One trial of one workload, run by ``run.py`` in a fresh subprocess.

Usage (``src`` on ``PYTHONPATH``, the work directory as cwd)::

    python3 perfbench/trial.py --workload NAME --seed N --workdir DIR \\
        --out REPORT.json [--trace] [--setup-only]

The trial imports the program, starts the workload and stamps the
monotonic clock when it can take work (the parent, which stamped the
clock before spawning it, turns that into ``setup_s``).  It then runs the
cold pass once and the warm pass ``warm_passes`` times, checks every
pass, stops the workload and writes a JSON report.  ``--trace`` installs
the per-layer probes before the workload starts and runs one warm pass;
``--setup-only`` stops right after the workload is ready.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def _check(workload, output, state, report, cold_digest=None):
    outcome = workload.check(output, state)
    report["attempted"] += outcome.attempted
    errors = list(outcome.errors)
    if cold_digest is not None and outcome.digest != cold_digest:
        errors.append("warm outputs differ from the cold pass")
    report["failed"] += min(outcome.attempted, len(errors))
    report["errors"].extend(errors[:20])
    return outcome


def run_trial(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir).resolve()
    report = {"attempted": 0, "failed": 0, "errors": [], "warm_s": []}
    workload.import_layers()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(workdir / "trace")
        tracer.install()
    try:
        state = workload.start(workdir, args.seed)
        report["ready"] = time.perf_counter()
        try:
            if not args.setup_only:
                started = time.perf_counter()
                output = workload.cold(state)
                report["wall_s"] = time.perf_counter() - started
                cold = _check(workload, output, state, report)
                report["digest"] = cold.digest
                report["summary"] = cold.summary
                report["cold_attempted"] = cold.attempted
                passes = 1 if args.trace else workload.warm_passes
                for _ in range(passes):
                    started = time.perf_counter()
                    output = workload.warm(state)
                    report["warm_s"].append(time.perf_counter() - started)
                    _check(workload, output, state, report, cold.digest)
        finally:
            workload.stop(state)
    finally:
        if tracer is not None:
            tracer.uninstall()
            report["leftover_wrappers"] = tracer.leftovers()
    if tracer is not None:
        from tracing import layer_metrics, read_records

        report["layers"] = layer_metrics(read_records(tracer.trace_dir))
    import numpy

    report["numpy"] = numpy.__version__
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    report = run_trial(args)
    Path(args.out).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
