"""Shared helpers for the figure benchmarks.

Each benchmark regenerates one paper artifact at full scale (1000 phones,
the paper's horizons), prints the same rows/series the paper plots (table +
ASCII chart + shape-check outcomes), and asserts that the paper's
qualitative claims hold.

Environment knobs:

* ``REPRO_BENCH_REPLICATIONS`` — replications per series (default: the
  spec's own default, typically 3).
* ``REPRO_BENCH_SEED`` — master seed (default 2007, the paper's year).
"""

from __future__ import annotations

import os

import pytest

from repro.design.library import get_experiment
from repro.experiments import (
    ExperimentResult,
    format_experiment_report,
    run_experiment,
)


def bench_replications(default: int) -> int:
    """Replications per series, overridable via the environment."""
    value = os.environ.get("REPRO_BENCH_REPLICATIONS")
    return int(value) if value else default


def bench_seed() -> int:
    """Master seed, overridable via the environment."""
    return int(os.environ.get("REPRO_BENCH_SEED", "2007"))


def run_figure(experiment_id: str, benchmark) -> ExperimentResult:
    """Run one registered experiment under pytest-benchmark and report it."""
    spec = get_experiment(experiment_id)
    replications = bench_replications(spec.default_replications)
    seed = bench_seed()

    def execute() -> ExperimentResult:
        return run_experiment(spec, replications=replications, seed=seed)

    result = benchmark.pedantic(execute, rounds=1, iterations=1)
    print()
    print(format_experiment_report(result))
    return result


def assert_checks_pass(result: ExperimentResult, allow_failures: int = 0) -> None:
    """Fail the bench if more than ``allow_failures`` shape checks fail."""
    outcomes = result.run_checks()
    failures = [c for c in outcomes if not c.passed]
    if len(failures) > allow_failures:
        details = "\n".join(c.format() for c in failures)
        pytest.fail(
            f"{len(failures)} shape check(s) failed for "
            f"{result.spec.experiment_id}:\n{details}"
        )
