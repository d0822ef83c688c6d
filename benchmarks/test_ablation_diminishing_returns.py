"""§5.3 analysis bench: diminishing-returns knees per response mechanism.

The paper: the experiments are "useful for locating the point of
diminishing returns for each individual response mechanism".  This bench
runs the two headline strength sweeps (gateway-scan activation delay on
Virus 1, blacklist threshold on Virus 3), prints the benefit curves, and
locates the knees.
"""

from __future__ import annotations

from conftest import bench_replications, bench_seed
from repro.design.library import SWEEP_AXES, get_experiment
from repro.experiments import ReplicationScheduler
from repro.experiments.sensitivity import format_sweep, sweep_finals


def test_diminishing_returns_knees(benchmark):
    replications = bench_replications(2)
    seed = bench_seed()
    sweep_ids = ("scan_delay", "blacklist_threshold")

    def run():
        with ReplicationScheduler() as scheduler:
            return {
                sweep_id: scheduler.run_experiment(
                    get_experiment(sweep_id), replications=replications, seed=seed
                )
                for sweep_id in sweep_ids
            }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for sweep_id, result in results.items():
        print(format_sweep(SWEEP_AXES[sweep_id], result))
        print()

    baseline, finals = sweep_finals(results["scan_delay"])
    # Faster scans always help (weak monotonicity along the delay axis,
    # with slack for Monte Carlo noise).
    assert finals[0] <= finals[-1] + 0.1 * baseline
    # Beyond some delay, the scan barely helps: the longest delay leaves
    # at least half the baseline infections in place, while the shortest
    # prevents most of them.
    assert finals[0] < 0.3 * baseline
    assert finals[-1] > 0.5 * baseline

    baseline, finals = sweep_finals(results["blacklist_threshold"])
    assert finals[0] < 0.4 * baseline
    assert finals[-1] > 0.6 * baseline
