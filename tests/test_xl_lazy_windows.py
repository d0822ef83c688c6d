"""Infection-anchored (lazy) fixed budget windows on the xl engine.

With ``global_limit_windows=False`` each phone's window starts at its own
infection and rolls forward at its next send.  The roll must use the core
model's comparison (``t >= period_start + window``): a budget-deferred
retry lands exactly at ``period_start + window``, and a rule that
computes ``floor((t - period_start) / window)`` can read 0 there after
rounding (``period_start=8.03150497155578``, ``window=24``), defer the
send to the same instant again and spin forever inside one round.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.core.parameters import LimitPeriod
from repro.core.scenarios import baseline_scenario
from repro.core.simulation import run_scenario
from repro.validation.gates import mean_equivalence_gate, welch_gate
from repro.xl.engine import run_scenario_xl
from repro.xl.presets import xl_scenario

#: Wall-clock ceiling for one test (each takes ~1-5 s).
DEADLINE_S = 30


@contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"xl run still going after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _lazy_v2(config):
    return replace(config, virus=replace(config.virus, global_limit_windows=False))


def _windowed_v3(config):
    virus = replace(
        config.virus,
        limit_period=LimitPeriod.FIXED_WINDOW,
        message_limit=30,
        limit_window=2.0,
    )
    return replace(config, virus=virus)


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(_lazy_v2(xl_scenario(2, "xl-10k", duration=96.0)), id="v2-lazy-96h"),
        pytest.param(_windowed_v3(xl_scenario(3, "xl-10k")), id="v3-window-2h"),
    ],
)
def test_lazy_window_runs_finish(config):
    with _deadline(DEADLINE_S):
        result = run_scenario_xl(config, seed=0)
    assert result.final_time == config.duration
    assert result.counters["sends_deferred_by_budget"] > 0


def test_lazy_window_xl_matches_core():
    config = _lazy_v2(baseline_scenario(2, duration=96.0))
    with _deadline(DEADLINE_S):
        finals = {
            engine: [
                float(
                    run_scenario(config.with_engine(engine), seed=3, replication=rep)
                    .total_infected
                )
                for rep in range(8)
            ]
            for engine in ("core", "xl")
        }
    gates = [
        mean_equivalence_gate(finals["core"], finals["xl"], absolute_margin=10.0),
        welch_gate(finals["core"], finals["xl"], alpha=0.01),
    ]
    failed = [gate.format() for gate in gates if not gate.passed]
    assert not failed, failed
