"""Property tests: backoff schedules are deterministic and strictly bounded.

The executor's retry timing comes entirely from
:meth:`RetryPolicy.backoff_delay` — a pure function of (policy seed, task
key, attempt).  Determinism is what makes the fault-injection suite
reproducible; the bound is what keeps a worst-case retry storm from
stalling a campaign.  Hypothesis drives both with arbitrary policies and
keys.  The quarantine property — a task that exhausts its attempts never
re-enters the queue — is checked against the real executor
(:class:`~repro.core.parallel.WorkerPool` under a policy) on the fast
inline path.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core import (
    NetworkParameters,
    ScenarioConfig,
    UserParameters,
    VirusParameters,
)
from repro.core.parallel import WorkerPool
from repro.faults import FaultPlan, FaultSpec
from repro.resilience import RetryPolicy


def policy_strategy():
    base = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
    return st.builds(
        RetryPolicy,
        max_retries=st.integers(0, 6),
        backoff_base=base,
        backoff_factor=st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
        backoff_cap=st.floats(min_value=5.0, max_value=60.0, allow_nan=False),
        jitter=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        seed=st.integers(0, 2**31),
    )


KEYS = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=64,
)


class TestBackoffProperties:
    @given(policy=policy_strategy(), key=KEYS, attempt=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_deterministic_for_fixed_seed(self, policy, key, attempt):
        # Same policy (same seed) -> bit-identical delay, call after call,
        # and an independently constructed equal policy agrees.
        first = policy.backoff_delay(key, attempt)
        assert policy.backoff_delay(key, attempt) == first
        clone = RetryPolicy(**policy.to_dict())
        assert clone.backoff_delay(key, attempt) == first

    @given(policy=policy_strategy(), key=KEYS, attempt=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_strictly_bounded(self, policy, key, attempt):
        delay = policy.backoff_delay(key, attempt)
        assert 0.0 <= delay <= policy.max_backoff
        # The jittered delay never undershoots the floor of the schedule.
        raw = min(
            policy.backoff_base * policy.backoff_factor ** (attempt - 1),
            policy.backoff_cap,
        )
        assert delay >= raw * (1.0 - policy.jitter / 2.0)

    @given(policy=policy_strategy(), key=KEYS)
    @settings(max_examples=100, deadline=None)
    def test_schedule_monotone_before_cap(self, policy, key):
        # Ignoring jitter, the underlying schedule never decreases until
        # the cap truncates it; with jitter the bound still holds
        # attempt-by-attempt against max_backoff.
        for attempt in range(1, policy.max_retries + 2):
            assert policy.backoff_delay(key, attempt) <= policy.max_backoff

    @given(seed_a=st.integers(0, 1000), seed_b=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_seed_changes_jitter(self, seed_a, seed_b):
        a = RetryPolicy(seed=seed_a, jitter=1.0, backoff_base=1.0)
        b = RetryPolicy(seed=seed_b, jitter=1.0, backoff_base=1.0)
        delays_a = [a.backoff_delay("k", n) for n in range(1, 6)]
        delays_b = [b.backoff_delay("k", n) for n in range(1, 6)]
        if seed_a == seed_b:
            assert delays_a == delays_b
        else:
            assert delays_a != delays_b


class TestPolicyValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=2.0, backoff_cap=1.0)

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=0).max_attempts == 1
        assert RetryPolicy(max_retries=3).max_attempts == 4

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_delay("k", 0)


class TestQuarantineNeverReenters:
    """A quarantined task gets exactly ``max_attempts`` executions and is
    never queued again — the campaign must not loop on a permanently
    broken replication."""

    @pytest.fixture
    def tiny_jobs(self):
        config = ScenarioConfig(
            name="quarantine-test",
            virus=VirusParameters(
                name="q-virus", min_send_interval=0.05, extra_send_delay_mean=0.05
            ),
            network=NetworkParameters(population=40, mean_contact_list_size=6.0),
            user=UserParameters(read_delay_mean=0.1),
            duration=2.0,
        )
        return [(i, config, 1, i) for i in range(3)]

    @pytest.mark.parametrize("max_retries", [0, 1, 2])
    def test_exactly_max_attempts_failures(self, tiny_jobs, max_retries):
        policy = RetryPolicy(
            max_retries=max_retries, backoff_base=0.0, backoff_cap=0.0
        )
        # Task 1 fails on *every* attempt number it could ever see.
        plan = FaultPlan({1: FaultSpec(raise_attempts=tuple(range(20)))})
        with WorkerPool(1, policy=policy) as pool:
            completed = sorted(
                index
                for index, _ in pool.imap_indexed(
                    tiny_jobs, faults={1: plan.spec_for(1)}
                )
            )
        report = pool.report
        assert report.quarantined == [1]
        failures = [e for e in report.events if e.task_id == 1]
        # One failure event per attempt, not one more: never re-queued.
        assert len(failures) == policy.max_attempts
        assert [e.attempt for e in failures] == list(range(policy.max_attempts))
        assert failures[-1].action == "quarantine"
        assert all(e.action == "retry" for e in failures[:-1])
        # The healthy tasks still completed exactly once.
        assert completed == [0, 2]
