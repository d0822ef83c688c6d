"""Property tests for the vectorised consent model (hypothesis).

Mirrors ``test_consent_series.py`` for the xl engine: the batched
``AF/2^n`` helpers must agree *elementwise* with the scalar reference in
:mod:`repro.core.user` over random population vectors, the lookup table
the engine indexes must equal the direct formula bit for bit, and the
implied ever-accept probability must stay at the paper's ~0.40 plateau.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.user import (
    ACCEPTANCE_NEGLIGIBLE_AFTER,
    PAPER_ACCEPTANCE_FACTOR,
    acceptance_probability,
    total_acceptance_probability,
)
from repro.xl.consent import (
    acceptance_probabilities,
    acceptance_table,
    message_indices,
)


def _occurrence_index(sorted_ids: np.ndarray) -> np.ndarray:
    """Reference: 0-based occurrence of each element within its run."""
    ids = np.asarray(sorted_ids)
    if ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    run_start = np.concatenate(([True], ids[1:] != ids[:-1]))
    starts = np.nonzero(run_start)[0]
    lengths = np.diff(np.concatenate((starts, [ids.size])))
    return np.arange(ids.size, dtype=np.int64) - np.repeat(starts, lengths)


@given(
    factor=st.floats(0.0, 1.0),
    n=st.lists(st.integers(1, 64), min_size=1, max_size=200),
)
@settings(max_examples=100, deadline=None)
def test_vectorised_probabilities_match_scalar_elementwise(factor, n):
    indices = np.array(n, dtype=np.int64)
    vectorised = acceptance_probabilities(factor, indices)
    for i, value in enumerate(n):
        assert vectorised[i] == pytest.approx(
            acceptance_probability(factor, value), abs=1e-15
        )


@given(n=st.lists(st.integers(1, 40), min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_probabilities_zero_beyond_truncation(n):
    indices = np.array(n, dtype=np.int64)
    probabilities = acceptance_probabilities(PAPER_ACCEPTANCE_FACTOR, indices)
    beyond = indices > ACCEPTANCE_NEGLIGIBLE_AFTER
    assert np.all(probabilities[beyond] == 0.0)
    assert np.all(probabilities[~beyond] > 0.0)
    assert np.all((0.0 <= probabilities) & (probabilities <= 1.0))


def test_rejects_invalid_factor():
    with pytest.raises(ValueError):
        acceptance_probabilities(1.5, np.array([1]))
    with pytest.raises(ValueError):
        acceptance_probabilities(-0.1, np.array([1]))
    with pytest.raises(ValueError):
        acceptance_table(1.5)


@given(factor=st.floats(0.0, 1.0) | st.sampled_from([0.0, PAPER_ACCEPTANCE_FACTOR, 1.0]))
@settings(max_examples=100, deadline=None)
def test_acceptance_table_lookup_equals_probabilities(factor):
    n = np.arange(ACCEPTANCE_NEGLIGIBLE_AFTER + 6, dtype=np.int64)
    table = acceptance_table(factor)
    looked_up = table[np.minimum(n, table.size - 1)]
    assert np.array_equal(looked_up, acceptance_probabilities(factor, n))


@given(
    ids=st.lists(st.integers(0, 9), min_size=1, max_size=200),
)
@settings(max_examples=100, deadline=None)
def test_occurrence_index_counts_within_runs(ids):
    sorted_ids = np.sort(np.array(ids, dtype=np.int64))
    # With no prior messages, n - 1 is the within-run occurrence index.
    occurrence = message_indices(sorted_ids, np.zeros(10, dtype=np.int64)) - 1
    seen: dict = {}
    for identifier, occ in zip(sorted_ids, occurrence):
        assert occ == seen.get(int(identifier), 0)
        seen[int(identifier)] = int(occ) + 1


@given(
    deliveries=st.lists(st.integers(0, 7), min_size=1, max_size=150),
    prior=st.lists(st.integers(0, 20), min_size=8, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_batch_indices_continue_each_phones_series(deliveries, prior):
    recipients = np.sort(np.array(deliveries, dtype=np.int64))
    before = np.array(prior, dtype=np.int64)
    received = before.copy()
    n = message_indices(recipients, received)
    # Each phone's indices continue its series: prior + 1, prior + 2, ...
    for phone in np.unique(recipients):
        expected_start = before[phone] + 1
        got = n[recipients == phone]
        assert list(got) == list(
            range(expected_start, expected_start + got.size)
        )
    # ... and every delivery is counted, accepted or not.
    assert np.array_equal(received, before + np.bincount(recipients, minlength=8))


@given(
    deliveries=st.lists(st.integers(0, 7), max_size=150),
    prior=st.lists(st.integers(0, 20), min_size=8, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_message_indices_equal_occurrence_reference(deliveries, prior):
    recipients = np.sort(np.array(deliveries, dtype=np.int64))
    before = np.array(prior, dtype=np.int64)
    n = message_indices(recipients, before.copy())
    assert n.dtype == np.int64
    assert np.array_equal(n, before[recipients] + _occurrence_index(recipients) + 1)


def test_cumulative_ever_accept_matches_paper_plateau():
    """Driving the batched decision to exhaustion accepts ~40% of phones."""
    rng = np.random.default_rng(2007)
    population = 20_000
    received = np.zeros(population, dtype=np.int64)
    accepted = np.zeros(population, dtype=bool)
    all_phones = np.arange(population, dtype=np.int64)
    table = acceptance_table(PAPER_ACCEPTANCE_FACTOR)
    for _ in range(ACCEPTANCE_NEGLIGIBLE_AFTER):
        pending = all_phones[~accepted]
        n = message_indices(pending, received)
        decisions = rng.random(n.size) < table[np.minimum(n, table.size - 1)]
        accepted[pending[decisions]] = True
    ever = accepted.mean()
    expected = total_acceptance_probability(PAPER_ACCEPTANCE_FACTOR)
    assert expected == pytest.approx(0.40, abs=0.005)
    # Binomial SE at n=20k is ~0.35%; allow 3 sigma.
    assert ever == pytest.approx(expected, abs=0.011)


def test_message_indices_multiple_deliveries_same_phone():
    """Several messages to one phone in one batch step n without gaps."""
    recipients = np.array([4, 4, 4], dtype=np.int64)
    received = np.zeros(8, dtype=np.int64)
    assert list(message_indices(recipients, received)) == [1, 2, 3]
    assert received[4] == 3
    # The next batch continues the series.
    assert list(message_indices(recipients[:1], received)) == [4]
    assert message_indices(recipients[:0], received).size == 0
