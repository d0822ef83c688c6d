"""Property tests for the xl round loop's sort-only helpers (hypothesis).

``id_time_order`` must return exactly the permutation
``np.lexsort((times, ids))`` returns, ``split_by_key`` must yield the
same keys and the same arrays, in the same order, as masking the batch
once per key of ``np.unique(keys)``, and ``insert_sorted`` must equal a
concatenate-and-sort of two disjoint id sets.  Small id and time
alphabets force repeated ids, equal times and repeated keys.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xl.engine import id_time_order, insert_sorted, split_by_key

_ids = st.integers(0, 12)
_times = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 24.0])


@st.composite
def batches(draw, max_size=60):
    size = draw(st.integers(0, max_size))
    ids = np.array(draw(st.lists(_ids, min_size=size, max_size=size)), dtype=np.int64)
    times = np.array(
        draw(st.lists(_times | st.floats(0.0, 48.0), min_size=size, max_size=size)),
        dtype=np.float64,
    )
    return ids, times


def _mask_split(keys, ids, times):
    """The per-key mask split the round loop used before."""
    return [
        (int(key), ids[keys == key], times[keys == key]) for key in np.unique(keys)
    ]


@given(batches())
@settings(max_examples=150, deadline=None)
def test_id_time_order_equals_lexsort(batch):
    ids, times = batch
    assert np.array_equal(id_time_order(ids, times), np.lexsort((times, ids)))


def test_id_time_order_edge_batches():
    empty = np.empty(0, dtype=np.int64)
    assert id_time_order(empty, np.empty(0)).size == 0
    assert id_time_order(np.array([4]), np.array([2.0])).tolist() == [0]
    ids = np.array([3, 3, 3, 1, 3, 1])
    times = np.array([2.0, 1.0, 2.0, 5.0, 1.0, 5.0])
    assert np.array_equal(id_time_order(ids, times), np.lexsort((times, ids)))


@given(batches(), st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_split_by_key_equals_mask_split(batch, shift):
    ids, times = batch
    keys = np.floor(times / 1.5).astype(np.int64) + shift
    split = split_by_key(keys, ids, times)
    expected = _mask_split(keys, ids, times)
    assert [key for key, _, _ in split] == [key for key, _, _ in expected]
    for (_, got_ids, got_times), (_, want_ids, want_times) in zip(split, expected):
        assert np.array_equal(got_ids, want_ids)
        assert np.array_equal(got_times, want_times)


@given(batches())
@settings(max_examples=50, deadline=None)
def test_split_buckets_own_their_arrays(batch):
    ids, times = batch
    keys = np.floor(times / 1.5).astype(np.int64)
    split = split_by_key(keys, ids, times)
    if len(split) > 1:
        for _, key_ids, key_times in split:
            assert key_ids.base is None and key_times.base is None


@given(st.sets(st.integers(0, 200), max_size=80), st.data())
@settings(max_examples=150, deadline=None)
def test_insert_sorted_equals_concatenate_sort(ids, data):
    """Disjoint sorted active set + unsorted new ids, as ``_infect_batch``."""
    pool = sorted(ids)
    chosen = data.draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    active = np.array([i for i, c in zip(pool, chosen) if c], dtype=np.int64)
    new = np.array(
        data.draw(st.permutations([i for i, c in zip(pool, chosen) if not c])),
        dtype=np.int64,
    )
    merged = insert_sorted(active, new)
    assert merged.dtype == np.int64
    assert np.array_equal(merged, np.sort(np.concatenate((active, new))))
