"""Vectorised user-consent model (paper §4.4, ``AF/2^n``).

Array counterpart of :mod:`repro.core.user`: the probability that a user
accepts the *n*-th infected message ever received is ``AF / 2**n``,
treated as zero beyond :data:`~repro.core.user.ACCEPTANCE_NEGLIGIBLE_AFTER`
messages.  The helpers here operate on whole delivery batches — arrays of
recipient ids with one entry per delivered message copy — so the xl
engine decides consent for thousands of deliveries in a handful of NumPy
passes: :func:`message_indices` numbers each copy within its phone's
series, and an :func:`acceptance_table` turns those numbers into
probabilities by lookup.
"""

from __future__ import annotations

import numpy as np

from ..core.user import ACCEPTANCE_NEGLIGIBLE_AFTER


def acceptance_probabilities(factor: float, n: np.ndarray) -> np.ndarray:
    """Elementwise ``P(accept) = factor / 2**n`` for 1-based indices ``n``.

    Matches :func:`repro.core.user.acceptance_probability` for every
    element: indices beyond ``ACCEPTANCE_NEGLIGIBLE_AFTER`` (and invalid
    indices < 1) yield probability zero.
    """
    if not 0.0 <= factor <= 1.0:
        raise ValueError(f"acceptance factor must be in [0, 1], got {factor}")
    n = np.asarray(n)
    clipped = np.clip(n, 1, ACCEPTANCE_NEGLIGIBLE_AFTER).astype(np.float64)
    probabilities = factor / np.exp2(clipped)
    valid = (n >= 1) & (n <= ACCEPTANCE_NEGLIGIBLE_AFTER)
    return np.where(valid, probabilities, 0.0)


def acceptance_table(factor: float) -> np.ndarray:
    """:func:`acceptance_probabilities` for ``n = 0 .. NEGLIGIBLE_AFTER + 1``.

    ``table[np.minimum(n, table.size - 1)]`` equals
    ``acceptance_probabilities(factor, n)`` for every ``n >= 0``, bit for
    bit: every index past the truncation lands on the last entry, a zero.
    """
    return acceptance_probabilities(
        factor, np.arange(ACCEPTANCE_NEGLIGIBLE_AFTER + 2, dtype=np.int64)
    )


def message_indices(
    sorted_recipients: np.ndarray, received_count: np.ndarray
) -> np.ndarray:
    """1-based "n-th infected message" index per delivery; counts them.

    ``sorted_recipients`` holds one phone id per delivered message copy,
    sorted so each phone's copies are contiguous; ``received_count`` is
    the per-phone count of messages received before this batch.  Each
    phone's copies continue its series without gaps (prior + 1, prior + 2,
    ...), and ``received_count`` is advanced in place by the number of
    copies each phone received: every delivery counts, accepted or not.
    """
    ids = np.asarray(sorted_recipients)
    size = ids.size
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    run_start = np.empty(size, dtype=bool)
    run_start[0] = True
    np.not_equal(ids[1:], ids[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    lengths = np.diff(starts, append=size)
    # Within-run occurrence number plus the prior count, plus one.
    n = np.arange(1, size + 1, dtype=np.int64) - np.repeat(starts, lengths)
    n += received_count[ids]
    received_count[ids[starts]] += lengths
    return n


__all__ = [
    "acceptance_probabilities",
    "acceptance_table",
    "message_indices",
]
