"""Vectorized random-waypoint mobility with grid-bucketed neighbor lookup.

The random-waypoint model: each phone pauses at its origin, travels to a
uniform waypoint in a square arena at a uniform-random speed, and
repeats.  Positions are interpolated analytically, so no per-tick
stepping exists.  The xl engine needs the model at N=100k+, so it is
held as flat NumPy arrays:

* :class:`GridWaypointField` holds the leg state (origin, target,
  departure, arrival, speed) for the entire population and advances /
  interpolates it in bulk — the Monte Carlo proximity sampling of
  Berretti & Ciccarone (arXiv:1512.01263) is the exemplar.
* :meth:`GridWaypointField.snapshot` buckets the positions at one instant
  into a uniform spatial hash whose cell size is at least the Bluetooth
  radius, so every within-radius pair lives in the 9-cell neighborhood
  of the query cell.  :class:`GridSnapshot` then answers batched
  partner-sampling queries (one uniform-random in-range partner per
  encounter) and exact neighbor queries without ever touching the full
  population.

``GridSnapshot.neighbors_within`` is checked against
:func:`brute_force_neighbors`, an all-pairs scan, by a Hypothesis
property test.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..core.parameters import MobilityParameters


class GridSnapshot:
    """Positions at one instant, bucketed into a uniform spatial hash.

    The hash uses at most ``floor(arena / radius)`` cells per axis, so
    each cell is at least ``radius`` wide and the 9-cell Moore
    neighborhood of a query cell is guaranteed to contain every phone
    within ``radius``.  The count is additionally capped near
    ``2 * sqrt(population)`` per axis — a very sparse configuration
    (tiny radius in a huge arena) would otherwise allocate a cell table
    far larger than the population for no lookup benefit; widening the
    cells past ``radius`` only adds candidates, never drops one.
    """

    def __init__(self, positions: np.ndarray, arena_size: float, radius: float) -> None:
        if radius <= 0:
            raise ValueError(f"radius must be > 0, got {radius}")
        if arena_size <= 0:
            raise ValueError(f"arena_size must be > 0, got {arena_size}")
        self.positions = positions
        self.radius = float(radius)
        occupancy_cap = 2 * int(math.isqrt(max(1, positions.shape[0]))) + 1
        self.ncells = max(1, min(int(arena_size // radius), occupancy_cap))
        cell_size = arena_size / self.ncells
        cx = np.clip((positions[:, 0] // cell_size).astype(np.int64), 0, self.ncells - 1)
        cy = np.clip((positions[:, 1] // cell_size).astype(np.int64), 0, self.ncells - 1)
        self.cell_x = cx
        self.cell_y = cy
        cell_id = cx * self.ncells + cy
        # One argsort groups occupants by cell; starts/counts index into it.
        self.order = np.argsort(cell_id, kind="stable")
        counts = np.bincount(cell_id, minlength=self.ncells * self.ncells)
        self.cell_counts = counts
        self.cell_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))

    def _candidates(self, sources: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Within-radius candidates for each source (self excluded).

        Returns ``(owner, candidate)`` where ``owner`` indexes into
        ``sources`` (one source may appear many times — once per
        encounter) and ``candidate`` is the phone id.
        """
        m = sources.size
        empty = np.empty(0, dtype=np.int64)
        if m == 0:
            return empty, empty
        cx = self.cell_x[sources]
        cy = self.cell_y[sources]
        n = self.ncells
        starts9 = np.empty((m, 9), dtype=np.int64)
        counts9 = np.empty((m, 9), dtype=np.int64)
        slot = 0
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nx = cx + dx
                ny = cy + dy
                valid = (nx >= 0) & (nx < n) & (ny >= 0) & (ny < n)
                cid = np.where(valid, nx * n + ny, 0)
                starts9[:, slot] = np.where(valid, self.cell_starts[cid], 0)
                counts9[:, slot] = np.where(valid, self.cell_counts[cid], 0)
                slot += 1
        starts_flat = starts9.ravel()
        counts_flat = counts9.ravel()
        total = int(counts_flat.sum())
        if total == 0:
            return empty, empty
        # Segment fanout: occupant slots of all 9 cells of all sources.
        offsets = np.concatenate(([0], np.cumsum(counts_flat)[:-1]))
        flat = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets, counts_flat)
            + np.repeat(starts_flat, counts_flat)
        )
        candidate = self.order[flat]
        owner = np.repeat(np.repeat(np.arange(m, dtype=np.int64), 9), counts_flat)
        source_of = sources[owner]
        delta = self.positions[candidate] - self.positions[source_of]
        within = (delta[:, 0] ** 2 + delta[:, 1] ** 2) <= self.radius**2
        within &= candidate != source_of
        return owner[within], candidate[within]

    def neighbors_within(self, phone_id: int) -> np.ndarray:
        """Sorted ids of other phones within the radius of ``phone_id``.

        Exact — bit-for-bit the brute-force within-radius set.
        """
        _owner, candidate = self._candidates(np.asarray([phone_id], dtype=np.int64))
        return np.sort(candidate)

    def sample_partners(
        self, sources: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One uniform-random in-range partner per source (-1 = nobody near).

        Each entry of ``sources`` is an independent encounter: repeated
        ids draw independent partners.  Selection is a segment-argmax
        over iid uniform keys, so each in-range phone is equally likely.
        """
        partners = np.full(sources.size, -1, dtype=np.int64)
        owner, candidate = self._candidates(np.asarray(sources, dtype=np.int64))
        if candidate.size == 0:
            return partners
        keys = rng.random(candidate.size)
        order = np.lexsort((keys, owner))
        owner_sorted = owner[order]
        # Last slot of each owner run holds that owner's max key.
        last = np.concatenate((owner_sorted[1:] != owner_sorted[:-1], [True]))
        partners[owner_sorted[last]] = candidate[order[last]]
        return partners


class GridWaypointField:
    """Array-backed random-waypoint state for a whole population.

    Each phone pauses at its origin, travels to a uniform waypoint at a
    uniform-random speed, and repeats; all legs are held in flat arrays
    and advanced in bulk.  Queries must be (weakly) time-monotone.
    """

    def __init__(
        self,
        num_phones: int,
        params: MobilityParameters,
        rng: np.random.Generator,
    ) -> None:
        if num_phones < 1:
            raise ValueError(f"num_phones must be >= 1, got {num_phones}")
        self.num_phones = num_phones
        self.params = params
        self._rng = rng
        arena = params.arena_size
        n = num_phones
        self.origin = rng.uniform(0.0, arena, size=(n, 2))
        self.target = rng.uniform(0.0, arena, size=(n, 2))
        pause = rng.uniform(params.pause_min, params.pause_max, size=n)
        self.speed = rng.uniform(params.speed_min, params.speed_max, size=n)
        self.departure = pause
        distance = np.hypot(
            self.target[:, 0] - self.origin[:, 0],
            self.target[:, 1] - self.origin[:, 1],
        )
        self.arrival = self.departure + distance / self.speed
        self._time = 0.0

    def advance(self, time: float) -> None:
        """Roll all legs forward so every current leg spans ``time``."""
        if time < self._time:
            raise ValueError(
                f"time {time} precedes the field clock {self._time}; "
                "queries must be time-monotone"
            )
        self._time = time
        params = self.params
        arena = params.arena_size
        rng = self._rng
        while True:
            expired = np.nonzero(self.arrival < time)[0]
            if expired.size == 0:
                return
            k = expired.size
            start = self.arrival[expired]
            self.origin[expired] = self.target[expired]
            self.target[expired] = rng.uniform(0.0, arena, size=(k, 2))
            pause = rng.uniform(params.pause_min, params.pause_max, size=k)
            self.speed[expired] = rng.uniform(params.speed_min, params.speed_max, size=k)
            self.departure[expired] = start + pause
            delta = self.target[expired] - self.origin[expired]
            distance = np.hypot(delta[:, 0], delta[:, 1])
            self.arrival[expired] = self.departure[expired] + distance / self.speed[expired]

    def positions(self, time: float) -> np.ndarray:
        """All positions at ``time`` as an (n, 2) array (advances first)."""
        self.advance(time)
        span = self.arrival - self.departure
        with np.errstate(divide="ignore", invalid="ignore"):
            fraction = np.where(span > 0, (time - self.departure) / span, 0.0)
        fraction = np.clip(fraction, 0.0, 1.0)
        return self.origin + fraction[:, None] * (self.target - self.origin)

    def snapshot(self, time: float, radius: Optional[float] = None) -> GridSnapshot:
        """Spatial-hash snapshot of the population at ``time``."""
        return GridSnapshot(
            self.positions(time),
            self.params.arena_size,
            self.params.bluetooth_radius if radius is None else radius,
        )


def brute_force_neighbors(
    positions: np.ndarray, phone_id: int, radius: float
) -> np.ndarray:
    """Reference within-radius set (the property-test oracle)."""
    delta = positions - positions[phone_id]
    distances = np.hypot(delta[:, 0], delta[:, 1])
    hits = np.nonzero(distances <= radius)[0]
    return hits[hits != phone_id]


__all__ = ["GridSnapshot", "GridWaypointField", "brute_force_neighbors"]
