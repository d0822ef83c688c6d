"""Random-number streams and distribution objects for the simulation kernel.

Reproducible stochastic simulation needs two properties the standard
``random`` module does not give us directly:

* **independent streams** — each model component (user behaviour, virus
  pacing, topology generation, ...) draws from its own stream so that adding
  a draw in one component does not perturb another component's sequence;
* **replication spawning** — replication *k* of an experiment derives its
  streams deterministically from (master seed, k).

Both are built on NumPy's ``SeedSequence``/``PCG64``.

Distributions are small immutable objects with a ``sample(rng)`` method so
model parameters can carry *named, inspectable* distributions instead of
bare lambdas (which cannot be validated, printed, or serialised).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Union

import numpy as np

SeedLike = Union[int, Sequence[int], np.random.SeedSequence, None]


class StreamFactory:
    """Deterministic factory of named, independent RNG streams.

    Each distinct ``name`` passed to :meth:`stream` yields an independent
    generator derived from the factory's root seed; asking for the same name
    twice returns generators with identical sequences only if re-created from
    a fresh factory (within one factory, each call advances a per-name spawn
    counter so repeated requests are also independent).
    """

    def __init__(self, seed: SeedLike = None) -> None:
        if isinstance(seed, np.random.SeedSequence):
            self._root = seed
        else:
            self._root = np.random.SeedSequence(seed)
        self._counters: Dict[str, int] = {}

    @property
    def entropy(self):
        """Root entropy (for logging / reproducing a run)."""
        return self._root.entropy

    def stream(self, name: str) -> np.random.Generator:
        """Return a new independent generator for component ``name``."""
        count = self._counters.get(name, 0)
        self._counters[name] = count + 1
        key = _stable_key(name)
        child = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=tuple(self._root.spawn_key) + (key, count),
        )
        return np.random.Generator(np.random.PCG64(child))

    def replication(self, index: int) -> "StreamFactory":
        """Derive the stream factory for replication ``index``."""
        if index < 0:
            raise ValueError(f"replication index must be >= 0, got {index}")
        child = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=tuple(self._root.spawn_key) + (0x5EED, index),
        )
        return StreamFactory(child)


def _stable_key(name: str) -> int:
    """Stable 63-bit hash of a stream name (Python's ``hash`` is salted)."""
    acc = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc & 0x7FFFFFFFFFFFFFFF


class Distribution:
    """Base class for immutable sampling distributions."""

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value using ``rng``."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        """Analytic mean of the distribution."""
        raise NotImplementedError

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` values (vectorised where possible)."""
        return np.array([self.sample(rng) for _ in range(n)], dtype=float)


@dataclass(frozen=True)
class Deterministic(Distribution):
    """A point mass: always returns ``value``."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"Deterministic value must be finite, got {self.value}")

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    @property
    def mean(self) -> float:
        return self.value

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=float)


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential distribution parameterised by its *mean* (not rate)."""

    mean_value: float

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ValueError(f"Exponential mean must be > 0, got {self.mean_value}")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_value))

    @property
    def mean(self) -> float:
        return self.mean_value

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self.mean_value, size=n)


@dataclass(frozen=True)
class ShiftedExponential(Distribution):
    """``shift + Exponential(extra_mean)``.

    The workhorse for message pacing: the paper specifies *minimum* waits
    between virus messages ("waits at least 30 minutes"); the shift encodes
    the minimum and the exponential tail models scheduling slack.
    ``extra_mean = 0`` degenerates to :class:`Deterministic`.
    """

    shift: float
    extra_mean: float

    def __post_init__(self) -> None:
        if self.shift < 0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")
        if self.extra_mean < 0:
            raise ValueError(f"extra_mean must be >= 0, got {self.extra_mean}")

    def sample(self, rng: np.random.Generator) -> float:
        if self.extra_mean == 0:
            return self.shift
        return self.shift + float(rng.exponential(self.extra_mean))

    @property
    def mean(self) -> float:
        return self.shift + self.extra_mean

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.extra_mean == 0:
            return np.full(n, self.shift, dtype=float)
        return self.shift + rng.exponential(self.extra_mean, size=n)


def as_distribution(value: Union[Distribution, float, int]) -> Distribution:
    """Coerce a bare number into a :class:`Deterministic` distribution."""
    if isinstance(value, Distribution):
        return value
    if isinstance(value, (int, float)):
        return Deterministic(float(value))
    raise TypeError(f"cannot interpret {value!r} as a distribution")


__all__ = [
    "StreamFactory",
    "Distribution",
    "Deterministic",
    "Exponential",
    "ShiftedExponential",
    "as_distribution",
]
