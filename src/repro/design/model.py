"""Declarative experiment-design algebra: factors, levels, and designs.

An experiment is a *design* over named :class:`Factor`\\ s — virus,
response, engine, population, acceptance factor, topology, duration,
seed — combined by crossing, ablation, and seeded Latin-square
subsampling.  A design compiles to an ordered tuple of *points*; each
point maps every factor name to one :class:`Level`.
The point algebra here is pure data — no simulation imports — so it can
be property-tested exhaustively; :mod:`repro.design.compile` interprets
points as :class:`~repro.core.parameters.ScenarioConfig` objects and
scheduler job lists.

Determinism is load-bearing: every combinator preserves declaration
order (crossing is left-major, like nested for-loops), and the only
randomized operation — :class:`Subsample` — derives entirely from its
explicit seed.  Two compilations of the same design are identical,
which is what lets compiled job lists be differentially tested against
the hand-written builders they replaced.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, Tuple, Union

#: One design point: an immutable view of {factor name -> chosen level}.
Point = Mapping[str, "Level"]


class DesignError(ValueError):
    """Raised for structurally invalid designs (the compile-time errors)."""


@dataclass(frozen=True)
class Level:
    """One level of a factor: a short label plus its payload value.

    ``label`` is the fragment used when series labels are rendered from a
    template (it may be empty — e.g. the identity level of an ablation
    factor).  ``value`` is whatever the factor's interpreter expects: an
    int for ``virus``, a tuple of response configs for ``response``, a
    float for ``af``/``duration``, and so on.  ``suffix`` optionally
    augments the scenario *name* (its cache identity), with the factor
    semantics deciding how it is applied (responses use the ``+suffix``
    convention of :meth:`ScenarioConfig.with_responses`; population
    appends verbatim).
    """

    label: str
    value: Any
    suffix: str = ""


@dataclass(frozen=True)
class Factor:
    """A named, ordered set of levels.

    A factor is itself a (one-dimensional) design: its points are its
    levels in declaration order.
    """

    name: str
    levels: Tuple[Level, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise DesignError("factor name must be non-empty")
        if not self.levels:
            raise DesignError(f"factor {self.name!r} has no levels")
        labels = [level.label for level in self.levels]
        if len(set(labels)) != len(labels):
            raise DesignError(
                f"factor {self.name!r} has duplicate level labels: {labels}"
            )

    @staticmethod
    def of(name: str, values: Sequence[Any], fmt: str = "{}") -> "Factor":
        """Build a factor from plain values, labelling each with ``fmt``."""
        return Factor(
            name,
            tuple(Level(fmt.format(value), value) for value in values),
        )

    @property
    def size(self) -> int:
        return len(self.levels)

    def level(self, label: str) -> Level:
        """Look up one level by label."""
        for candidate in self.levels:
            if candidate.label == label:
                return candidate
        known = [level.label for level in self.levels]
        raise DesignError(
            f"factor {self.name!r} has no level {label!r}; known: {known}"
        )

    # -- design protocol ----------------------------------------------------

    @property
    def factor_names(self) -> Tuple[str, ...]:
        return (self.name,)

    def points(self) -> Tuple[Point, ...]:
        return tuple({self.name: level} for level in self.levels)

    def factors(self) -> Tuple["Factor", ...]:
        return (self,)

    def __mul__(self, other: "DesignLike") -> "Cross":
        return cross(self, other)


#: Anything that behaves as a design: a Factor or a composite node.
DesignLike = Union[Factor, "Design"]


@dataclass(frozen=True)
class Design:
    """Base class for composite design nodes.

    Subclasses implement :meth:`points` (ordered, deterministic),
    :attr:`factor_names` (the common factor set every point carries) and
    :meth:`factors` (the underlying factors).
    """

    @property
    def factor_names(self) -> Tuple[str, ...]:  # pragma: no cover - abstract
        raise NotImplementedError

    def points(self) -> Tuple[Point, ...]:  # pragma: no cover - abstract
        raise NotImplementedError

    def factors(self) -> Tuple[Factor, ...]:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def size(self) -> int:
        return len(self.points())

    def __mul__(self, other: DesignLike) -> "Cross":
        return cross(self, other)


def _check_disjoint(parts: Sequence[DesignLike]) -> Tuple[str, ...]:
    names: Tuple[str, ...] = ()
    for part in parts:
        overlap = set(names) & set(part.factor_names)
        if overlap:
            raise DesignError(
                f"crossed designs share factor(s) {sorted(overlap)}"
            )
        names = names + tuple(part.factor_names)
    return names


@dataclass(frozen=True)
class Cross(Design):
    """Full factorial crossing: the cartesian product of its parts.

    Order is *left-major*: the leftmost part varies slowest, exactly like
    nested for-loops — which is the order every hand-written figure
    builder used, so DSL-compiled job lists line up job-for-job.
    """

    parts: Tuple[DesignLike, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise DesignError("cross() needs at least one factor or design")
        _check_disjoint(self.parts)

    @property
    def factor_names(self) -> Tuple[str, ...]:
        return tuple(
            name for part in self.parts for name in part.factor_names
        )

    def points(self) -> Tuple[Point, ...]:
        combos = itertools.product(*(part.points() for part in self.parts))
        return tuple(
            {name: level for part in combo for name, level in part.items()}
            for combo in combos
        )

    def factors(self) -> Tuple[Factor, ...]:
        return tuple(
            factor for part in self.parts for factor in part.factors()
        )


@dataclass(frozen=True)
class Subsample(Design):
    """Seeded Latin-square subsample of a full crossing.

    For huge grids, running the full cross is wasteful; a Latin-square
    (Latin-hypercube) subsample keeps ``max(level counts)`` points (or
    ``size``, if larger) chosen so that **every level of every factor
    still appears at least once**, while remaining a strict subset of
    the full cross.  The selection derives entirely from ``seed`` — the
    same spec always compiles to the same jobs, and the seed is recorded
    in the run manifest's ``design`` section.
    """

    inner: Cross
    seed: int
    size: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.inner, Cross):
            raise DesignError("subsample() requires a full crossing")
        if self.size is not None and self.size < 1:
            raise DesignError(f"subsample size must be >= 1, got {self.size}")

    @property
    def factor_names(self) -> Tuple[str, ...]:
        return self.inner.factor_names

    def factors(self) -> Tuple[Factor, ...]:
        return self.inner.factors()

    def points(self) -> Tuple[Point, ...]:
        factors = self.inner.factors()
        sizes = [factor.size for factor in factors]
        rows = max(sizes)
        if self.size is not None:
            # Coverage of every level needs at least max(sizes) rows.
            rows = max(rows, self.size)
        rng = random.Random(self.seed)
        columns = []
        for factor in factors:
            # Each level appears floor/ceil(rows / size) times, then the
            # column is shuffled independently: a Latin-hypercube draw.
            indices = [row % factor.size for row in range(rows)]
            rng.shuffle(indices)
            columns.append(indices)
        seen = set()
        result = []
        for row in range(rows):
            key = tuple(column[row] for column in columns)
            if key in seen:
                continue  # duplicate combination; coverage is unaffected
            seen.add(key)
            result.append(
                {
                    factor.name: factor.levels[column[row]]
                    for factor, column in zip(factors, columns)
                }
            )
        return tuple(result)


# -- combinator functions ---------------------------------------------------


def cross(*parts: DesignLike) -> Cross:
    """Full factorial crossing of factors/designs (left varies slowest)."""
    return Cross(tuple(parts))


def latin_square(inner: Cross, seed: int, size: Optional[int] = None) -> Subsample:
    """Seeded Latin-square subsample of a full crossing (see Subsample)."""
    return Subsample(inner, seed=seed, size=size)


def ablate(factor: Factor, baseline_label: str = "baseline") -> Factor:
    """Ablation grid for one factor: a do-nothing baseline level first.

    The baseline level carries the factor's identity payload (an empty
    response tuple), so ``cross(virus, ablate(responses))`` reads as
    "every virus, with and without each response" — the shape of every
    response figure in the paper.
    """
    if any(level.label == baseline_label for level in factor.levels):
        raise DesignError(
            f"factor {factor.name!r} already has a {baseline_label!r} level"
        )
    baseline = Level(baseline_label, ())
    return Factor(factor.name, (baseline,) + factor.levels)


def derive_factor(
    name: str,
    design: DesignLike,
    build: Callable[[Point], Level],
) -> Factor:
    """Collapse a (sub-)design into one factor, one level per point.

    This is how a crossed sub-grid becomes a single factor of a larger
    design — e.g. Figure 5's ``development × deployment`` immunization
    grid collapses into one six-level ``response`` factor whose labels
    encode both times.
    """
    return Factor(name, tuple(build(point) for point in design.points()))


__all__ = [
    "DesignError",
    "Level",
    "Factor",
    "Design",
    "Cross",
    "Subsample",
    "Point",
    "cross",
    "latin_square",
    "ablate",
    "derive_factor",
]
