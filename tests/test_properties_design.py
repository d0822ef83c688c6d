"""Property tests for the experiment-design algebra (``repro.design``).

Three families of invariants, driven by Hypothesis over arbitrary small
factor sets:

- **Crossing**: the size of a full cross is the product of its factor
  level counts, order is left-major (leftmost factor varies slowest),
  and every point carries every factor exactly once.
- **Dedup**: compiling a design never *drops* a distinct configuration
  — every distinct (scenario, seed, replication) cache key in the
  requested job list survives into the deduplicated list — and dedup is
  idempotent (re-compiling the compiled jobs collapses nothing new).
- **Latin-square subsampling**: with a fixed seed the subsample is
  deterministic, covers every level of every factor at least once, and
  is a strict subset of the full cross.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.cache import result_key
from repro.core.parameters import BlacklistConfig, GatewayScanConfig
from repro.design.compile import ExperimentDesign, compile_design
from repro.design.model import Factor, Level, cross, latin_square

# -- strategies --------------------------------------------------------------

VIRUS_FACTORS = st.lists(
    st.sampled_from((1, 2, 3, 4)), min_size=1, max_size=4, unique=True
).map(lambda numbers: Factor.of("virus", numbers, fmt="virus{}"))

RESPONSE_LEVELS = st.lists(
    st.sampled_from((10, 20, 30, 40, 50, 60)), min_size=1, max_size=5, unique=True
).map(
    lambda thresholds: Factor(
        "response",
        (Level("baseline", ()),)
        + tuple(
            Level(f"th{t}", (BlacklistConfig(threshold=t),)) for t in thresholds
        ),
    )
)

DURATION_FACTORS = st.lists(
    st.sampled_from((6.0, 12.0, 24.0, 48.0)), min_size=1, max_size=3, unique=True
).map(lambda hours: Factor.of("duration", hours, fmt="{:g}h"))

AF_FACTORS = st.lists(
    st.sampled_from((0.1, 0.2, 0.4)), min_size=1, max_size=3, unique=True
).map(lambda values: Factor.of("af", values, fmt="af{:g}"))

#: 2–4 disjoint factors, always including virus (the required factor).
FACTOR_SETS = st.tuples(
    VIRUS_FACTORS,
    RESPONSE_LEVELS,
    st.one_of(st.none(), DURATION_FACTORS),
    st.one_of(st.none(), AF_FACTORS),
).map(lambda parts: tuple(f for f in parts if f is not None))


def design_of(factors) -> ExperimentDesign:
    return ExperimentDesign(
        experiment_id="prop",
        title="property design",
        paper_ref="(test)",
        description="",
        design=cross(*factors),
        label=lambda point: "/".join(
            point[factor.name].label for factor in factors
        ),
    )


# -- crossing ----------------------------------------------------------------


@given(factors=FACTOR_SETS)
@settings(max_examples=40, deadline=None)
def test_cross_size_is_product_of_level_counts(factors):
    design = cross(*factors)
    expected = 1
    for factor in factors:
        expected *= factor.size
    assert design.size == expected
    assert len(design.points()) == expected


@given(factors=FACTOR_SETS)
@settings(max_examples=40, deadline=None)
def test_cross_points_carry_every_factor_and_are_unique(factors):
    design = cross(*factors)
    names = set(design.factor_names)
    seen = set()
    for point in design.points():
        assert set(point) == names
        key = tuple(point[name].label for name in design.factor_names)
        assert key not in seen
        seen.add(key)


@given(factors=FACTOR_SETS)
@settings(max_examples=40, deadline=None)
def test_cross_order_is_left_major(factors):
    design = cross(*factors)
    points = design.points()
    first = factors[0]
    # The leftmost factor varies slowest: its level index over the point
    # sequence is a non-decreasing staircase with equal-width steps.
    index_of = {level.label: i for i, level in enumerate(first.levels)}
    observed = [index_of[p[first.name].label] for p in points]
    block = design.size // first.size
    expected = [i // block for i in range(design.size)]
    assert observed == expected


# -- dedup -------------------------------------------------------------------


@given(factors=FACTOR_SETS, replications=st.integers(1, 3), seed=st.integers(0, 5))
@settings(max_examples=25, deadline=None)
def test_dedup_never_drops_a_distinct_config(factors, replications, seed):
    compiled = compile_design(
        design_of(factors), replications=replications, seed=seed
    )
    requested_keys = set()
    for series, point in zip(
        compiled.spec.series, compiled.spec.design.points()
    ):
        scenario = compiled.spec.scenario_for(series)
        for index in range(replications):
            requested_keys.add(result_key(scenario, seed, index))
    unique_keys = {
        result_key(job.config, job.seed, job.replication) for job in compiled.jobs
    }
    assert unique_keys == requested_keys
    assert compiled.unique_jobs <= compiled.requested_jobs
    assert 0.0 < compiled.dedup_ratio <= 1.0


@given(factors=FACTOR_SETS, replications=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_dedup_is_idempotent(factors, replications):
    design = design_of(factors)
    once = compile_design(design, replications=replications, seed=1)
    twice = compile_design(design, replications=replications, seed=1)
    keys_once = [result_key(j.config, j.seed, j.replication) for j in once.jobs]
    keys_twice = [result_key(j.config, j.seed, j.replication) for j in twice.jobs]
    # Deterministic: same design, same jobs, same order, same slots.
    assert keys_once == keys_twice
    assert once.slots == twice.slots
    # Idempotent: the deduplicated list holds no residual duplicates.
    assert len(set(keys_once)) == len(keys_once)


def test_dedup_collapses_identical_points_and_fans_back_out():
    # Two series that compile to the SAME scenario: a duplicated
    # response level payload under different labels.
    scan = (GatewayScanConfig(6.0),)
    design = ExperimentDesign(
        experiment_id="dup",
        title="duplicate payloads",
        paper_ref="(test)",
        description="",
        design=cross(
            Factor.of("virus", (1,), fmt="virus{}"),
            Factor("response", (Level("a", scan), Level("b", scan))),
        ),
        label=lambda point: point["response"].label,
    )
    compiled = compile_design(design, replications=2, seed=0)
    assert compiled.requested_jobs == 4
    assert compiled.unique_jobs == 2
    assert compiled.dedup_ratio == 0.5
    # Both series fan out of the same two jobs.
    assert compiled.slots["a"] == compiled.slots["b"] == [0, 1]


# -- latin-square subsampling ------------------------------------------------

GRIDS = st.tuples(
    VIRUS_FACTORS, RESPONSE_LEVELS, st.one_of(st.none(), DURATION_FACTORS)
).map(lambda parts: cross(*(f for f in parts if f is not None)))


@given(grid=GRIDS, seed=st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_latin_square_is_deterministic(grid, seed):
    first = latin_square(grid, seed=seed).points()
    second = latin_square(grid, seed=seed).points()
    assert [
        {name: level.label for name, level in p.items()} for p in first
    ] == [{name: level.label for name, level in p.items()} for p in second]


@given(grid=GRIDS, seed=st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_latin_square_covers_every_level_of_every_factor(grid, seed):
    sample = latin_square(grid, seed=seed)
    points = sample.points()
    for factor in grid.factors():
        observed = {point[factor.name].label for point in points}
        assert observed == {level.label for level in factor.levels}


@given(grid=GRIDS, seed=st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_latin_square_is_a_subset_of_the_full_cross(grid, seed):
    full = {
        tuple(point[name].label for name in grid.factor_names)
        for point in grid.points()
    }
    sample = latin_square(grid, seed=seed).points()
    keys = [
        tuple(point[name].label for name in grid.factor_names)
        for point in sample
    ]
    assert set(keys) <= full
    assert len(set(keys)) == len(keys)  # no duplicate points
    assert 0 < len(keys) <= len(full)


@given(grid=GRIDS, seed=st.integers(0, 20), size=st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_latin_square_size_floor_keeps_coverage(grid, seed, size):
    sample = latin_square(grid, seed=seed, size=size)
    points = sample.points()
    # Requested size is honoured up to duplicate-combination collapse,
    # and never below what level coverage requires.
    for factor in grid.factors():
        observed = {point[factor.name].label for point in points}
        assert observed == {level.label for level in factor.levels}
