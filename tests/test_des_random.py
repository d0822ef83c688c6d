"""Tests for RNG streams and distribution objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.des.random import (
    Deterministic,
    Exponential,
    ShiftedExponential,
    StreamFactory,
    as_distribution,
)


class TestStreamFactory:
    def test_same_seed_same_sequences(self):
        a = StreamFactory(42).stream("user")
        b = StreamFactory(42).stream("user")
        assert np.allclose(a.random(100), b.random(100))

    def test_different_names_independent(self):
        factory = StreamFactory(42)
        a = factory.stream("user")
        b = factory.stream("virus")
        assert not np.allclose(a.random(100), b.random(100))

    def test_repeated_name_gives_fresh_stream(self):
        factory = StreamFactory(42)
        a = factory.stream("user")
        b = factory.stream("user")
        assert not np.allclose(a.random(100), b.random(100))

    def test_replications_are_independent_and_reproducible(self):
        root = StreamFactory(7)
        rep0a = root.replication(0).stream("x")
        rep1 = root.replication(1).stream("x")
        rep0b = StreamFactory(7).replication(0).stream("x")
        assert not np.allclose(rep0a.random(50), rep1.random(50))
        assert np.allclose(
            StreamFactory(7).replication(0).stream("x").random(50),
            rep0b.random(50),
        )

    def test_adding_draws_in_one_stream_does_not_shift_another(self):
        factory_a = StreamFactory(9)
        user_a = factory_a.stream("user")
        user_a.random(1000)  # heavy use
        virus_a = factory_a.stream("virus")

        factory_b = StreamFactory(9)
        factory_b.stream("user")  # untouched
        virus_b = factory_b.stream("virus")
        assert np.allclose(virus_a.random(50), virus_b.random(50))

    def test_negative_replication_rejected(self):
        with pytest.raises(ValueError):
            StreamFactory(1).replication(-1)


class TestDistributions:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_deterministic(self):
        dist = Deterministic(2.5)
        assert dist.sample(self.rng) == 2.5
        assert dist.mean == 2.5
        assert np.all(dist.sample_many(self.rng, 10) == 2.5)

    def test_deterministic_rejects_nan(self):
        with pytest.raises(ValueError):
            Deterministic(float("nan"))

    def test_exponential_mean(self):
        dist = Exponential(3.0)
        samples = dist.sample_many(self.rng, 20000)
        assert dist.mean == 3.0
        assert abs(samples.mean() - 3.0) < 0.1
        assert np.all(samples >= 0)

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            Exponential(0.0)

    def test_shifted_exponential_respects_minimum(self):
        dist = ShiftedExponential(0.5, 0.25)
        samples = dist.sample_many(self.rng, 10000)
        assert np.all(samples >= 0.5)
        assert abs(samples.mean() - 0.75) < 0.02
        assert dist.mean == 0.75

    def test_shifted_exponential_degenerates_to_deterministic(self):
        dist = ShiftedExponential(0.5, 0.0)
        assert dist.sample(self.rng) == 0.5
        assert np.all(dist.sample_many(self.rng, 5) == 0.5)

    def test_shifted_exponential_rejects_negative(self):
        with pytest.raises(ValueError):
            ShiftedExponential(-1.0, 0.5)
        with pytest.raises(ValueError):
            ShiftedExponential(1.0, -0.5)

    def test_as_distribution_coerces_numbers(self):
        dist = as_distribution(4)
        assert isinstance(dist, Deterministic)
        assert dist.value == 4.0
        existing = Exponential(1.0)
        assert as_distribution(existing) is existing
        with pytest.raises(TypeError):
            as_distribution("nope")
