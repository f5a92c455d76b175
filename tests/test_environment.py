"""Sensor environment tests."""

import random

import pytest

from repro.sensors.environment import (
    Environment,
    burst,
    constant,
    phase_shifted,
    ramp,
    random_walk,
    sine,
    steps,
)


class TestSignals:
    def test_constant(self):
        sig = constant(42)
        assert [sig(t) for t in (0, 100, 10**6)] == [42, 42, 42]

    def test_ramp(self):
        sig = ramp(start=10, slope_per_kilocycle=5)
        assert sig(0) == 10
        assert sig(1000) == 15
        assert sig(2000) == 20

    def test_steps_cycle(self):
        sig = steps([1, 2, 3], dwell=10)
        assert sig(0) == 1
        assert sig(10) == 2
        assert sig(29) == 3
        assert sig(30) == 1

    def test_steps_change_exposes_staleness(self):
        sig = steps([5, 50], dwell=100)
        assert sig(99) != sig(100)

    def test_sine_bounds(self):
        sig = sine(mean=10, amplitude=3, period=100)
        values = [sig(t) for t in range(200)]
        assert min(values) >= 7 and max(values) <= 13

    def test_burst_shape(self):
        sig = burst(base=1, spike=99, period=100, width=10)
        assert sig(5) == 99
        assert sig(50) == 1
        assert sig(105) == 99

    def test_random_walk_deterministic(self):
        a = random_walk(start=100, step=5, seed=7)
        b = random_walk(start=100, step=5, seed=7)
        taus = [0, 500, 1500, 9000, 100, 2]  # out-of-order reads too
        assert [a(t) for t in taus] == [b(t) for t in taus]

    def test_random_walk_pure_function_of_time(self):
        sig = random_walk(start=0, step=1, seed=3, interval=100)
        first = sig(5000)
        sig(123)  # interleaved reads must not perturb
        assert sig(5000) == first

    def test_steps_memoizes_last_segment(self):
        class CountingLevels(list):
            lookups = 0

            def __getitem__(self, idx):
                CountingLevels.lookups += 1
                return super().__getitem__(idx)

        levels = CountingLevels([4, 8])
        sig = steps(levels, dwell=100)
        assert [sig(0), sig(1), sig(99)] == [4, 4, 4]
        assert CountingLevels.lookups == 1  # two same-segment reads were free
        assert sig(100) == 8  # segment change still recomputes
        assert CountingLevels.lookups == 2

    def test_random_walk_fast_path_agrees_with_cold_reads(self):
        # Two identical walks: one read strictly in order (hot last-segment
        # path), one probed out of order (cold cache path) -- same values.
        hot = random_walk(start=50, step=3, seed=9, interval=100)
        cold = random_walk(start=50, step=3, seed=9, interval=100)
        hot_values = [hot(t) for t in range(0, 1000, 50)]  # repeats segments
        cold_values = [cold(t) for t in (950, 0, 450, 50)]
        assert hot_values[-1] == cold_values[0]
        assert hot_values[0] == cold_values[1]
        assert [hot(t) for t in (450, 50)] == cold_values[2:]

    def test_random_walk_out_of_order_reads_match_reference(self):
        # A reference walk built here, segment by segment, from the
        # documented rule: segment i's step is drawn from the RNG seeded
        # "seed:i".  Reads jump forward, back, and forward past the
        # filled range, so a wrong fill start point shows up.
        start, step, seed, interval = 10, 2, 4, 100
        reference = [start]
        for idx in range(1, 81):
            rng = random.Random(f"{seed}:{idx}")
            reference.append(reference[-1] + rng.choice((-step, 0, step)))
        sig = random_walk(start, step, seed=seed, interval=interval)
        for segment in (50, 10, 80, 0, 79, 51):
            assert sig(segment * interval + 7) == reference[segment]

    def test_phase_shifted_advances_reads(self):
        sig = phase_shifted(steps([1, 2, 3], dwell=10), 10)
        assert sig(0) == 2
        assert sig(10) == 3
        base = steps([1, 2], dwell=10)
        assert phase_shifted(base, 0) is base

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            steps([], 10)
        with pytest.raises(ValueError):
            steps([1], 0)
        with pytest.raises(ValueError):
            sine(0, 1, 0)
        with pytest.raises(ValueError):
            burst(0, 1, 0, 1)
        with pytest.raises(ValueError):
            random_walk(0, 1, 0, interval=0)


class TestEnvironment:
    def test_bind_and_read(self):
        env = Environment().bind("ch", constant(9))
        assert env.read("ch", 0) == 9

    def test_unknown_channel_raises(self):
        with pytest.raises(KeyError, match="no signal"):
            Environment().read("nope", 0)

    def test_constant_for(self):
        env = Environment.constant_for(["a", "b"], 3)
        assert env.read("a", 10) == 3
        assert env.read("b", 99) == 3

    def test_reads_are_pure(self):
        env = Environment({"ch": steps([1, 2], 50)})
        assert env.read("ch", 25) == env.read("ch", 25)

    def test_shifted_environment_offsets_every_channel(self):
        env = Environment({"a": steps([1, 2], 50), "b": ramp(0, 1000)})
        shifted = env.shifted(50)
        assert shifted.read("a", 0) == env.read("a", 50)
        assert shifted.read("b", 25) == env.read("b", 75)
        assert env.shifted(0) is env
