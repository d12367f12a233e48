"""Tests for repro.utils (seeding, validation, logging, timing)."""

import logging

import numpy as np
import pytest

from repro.utils.logging import enable_console_logging, get_logger
from repro.utils.seeding import as_rng, derive_rng
from repro.utils.validation import (
    check_fraction,
    check_matrix,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestSeeding:
    def test_as_rng_accepts_int_none_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)
        assert isinstance(as_rng(3), np.random.Generator)
        generator = np.random.default_rng(0)
        assert as_rng(generator) is generator

    def test_as_rng_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_rng("seed")

    def test_int_seed_is_deterministic(self):
        assert as_rng(5).random() == as_rng(5).random()

    def test_derive_rng_streams_are_independent(self):
        a = derive_rng(7, 0).random()
        b = derive_rng(7, 1).random()
        assert a != b

    def test_derive_rng_deterministic(self):
        assert derive_rng(7, 3).random() == derive_rng(7, 3).random()

    def test_derive_rng_negative_stream_raises(self):
        with pytest.raises(ValueError):
            derive_rng(0, -1)

    @pytest.mark.parametrize("stream", [0, 1, 10, 97, 999])
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_derive_rng_matches_spawned_child(self, seed, stream):
        """The direct spawn-key child is the spawn(stream + 1)[stream] child."""
        spawned = np.random.SeedSequence(seed).spawn(stream + 1)[stream]
        expected = np.random.default_rng(spawned)
        derived = derive_rng(seed, stream)
        assert derived.bit_generator.state == expected.bit_generator.state
        assert derived.random(16).tobytes() == expected.random(16).tobytes()

    @pytest.mark.parametrize("stream", [0, 1, 10, 97, 999])
    def test_derive_rng_from_generator_matches_spawned_child(self, stream):
        child_seed = int(np.random.default_rng(3).integers(0, 2**63 - 1))
        spawned = np.random.SeedSequence(child_seed).spawn(stream + 1)[stream]
        expected = np.random.default_rng(spawned)
        parent = np.random.default_rng(3)
        derived = derive_rng(parent, stream)
        assert derived.random(16).tobytes() == expected.random(16).tobytes()
        # The parent advanced by exactly the one draw that seeded the child.
        reference = np.random.default_rng(3)
        reference.integers(0, 2**63 - 1)
        assert parent.bit_generator.state == reference.bit_generator.state


class TestValidation:
    def test_check_positive(self):
        assert check_positive(2.5, "x") == 2.5
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                check_positive(bad, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")

    def test_check_positive_int(self):
        assert check_positive_int(3, "x") == 3
        with pytest.raises(ValueError):
            check_positive_int(0, "x")
        with pytest.raises(TypeError):
            check_positive_int(2.5, "x")
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.01, "p")

    def test_check_fraction(self):
        assert check_fraction(1.0, "f") == 1.0
        with pytest.raises(ValueError):
            check_fraction(0.0, "f")

    def test_check_matrix_shape_constraints(self):
        matrix = np.zeros((3, 4))
        assert check_matrix(matrix, "m").shape == (3, 4)
        assert check_matrix(matrix, "m", shape=(3, None)).shape == (3, 4)
        with pytest.raises(ValueError):
            check_matrix(matrix, "m", shape=(5, None))
        with pytest.raises(ValueError):
            check_matrix(np.zeros(3), "m")

    def test_check_matrix_nan_and_inf(self):
        matrix = np.zeros((2, 2))
        matrix[0, 0] = np.nan
        assert np.isnan(check_matrix(matrix, "m")[0, 0])
        with pytest.raises(ValueError):
            check_matrix(matrix, "m", allow_nan=False)
        matrix[0, 0] = np.inf
        with pytest.raises(ValueError):
            check_matrix(matrix, "m")


class TestLogging:
    def test_logger_is_namespaced(self):
        assert get_logger("repro.foo").name == "repro.foo"
        assert get_logger("something.else").name == "repro.something.else"

    def test_enable_console_logging_idempotent(self):
        enable_console_logging(logging.WARNING)
        enable_console_logging(logging.WARNING)
        root = logging.getLogger("repro")
        console_handlers = [
            handler
            for handler in root.handlers
            if isinstance(handler, logging.StreamHandler)
            and not isinstance(handler, logging.NullHandler)
        ]
        assert len(console_handlers) == 1


class TestTiming:
    def test_monotonic_advances_on_the_real_clock(self):
        from repro.utils.timing import monotonic

        first = monotonic()
        second = monotonic()
        assert second >= first

    def test_fake_clock_is_manually_advanced(self):
        from repro.utils.timing import fake_clock, monotonic

        with fake_clock(start=10.0) as clock:
            assert monotonic() == 10.0
            assert monotonic() == 10.0  # frozen until advanced
            clock.advance(2.5)
            assert monotonic() == 12.5

    def test_fake_clock_restores_previous_clock(self):
        from repro.utils import timing
        from repro.utils.timing import fake_clock, monotonic

        before = timing._clock
        with fake_clock():
            assert monotonic() == 0.0
        assert timing._clock is before

    def test_fake_clock_restores_on_error(self):
        from repro.utils import timing
        from repro.utils.timing import fake_clock

        before = timing._clock
        with pytest.raises(RuntimeError):
            with fake_clock():
                raise RuntimeError("boom")
        assert timing._clock is before

    def test_fake_clock_rejects_negative_advance(self):
        from repro.utils.timing import fake_clock

        with fake_clock() as clock:
            with pytest.raises(ValueError):
                clock.advance(-1.0)
