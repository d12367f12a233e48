"""Tests for repro.inference.compressive (ALS matrix completion)."""

import numpy as np
import pytest

from repro.inference import compressive
from repro.inference.compressive import CompressiveSensingInference
from repro.inference.interpolation import SpatialMeanInference
from repro.inference.metrics import mean_absolute_error

from tests.conftest import mask_entries


class TestBasicBehaviour:
    def test_observed_entries_preserved(self, low_rank_matrix, rng):
        observed = mask_entries(low_rank_matrix, 0.4, rng)
        completed = CompressiveSensingInference(seed=0).complete(observed)
        mask = ~np.isnan(observed)
        assert np.allclose(completed[mask], observed[mask])

    def test_no_nan_in_output(self, low_rank_matrix, rng):
        observed = mask_entries(low_rank_matrix, 0.6, rng)
        completed = CompressiveSensingInference(seed=0).complete(observed)
        assert not np.isnan(completed).any()

    def test_shape_preserved(self, low_rank_matrix, rng):
        observed = mask_entries(low_rank_matrix, 0.3, rng)
        completed = CompressiveSensingInference(seed=0).complete(observed)
        assert completed.shape == low_rank_matrix.shape

    def test_fully_observed_matrix_unchanged(self, low_rank_matrix):
        completed = CompressiveSensingInference(seed=0).complete(low_rank_matrix)
        assert np.allclose(completed, low_rank_matrix)

    def test_all_missing_raises(self):
        with pytest.raises(ValueError):
            CompressiveSensingInference(seed=0).complete(np.full((3, 3), np.nan))

    def test_constant_matrix_completed_with_constant(self):
        matrix = np.full((5, 6), 7.0)
        matrix[2, 3] = np.nan
        completed = CompressiveSensingInference(seed=0).complete(matrix)
        assert completed[2, 3] == pytest.approx(7.0)


class TestRecoveryQuality:
    def test_recovers_low_rank_matrix_accurately(self, low_rank_matrix, rng):
        observed = mask_entries(low_rank_matrix, 0.3, rng)
        completed = CompressiveSensingInference(rank=3, iterations=30, seed=0).complete(observed)
        missing = np.isnan(observed)
        error = mean_absolute_error(low_rank_matrix[missing], completed[missing])
        scale = np.abs(low_rank_matrix).mean()
        assert error < 0.25 * scale

    def test_beats_spatial_mean_on_low_rank_data(self, low_rank_matrix, rng):
        observed = mask_entries(low_rank_matrix, 0.4, rng)
        missing = np.isnan(observed)
        cs = CompressiveSensingInference(rank=3, iterations=30, seed=0).complete(observed)
        baseline = SpatialMeanInference().complete(observed)
        cs_error = mean_absolute_error(low_rank_matrix[missing], cs[missing])
        baseline_error = mean_absolute_error(low_rank_matrix[missing], baseline[missing])
        assert cs_error < baseline_error

    def test_temporal_smoothness_helps_on_smooth_data(self, rng):
        # Smooth temporal signal shared by all cells + small per-cell offsets.
        n_cells, n_cycles = 10, 40
        trend = np.sin(np.linspace(0, 3 * np.pi, n_cycles))
        data = trend[None, :] + 0.1 * rng.normal(size=(n_cells, 1))
        observed = mask_entries(data, 0.6, rng)
        missing = np.isnan(observed)
        smooth = CompressiveSensingInference(
            rank=2, temporal_weight=0.5, iterations=25, seed=0
        ).complete(observed)
        rough = CompressiveSensingInference(
            rank=2, temporal_weight=0.0, iterations=25, seed=0
        ).complete(observed)
        smooth_error = mean_absolute_error(data[missing], smooth[missing])
        rough_error = mean_absolute_error(data[missing], rough[missing])
        assert smooth_error <= rough_error * 1.25

    def test_single_observed_column_still_completes(self, rng):
        data = rng.normal(size=(6, 5))
        observed = np.full_like(data, np.nan)
        observed[:, 2] = data[:, 2]
        completed = CompressiveSensingInference(seed=0).complete(observed)
        assert not np.isnan(completed).any()


class TestParameters:
    def test_invalid_rank_raises(self):
        with pytest.raises(ValueError):
            CompressiveSensingInference(rank=0)

    def test_negative_regularization_raises(self):
        with pytest.raises(ValueError):
            CompressiveSensingInference(regularization=-1.0)

    def test_rank_capped_at_matrix_size(self, rng):
        data = rng.normal(size=(3, 4))
        data[0, 0] = np.nan
        completed = CompressiveSensingInference(rank=50, iterations=5, seed=0).complete(data)
        assert completed.shape == (3, 4)

    def test_deterministic_given_seed(self, low_rank_matrix, rng):
        observed = mask_entries(low_rank_matrix, 0.4, rng)
        a = CompressiveSensingInference(seed=5).complete(observed)
        b = CompressiveSensingInference(seed=5).complete(observed)
        assert np.allclose(a, b)

    def test_infer_cycle_returns_column(self, low_rank_matrix, rng):
        observed = mask_entries(low_rank_matrix, 0.4, rng)
        column = CompressiveSensingInference(seed=0).infer_cycle(observed, 3)
        assert column.shape == (low_rank_matrix.shape[0],)

    def test_infer_cycle_out_of_range_raises(self, low_rank_matrix):
        with pytest.raises(IndexError):
            CompressiveSensingInference(seed=0).infer_cycle(low_rank_matrix, 999)


class TestCompleteBatch:
    """The vectorized batch solver used by the lockstep training engine."""

    def _masked_stack(self, rng, count=4, shape=(10, 8), missing=0.4):
        matrices = []
        for _ in range(count):
            base = rng.normal(size=(shape[0], 1)) @ rng.normal(size=(1, shape[1]))
            base = base + 0.05 * rng.normal(size=shape)
            matrices.append(mask_entries(base, missing, rng))
        return matrices

    def test_batch_close_to_sequential(self, rng):
        inference = CompressiveSensingInference(rank=2, iterations=10, seed=0)
        matrices = self._masked_stack(rng)
        batch = inference.complete_batch(matrices)
        for matrix, completed in zip(matrices, batch):
            reference = inference.complete(matrix)
            scale = max(1e-9, float(np.abs(reference).mean()))
            assert np.abs(completed - reference).mean() / scale < 0.2

    def test_observed_entries_preserved(self, rng):
        inference = CompressiveSensingInference(rank=2, iterations=5, seed=0)
        matrices = self._masked_stack(rng)
        for matrix, completed in zip(matrices, inference.complete_batch(matrices)):
            mask = ~np.isnan(matrix)
            assert np.allclose(completed[mask], matrix[mask])
            assert not np.isnan(completed).any()

    def test_mixed_shapes_grouped_and_aligned(self, rng):
        inference = CompressiveSensingInference(rank=2, iterations=5, seed=0)
        small = self._masked_stack(rng, count=2, shape=(6, 5))
        large = self._masked_stack(rng, count=2, shape=(10, 8))
        mixed = [small[0], large[0], small[1], large[1]]
        completed = inference.complete_batch(mixed)
        for matrix, out in zip(mixed, completed):
            assert out.shape == matrix.shape

    def test_single_matrix_batch(self, rng):
        inference = CompressiveSensingInference(rank=2, iterations=5, seed=0)
        (matrix,) = self._masked_stack(rng, count=1)
        (completed,) = inference.complete_batch([matrix])
        assert completed.shape == matrix.shape

    def test_all_missing_matrix_raises(self):
        inference = CompressiveSensingInference(seed=0)
        with pytest.raises(ValueError):
            inference.complete_batch([np.full((3, 3), np.nan)])

    def test_constant_matrix_completed_with_constant(self):
        inference = CompressiveSensingInference(seed=0)
        matrix = np.full((5, 6), 7.0)
        matrix[2, 3] = np.nan
        (completed,) = inference.complete_batch([matrix])
        assert completed[2, 3] == pytest.approx(7.0)

    def test_batch_deterministic(self, rng):
        inference = CompressiveSensingInference(rank=2, iterations=5, seed=3)
        matrices = self._masked_stack(rng, count=3)
        first = inference.complete_batch(matrices)
        second = inference.complete_batch(matrices)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestWidthBuckets:
    """Mixed-width batches fuse via padding instead of per-shape calls."""

    def _window(self, rng, n_cells, width, missing=0.4):
        base = rng.normal(size=(n_cells, 1)) @ rng.normal(size=(1, width))
        base = base + 0.05 * rng.normal(size=(n_cells, width))
        return mask_entries(base, missing, rng)

    def test_mixed_widths_match_per_shape_solves(self, rng):
        inference = CompressiveSensingInference(rank=3, iterations=5, seed=0)
        widths = [6, 4, 6, 5, 3, 8, 4]
        matrices = [self._window(rng, 8, width) for width in widths]
        bucketed = inference.complete_batch(matrices)
        for matrix, out in zip(matrices, bucketed):
            assert out.shape == matrix.shape
            reference = inference.complete_batch([matrix])[0]
            # The padded solve optimises the same objective; only float
            # rounding from the longer batched reductions may differ.
            assert np.allclose(out, reference, atol=1e-9, rtol=0)

    def test_uniform_width_stays_bitwise_identical(self, rng):
        inference = CompressiveSensingInference(rank=3, iterations=5, seed=0)
        matrices = [self._window(rng, 8, 6) for _ in range(4)]
        batch = inference.complete_batch(matrices)
        for matrix, out in zip(matrices, batch):
            assert np.array_equal(out, inference.complete_batch([matrix])[0])

    def test_widths_below_rank_keep_exact_shape_groups(self, rng):
        # A width-2 window clamps the rank to 2; padding it into a rank-3
        # bucket would change results materially, so it must solve alone.
        inference = CompressiveSensingInference(rank=3, iterations=5, seed=0)
        narrow = self._window(rng, 8, 2, missing=0.2)
        wide = self._window(rng, 8, 6)
        out_narrow, out_wide = inference.complete_batch([narrow, wide])
        assert np.array_equal(out_narrow, inference.complete_batch([narrow])[0])
        assert out_narrow.shape == narrow.shape and out_wide.shape == wide.shape

    def test_observed_entries_preserved_under_padding(self, rng):
        inference = CompressiveSensingInference(rank=2, iterations=5, seed=0)
        matrices = [self._window(rng, 6, width) for width in (5, 7, 4)]
        for matrix, out in zip(matrices, inference.complete_batch(matrices)):
            mask = ~np.isnan(matrix)
            assert np.allclose(out[mask], matrix[mask])
            assert not np.isnan(out).any()

    def test_constant_slot_inside_a_mixed_bucket(self, rng):
        inference = CompressiveSensingInference(rank=2, iterations=5, seed=0)
        constant = np.full((6, 5), 7.0)
        constant[1, 2] = np.nan
        varied = self._window(rng, 6, 7)
        out_constant, out_varied = inference.complete_batch([constant, varied])
        assert np.allclose(out_constant, 7.0)
        assert out_varied.shape == varied.shape

    def test_different_cell_counts_never_share_a_bucket(self, rng):
        inference = CompressiveSensingInference(rank=2, iterations=5, seed=0)
        a = self._window(rng, 6, 5)
        b = self._window(rng, 9, 7)
        out_a, out_b = inference.complete_batch([a, b])
        assert out_a.shape == a.shape and out_b.shape == b.shape
        assert np.array_equal(out_a, inference.complete_batch([a])[0])

    def test_zero_temporal_weight_bucket(self, rng):
        inference = CompressiveSensingInference(
            rank=2, iterations=5, temporal_weight=0.0, seed=0
        )
        matrices = [self._window(rng, 6, width) for width in (4, 6)]
        for matrix, out in zip(matrices, inference.complete_batch(matrices)):
            reference = inference.complete_batch([matrix])[0]
            assert np.allclose(out, reference, atol=1e-9, rtol=0)


def fresh_initial_factors(init_seed, n_cells, n_cycles, rank):
    """The initial factors as drawn before they were cached: anew per solve."""
    init_rng = np.random.default_rng(init_seed)
    return (
        0.1 * init_rng.standard_normal((n_cells, rank)),
        0.1 * init_rng.standard_normal((n_cycles, rank)),
    )


def reference_complete_batch(als, matrices):
    """``complete_batch`` with its post-conditions applied slot by slot, as
    before they ran once per stack; kept verbatim."""
    prepared = [np.asarray(matrix, dtype=float) for matrix in matrices]
    results = [None] * len(prepared)
    groups = {}
    for index, matrix in enumerate(prepared):
        groups.setdefault(matrix.shape, []).append(index)
    buckets = {}
    for shape, indices in groups.items():
        n_cells, width = shape
        bucketable = width >= min(als.rank, n_cells)
        key = ("rows", n_cells) if bucketable else ("shape", shape)
        buckets.setdefault(key, []).append((shape, indices))
    for shape_groups in buckets.values():
        distinct_widths = {shape[1] for shape, _ in shape_groups}
        indices = [i for _, group in shape_groups for i in group]
        if len(distinct_widths) == 1:
            stack = np.stack([prepared[i] for i in indices])
            slot_widths = None
        else:
            n_cells = shape_groups[0][0][0]
            slot_widths = np.array([prepared[i].shape[1] for i in indices])
            stack = np.full((len(indices), n_cells, int(slot_widths.max())), np.nan)
            for k, i in enumerate(indices):
                stack[k, :, : slot_widths[k]] = prepared[i]
        masks = ~np.isnan(stack)
        completed = als._complete_batch(stack, masks, widths=slot_widths)
        completed = np.where(masks, stack, completed)
        for k, i in enumerate(indices):
            out = completed[k]
            if slot_widths is not None:
                out = out[:, : slot_widths[k]]
            if np.isnan(out).any():
                out = np.where(np.isnan(out), float(np.nanmean(stack[k])), out)
            results[i] = out
    return results


class NaNLeakingALS(CompressiveSensingInference):
    """Leaves NaN in some unobserved entries, padding included, so the
    observed-mean fallback of ``complete_batch`` runs."""

    def _complete_batch(self, data, mask, widths=None):
        completed = super()._complete_batch(data, mask, widths=widths)
        completed[::2, 1, :] = np.nan
        return completed


class TestCompleteBatchParity:
    """``complete_batch`` checks and fixes its output once per stack and
    draws the initial factors from a cache; both return the bytes of the
    per-slot post-conditions on freshly drawn factors."""

    @staticmethod
    def window(rng, n_cells, width, constant=False):
        matrix = rng.normal(size=(n_cells, 1)) + 0.3 * rng.normal(size=(n_cells, width))
        if constant:
            matrix[:] = 4.25
        matrix[rng.random(size=matrix.shape) < 0.45] = np.nan
        matrix[0, 0] = 1.5 if not constant else 4.25
        return matrix

    CASES = {
        "uniform": [(12, 8)] * 6,
        "padded": [(12, 8), (12, 5), (12, 8), (12, 6), (12, 2), (7, 4), (7, 9)],
        "degenerate_uniform": [(12, 8), (12, 8, "constant"), (12, 8)],
        "degenerate_padded": [(12, 8), (12, 5, "constant"), (12, 6)],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("als_type", [CompressiveSensingInference, NaNLeakingALS])
    @pytest.mark.parametrize("rank", [1, 3])
    def test_matches_per_slot_post_conditions(self, monkeypatch, case, als_type, rank):
        rng = np.random.default_rng(sorted(self.CASES).index(case))
        matrices = [
            self.window(rng, spec[0], spec[1], constant=len(spec) > 2)
            for spec in self.CASES[case]
        ]
        als = als_type(rank=rank, iterations=4, temporal_weight=0.1, seed=2)
        got = als.complete_batch(matrices)
        monkeypatch.setattr(compressive, "_initial_factors", fresh_initial_factors)
        expected = reference_complete_batch(als, matrices)
        for matrix, out, reference in zip(matrices, got, expected):
            assert out.shape == matrix.shape
            assert out.tobytes() == reference.tobytes()
            assert not np.isnan(out).any()

    def test_initial_factors_are_cached_read_only_and_off_the_instance(self):
        als = CompressiveSensingInference(rank=3, seed=5)
        attributes = dict(vars(als))
        als.complete_batch([self.window(np.random.default_rng(0), 10, 6)])
        cell_init, cycle_init = compressive._initial_factors(als._init_seed, 10, 6, 3)
        assert compressive._initial_factors(als._init_seed, 10, 6, 3)[0] is cell_init
        assert not cell_init.flags.writeable and not cycle_init.flags.writeable
        with pytest.raises(ValueError):
            cell_init[0, 0] = 1.0
        fresh = fresh_initial_factors(als._init_seed, 10, 6, 3)
        assert cell_init.tobytes() == fresh[0].tobytes()
        assert cycle_init.tobytes() == fresh[1].tobytes()
        assert vars(als).keys() == attributes.keys()
