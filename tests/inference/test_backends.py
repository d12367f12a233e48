"""Tests for the ALS kernel, :mod:`repro.inference.als`.

Three guarantees are pinned here:

* **Bit-exactness** — ``complete`` and ``complete_batch`` reproduce the
  golden outputs in ``tests/inference/data/als_golden.npz`` bit for bit.
* **Parity** — the bucketed :func:`~repro.inference.als.solve` returns the
  bytes of the per-row-loop reference in ``als_reference.py`` over ranks
  1–5, μ ∈ {0, 0.1, 0.3}, one-cell and one-cycle windows, shapes up to
  6000 × 96, and rows and columns with no observation.
* **No knobs** — every solve runs its full sweep budget, densely; the
  ``backend`` metrics label is a class attribute, outside the configuration
  key that the cache and pooling compare.
"""

import numpy as np
import pytest

from repro.inference import als
from repro.inference.als import bucket_rows
from repro.inference.compressive import CompressiveSensingInference
from repro.serve.cache import config_key, pool_key

from tests.conftest import mask_entries
from tests.inference.als_reference import reference_solve
from tests.inference.test_stacked_sweep import random_matrix


@pytest.fixture(scope="module")
def golden():
    from pathlib import Path

    return np.load(Path(__file__).parent / "data" / "als_golden.npz")


def make_inference(**kwargs):
    kwargs.setdefault("rank", 3)
    kwargs.setdefault("iterations", 15)
    kwargs.setdefault("seed", 0)
    return CompressiveSensingInference(**kwargs)


def complete_both(monkeypatch, observed, **kwargs):
    """``complete`` through the bucketed solve, then through the reference."""
    bucketed = make_inference(**kwargs).complete(observed)
    with monkeypatch.context() as patch:
        patch.setattr(als, "solve", reference_solve)
        reference = make_inference(**kwargs).complete(observed)
    return bucketed, reference


class TestGoldenBitExactness:
    """``complete`` and ``complete_batch`` are bit-for-bit the golden kernel."""

    def test_complete_matches_pre_refactor_golden(self, golden):
        completed = make_inference().complete(golden["observed"])
        assert np.array_equal(completed, golden["single"])

    def test_complete_batch_matches_pre_refactor_golden(self, golden):
        observed = golden["observed"]
        batch = make_inference().complete_batch([observed, observed * 1.5])
        assert np.array_equal(batch[0], golden["batch_first"])
        assert np.array_equal(batch[1], golden["batch_second"])

    def test_zero_tolerance_and_no_sharding_are_the_defaults(self):
        """They are the only behaviour: the constructor takes no such knob."""
        inference = make_inference()
        assert inference.backend == "numpy"
        assert "backend" not in vars(inference)
        for knob, value in (("backend", "numpy"), ("tolerance", 1e-2)):
            with pytest.raises(TypeError, match=knob):
                make_inference(**{knob: value})


class TestGroupedParity:
    @pytest.mark.parametrize("fraction_missing", [0.2, 0.5, 0.8])
    def test_grouped_matches_baseline(self, monkeypatch, low_rank_matrix, rng, fraction_missing):
        observed = mask_entries(low_rank_matrix, fraction_missing, rng)
        bucketed, reference = complete_both(monkeypatch, observed)
        assert bucketed.tobytes() == reference.tobytes()

    def test_grouped_handles_unobserved_rows(self, monkeypatch, low_rank_matrix, rng):
        observed = mask_entries(low_rank_matrix, 0.5, rng)
        observed[3, :] = np.nan  # a fully unobserved cell
        bucketed, reference = complete_both(monkeypatch, observed)
        assert bucketed.tobytes() == reference.tobytes()

    def test_bucketing_partitions_observed_rows(self, low_rank_matrix, rng):
        observed = mask_entries(low_rank_matrix, 0.5, rng)
        observed[2, :] = np.nan
        mask = ~np.isnan(observed)
        normalised = np.where(mask, observed, 0.0)
        buckets = bucket_rows(mask, normalised)
        covered = np.concatenate([bucket.rows for bucket in buckets])
        expected = np.flatnonzero(mask.sum(axis=1) > 0)
        assert sorted(covered.tolist()) == expected.tolist()
        for bucket in buckets:
            # Every member of a bucket has the same observation count, and
            # the gathered targets match the raw matrix entries.
            counts = mask[bucket.rows].sum(axis=1)
            assert (counts == bucket.obs_columns.shape[1]).all()
            gathered = normalised[bucket.rows[:, None], bucket.obs_columns]
            assert np.array_equal(gathered, bucket.targets)

    @pytest.mark.parametrize("mu", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "shape, empty",
        [((1, 8), (0, 2)), ((10, 1), (3, 0)), ((20, 8), (2, 1)), ((57, 24), (4, 3))],
        ids=["one_cell", "one_cycle", "20x8", "57x24"],
    )
    def test_solve_matches_reference(self, monkeypatch, shape, empty, rank, mu):
        rng = np.random.default_rng([rank, int(10 * mu), *shape])
        observed = random_matrix(rng, *shape, empty_rows=empty[0], empty_cols=empty[1])
        bucketed, reference = complete_both(
            monkeypatch, observed, rank=rank, temporal_weight=mu, iterations=6
        )
        assert bucketed.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("shape", [(2000, 48), (6000, 96)], ids=["2000x48", "6000x96"])
    def test_large_solve_matches_reference(self, monkeypatch, shape):
        rng = np.random.default_rng(shape)
        observed = random_matrix(rng, *shape, density=0.3, empty_rows=50, empty_cols=2)
        bucketed, reference = complete_both(monkeypatch, observed, iterations=3)
        assert bucketed.tobytes() == reference.tobytes()


class TestConvergenceEarlyExit:
    """There is no convergence early exit: every solve runs its budget."""

    def test_disabled_by_default_runs_full_budget(self, golden):
        inference = make_inference(iterations=30)
        inference.complete(golden["observed"])
        inference.complete_batch([golden["observed"]] * 2)
        assert inference.solver_stats.sweeps_run == 60

    def test_stats_reset(self, golden):
        inference = make_inference()
        inference.complete(golden["observed"])
        assert inference.solver_stats.solves == 1
        inference.solver_stats.reset()
        assert inference.solver_stats.as_dict() == {
            "solves": 0,
            "matrices": 0,
            "sweeps_run": 0,
        }


class TestBackendIsolation:
    """Only real configuration keeps caches and pooled batches apart."""

    def test_fingerprint_ignores_solver_stats(self, golden):
        inference = make_inference()
        inference.complete(golden["observed"])  # mutates the stats counters
        fresh = make_inference()
        assert config_key(inference) == config_key(fresh)

    def test_backend_label_is_not_configuration(self):
        key = config_key(make_inference())
        assert "backend" not in key and "tolerance" not in key
        # seed only: pools
        assert pool_key(make_inference()) == pool_key(make_inference(seed=99))
        assert pool_key(make_inference()) != pool_key(make_inference(temporal_weight=0.3))
