"""Tests for the completion cache and its inference wrapper."""

import numpy as np
import pytest

from repro.inference.base import InferenceAlgorithm
from repro.inference.compressive import CompressiveSensingInference
from repro.serve.cache import (
    CachingInference,
    CompletionCache,
    config_key,
    matrix_fingerprint,
)


def partial_matrix(seed=0, shape=(6, 5), density=0.6):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=shape)
    mask = rng.random(size=shape) < density
    matrix = np.where(mask, matrix, np.nan)
    matrix[0, 0] = 1.0  # never fully unobserved
    return matrix


class CountingInference(InferenceAlgorithm):
    """Column-mean inference that counts how many matrices it really solves."""

    name = "counting"

    def __init__(self):
        self.solved = 0

    def _complete(self, matrix, mask):
        self.solved += 1
        fallback = float(matrix[mask].mean())
        return np.full_like(matrix, fallback)


class TestFingerprints:
    def test_equal_matrices_collide(self):
        a = partial_matrix(seed=1)
        assert matrix_fingerprint(a) == matrix_fingerprint(a.copy())

    def test_equal_masks_different_values_do_not_collide(self):
        a = partial_matrix(seed=1)
        b = a.copy()
        observed = np.flatnonzero(~np.isnan(b.ravel()))
        b.ravel()[observed[0]] += 1.0
        assert np.array_equal(np.isnan(a), np.isnan(b))  # identical masks
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_different_masks_same_values_do_not_collide(self):
        a = partial_matrix(seed=1)
        b = a.copy()
        observed = np.argwhere(~np.isnan(b))
        b[tuple(observed[0])] = np.nan
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_shape_is_part_of_the_fingerprint(self):
        a = np.ones((2, 3))
        b = np.ones((3, 2))
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    @pytest.mark.parametrize(
        "case, digest",
        [
            ("c_order", "798dd6c641664d07b30525dd3a77a93f"),
            ("fortran_order", "798dd6c641664d07b30525dd3a77a93f"),
            ("column_view", "df5f61eedc6e7bc300889291dd3beb2e"),
            ("int", "840be2245daf8409cc08693b5774d000"),
            ("bool", "6e4ace46e6905daae611f0fa8f35b7df"),
            ("one_d", "7365ee4258f39872bf2d951665ee6fd8"),
            ("scalar", "5f39416a679195c9a4b3f6cd0a4fe97d"),
            ("empty", "1f1b36ed9c302524168d53b9c8d075c5"),
            ("nested_list", "131da5f874c3078ce1f9c92ffa972c5c"),
        ],
    )
    def test_digests_are_pinned(self, case, digest):
        """Cache keys, checkpoint entries and journal fingerprints are these
        hex digests: blake2b-128 over ``repr(shape)`` and the C-ordered
        float64 bytes, whatever the input's layout or dtype."""
        matrix = np.arange(12, dtype=float).reshape(3, 4)
        matrix[1, 2] = np.nan
        inputs = {
            "c_order": matrix,
            "fortran_order": np.asfortranarray(matrix),
            "column_view": matrix[:, 1:3],
            "int": np.arange(6).reshape(2, 3),
            "bool": np.array([[True, False], [False, True]]),
            "one_d": np.array([0.5, -0.0, np.inf]),
            "scalar": np.float64(3.0),
            "empty": np.empty((0, 3)),
            "nested_list": [[1, 2], [3, 4]],
        }
        assert matrix_fingerprint(inputs[case]) == digest

    def test_inference_fingerprint_tracks_configuration(self):
        a = CompressiveSensingInference(rank=3, iterations=5, seed=0)
        b = CompressiveSensingInference(rank=4, iterations=5, seed=0)
        assert config_key(a) != config_key(b)

    def test_inference_fingerprint_tracks_init_seed(self):
        # Equivalent hyper-parameters but different frozen init seeds produce
        # different completions, so they must not share cache entries.
        a = CompressiveSensingInference(rank=3, iterations=5, seed=0)
        b = CompressiveSensingInference(rank=3, iterations=5, seed=1)
        assert config_key(a) != config_key(b)

    def test_inference_fingerprint_ignores_rng_objects(self):
        class WithRng(CountingInference):
            def __init__(self, seed):
                super().__init__()
                self._rng = np.random.default_rng(seed)

        assert config_key(WithRng(0)) == config_key(WithRng(1))


class TestCompletionCache:
    def test_round_trip(self):
        cache = CompletionCache(capacity=4)
        value = np.arange(6.0).reshape(2, 3)
        cache.put(("inf", "mat"), value)
        out = cache.get(("inf", "mat"))
        assert np.array_equal(out, value)
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counted(self):
        cache = CompletionCache(capacity=4)
        assert cache.get(("inf", "nope")) is None
        assert cache.misses == 1
        assert cache.hit_rate == 0.0

    def test_defensive_copies(self):
        cache = CompletionCache(capacity=4)
        value = np.ones((2, 2))
        cache.put(("a", "b"), value)
        value[0, 0] = 99.0  # caller mutates its array after insertion
        out = cache.get(("a", "b"))
        assert out[0, 0] == 1.0
        out[0, 0] = 42.0  # caller mutates the returned array
        assert cache.get(("a", "b"))[0, 0] == 1.0

    def test_eviction_order_is_lru(self):
        cache = CompletionCache(capacity=2)
        cache.put(("i", "a"), np.zeros(1))
        cache.put(("i", "b"), np.zeros(1))
        assert cache.get(("i", "a")) is not None  # refresh "a"
        cache.put(("i", "c"), np.zeros(1))  # evicts "b", the least recently used
        assert ("i", "b") not in cache
        assert ("i", "a") in cache and ("i", "c") in cache
        assert cache.keys() == [("i", "a"), ("i", "c")]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CompletionCache(capacity=0)

    def test_clear_resets_counters(self):
        cache = CompletionCache(capacity=2)
        cache.put(("i", "a"), np.zeros(1))
        cache.get(("i", "a"))
        cache.get(("i", "zz"))
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


class TestCachingInference:
    def test_complete_hit_skips_solver(self):
        inner = CountingInference()
        wrapped = CachingInference(inner, CompletionCache(capacity=8))
        matrix = partial_matrix(seed=2)
        first = wrapped.complete(matrix)
        assert inner.solved == 1
        second = wrapped.complete(matrix.copy())
        assert inner.solved == 1  # spy: the solver did not run again
        assert np.array_equal(first, second)

    def test_complete_batch_hit_skips_solver(self):
        inner = CountingInference()
        wrapped = CachingInference(inner, CompletionCache(capacity=8))
        a, b, c = (partial_matrix(seed=s) for s in (1, 2, 3))
        wrapped.complete_batch([a, b])
        assert inner.solved == 2
        out = wrapped.complete_batch([b.copy(), c, a.copy()])
        assert inner.solved == 3  # only c was new
        assert np.array_equal(out[2], wrapped.complete(a))

    def test_within_batch_deduplication(self):
        inner = CountingInference()
        cache = CompletionCache(capacity=8)
        wrapped = CachingInference(inner, cache)
        matrix = partial_matrix(seed=4)
        out = wrapped.complete_batch([matrix, matrix.copy(), matrix.copy()])
        assert inner.solved == 1  # one solve fanned out to three requests
        assert cache.hits == 2
        assert all(np.array_equal(o, out[0]) for o in out)

    @pytest.mark.parametrize(
        "seeds, batch, solved",
        [
            # The same array object three times: fingerprinted once.
            ([4], lambda matrices: matrices * 3, 1),
            # A 3-D stack yields a fresh view per item, and a freed view's
            # address can come back for a later one: distinct matrices must
            # still get their own keys.
            ([4, 4, 5, 6, 7, 8, 9, 10], np.stack, 7),
        ],
        ids=["same_object", "stack_views"],
    )
    def test_within_batch_deduplication_by_identity(self, seeds, batch, solved):
        inner = CountingInference()
        cache = CompletionCache(capacity=16)
        wrapped = CachingInference(inner, cache)
        matrices = batch([partial_matrix(seed=seed) for seed in seeds])
        out = wrapped.complete_batch(matrices)
        assert inner.solved == solved  # one solve per distinct matrix, fanned out
        assert cache.hits == len(out) - solved
        for matrix, result in zip(matrices, out):
            assert np.array_equal(result, CountingInference().complete(matrix))
        assert len({id(result) for result in out}) == len(out)  # each request owns its array

    def test_als_results_bitwise_match_uncached(self):
        als = CompressiveSensingInference(rank=2, iterations=4, seed=0)
        wrapped = CachingInference(als, CompletionCache(capacity=8))
        mats = [partial_matrix(seed=s) for s in (5, 6)]
        direct = als.complete_batch(mats)
        cached_cold = wrapped.complete_batch(mats)
        cached_warm = wrapped.complete_batch(mats)
        for d, cold, warm in zip(direct, cached_cold, cached_warm):
            assert np.array_equal(d, cold)
            assert np.array_equal(d, warm)

    def test_proxies_batch_support_probe(self):
        als = CompressiveSensingInference()
        cache = CompletionCache()
        assert CachingInference(als, cache).supports_batch_completion is True
        assert CachingInference(CountingInference(), cache).supports_batch_completion is False

    def test_rejects_non_inference(self):
        with pytest.raises(TypeError):
            CachingInference(object(), CompletionCache())


class TestBatchCompositionContract:
    """What a cache hit equals: the bytes of a recomputation within one
    width, and the recomputation to 2e-12 relative when the batch pads the
    width."""

    #: ALS initialisation seeds.  Over seeds 0-299 the padded solve differs
    #: from the solve alone by at most 1.44e-12 relative (seed 51; 2.1e-11
    #: absolute on data of 10-30); 42, 47, 51, 89, 93 and 129 are the six
    #: seeds above 1e-12, 157 the next.
    INIT_SEEDS = (0, 1, 42, 47, 51, 89, 93, 129, 157)

    #: The padded-stack bound asserted below and quoted in the docs.
    PADDED_RTOL = 2e-12

    @staticmethod
    def window(rng, width):
        matrix = rng.uniform(10.0, 30.0, size=(20, width))
        matrix[rng.random(size=matrix.shape) < 0.5] = np.nan
        matrix[0, :] = 15.0  # every column observed somewhere
        return matrix

    def test_same_width_batches_are_bytewise_independent(self):
        for seed in self.INIT_SEEDS:
            als = CompressiveSensingInference(seed=seed)
            rng = np.random.default_rng(0)
            for _ in range(40):
                a, b, c = (self.window(rng, 5) for _ in range(3))
                alone = als.complete_batch([a])[0]
                for batch, position in (([a, b], 0), ([b, a, c], 1)):
                    shared = als.complete_batch(batch)[position]
                    assert alone.tobytes() == shared.tobytes()

    def test_padded_batches_agree_to_float_rounding(self):
        for seed in self.INIT_SEEDS:
            als = CompressiveSensingInference(seed=seed)
            rng = np.random.default_rng(0)
            for _ in range(40):
                a, wide = self.window(rng, 5), self.window(rng, 8)
                wrapped = CachingInference(als, CompletionCache(capacity=8))
                # The 20x5 window is solved padded to width 8 and cached ...
                wrapped.complete_batch([a, wide])
                hit = wrapped.complete(a)
                assert wrapped.cache.hits == 1
                # ... so the hit is the padded solve, not the bytes of a solve alone.
                alone = als.complete_batch([a])[0]
                np.testing.assert_allclose(hit, alone, rtol=self.PADDED_RTOL, atol=0.0)


class TestCommitteeKeys:
    """A committee is keyed by its members' configuration, not its address.

    Each committee below is freed before the next is built, so CPython hands
    the next one a just-freed address.  A key that spelled out the nested
    committee's ``repr`` (its address) made differently configured
    committees collide, and a shared cache then served one committee's
    completion to another.
    """

    @staticmethod
    def committee(k):
        from repro.inference.committee import CommitteeMeanInference, InferenceCommittee
        from repro.inference.interpolation import SpatialMeanInference
        from repro.inference.knn import KNNInference

        return CommitteeMeanInference(
            InferenceCommittee([KNNInference(k=k), SpatialMeanInference()])
        )

    def test_freed_committees_never_share_a_key(self):
        seen = {}
        for round_ in range(28):
            k = round_ % 7 + 1
            key = config_key(self.committee(k))
            assert seen.setdefault(key, k) == k, f"k={k} keyed like k={seen[key]}"
        assert len(seen) == 7

    def test_shared_cache_never_serves_another_committees_completion(self):
        matrix = partial_matrix(seed=3, shape=(9, 5), density=0.5)
        expected = {k: self.committee(k).complete(matrix) for k in range(1, 8)}
        assert len({result.tobytes() for result in expected.values()}) > 1
        cache = CompletionCache(capacity=64)
        for round_ in range(4):
            for k in range(1, 8):
                result = CachingInference(self.committee(k), cache).complete(matrix)
                assert np.array_equal(result, expected[k]), f"k={k}, round {round_}"
        assert len(cache) == 7

    def test_equally_configured_committees_share_a_key_and_hit(self):
        from repro.serve.cache import pool_key

        a, b = self.committee(3), self.committee(3)
        assert config_key(a) == config_key(b)
        assert pool_key(a) == pool_key(b)
        matrix = partial_matrix(seed=4)
        cache = CompletionCache()
        first = CachingInference(a, cache).complete(matrix)
        second = CachingInference(b, cache).complete(matrix)
        assert (cache.hits, cache.misses) == (1, 1)
        assert np.array_equal(first, second)
