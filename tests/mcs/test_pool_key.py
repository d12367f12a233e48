"""``pool_key`` partitions components exactly as the old pairwise predicates did.

The grid covers every registered inference and assessor factory with
parameter variants, seeds 0 and 99, KNN with equal, shifted or missing
coordinates and oracles with equal and different ground truth.  Each
configuration is built twice, so equal configuration on distinct instances
is exercised too.  The reference is ``equivalence_reference``; its one
intended divergence — committees, which it could only match by identity —
is checked against member-wise configuration instead.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.inference  # noqa: F401  (registers the inference factories)
import repro.quality  # noqa: F401  (registers the assessor factories)
from repro.api.registry import ASSESSORS, INFERENCE
from repro.inference.committee import CommitteeMeanInference
from repro.inference.compressive import CompressiveSensingInference
from repro.serve.cache import config_key, pool_key

from tests.mcs.equivalence_reference import (
    equivalent_assessor,
    equivalent_inference,
    flat_fingerprint,
    group_by_equivalence,
    same_attributes,
    solver_equivalent,
)

SEEDS = (0, 99)
COORDINATES = np.arange(16, dtype=float).reshape(8, 2)
GROUND_TRUTH = np.linspace(0.0, 1.0, 8 * 6).reshape(8, 6)


def twice(build):
    return [build(), build()]


def inference_grid():
    grid = []
    for seed in SEEDS:
        for params in ({}, {"iterations": 6}, {"rank": 2}, {"regularization": 0.3},
                       {"temporal_weight": 0.0}):
            grid += twice(lambda: INFERENCE.create("als", seed=seed, **params))
        grid += twice(lambda: INFERENCE.create("committee", seed=seed))
        grid += twice(
            lambda: INFERENCE.create("committee", members=["knn", "spatial_mean"], seed=seed)
        )
        grid += twice(
            lambda: INFERENCE.create(
                "committee", members=[["knn", {"k": 5}], "spatial_mean"], seed=seed
            )
        )
    for name in ("interpolation", "spatial_mean"):
        grid += twice(lambda: INFERENCE.create(name))
    for params in ({}, {"k": 7}, {"epsilon": 1e-3}, {"coordinates": COORDINATES},
                   {"coordinates": COORDINATES + 1.0}):
        grid += twice(lambda: INFERENCE.create("knn", **params))
    grid.append(INFERENCE.create("knn", coordinates=COORDINATES.copy()))
    for params in ({}, {"threshold": 5.0}, {"iterations": 10}, {"tolerance": 1e-3}):
        grid += twice(lambda: INFERENCE.create("svt", **params))
    return grid


def assessor_grid():
    grid = []
    for seed in SEEDS:
        for params in ({}, {"min_observations": 2}, {"max_loo_cells": 4},
                       {"history_window": 8}, {"batched": False}):
            grid += twice(lambda: ASSESSORS.create("loo_bayesian", rng=seed, **params))
    for truth in (GROUND_TRUTH, GROUND_TRUTH.copy(), GROUND_TRUTH + 1.0):
        grid += twice(lambda: ASSESSORS.create("oracle", ground_truth=truth))
    grid += twice(lambda: ASSESSORS.create("oracle", ground_truth=GROUND_TRUTH, history_window=8))
    return grid


def key_partition(items, key):
    groups = {}
    for index, item in enumerate(items):
        groups.setdefault(key(item), []).append(index)
    return sorted(groups.values())


def reference_partition(items, equivalent):
    return sorted(
        group_by_equivalence(
            range(len(items)), lambda i, j: equivalent(items[i], items[j])
        )
    )


def same_configuration(a, b):
    """Full configuration equality of two components, nested committees
    compared member by member (the seed included: a committee's members
    solve with their own initialisation)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, CommitteeMeanInference):
        members_a, members_b = a.committee.members, b.committee.members
        return len(members_a) == len(members_b) and all(
            same_configuration(m, n) for m, n in zip(members_a, members_b)
        )
    return same_attributes(a, b)


def test_grid_covers_every_registered_factory():
    inference_types = {type(item) for item in inference_grid()}
    assessor_types = {type(item) for item in assessor_grid()}
    for name in INFERENCE.names():
        assert any(isinstance(INFERENCE.create(name), kind) for kind in inference_types), name
    assert len(assessor_types) == len(ASSESSORS.names())


def test_flat_inference_partition_matches_reference():
    flat = [item for item in inference_grid() if not isinstance(item, CommitteeMeanInference)]
    assert key_partition(flat, pool_key) == reference_partition(flat, equivalent_inference)


def test_assessor_partition_matches_reference():
    grid = assessor_grid()
    assert key_partition(grid, pool_key) == reference_partition(grid, equivalent_assessor)


def test_assess_pairs_partition_matches_reference():
    flat = [item for item in inference_grid() if not isinstance(item, CommitteeMeanInference)]
    pairs = list(itertools.product(assessor_grid()[::3], flat[::2]))
    assert key_partition(
        pairs, lambda pair: (pool_key(pair[0]), pool_key(pair[1]))
    ) == reference_partition(
        pairs,
        lambda a, b: equivalent_assessor(a[0], b[0]) and equivalent_inference(a[1], b[1]),
    )


def test_committees_pool_on_member_configuration():
    grid = [item for item in inference_grid() if isinstance(item, CommitteeMeanInference)]
    by_key = key_partition(grid, pool_key)
    assert by_key == reference_partition(grid, same_configuration)
    # The reference only refined this: it matched a committee by identity.
    assert reference_partition(grid, equivalent_inference) == [[i] for i in range(len(grid))]
    assert len(by_key) < len(grid)


def test_vector_env_batching_matches_solver_check():
    """For the batched solver, equal ``pool_key`` is the old solver-params check."""
    als = [item for item in inference_grid() if isinstance(item, CompressiveSensingInference)]
    for a, b in itertools.product(als, repeat=2):
        assert (pool_key(a) == pool_key(b)) == solver_equivalent(a, b)


@pytest.mark.parametrize("which", ["inference", "assessor"])
def test_flat_config_key_is_the_checkpointed_cache_key(which):
    grid = inference_grid() if which == "inference" else assessor_grid()
    for component in grid:
        if not isinstance(component, CommitteeMeanInference):
            assert config_key(component) == flat_fingerprint(component)


def test_pool_key_drops_only_the_declared_seed():
    a = CompressiveSensingInference(seed=0)
    b = CompressiveSensingInference(seed=99)
    assert config_key(a) != config_key(b)
    assert pool_key(a) == pool_key(b)
    assert pool_key(a) == config_key(a).replace(f"|_init_seed={a._init_seed}", "")
    assert CompressiveSensingInference.batch_shared == ("_init_seed",)


def test_groups_keep_first_seen_order():
    """Pooled calls run group by group in first-seen order, so slots that
    share one assessor instance across groups draw from it in slot order."""
    from repro.mcs.campaign import _group_by

    assert _group_by(["b", "a", "b", "c", "a"], lambda item: item) == [[0, 2], [1, 4], [3]]
