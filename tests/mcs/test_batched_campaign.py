"""Tests for repro.mcs.campaign.BatchedCampaignRunner (lockstep campaigns)."""

import logging

import numpy as np
import pytest

from repro.inference.compressive import CompressiveSensingInference
from repro.inference.interpolation import SpatialMeanInference
from repro.mcs.campaign import BatchedCampaignRunner, CampaignConfig, CampaignRunner
from repro.mcs.policies import CellSelectionPolicy
from repro.mcs.random_policy import RandomSelectionPolicy
from repro.mcs.task import SensingTask
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor, OracleAssessor


class FirstKPolicy(CellSelectionPolicy):
    """Deterministic policy: always pick the lowest-index unsensed cell."""

    name = "FIRST-K"

    def select_cell(self, observed_matrix, cycle, sensed_mask):
        return int(np.flatnonzero(~sensed_mask)[0])


class LastKPolicy(CellSelectionPolicy):
    """Deterministic policy: always pick the highest-index unsensed cell."""

    name = "LAST-K"

    def select_cell(self, observed_matrix, cycle, sensed_mask):
        return int(np.flatnonzero(~sensed_mask)[-1])


def make_task(dataset, epsilon=1.0, p=0.8, inference=None, assessor=None):
    return SensingTask(
        dataset=dataset,
        requirement=QualityRequirement(epsilon=epsilon, p=p, metric=dataset.metric),
        inference=inference or SpatialMeanInference(),
        assessor=assessor
        or LeaveOneOutBayesianAssessor(min_observations=2, max_loo_cells=12),
    )


def records_equal(a, b):
    return (
        a.cycle == b.cycle
        and a.selected_cells == b.selected_cells
        and a.assessed_satisfied == b.assessed_satisfied
        and (
            a.true_error == b.true_error
            or (np.isnan(a.true_error) and np.isnan(b.true_error))
        )
    )


class TestBatchedCampaignParity:
    def test_single_slot_matches_sequential_runner_exactly(self, tiny_temperature_dataset):
        """With a no-batch inference the lockstep runner is bit-exact with
        CampaignRunner: same selections, same verdicts, same errors."""
        config = CampaignConfig(min_cells_per_cycle=2, assess_every=1)
        sequential = CampaignRunner(make_task(tiny_temperature_dataset), config).run(
            FirstKPolicy(), n_cycles=4
        )
        batched = BatchedCampaignRunner(make_task(tiny_temperature_dataset), config).run(
            [FirstKPolicy()], n_cycles=4
        )[0]
        assert len(sequential.records) == len(batched.records)
        for record_a, record_b in zip(sequential.records, batched.records):
            assert records_equal(record_a, record_b)
        assert np.allclose(sequential.inferred_matrix, batched.inferred_matrix)

    def test_multi_slot_matches_per_slot_sequential_runs(self, tiny_temperature_dataset):
        """P lockstep slots reproduce P independent sequential campaigns when
        the completions are bit-exact (sequential complete_batch fallback)."""
        config = CampaignConfig(min_cells_per_cycle=2, assess_every=2)
        policies = [FirstKPolicy(), LastKPolicy(), RandomSelectionPolicy(seed=3)]
        batched_results = BatchedCampaignRunner(
            make_task(tiny_temperature_dataset), config
        ).run(policies, n_cycles=4)

        fresh_policies = [FirstKPolicy(), LastKPolicy(), RandomSelectionPolicy(seed=3)]
        for policy, batched in zip(fresh_policies, batched_results):
            sequential = CampaignRunner(make_task(tiny_temperature_dataset), config).run(
                policy, n_cycles=4
            )
            for record_a, record_b in zip(sequential.records, batched.records):
                assert records_equal(record_a, record_b)

    def test_batched_als_agrees_with_sequential_on_aggregates(
        self, tiny_temperature_dataset
    ):
        """With the vectorized ALS the verdicts may differ within tolerance;
        the campaign-level statistics must stay in the same regime."""
        config = CampaignConfig(min_cells_per_cycle=2, assess_every=1)

        def inference():
            return CompressiveSensingInference(iterations=6, seed=0)

        sequential = CampaignRunner(
            make_task(tiny_temperature_dataset, inference=inference()), config
        ).run(FirstKPolicy(), n_cycles=4)
        batched = BatchedCampaignRunner(
            make_task(tiny_temperature_dataset, inference=inference()), config
        ).run([FirstKPolicy()], n_cycles=4)[0]
        assert batched.n_cycles == sequential.n_cycles
        assert abs(
            batched.mean_selected_per_cycle - sequential.mean_selected_per_cycle
        ) <= 2.0


class TestBatchedCampaignRunner:
    def test_results_are_policy_aligned(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset)
        results = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2)).run(
            [FirstKPolicy(), LastKPolicy()], n_cycles=3
        )
        assert [result.policy_name for result in results] == ["FIRST-K", "LAST-K"]
        for result in results:
            assert result.n_cycles == 3
            assert not np.isnan(result.inferred_matrix).any()

    def test_per_slot_requirements(self, tiny_temperature_dataset):
        """Each slot can carry its own requirement; looser slots select fewer."""
        oracle = OracleAssessor(tiny_temperature_dataset.data)
        loose = make_task(tiny_temperature_dataset, epsilon=2.5, assessor=oracle)
        tight = make_task(tiny_temperature_dataset, epsilon=0.05, assessor=oracle)
        config = CampaignConfig(min_cells_per_cycle=2, assess_every=1)
        results = BatchedCampaignRunner([loose, tight], config).run(
            [FirstKPolicy(), FirstKPolicy()], n_cycles=4
        )
        assert results[0].total_selected <= results[1].total_selected

    def test_mismatched_tasks_and_policies_raise(self, tiny_temperature_dataset):
        tasks = [make_task(tiny_temperature_dataset), make_task(tiny_temperature_dataset)]
        runner = BatchedCampaignRunner(tasks)
        with pytest.raises(ValueError):
            runner.run([FirstKPolicy(), FirstKPolicy(), FirstKPolicy()], n_cycles=2)

    def test_different_datasets_raise(self, tiny_temperature_dataset, tiny_humidity_dataset):
        with pytest.raises(ValueError):
            BatchedCampaignRunner(
                [make_task(tiny_temperature_dataset), make_task(tiny_humidity_dataset)]
            )

    def test_no_policies_raise(self, tiny_temperature_dataset):
        with pytest.raises(ValueError):
            BatchedCampaignRunner(make_task(tiny_temperature_dataset)).run([])

    def test_max_cells_per_cycle_respected(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset, epsilon=1e-9, p=0.99)
        config = CampaignConfig(min_cells_per_cycle=2, max_cells_per_cycle=3, assess_every=1)
        results = BatchedCampaignRunner(task, config).run(
            [FirstKPolicy(), LastKPolicy()], n_cycles=3
        )
        for result in results:
            assert all(record.n_selected <= 3 for record in result.records)


class TestWindowMismatchGuard:
    def test_warns_when_assessor_window_differs(self, tiny_temperature_dataset, caplog):
        task = make_task(
            tiny_temperature_dataset,
            assessor=LeaveOneOutBayesianAssessor(history_window=4),
        )
        with caplog.at_level(logging.WARNING, logger="repro.mcs.campaign"):
            CampaignRunner(task, CampaignConfig(history_window=24))
        assert any("history_window" in message for message in caplog.messages)

    def test_silent_when_windows_agree(self, tiny_temperature_dataset, caplog):
        task = make_task(
            tiny_temperature_dataset,
            assessor=LeaveOneOutBayesianAssessor(history_window=24),
        )
        with caplog.at_level(logging.WARNING, logger="repro.mcs.campaign"):
            CampaignRunner(task, CampaignConfig(history_window=24))
            BatchedCampaignRunner(task, CampaignConfig(history_window=24))
        assert not caplog.messages

    def test_batched_runner_warns_too(self, tiny_temperature_dataset, caplog):
        task = make_task(
            tiny_temperature_dataset,
            assessor=LeaveOneOutBayesianAssessor(history_window=4),
        )
        with caplog.at_level(logging.WARNING, logger="repro.mcs.campaign"):
            BatchedCampaignRunner(task, CampaignConfig(history_window=24))
        assert any("history_window" in message for message in caplog.messages)


class TestEquivalencePooling:
    """Pooling groups by component ``pool_key``, not identity."""

    def test_equivalent_distinct_instances_pool(self):
        from repro.serve.cache import pool_key

        assert pool_key(CompressiveSensingInference(iterations=6, seed=0)) == pool_key(
            CompressiveSensingInference(iterations=6, seed=99)  # seed ignored
        )
        assert pool_key(SpatialMeanInference()) == pool_key(SpatialMeanInference())
        assert pool_key(
            LeaveOneOutBayesianAssessor(min_observations=2, max_loo_cells=12)
        ) == pool_key(LeaveOneOutBayesianAssessor(min_observations=2, max_loo_cells=12))

    def test_differently_configured_instances_do_not_pool(self):
        from repro.inference.knn import KNNInference
        from repro.inference.svt import SVTInference
        from repro.serve.cache import pool_key

        assert pool_key(CompressiveSensingInference(iterations=6)) != pool_key(
            CompressiveSensingInference(iterations=9)
        )
        # Non-ALS hyper-parameters must be compared too, not just the ALS ones.
        assert pool_key(KNNInference(k=2)) != pool_key(KNNInference(k=7))
        assert pool_key(SVTInference(threshold=0.1)) != pool_key(SVTInference(threshold=5.0))
        coordinates = np.arange(16, dtype=float).reshape(8, 2)
        assert pool_key(KNNInference(coordinates=coordinates)) != pool_key(
            KNNInference(coordinates=coordinates + 1)
        )
        assert pool_key(SpatialMeanInference()) != pool_key(SVTInference())
        assert pool_key(LeaveOneOutBayesianAssessor(max_loo_cells=4)) != pool_key(
            LeaveOneOutBayesianAssessor(max_loo_cells=12)
        )

    def test_oracle_assessors_pool_only_on_equal_ground_truth(
        self, tiny_temperature_dataset
    ):
        from repro.serve.cache import pool_key

        same_a = OracleAssessor(tiny_temperature_dataset.data)
        same_b = OracleAssessor(tiny_temperature_dataset.data.copy())
        other = OracleAssessor(tiny_temperature_dataset.data + 1.0)
        assert pool_key(same_a) == pool_key(same_b)
        assert pool_key(same_a) != pool_key(other)

    def test_equivalent_task_instances_match_shared_task_campaign(
        self, tiny_temperature_dataset
    ):
        """Distinct-but-equivalent per-slot components produce the same
        lockstep campaign as one shared task (deterministic policies)."""
        config = CampaignConfig(min_cells_per_cycle=2, assess_every=2)
        shared_task = make_task(tiny_temperature_dataset)
        shared_results = BatchedCampaignRunner(shared_task, config).run(
            [FirstKPolicy(), LastKPolicy()], n_cycles=4
        )
        per_slot_tasks = [make_task(tiny_temperature_dataset) for _ in range(2)]
        per_slot_results = BatchedCampaignRunner(per_slot_tasks, config).run(
            [FirstKPolicy(), LastKPolicy()], n_cycles=4
        )
        for shared, per_slot in zip(shared_results, per_slot_results):
            for record_a, record_b in zip(shared.records, per_slot.records):
                assert records_equal(record_a, record_b)
