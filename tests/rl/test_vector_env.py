"""Tests for repro.rl.vector_env and repro.mcs.vector."""

import numpy as np
import pytest

from repro.inference.compressive import CompressiveSensingInference
from repro.inference.interpolation import SpatialMeanInference
from repro.mcs.environment import SparseMCSEnvironment
from repro.mcs.vector import BatchedSparseMCSVectorEnv
from repro.quality.epsilon_p import QualityRequirement
from repro.rl.vector_env import VectorEnv
from tests.rl.test_dqn import TwoArmBandit


def make_mcs_env(dataset, *, inference=None, seed=0):
    return SparseMCSEnvironment(
        dataset,
        QualityRequirement(epsilon=0.6, p=0.9, metric="mae"),
        window=2,
        inference=inference or CompressiveSensingInference(rank=2, iterations=4, seed=seed),
        min_cells_before_check=2,
        history_window=6,
        seed=seed,
    )


class TestVectorEnv:
    def test_requires_environments(self):
        with pytest.raises(ValueError):
            VectorEnv([])

    def test_rejects_mismatched_action_spaces(self):
        with pytest.raises(ValueError):
            VectorEnv([TwoArmBandit(cells=2), TwoArmBandit(cells=3)])

    def test_lockstep_matches_sequential_stepping(self):
        vec = VectorEnv([TwoArmBandit(episode_length=4), TwoArmBandit(episode_length=4)])
        reference = [TwoArmBandit(episode_length=4), TwoArmBandit(episode_length=4)]
        states = vec.reset_all()
        ref_states = [env.reset() for env in reference]
        for s, r in zip(states, ref_states):
            assert np.array_equal(s, r)
        for step in range(4):
            actions = [(0, step % 2), (1, 1 - step % 2)]
            results = vec.step_many(actions)
            for (index, action), (obs, reward, done, info) in zip(actions, results):
                ref_obs, ref_reward, ref_done, _ = reference[index].step(action)
                assert np.array_equal(obs, ref_obs)
                assert reward == ref_reward
                assert done == ref_done

    def test_reset_one_restarts_single_env(self):
        vec = VectorEnv([TwoArmBandit(episode_length=2), TwoArmBandit(episode_length=2)])
        vec.reset_all()
        vec.step_many([(0, 0), (1, 1)])
        vec.step_many([(0, 0), (1, 1)])
        state = vec.reset_one(0)
        assert state.shape == (1, 2)
        # env 0 restarted; stepping it again works.
        (obs, reward, done, info), = vec.step_many([(0, 1)])
        assert reward == 1.0 and not done


class TestBatchedSparseMCSVectorEnv:
    def test_rejects_non_mcs_environment(self, tiny_temperature_dataset):
        with pytest.raises(TypeError):
            BatchedSparseMCSVectorEnv([TwoArmBandit()])

    def test_batched_step_contract(self, tiny_temperature_dataset):
        envs = [make_mcs_env(tiny_temperature_dataset, seed=i) for i in range(3)]
        vec = BatchedSparseMCSVectorEnv(envs)
        states = vec.reset_all()
        n_cells = envs[0].n_cells
        for state in states:
            assert state.shape == (2, n_cells)
        total_rewards = np.zeros(3)
        for step in range(n_cells - 1):
            actions = []
            for index in range(3):
                mask = vec.valid_action_mask(index)
                actions.append((index, int(np.flatnonzero(mask)[0])))
            results = vec.step_many(actions)
            for k, (obs, reward, done, info) in enumerate(results):
                assert obs.shape == (2, n_cells)
                assert np.isfinite(reward)
                assert {"cycle", "n_selected", "error", "quality_satisfied"} <= set(info)
                total_rewards[k] += reward
        assert np.all(np.isfinite(total_rewards))

    def test_falls_back_without_complete_batch(self, tiny_temperature_dataset):
        inference = SpatialMeanInference()
        envs = [
            make_mcs_env(tiny_temperature_dataset, inference=inference, seed=i)
            for i in range(2)
        ]
        vec = BatchedSparseMCSVectorEnv(envs, inference=inference)
        assert not vec._batched
        vec.reset_all()
        results = vec.step_many([(0, 0), (1, 1)])
        assert len(results) == 2

    def test_batched_and_fallback_follow_same_protocol(self, tiny_temperature_dataset):
        """Both paths must produce identical per-step protocol fields (cycle,
        n_selected); the error value may differ between solvers."""
        inference = CompressiveSensingInference(rank=2, iterations=4, seed=0)
        batched = BatchedSparseMCSVectorEnv(
            [make_mcs_env(tiny_temperature_dataset, inference=inference, seed=7)]
        )
        plain = VectorEnv([make_mcs_env(tiny_temperature_dataset, inference=inference, seed=7)])
        batched.reset_all()
        plain.reset_all()
        for action in range(3):
            (b_result,) = batched.step_many([(0, action)])
            (p_result,) = plain.step_many([(0, action)])
            assert b_result[3]["cycle"] == p_result[3]["cycle"]
            assert b_result[3]["n_selected"] == p_result[3]["n_selected"]

    def test_batches_only_on_one_pool_key(self, tiny_temperature_dataset):
        """Separately seeded instances of one solver batch; a different
        solver configuration falls back to per-environment stepping."""
        seeded = [make_mcs_env(tiny_temperature_dataset, seed=i) for i in range(3)]
        assert BatchedSparseMCSVectorEnv(seeded)._batched
        mixed = seeded[:2] + [
            make_mcs_env(
                tiny_temperature_dataset,
                inference=CompressiveSensingInference(rank=3, iterations=4, seed=2),
            )
        ]
        assert not BatchedSparseMCSVectorEnv(mixed)._batched
