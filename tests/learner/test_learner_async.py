"""The scalable half of the actor/learner split: fused multi-campaign learning.

Several concurrent campaigns stream transitions through one server into one
shared learner; updates are fused minibatches at a configurable publication
cadence, and actors pull versioned snapshots whose staleness is surfaced
through :class:`~repro.serve.stats.ServerStats`.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.drcell import DRCellAgent, DRCellConfig
from repro.datasets.sensorscope import generate_sensorscope
from repro.inference.compressive import CompressiveSensingInference
from repro.learner import Learner, LearnerConfig, TransitionBatch
from repro.mcs import CampaignConfig, SensingTask, ServedCampaignRunner
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.rl.dqn import DQNConfig
from repro.serve import DecisionServer, ServeConfig, drive
from repro.utils.seeding import derive_rng


def build_agent(*, n_cells=8, replay_capacity=256):
    config = DRCellConfig(
        window=2,
        seed=0,
        lstm_hidden=12,
        dense_hidden=(12,),
        dqn=DQNConfig(
            batch_size=8,
            min_replay_size=8,
            learn_every=1,
            replay_capacity=replay_capacity,
            target_update_interval=10,
        ),
    )
    return DRCellAgent.build(n_cells, config)


def build_task(*, dataset_seed=0, assess_rng=None):
    dataset = generate_sensorscope(
        "temperature",
        n_cells=8,
        duration_days=1.0,
        cycle_length_hours=2.0,
        seed=dataset_seed,
    )
    return SensingTask(
        dataset=dataset,
        requirement=QualityRequirement(epsilon=0.8, p=0.8, metric="mae"),
        inference=CompressiveSensingInference(rank=3, iterations=5, seed=0),
        assessor=LeaveOneOutBayesianAssessor(
            min_observations=2,
            max_loo_cells=4,
            history_window=6,
            rng=assess_rng if assess_rng is not None else np.random.default_rng(0),
        ),
    )


def run_fleet(learner, server, *, n_campaigns=4, n_cycles=4):
    """Drive ``n_campaigns`` concurrent campaigns through one shared learner."""
    config = CampaignConfig(min_cells_per_cycle=2, assess_every=2, history_window=6)
    runners, drivers = [], []
    for index in range(n_campaigns):
        # Campaign i's assessor and actor draw from child streams 2i and 2i + 1.
        task = build_task(dataset_seed=index, assess_rng=derive_rng(0, 2 * index))
        policy = learner.policy(
            rng=derive_rng(0, 2 * index + 1), campaign=f"campaign-{index}"
        )
        runner = ServedCampaignRunner(task, config, server=server)
        runners.append(runner)
        drivers.append(runner.launch([policy], n_cycles=n_cycles))
    drive(server, drivers)
    return runners


class TestFusedMultiCampaign:
    def test_concurrent_campaigns_feed_one_learner(self):
        learner = Learner(
            build_agent(), config=LearnerConfig(steps_per_publish=4, minibatch=16)
        )
        server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
        runners = run_fleet(learner, server, n_campaigns=4, n_cycles=4)

        for runner in runners:
            (result,) = runner.results
            assert result.n_cycles == 4

        telemetry = learner.telemetry()
        assert telemetry["mode"] == "fused"
        replay = telemetry["replay"]
        assert sorted(replay["campaigns"]) == [f"campaign-{i}" for i in range(4)]
        assert replay["transitions"] == sum(
            account["transitions"] for account in replay["campaigns"].values()
        )
        # Every campaign contributed experience and the learner trained on it.
        assert all(
            account["transitions"] > 0 for account in replay["campaigns"].values()
        )
        assert telemetry["learn_steps"] > 0
        assert telemetry["weights"]["version"] > 1

    def test_learn_batches_fuse_across_campaigns(self):
        learner = Learner(
            build_agent(), config=LearnerConfig(steps_per_publish=4, minibatch=16)
        )
        server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
        run_fleet(learner, server, n_campaigns=4, n_cycles=4)
        learn = server.stats.endpoint("learn")
        assert learn.requests > learn.batches
        assert learn.mean_batch_occupancy > 1.0

    def test_staleness_telemetry_reaches_server_stats(self):
        learner = Learner(
            build_agent(), config=LearnerConfig(steps_per_publish=8, minibatch=16)
        )
        server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
        run_fleet(learner, server, n_campaigns=3, n_cycles=4)
        snapshot = server.stats.as_dict()
        (label,) = snapshot["learners"]
        weights = snapshot["learners"][label]["weights"]
        assert weights["pulls"] > 0
        assert weights["publishes"] >= 1
        assert weights["max_versions_behind"] >= 0
        assert weights["max_ticks_since_publish"] >= 0
        # The snapshot round-trips through JSON (reporting contract).
        json.dumps(snapshot)

    def test_actors_pull_fresh_versions_on_cycle_boundaries(self):
        learner = Learner(
            build_agent(), config=LearnerConfig(steps_per_publish=4, minibatch=16)
        )
        server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
        config = CampaignConfig(min_cells_per_cycle=2, assess_every=2, history_window=6)
        policy = learner.policy(rng=np.random.default_rng(1), campaign="c0")
        runner = ServedCampaignRunner(build_task(), config, server=server)
        drive(server, [runner.launch([policy], n_cycles=4)])
        # The final cycle's learn batch publishes after the last selection
        # pull, so the actor may end (at most) one pull behind; the next
        # pull lands exactly on the latest version.
        assert policy.actor.version <= learner.store.version
        policy.actor.pull()
        assert policy.actor.version == learner.store.version
        assert policy.actor.snapshot.total_steps == learner.agent.agent.total_steps

    def test_learner_endpoint_rejects_non_learner(self):
        server = DecisionServer()
        batch = TransitionBatch(
            campaign="x",
            states=np.zeros((1, 2, 8)),
            actions=np.zeros(1, dtype=int),
            rewards=np.zeros(1),
            next_states=np.zeros((1, 2, 8)),
            dones=np.zeros(1, dtype=bool),
        )
        with pytest.raises(TypeError):
            server.learn_batch(object(), batch)

    @pytest.mark.parametrize(
        "poison",
        [
            lambda batch: {"states": batch.states},
            lambda batch: replace(batch, rewards=batch.rewards[:2]),
            lambda batch: replace(batch, dones=batch.dones[:, None]),
            lambda batch: replace(batch, actions=batch.actions[:, None]),
            lambda batch: replace(batch, states=np.zeros((3, 2, 7))),
            lambda batch: replace(batch, next_states=np.zeros((3, 8))),
            lambda batch: replace(batch, states=np.where(batch.states == 0, np.nan, 1.0)),
            lambda batch: replace(batch, next_states=np.full((3, 2, 8), np.inf)),
            lambda batch: replace(batch, actions=np.array([0, 8, 1])),
            lambda batch: replace(batch, actions=np.array([0, -1, 1])),
            lambda batch: replace(batch, rewards=np.array([0.0, np.nan, 1.0])),
        ],
        ids=[
            "not-a-batch",
            "short-rewards",
            "2-d-dones",
            "2-d-actions",
            "state-shape",
            "next-state-shape",
            "nan-states",
            "inf-next-states",
            "action-too-large",
            "negative-action",
            "nan-reward",
        ],
    )
    def test_learner_endpoint_refuses_poisoned_batch_alone(self, poison):
        learner = Learner(
            build_agent(), config=LearnerConfig(steps_per_publish=1, minibatch=16)
        )
        dqn = learner.agent.agent
        server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
        good = TransitionBatch(
            campaign="good",
            states=np.zeros((3, 2, 8)),
            actions=np.array([0, 7, 3]),
            rewards=np.ones(3),
            next_states=np.ones((3, 2, 8)),
            dones=np.zeros(3, dtype=bool),
        )
        before = (len(dqn.replay), dqn.learn_steps, learner.store.version)
        receipt = server.learn_batch(learner, good)
        with pytest.raises(ValueError):
            server.learn_batch(learner, poison(good))
        assert (len(dqn.replay), dqn.learn_steps, learner.store.version) == before
        assert server.stats.endpoint("learn").requests == 1

        server.flush()
        assert receipt.result()["transitions"] == 3
        assert len(dqn.replay) == before[0] + 3
        assert learner.store.version == before[2] + 1

    def test_shared_replay_carries_warm_start_experience(self):
        # A trained agent's newest transitions survive the switch to the
        # shared cross-campaign pool.
        agent = build_agent(replay_capacity=32)
        dqn = agent.agent
        for step in range(10):
            dqn.observe_step(
                np.full((2, 8), float(step)),
                step % 8,
                0.0,
                np.full((2, 8), float(step + 1)),
                False,
            )
        learner = Learner(agent, config=LearnerConfig(replay_capacity=128))
        assert dqn.replay.capacity == 128
        assert len(dqn.replay) == 10
        states, _, _, _, _ = dqn.replay.gather(dqn.replay.recent_indices(10))
        assert states[0, 0, 0] == 0.0 and states[-1, 0, 0] == 9.0


class TestRegistryFactory:
    def test_served_online_key_builds_an_actor_policy(self):
        from repro.api.registry import POLICIES
        from repro.learner.actor import ActorPolicy

        policy = POLICIES.create(
            "served_online",
            agent=build_agent(),
            seed=7,
            steps_per_publish=4,
            replay_capacity=128,
            minibatch=16,
            campaign="from-registry",
        )
        assert isinstance(policy, ActorPolicy)
        assert policy.campaign == "from-registry"
        assert policy.learner.config.steps_per_publish == 4
        assert policy.learner.agent.agent.replay.capacity == 128
        assert POLICIES.metadata("served_online").get("trains_agent") is True

    def test_factory_partitions_rng_away_from_the_agent(self):
        agent = build_agent()
        from repro.api.registry import POLICIES

        policy = POLICIES.create("served_online", agent=agent, seed=7)
        assert policy.actor._rng is not agent.agent._rng
