"""Per-client RNG partitioning for served campaigns.

PR 5 established that pooled request handling is bitwise-deterministic but
left one coupling: equivalence-grouped assessors consumed the *group
leader's* RNG stream, so adding a concurrent campaign could perturb another
campaign's LOO subsampling draws.  The server now threads each request's own
generator through ``assess_many``, and serving actors carry per-campaign
child streams (:mod:`repro.utils.seeding`) — a campaign's random draws are
identical whether it runs alone or co-scheduled.
"""

from __future__ import annotations

import numpy as np

from repro.core.drcell import DRCellAgent, DRCellConfig
from repro.datasets.sensorscope import generate_sensorscope
from repro.inference.compressive import CompressiveSensingInference
from repro.learner import Learner, LearnerConfig
from repro.mcs import CampaignConfig, RandomSelectionPolicy, SensingTask, ServedCampaignRunner
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.rl.dqn import DQNConfig
from repro.serve import DecisionServer, ServeConfig, drive
from repro.utils.seeding import derive_rng

# More cells than max_loo_cells, so every assessment actually draws from
# the assessor's generator (the subsampling branch is the only RNG consumer).
N_CELLS = 16
CONFIG = CampaignConfig(min_cells_per_cycle=3, assess_every=1, history_window=6)
#: Parent seed of every campaign's child streams.
STREAM_SEED = 0
#: Per-campaign integer child streams: (assessor, actor).
STREAMS = {"A": (0, 1), "B": (2, 3)}


def build_task(campaign: str, *, dataset_seed: int):
    dataset = generate_sensorscope(
        "temperature",
        n_cells=N_CELLS,
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
            rng=derive_rng(STREAM_SEED, STREAMS[campaign][0]),
        ),
    )


def run_campaigns(campaigns, *, n_cycles=3):
    """Run the named campaigns concurrently on one server; results by name."""
    server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
    runners = {}
    drivers = []
    for name, dataset_seed, policy_seed in campaigns:
        task = build_task(name, dataset_seed=dataset_seed)
        runner = ServedCampaignRunner(task, CONFIG, server=server)
        runners[name] = runner
        drivers.append(
            runner.launch([RandomSelectionPolicy(seed=policy_seed)], n_cycles=n_cycles)
        )
    drive(server, drivers)
    return {name: runner.results[0] for name, runner in runners.items()}


def assert_campaign_bitwise_equal(left, right):
    assert len(left.records) == len(right.records)
    for rl, rr in zip(left.records, right.records):
        assert rl.selected_cells == rr.selected_cells
        assert rl.true_error == rr.true_error  # bitwise: no tolerance
        assert rl.assessed_satisfied == rr.assessed_satisfied
    assert np.array_equal(left.inferred_matrix, right.inferred_matrix, equal_nan=True)


class TestAssessorStreamPartitioning:
    def test_campaign_is_bitwise_unaffected_by_a_co_scheduled_campaign(self):
        # Campaign A alone vs campaign A sharing the server with campaign B:
        # same child seed streams, so A's draws must be bitwise identical
        # even though the pooled assess batches now interleave B's requests.
        alone = run_campaigns([("A", 0, 1)])
        together = run_campaigns([("A", 0, 1), ("B", 5, 9)])
        assert_campaign_bitwise_equal(alone["A"], together["A"])

    def test_equivalent_assessors_use_their_own_streams(self):
        # The two campaigns' assessors are equivalent (identical knobs), so
        # the server pools them into one batch — but each request's LOO
        # subsample must come from its own campaign's generator, hence
        # per-campaign child streams give different draws.
        a = derive_rng(STREAM_SEED, STREAMS["A"][0])
        b = derive_rng(STREAM_SEED, STREAMS["B"][0])
        assert a.bit_generator.state != b.bit_generator.state


class TestActorStreamPartitioning:
    def make_learner(self):
        config = DRCellConfig(
            window=2,
            seed=0,
            lstm_hidden=12,
            dense_hidden=(12,),
            # min_replay_size above anything the short runs reach: weights
            # never change, so selections differ only if RNG streams couple.
            dqn=DQNConfig(batch_size=8, min_replay_size=10_000, learn_every=1),
        )
        return Learner(
            DRCellAgent.build(N_CELLS, config),
            config=LearnerConfig(steps_per_publish=1_000_000),
        )

    def run_actor_campaigns(self, campaigns, *, n_cycles=3):
        learner = self.make_learner()
        server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
        runners = {}
        drivers = []
        for name, dataset_seed in campaigns:
            task = build_task(name, dataset_seed=dataset_seed)
            policy = learner.policy(
                rng=derive_rng(STREAM_SEED, STREAMS[name][1]), campaign=name
            )
            runner = ServedCampaignRunner(task, CONFIG, server=server)
            runners[name] = runner
            drivers.append(runner.launch([policy], n_cycles=n_cycles))
        drive(server, drivers)
        return {name: runner.results[0] for name, runner in runners.items()}

    def test_actor_exploration_streams_are_campaign_isolated(self):
        alone = self.run_actor_campaigns([("A", 0)])
        together = self.run_actor_campaigns([("A", 0), ("B", 5)])
        assert_campaign_bitwise_equal(alone["A"], together["A"])
