"""Byte-level pin of an eight-campaign ``served_online`` fleet on one server.

Eight online campaigns over distinct generated fields share one decision
server and one fused :class:`~repro.learner.core.Learner`; each campaign's
:class:`~repro.learner.actor.ServingActor` has its own exploration stream.
The digest covers every cycle record (selected cells, ``true_error`` bytes,
the assessor verdict), every inferred matrix, the learner's final online and
target weights and the weight store's pull telemetry.  Any change to how a
select flush forwards, draws or pulls moves it.  Both Q-network types run:
the DRQN (LSTM) and the feed-forward ablation.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.drcell import DRCellAgent, DRCellConfig
from repro.datasets.sensorscope import generate_sensorscope
from repro.inference.compressive import CompressiveSensingInference
from repro.learner import Learner, LearnerConfig
from repro.mcs import CampaignConfig, SensingTask, ServedCampaignRunner
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.rl.dqn import DQNConfig
from repro.serve import DecisionServer, ServeConfig, drive

FLEET = 8
N_CELLS = 8
N_CYCLES = 5
CONFIG = CampaignConfig(min_cells_per_cycle=2, assess_every=2, history_window=6)


def build_task(seed: int) -> SensingTask:
    dataset = generate_sensorscope(
        "temperature", n_cells=N_CELLS, duration_days=1.0, cycle_length_hours=2.0, seed=seed
    )
    return SensingTask(
        dataset=dataset,
        requirement=QualityRequirement(epsilon=0.8, p=0.8, metric="mae"),
        inference=CompressiveSensingInference(rank=3, iterations=5, seed=0),
        assessor=LeaveOneOutBayesianAssessor(
            min_observations=2,
            max_loo_cells=4,
            history_window=6,
            rng=np.random.default_rng(seed),
        ),
    )


def build_learner(recurrent: bool) -> Learner:
    config = DRCellConfig(
        window=2,
        seed=0,
        recurrent=recurrent,
        lstm_hidden=12,
        dense_hidden=(12,),
        dqn=DQNConfig(
            batch_size=8,
            min_replay_size=8,
            learn_every=1,
            replay_capacity=256,
            target_update_interval=10,
        ),
    )
    return Learner(
        DRCellAgent.build(N_CELLS, config),
        config=LearnerConfig(steps_per_publish=4, minibatch=8),
    )


def fleet_digest(recurrent: bool) -> str:
    learner = build_learner(recurrent)
    server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
    runners = [
        ServedCampaignRunner(build_task(seed), CONFIG, server=server) for seed in range(FLEET)
    ]
    drive(
        server,
        [
            runner.launch(
                [learner.policy(rng=np.random.default_rng(100 + index), campaign=f"c{index}")],
                n_cycles=N_CYCLES,
                tenants=[f"campaign-{index}"],
            )
            for index, runner in enumerate(runners)
        ],
    )
    hasher = hashlib.blake2b(digest_size=16)
    for runner in runners:
        result = runner.results[0]
        for record in result.records:
            hasher.update(
                repr(
                    (
                        int(record.cycle),
                        tuple(int(cell) for cell in record.selected_cells),
                        bool(record.assessed_satisfied),
                    )
                ).encode()
            )
            hasher.update(np.float64(record.true_error).tobytes())
        hasher.update(np.ascontiguousarray(result.inferred_matrix).tobytes())
    dqn = learner.agent.agent
    for network in (dqn.online, dqn.target):
        for layer in network.get_weights():
            for name in sorted(layer):
                hasher.update(name.encode())
                hasher.update(np.ascontiguousarray(layer[name]).tobytes())
    hasher.update(repr(sorted(learner.store.telemetry().items())).encode())
    return hasher.hexdigest()


@pytest.mark.parametrize(
    "recurrent, expected",
    [
        (True, "01fcb331fd184ae3f96f7ef649190b76"),
        (False, "fcb4c5c218fd9043a2126e1d95141eec"),
    ],
)
def test_served_online_fleet_digest(recurrent, expected):
    assert fleet_digest(recurrent) == expected
