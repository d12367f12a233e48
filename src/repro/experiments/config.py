"""Experiment scales.

The paper trains a TensorFlow DRQN for 2–4 hours on a Xeon server; this
reproduction's NumPy substrate is slower per-FLOP, so the experiments are
parameterised by a *scale* that controls dataset size and training effort.
All scales keep the paper's structure (two datasets, 2-day training stage,
(ε, p)-quality with the paper's ε values); they differ in the number of
cells, campaign length, and DRQN training budget.

* ``TINY``   — a few cells and cycles, for unit/integration tests.
* ``SMALL``  — the default for the benchmark suite; minutes, not hours.
* ``MEDIUM`` — closer to paper scale, tens of minutes.
* ``FULL``   — the paper's cell counts and durations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.config import DRCellConfig
from repro.datasets.base import SensingDataset
from repro.datasets.sensorscope import generate_sensorscope
from repro.datasets.uair import generate_uair
from repro.inference.compressive import CompressiveSensingInference
from repro.mcs.campaign import CampaignConfig
from repro.mcs.task import SensingTask
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.rl.dqn import DQNConfig
from repro.utils.seeding import derive_rng


@dataclass(frozen=True)
class ExperimentScale:
    """A bundle of dataset / training / campaign settings for the experiments.

    Attributes
    ----------
    name:
        Scale identifier used in reports.
    sensorscope_cells, uair_cells:
        Number of cells in the two synthetic datasets.
    sensorscope_days, uair_days:
        Campaign durations in days.
    sensorscope_cycle_hours, uair_cycle_hours:
        Sensing-cycle lengths in hours.
    training_days:
        Length of the preliminary-study (training) stage.
    transfer_target_cycles:
        Number of training cycles available to the *target* task in the
        transfer-learning experiment (the paper uses 10).
    episodes:
        DRQN training episodes.
    als_iterations:
        ALS sweeps of the compressive-sensing inference (lower = faster).
    max_loo_cells:
        LOO re-inferences per quality assessment.
    assess_every:
        Submissions between consecutive quality assessments in the campaign.
    min_cells_per_cycle:
        Submissions always collected before the first assessment.
    history_window:
        Past cycles visible to the inference algorithm.
    lstm_hidden / dense_hidden:
        DRQN sizes.
    max_test_cycles:
        Optional cap on the number of testing cycles evaluated (None = all).
    serve_campaigns:
        Cap on the number of concurrent campaigns the CLI ``serve``
        subcommand (and the serve benchmark) drives at this scale.
    serve_max_batch:
        Cap on the decision server's micro-batch size at this scale.
    serve_max_inflight:
        Cap on the requests one campaign may occupy in a single assembled
        server batch (the fairness knob ``max_inflight_per_campaign``) at
        this scale.
    learner_publish_every:
        Cap on the central learner's publish cadence (learner global steps
        between consecutive weight-snapshot publications) for
        ``served_online`` slots at this scale.
    learner_replay_capacity:
        Cap on the shared cross-campaign replay buffer size at this scale.
    learner_minibatch:
        Cap on the central learner's fused-update minibatch size at this
        scale.
    """

    name: str
    sensorscope_cells: int = 57
    uair_cells: int = 36
    sensorscope_days: float = 7.0
    uair_days: float = 11.0
    sensorscope_cycle_hours: float = 0.5
    uair_cycle_hours: float = 1.0
    training_days: float = 2.0
    transfer_target_cycles: int = 10
    episodes: int = 20
    als_iterations: int = 15
    max_loo_cells: int = 12
    assess_every: int = 1
    min_cells_per_cycle: int = 3
    history_window: int = 24
    lstm_hidden: int = 64
    dense_hidden: Tuple[int, ...] = (64,)
    max_test_cycles: Optional[int] = None
    serve_campaigns: int = 32
    serve_max_batch: int = 64
    serve_max_inflight: int = 8
    learner_publish_every: int = 64
    learner_replay_capacity: int = 20_000
    learner_minibatch: int = 64

    # -- dataset builders ------------------------------------------------------

    def sensorscope_dataset(self, kind: str = "temperature", *, seed: int = 0) -> SensingDataset:
        """The Sensor-Scope-scale dataset (temperature or humidity) at this scale."""
        return generate_sensorscope(
            kind,
            n_cells=self.sensorscope_cells,
            duration_days=self.sensorscope_days,
            cycle_length_hours=self.sensorscope_cycle_hours,
            seed=seed,
        )

    def uair_dataset(self, *, seed: int = 0) -> SensingDataset:
        """The U-Air-scale PM2.5 dataset at this scale."""
        return generate_uair(
            n_cells=self.uair_cells,
            duration_days=self.uair_days,
            cycle_length_hours=self.uair_cycle_hours,
            seed=seed,
        )

    # -- component builders -----------------------------------------------------

    def inference(self, *, seed: int = 0) -> CompressiveSensingInference:
        """The compressive-sensing inference algorithm at this scale's fidelity."""
        return CompressiveSensingInference(
            rank=3, iterations=self.als_iterations, seed=derive_rng(seed, 5)
        )

    def assessor(self) -> LeaveOneOutBayesianAssessor:
        """The test-time quality assessor at this scale's fidelity."""
        return LeaveOneOutBayesianAssessor(
            min_observations=min(3, self.min_cells_per_cycle),
            max_loo_cells=self.max_loo_cells,
            history_window=self.history_window,
        )

    def task(
        self,
        dataset: SensingDataset,
        requirement: QualityRequirement,
        *,
        seed: int = 0,
    ) -> SensingTask:
        """Bundle a dataset and requirement into a task with this scale's components."""
        return SensingTask(
            dataset=dataset,
            requirement=requirement,
            inference=self.inference(seed=seed),
            assessor=self.assessor(),
        )

    def campaign_config(self) -> CampaignConfig:
        """Campaign-loop settings at this scale."""
        return CampaignConfig(
            min_cells_per_cycle=self.min_cells_per_cycle,
            assess_every=self.assess_every,
            history_window=self.history_window,
        )

    def drcell_config(self, *, recurrent: bool = True, window: int = 2, seed: int = 0) -> DRCellConfig:
        """DR-Cell training configuration at this scale."""
        return DRCellConfig(
            window=window,
            recurrent=recurrent,
            lstm_hidden=self.lstm_hidden,
            dense_hidden=self.dense_hidden,
            episodes=self.episodes,
            exploration_decay_steps=max(200, self.episodes * 150),
            min_cells_before_check=min(2, self.min_cells_per_cycle),
            history_window=min(self.history_window, 12),
            dqn=DQNConfig(
                discount=0.95,
                batch_size=16,
                replay_capacity=5_000,
                min_replay_size=32,
                target_update_interval=50,
                learn_every=2,
            ),
            seed=seed,
        )


TINY_SCALE = ExperimentScale(
    name="tiny",
    sensorscope_cells=8,
    uair_cells=8,
    sensorscope_days=1.5,
    uair_days=1.5,
    sensorscope_cycle_hours=2.0,
    uair_cycle_hours=2.0,
    training_days=1.0,
    transfer_target_cycles=4,
    episodes=2,
    als_iterations=5,
    max_loo_cells=4,
    assess_every=2,
    min_cells_per_cycle=2,
    history_window=6,
    lstm_hidden=12,
    dense_hidden=(12,),
    max_test_cycles=4,
    serve_campaigns=4,
    serve_max_inflight=2,
    serve_max_batch=8,
    learner_publish_every=8,
    learner_replay_capacity=512,
    learner_minibatch=16,
)

SMALL_SCALE = ExperimentScale(
    name="small",
    sensorscope_cells=20,
    uair_cells=16,
    sensorscope_days=3.0,
    uair_days=3.0,
    sensorscope_cycle_hours=1.0,
    uair_cycle_hours=1.0,
    training_days=2.0,
    transfer_target_cycles=10,
    episodes=4,
    als_iterations=8,
    max_loo_cells=6,
    assess_every=2,
    min_cells_per_cycle=3,
    history_window=8,
    lstm_hidden=32,
    dense_hidden=(32,),
    max_test_cycles=20,
    serve_campaigns=8,
    serve_max_inflight=4,
    serve_max_batch=16,
    learner_publish_every=16,
    learner_replay_capacity=2_048,
    learner_minibatch=32,
)

MEDIUM_SCALE = ExperimentScale(
    name="medium",
    sensorscope_cells=40,
    uair_cells=25,
    sensorscope_days=4.0,
    uair_days=5.0,
    sensorscope_cycle_hours=1.0,
    uair_cycle_hours=1.0,
    training_days=2.0,
    episodes=10,
    als_iterations=10,
    max_loo_cells=8,
    assess_every=2,
    min_cells_per_cycle=3,
    history_window=12,
    lstm_hidden=64,
    dense_hidden=(64,),
    max_test_cycles=48,
    serve_campaigns=16,
    serve_max_inflight=8,
    serve_max_batch=32,
    learner_publish_every=32,
    learner_replay_capacity=8_192,
    learner_minibatch=32,
)

FULL_SCALE = ExperimentScale(name="full")

_SCALES: Dict[str, ExperimentScale] = {
    scale.name: scale for scale in (TINY_SCALE, SMALL_SCALE, MEDIUM_SCALE, FULL_SCALE)
}


def get_scale(name: str) -> ExperimentScale:
    """Look up a predefined scale by name."""
    try:
        return _SCALES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; available: {sorted(_SCALES)}") from None
