"""Training DR-Cell on a preliminary-study dataset.

The paper's evaluation protocol (§5.3) assumes the organiser runs a 2-day
preliminary study during which every cell's data is collected; that data is
the ground truth the training environment uses to compute exact rewards.
:class:`DRCellTrainer` wraps the environment construction, the deep
Q-learning loop, and a :class:`TrainingReport` of what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import DRCellConfig
from repro.core.drcell import DRCellAgent
from repro.datasets.base import SensingDataset
from repro.inference.base import InferenceAlgorithm
from repro.mcs.environment import RewardModel, SparseMCSEnvironment
from repro.mcs.vector import BatchedSparseMCSVectorEnv
from repro.obs.profile import phase
from repro.quality.epsilon_p import QualityRequirement
from repro.rl.dqn import EpisodeStats
from repro.utils.logging import get_logger
from repro.utils.seeding import derive_rng
from repro.utils.timing import monotonic
from repro.utils.validation import check_positive_int

logger = get_logger(__name__)


@dataclass
class TrainingReport:
    """Summary of one DR-Cell training run."""

    episodes: int
    total_steps: int
    wall_clock_seconds: float
    episode_rewards: List[float] = field(default_factory=list)
    episode_selections: List[float] = field(default_factory=list)

    @property
    def mean_episode_reward(self) -> float:
        """Average undiscounted return per episode."""
        return float(np.mean(self.episode_rewards)) if self.episode_rewards else float("nan")

    @property
    def final_episode_reward(self) -> float:
        """Return of the last training episode."""
        return self.episode_rewards[-1] if self.episode_rewards else float("nan")

    @property
    def mean_selections_per_cycle_last_episode(self) -> float:
        """Average submissions per cycle in the final episode (training-time proxy
        of the paper's headline metric)."""
        return self.episode_selections[-1] if self.episode_selections else float("nan")

    def metrics(self, *, run: Optional[str] = None) -> Dict[str, object]:
        """The canonical ``repro_train_*`` metric view of this report.

        Exactly the samples :mod:`repro.obs` exports (optionally labelled
        with a ``run`` name).
        """
        from repro.obs.adapters import flat_samples, ingest_training_report

        return flat_samples(ingest_training_report, self, run=run)


class DRCellTrainer:
    """Builds the training environment and runs the deep Q-learning loop.

    Parameters
    ----------
    config:
        DR-Cell hyper-parameters.
    inference:
        Inference algorithm used inside the training environment's reward
        computation; defaults to compressive sensing.
    """

    def __init__(
        self,
        config: Optional[DRCellConfig] = None,
        *,
        inference: Optional[InferenceAlgorithm] = None,
    ) -> None:
        self.config = config or DRCellConfig()
        self.inference = inference

    def build_environment(
        self,
        dataset: SensingDataset,
        requirement: QualityRequirement,
        *,
        variant: int = 0,
    ) -> SparseMCSEnvironment:
        """The training-stage environment for ``dataset`` under ``requirement``.

        ``variant`` derives a distinct episode-offset seed per environment so
        that the K lockstep environments of the vectorized engine explore
        different episode windows; variant 0 is the (unchanged) sequential
        environment.
        """
        return SparseMCSEnvironment(
            dataset,
            requirement,
            window=self.config.window,
            inference=self.inference,
            reward_model=RewardModel(
                bonus=self.config.resolve_bonus(dataset.n_cells),
                cost=self.config.cost,
            ),
            min_cells_before_check=self.config.min_cells_before_check,
            history_window=self.config.history_window,
            max_episode_cycles=self.config.max_episode_cycles,
            seed=derive_rng(self.config.seed, 11 + variant),
        )

    def train(
        self,
        dataset: SensingDataset,
        requirement: QualityRequirement,
        *,
        agent: Optional[DRCellAgent] = None,
        episodes: Optional[int] = None,
    ) -> tuple[DRCellAgent, TrainingReport]:
        """Train (or continue training) a DR-Cell agent on ``dataset``.

        Parameters
        ----------
        dataset:
            Preliminary-study data with every cell observed (ground truth).
        requirement:
            The (ε, p)-quality requirement of the task.
        agent:
            An existing agent to continue training (used by transfer
            learning); a fresh agent is built when omitted.
        episodes:
            Override the number of training episodes from the config.

        Returns
        -------
        tuple
            ``(trained_agent, report)``.
        """
        episodes = check_positive_int(
            episodes if episodes is not None else self.config.episodes, "episodes"
        )
        if agent is None:
            agent = DRCellAgent.build(dataset.n_cells, self.config)
        elif agent.n_cells != dataset.n_cells:
            raise ValueError(
                f"agent was built for {agent.n_cells} cells but the dataset has {dataset.n_cells}"
            )

        episode_rewards: List[float] = []
        episode_selections: List[float] = []
        start = monotonic()
        if self.config.vector_envs > 1 or self.config.fused_learning:
            # Fused global-step learning only exists in the vectorized
            # engine, so `fused_learning` with `vector_envs = 1` still routes
            # through the lockstep loop (with a single environment).
            n_envs = min(self.config.vector_envs, episodes)
            environments = [
                self.build_environment(dataset, requirement, variant=index)
                for index in range(n_envs)
            ]
            self._run_lockstep(
                agent, environments, episodes, episode_rewards, episode_selections
            )
        else:
            environment = self.build_environment(dataset, requirement)
            for episode in range(episodes):
                with phase("train.episode"):
                    stats: EpisodeStats = agent.agent.train_episode(environment)
                episode_rewards.append(stats.total_reward)
                cycles = max(1, environment.episode_cycles)
                episode_selections.append(stats.steps / cycles)
                logger.info(
                    "DR-Cell training episode %d/%d: reward=%.1f selections/cycle=%.2f",
                    episode + 1,
                    episodes,
                    stats.total_reward,
                    stats.steps / cycles,
                )
        elapsed = monotonic() - start

        report = TrainingReport(
            episodes=episodes,
            total_steps=agent.agent.total_steps,
            wall_clock_seconds=elapsed,
            episode_rewards=episode_rewards,
            episode_selections=episode_selections,
        )
        agent.training_info.update(
            {
                "dataset": dataset.name,
                "episodes_trained": agent.training_info.get("episodes_trained", 0) + episodes,
                "last_training_seconds": elapsed,
                "requirement": requirement.describe(),
            }
        )
        return agent, report

    def train_lockstep(
        self,
        datasets: Sequence[SensingDataset],
        requirements: Union[QualityRequirement, Sequence[QualityRequirement]],
        *,
        agent: Optional[DRCellAgent] = None,
        episodes: Optional[int] = None,
    ) -> tuple[DRCellAgent, TrainingReport]:
        """Train one agent across heterogeneous (dataset, requirement) pairs.

        This is the mixed-dataset / mixed-requirement counterpart of
        :meth:`train`: one environment is built per pair and all of them are
        stepped in lockstep by the vectorized engine
        (:class:`~repro.mcs.vector.BatchedSparseMCSVectorEnv` driving
        :meth:`~repro.rl.dqn.DQNAgent.train_episodes_vectorized`), batching
        action selection and the quality-check inference across the fleet.
        The datasets may differ in values, cycle counts and requirements but
        must agree on the number of cells (the action space).

        ``config.vector_envs`` is ignored here — the fleet size is simply the
        number of pairs.

        Parameters
        ----------
        datasets:
            One preliminary-study dataset per training slot.
        requirements:
            One (ε, p)-requirement per dataset, or a single requirement
            shared by all.
        agent:
            An existing agent to continue training; built fresh when omitted.
        episodes:
            Total episodes across the fleet (defaults to the config's).

        Returns
        -------
        tuple
            ``(trained_agent, report)``.
        """
        datasets = list(datasets)
        if not datasets:
            raise ValueError("at least one dataset is required")
        if isinstance(requirements, QualityRequirement):
            requirements = [requirements] * len(datasets)
        requirements = list(requirements)
        if len(requirements) != len(datasets):
            raise ValueError(
                f"{len(requirements)} requirements for {len(datasets)} datasets; "
                "provide one per dataset or a single shared requirement"
            )
        n_cells = datasets[0].n_cells
        for index, candidate in enumerate(datasets):
            if candidate.n_cells != n_cells:
                raise ValueError(
                    f"dataset {index} has {candidate.n_cells} cells, expected {n_cells}; "
                    "lockstep training requires a shared action space"
                )
        episodes = check_positive_int(
            episodes if episodes is not None else self.config.episodes, "episodes"
        )
        if agent is None:
            agent = DRCellAgent.build(n_cells, self.config)
        elif agent.n_cells != n_cells:
            raise ValueError(
                f"agent was built for {agent.n_cells} cells but the datasets have {n_cells}"
            )

        environments = [
            self.build_environment(dataset, requirement, variant=index)
            for index, (dataset, requirement) in enumerate(zip(datasets, requirements))
        ]
        episode_rewards: List[float] = []
        episode_selections: List[float] = []
        start = monotonic()
        self._run_lockstep(agent, environments, episodes, episode_rewards, episode_selections)
        elapsed = monotonic() - start

        report = TrainingReport(
            episodes=episodes,
            total_steps=agent.agent.total_steps,
            wall_clock_seconds=elapsed,
            episode_rewards=episode_rewards,
            episode_selections=episode_selections,
        )
        dataset_names = sorted({dataset.name for dataset in datasets})
        requirement_names = sorted({requirement.describe() for requirement in requirements})
        agent.training_info.update(
            {
                "dataset": " + ".join(dataset_names),
                "episodes_trained": agent.training_info.get("episodes_trained", 0) + episodes,
                "last_training_seconds": elapsed,
                "requirement": " + ".join(requirement_names),
            }
        )
        return agent, report

    def _run_lockstep(
        self,
        agent: DRCellAgent,
        environments: List[SparseMCSEnvironment],
        episodes: int,
        episode_rewards: List[float],
        episode_selections: List[float],
    ) -> None:
        """Drive the vectorized training loop and collect per-episode statistics.

        ``config.fused_learning`` forces the fused global-step schedule even
        for agents whose own DQN config predates the knob (e.g. transferred
        agents); otherwise the agent's config decides.
        """
        vector_env = BatchedSparseMCSVectorEnv(environments)
        with phase("train.lockstep"):
            history = agent.agent.train_episodes_vectorized(
                vector_env,
                episodes,
                log_every=0,
                fused=True if self.config.fused_learning else None,
            )
        for position, stats in enumerate(history):
            episode_rewards.append(stats.total_reward)
            cycles = max(1, int(stats.extra.get("episode_cycles", 1)))
            episode_selections.append(stats.steps / cycles)
            logger.info(
                "DR-Cell training episode %d/%d (env %d): reward=%.1f "
                "selections/cycle=%.2f",
                position + 1,
                episodes,
                int(stats.extra.get("env_index", 0)),
                stats.total_reward,
                stats.steps / cycles,
            )
