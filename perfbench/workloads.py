"""The benchmark workloads: set-up, one timed round, and its checked outputs.

Every workload is a closed loop.  ``train`` runs ``DRCellTrainer.train`` on
eight lockstep environments; the two serving workloads drive eight
concurrent campaigns from one process with :func:`repro.serve.drive`, each
campaign waiting for every decision before it continues.

A workload has a few input *variants* (different generated sensing fields);
round ``r`` runs variant ``r % variants``.  A round rebuilds the per-run
state (server, tasks, agent copy, learner) outside the timed region, so two
rounds of one variant must give identical deterministic outputs.  The cost
and quality metrics pool the variants, which keeps them from hinging on one
generated field.

The seed only chooses the generated fields; component seeds are fixed
integers.  Nothing is derived from ``hash()``.
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.core.trainer import DRCellTrainer
from repro.experiments.config import SMALL_SCALE
from repro.inference.compressive import CompressiveSensingInference
from repro.learner import Learner, LearnerConfig
from repro.mcs import CampaignConfig, SensingTask
from repro.mcs.served import ServedCampaignRunner
from repro.mcs.vector import BatchedSparseMCSVectorEnv
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.serve import DecisionServer, ServeConfig, drive

from perfbench.tracing import ROUND, SpanRecorder

REQUIREMENT = QualityRequirement(epsilon=0.5, p=0.9, metric="mae")
#: Lockstep training environments, and concurrent campaigns per fleet.
FLEET = 8
MAX_LOO_CELLS = 12
SERVE_CONFIG = ServeConfig(max_batch=64, max_wait_ticks=1)
CAMPAIGN_CONFIG = CampaignConfig(
    min_cells_per_cycle=SMALL_SCALE.min_cells_per_cycle,
    assess_every=1,
    history_window=SMALL_SCALE.history_window,
)
LEARNER_CONFIG = LearnerConfig(steps_per_publish=8, minibatch=32, replay_capacity=4_096)
ENDPOINTS = ("select", "assess", "complete", "learn")
#: Dataset seed of the serving workloads' preliminary study (training split).
PRELIMINARY_SEED = 0
#: Seed of every DR-Cell trainer (agent initialisation, exploration, replay).
TRAINER_SEED = 0
#: Seeds of different ``--seed`` values never overlap: field ``i`` of run
#: seed ``s`` is generated from ``s * SEED_STRIDE + i``.
SEED_STRIDE = 1_000


@dataclass(frozen=True)
class Size:
    """How much work one round does, and how many input variants a pass covers."""

    variants: int
    train_episodes: int = 2 * FLEET
    cycles: int = 12
    setup_episodes: int = FLEET
    warmup_episodes: int = 2
    warmup_cycles: int = 2


SIZES = {
    "full": {
        "train": Size(variants=2),
        "serve_replicated": Size(variants=16),
        "learn_online": Size(variants=2),
    },
    "smoke": {
        name: Size(
            variants=2,
            train_episodes=FLEET,
            cycles=2,
            setup_episodes=2,
            warmup_episodes=1,
            warmup_cycles=1,
        )
        for name in ("train", "serve_replicated", "learn_online")
    },
}


@dataclass
class Round:
    """One timed round: wall time, decision latencies and checked outputs."""

    wall_s: float
    steps: int
    cycles: int
    satisfied: int
    #: Sensed cells per cycle, the paper's cost metric, for this round.
    cost: float
    attempted: int
    failed: int
    latencies_s: List[float]
    outputs: Dict[str, object]
    counters: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: Seconds from each endpoint call to the resolution of its future (traced runs).
    queue_waits_s: List[float] = field(default_factory=list)
    #: Factor from this round's seconds to reference-host seconds (set by the worker).
    scale: float = 1.0


def sensorscope(seed: int, recorder: Optional[SpanRecorder]):
    """A SMALL-scale temperature field split into (preliminary study, testing stage).

    20 cells, three days of hourly cycles; the first two days train, the
    campaigns run over the third.
    """
    with recorder.span("datasets.generate") if recorder is not None else nullcontext():
        field_ = SMALL_SCALE.sensorscope_dataset("temperature", seed=seed)
    return field_.train_test_split(SMALL_SCALE.training_days)


def trainer(episodes: int) -> DRCellTrainer:
    """The SMALL-scale DR-Cell trainer on 8 lockstep environments with fused learning."""
    config = replace(
        SMALL_SCALE.drcell_config(seed=TRAINER_SEED),
        vector_envs=FLEET,
        fused_learning=True,
        episodes=episodes,
    )
    return DRCellTrainer(config, inference=SMALL_SCALE.inference(seed=TRAINER_SEED))


class Workload:
    name = ""

    def __init__(self, seed: int, size: Size, recorder: Optional[SpanRecorder]) -> None:
        self.seed = int(seed)
        self.size = size
        self.recorder = recorder
        #: Index of the last round's ``bench.round`` span (traced runs only).
        self.round_span = -1

    def field_seed(self, index: int) -> int:
        return self.seed * SEED_STRIDE + index

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, variant: int, *, warmup: bool = False) -> Round:
        raise NotImplementedError

    def begin_timing(self) -> float:
        if self.recorder is not None:
            self.round_span = self.recorder.open(ROUND)
        return perf_counter()

    def end_timing(self) -> float:
        end = perf_counter()
        if self.recorder is not None:
            self.recorder.close(self.round_span)
        return end


class StepProbe:
    """Timestamps each lockstep ``step_many`` call of the training fleet.

    The training loop's decision is one lockstep step: batched action
    selection, the environments' quality-check completion and the fused
    update.  The gap between consecutive step calls is its latency.  A
    cycle completes on the step whose completion meets ε.  In a traced run
    the probe wraps the traced ``step_many``, so its gaps include the spans.
    """

    def __init__(self) -> None:
        self.reset()
        original = BatchedSparseMCSVectorEnv.step_many
        probe = self

        def step_many(env, indexed_actions):
            probe.starts.append(perf_counter())
            results = original(env, indexed_actions)
            probe.completed_cycles += sum(info["quality_satisfied"] for *_, info in results)
            return results

        BatchedSparseMCSVectorEnv.step_many = step_many

    def reset(self) -> None:
        self.starts: List[float] = []
        self.completed_cycles = 0


class TrainWorkload(Workload):
    """``DRCellTrainer.train`` on SMALL temperature training splits."""

    name = "train"

    def setup(self) -> None:
        self.train_sets = [
            sensorscope(self.field_seed(variant), self.recorder)[0]
            for variant in range(self.size.variants)
        ]
        self.probe = StepProbe()

    def run_round(self, variant: int, *, warmup: bool = False) -> Round:
        episodes = self.size.warmup_episodes if warmup else self.size.train_episodes
        fleet_trainer = trainer(episodes)
        self.probe.reset()
        start = self.begin_timing()
        _, report = fleet_trainer.train(self.train_sets[variant], REQUIREMENT)
        end = self.end_timing()
        starts = self.probe.starts + [end]
        stats = fleet_trainer.inference.solver_stats
        problems = []
        if not np.isfinite(report.episode_rewards).all():
            problems.append("non-finite training reward")
        if len(report.episode_rewards) != episodes:
            problems.append(f"{len(report.episode_rewards)} of {episodes} episodes ran")
        return Round(
            wall_s=end - start,
            steps=report.total_steps,
            cycles=self.probe.completed_cycles,
            # A training cycle ends only once its true error is within ε, so
            # every completed cycle satisfies the requirement by construction.
            satisfied=self.probe.completed_cycles,
            # Over every training episode of the round: exploration included.
            cost=report.total_steps / self.probe.completed_cycles,
            attempted=len(self.probe.starts),
            failed=0,
            latencies_s=[b - a for a, b in zip(starts, starts[1:])],
            outputs={
                "total_steps": report.total_steps,
                "episode_rewards": list(report.episode_rewards),
                "episode_selections": list(report.episode_selections),
                "als_matrices": stats.matrices,
            },
            counters={"inference.als.sweeps": stats.sweeps_run},
            problems=problems,
        )


class LoadServer(DecisionServer):
    """A decision server that keeps every future its endpoints hand out.

    ``futures`` pairs each future with the time its endpoint was called.
    """

    def __init__(self) -> None:
        super().__init__(SERVE_CONFIG)
        self.futures = []

    def select_cell(self, *args, **kwargs):
        return self._keep(perf_counter(), super().select_cell(*args, **kwargs))

    def assess_quality(self, *args, **kwargs):
        return self._keep(perf_counter(), super().assess_quality(*args, **kwargs))

    def complete_matrix(self, *args, **kwargs):
        return self._keep(perf_counter(), super().complete_matrix(*args, **kwargs))

    def learn_batch(self, *args, **kwargs):
        return self._keep(perf_counter(), super().learn_batch(*args, **kwargs))

    def _keep(self, called: float, future):
        self.futures.append((future, called))
        return future


def load_generator(
    client: Iterator, latencies: List[float], recorder: Optional[SpanRecorder]
) -> Iterator:
    """Forward a campaign client's yields, timing each wait for decisions.

    A bare ``yield`` means the campaign submitted requests and waits for
    their futures; the latency runs from that yield until ``drive`` resumes
    the campaign with the answers.  Cycle-barrier yields are not decisions.
    """
    waiting_since = None
    while True:
        resumed = perf_counter()
        if waiting_since is not None:
            latencies.append(resumed - waiting_since)
        index = recorder.open("mcs.campaign") if recorder is not None else -1
        try:
            signal = next(client)
        except StopIteration:
            return
        finally:
            if recorder is not None:
                recorder.close(index)
        waiting_since = perf_counter() if signal is None else None
        yield signal


class FleetWorkload(Workload):
    """Eight concurrent campaigns served through one ``DecisionServer``."""

    #: Whether the campaigns of a variant see distinct fields or one replicated.
    distinct = True

    def setup(self) -> None:
        per_variant = FLEET if self.distinct else 1
        self.fields = [
            [
                sensorscope(self.field_seed(variant * per_variant + k), self.recorder)[1]
                for k in range(per_variant)
            ]
            * (FLEET // per_variant)
            for variant in range(self.size.variants)
        ]
        # The deployed agent: one lockstep training wave on a fixed
        # preliminary study, so every seed serves the same policy.
        preliminary, _ = sensorscope(PRELIMINARY_SEED, self.recorder)
        self.agent, _ = trainer(self.size.setup_episodes).train(
            preliminary, REQUIREMENT
        )

    def tasks(self, variant: int) -> List[SensingTask]:
        return [
            SensingTask(
                dataset=dataset,
                requirement=REQUIREMENT,
                inference=CompressiveSensingInference(
                    rank=3, iterations=SMALL_SCALE.als_iterations, seed=0
                ),
                assessor=LeaveOneOutBayesianAssessor(
                    min_observations=3,
                    max_loo_cells=MAX_LOO_CELLS,
                    history_window=SMALL_SCALE.history_window,
                    rng=np.random.default_rng(index if self.distinct else 0),
                ),
            )
            for index, dataset in enumerate(self.fields[variant])
        ]

    def policies(self) -> list:
        agent = copy.deepcopy(self.agent)
        return [agent.policy(greedy=True) for _ in range(FLEET)]

    def run_round(self, variant: int, *, warmup: bool = False) -> Round:
        cycles = self.size.warmup_cycles if warmup else self.size.cycles
        server = LoadServer()
        tasks = self.tasks(variant)
        runners = [ServedCampaignRunner([task], CAMPAIGN_CONFIG, server=server) for task in tasks]
        latencies: List[float] = []
        clients = [
            load_generator(
                runner.launch([policy], n_cycles=cycles, tenants=[f"campaign-{index}"]),
                latencies,
                self.recorder,
            )
            for index, (runner, policy) in enumerate(zip(runners, self.policies()))
        ]
        problems: List[str] = []
        if self.recorder is not None:
            self.recorder.resolved_at.clear()
        start = self.begin_timing()
        try:
            drive(server, clients)
        except Exception as error:  # a failed future ends its campaign
            problems.append(f"drive raised {type(error).__name__}: {error}")
        wall = self.end_timing() - start

        failed = 0
        for future, _ in server.futures:
            try:
                future.result()
            except Exception:  # failed, or never resolved
                failed += 1
        queue_waits = []
        if self.recorder is not None:
            # Every kept future is alive, so its id names it alone.
            resolved_at = self.recorder.resolved_at
            queue_waits = [
                resolved_at[id(future)] - called
                for future, called in server.futures
                if id(future) in resolved_at
            ]
        if failed:
            problems.append(f"{failed} of {len(server.futures)} requests failed or never resolved")
        results = []
        for runner in runners:
            try:
                results.append(runner.results[0])
            except RuntimeError:  # the campaign never reached its end
                pass
        if len(results) != len(runners):
            problems.append(f"{len(runners) - len(results)} campaigns did not finish")
        cycles_done = sum(result.n_cycles for result in results)
        if cycles_done != cycles * len(runners):
            problems.append(f"{cycles_done} of {cycles * len(runners)} campaign cycles completed")
        for result in results:
            if not np.isfinite(result.inferred_matrix).all():
                problems.append("non-finite inferred matrix")
        satisfied = sum(int(np.sum(result.errors <= REQUIREMENT.epsilon)) for result in results)
        sensed = sum(result.total_selected for result in results)
        stats = server.stats
        counters = {
            "inference.als.sweeps": sum(task.inference.solver_stats.sweeps_run for task in tasks),
            "serve.cache.hits": stats.cache_hits,
            "serve.cache.misses": stats.cache_misses,
        }
        for kind in ENDPOINTS:
            endpoint = stats.endpoint(kind)
            counters[f"serve.batch_size.{kind}"] = (
                endpoint.batched_requests / endpoint.batches if endpoint.batches else 0.0
            )
        counters.update(self.learner_counters())
        outputs = {
            "cycles": cycles_done,
            "sensed": sensed,
            "satisfied": satisfied,
            "requests": {kind: stats.endpoint(kind).requests for kind in ENDPOINTS},
            "als_matrices": sum(task.inference.solver_stats.matrices for task in tasks),
            "cache_hits": stats.cache_hits,
            "selections": [result.selected_per_cycle.tolist() for result in results],
            "errors": [result.errors.tolist() for result in results],
            **self.learner_outputs(),
        }
        return Round(
            wall_s=wall,
            steps=sensed,
            cycles=cycles_done,
            satisfied=satisfied,
            cost=sensed / cycles_done if cycles_done else float("nan"),
            attempted=len(server.futures),
            failed=failed,
            latencies_s=latencies,
            outputs=outputs,
            counters=counters,
            problems=problems,
            queue_waits_s=queue_waits,
        )

    def learner_counters(self) -> Dict[str, float]:
        return {}

    def learner_outputs(self) -> Dict[str, object]:
        return {}


class ServeReplicated(FleetWorkload):
    name = "serve_replicated"
    distinct = False


class LearnOnline(FleetWorkload):
    """Online campaigns: actors select on weight snapshots, one fused learner trains."""

    name = "learn_online"
    distinct = True

    def policies(self) -> list:
        self.learner = Learner(copy.deepcopy(self.agent), config=LEARNER_CONFIG)
        return [
            self.learner.policy(rng=np.random.default_rng(index), campaign=f"campaign-{index}")
            for index in range(FLEET)
        ]

    def learner_counters(self) -> Dict[str, float]:
        weights = self.learner.telemetry()["weights"]
        return {
            "learner.publishes": weights["publishes"],
            "learner.mean_versions_behind": weights["mean_versions_behind"],
        }

    def learner_outputs(self) -> Dict[str, object]:
        telemetry = self.learner.telemetry()
        return {
            "transitions": telemetry["total_steps"],
            "learn_steps": telemetry["learn_steps"],
            "publishes": telemetry["weights"]["publishes"],
        }


WORKLOADS = {
    workload.name: workload
    for workload in (TrainWorkload, ServeReplicated, LearnOnline)
}
