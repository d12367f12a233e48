"""Benchmark: one shared learner serving many online campaigns.

The actor/learner payoff: N concurrent online DR-Cell campaigns served
through one :class:`~repro.serve.server.DecisionServer` share a single
central :class:`~repro.learner.core.Learner` — per campaign-cycle the
learner runs one *fused* minibatch update over the shared cross-campaign
replay, instead of one per-transition update per campaign as direct
:class:`~repro.core.online.OnlineDRCellPolicy` execution does.  Selection
forwards micro-batch across campaigns and assessments hit the shared
completion cache on top.

Two configurations are measured over the same N campaigns:

* ``sequential_direct`` — one fresh per-campaign agent each, trained
  per-transition by the direct lockstep runner, one campaign after another
  (the pre-split cost model).
* ``served_shared_learner`` — all N campaigns concurrently against one
  server and one shared fused learner with versioned weight publication.

Rows land in ``benchmarks/results/learner.json`` with aggregate throughput,
p50/p99 endpoint latency, weight-staleness telemetry, per-campaign replay
accounting, and the final-error comparison (the two regimes learn different
— shared — experience, so errors are recorded for parity inspection, not
asserted bitwise).  The two configurations run back to back in several
paired rounds, after a discarded one-campaign round that pays the process's
one-time costs; the asserted speedup is the median round's, which one round
disturbed by a busy host cannot move.  Smoke mode for CI:
``LEARNER_BENCH_SMOKE=1`` shrinks the fleet, runs one round and skips the
throughput assertion.
"""

import os

import numpy as np

from repro.core.drcell import DRCellAgent, DRCellConfig
from repro.core.online import OnlineDRCellPolicy
from repro.datasets.sensorscope import generate_sensorscope
from repro.inference.compressive import CompressiveSensingInference
from repro.learner import Learner, LearnerConfig
from repro.mcs import BatchedCampaignRunner, CampaignConfig, SensingTask
from repro.mcs.served import ServedCampaignRunner
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.rl.dqn import DQNConfig
from repro.serve import DecisionServer, ServeConfig, drive
from repro.utils.seeding import derive_rng
from repro.utils.timing import monotonic

from benchmarks.conftest import write_result

N_CELLS = 20
HISTORY = 12
N_CYCLES = 5
MAX_LOO_CELLS = 8
ALS_ITERATIONS = 8
#: Per-transition direct learning pays one train_on_batch of this size per
#: selected cell; the shared learner pays one fused update per cycle batch.
BATCH_SIZE = 32
REPLAY_CAPACITY = 4_096
STEPS_PER_PUBLISH = 8
#: Parent seed of the per-campaign streams: campaign i's assessor draws from
#: child stream 2i and its actor from 2i + 1.
STREAM_SEED = 0


def _smoke_mode() -> bool:
    return os.environ.get("LEARNER_BENCH_SMOKE", "") not in ("", "0")


def _agent(*, replay_capacity: int = BATCH_SIZE * 4) -> DRCellAgent:
    config = DRCellConfig(
        window=2,
        seed=0,
        lstm_hidden=16,
        dense_hidden=(16,),
        dqn=DQNConfig(
            batch_size=BATCH_SIZE,
            # Warm-up = one minibatch, so the per-transition cost of direct
            # online training is actually paid within the short campaigns.
            min_replay_size=BATCH_SIZE,
            learn_every=1,
            replay_capacity=replay_capacity,
            target_update_interval=50,
        ),
    )
    return DRCellAgent.build(N_CELLS, config)


def _task(index: int) -> SensingTask:
    dataset = generate_sensorscope(
        "temperature",
        n_cells=N_CELLS,
        duration_days=1.5,
        cycle_length_hours=1.0,
        seed=index,
    )
    return SensingTask(
        dataset=dataset,
        requirement=QualityRequirement(epsilon=0.5, p=0.9, metric="mae"),
        inference=CompressiveSensingInference(rank=3, iterations=ALS_ITERATIONS, seed=0),
        assessor=LeaveOneOutBayesianAssessor(
            min_observations=3,
            max_loo_cells=MAX_LOO_CELLS,
            history_window=HISTORY,
            rng=derive_rng(STREAM_SEED, 2 * index),
        ),
    )


def _config() -> CampaignConfig:
    return CampaignConfig(min_cells_per_cycle=3, assess_every=1, history_window=HISTORY)


def _final_errors(results) -> list:
    return [round(float(result.records[-1].true_error), 6) for result in results]


def _run_sequential_direct(n_campaigns: int):
    """One fresh per-campaign agent each, direct per-transition training."""
    campaigns = [
        (_task(index), OnlineDRCellPolicy(_agent()))
        for index in range(n_campaigns)
    ]
    start = monotonic()
    results = [
        BatchedCampaignRunner(task, _config()).run([policy], n_cycles=N_CYCLES)[0]
        for task, policy in campaigns
    ]
    return results, monotonic() - start


def _run_served_shared_learner(n_campaigns: int):
    """All campaigns concurrently, one server, one shared fused learner."""
    learner = Learner(
        _agent(),
        config=LearnerConfig(
            steps_per_publish=STEPS_PER_PUBLISH,
            minibatch=BATCH_SIZE,
            replay_capacity=REPLAY_CAPACITY,
        ),
    )
    server = DecisionServer(ServeConfig(max_batch=64, max_wait_ticks=1))
    runners = []
    drivers = []
    for index in range(n_campaigns):
        task = _task(index)
        policy = learner.policy(
            rng=derive_rng(STREAM_SEED, 2 * index + 1), campaign=f"campaign-{index}"
        )
        runner = ServedCampaignRunner(task, _config(), server=server)
        runners.append(runner)
        drivers.append(runner.launch([policy], n_cycles=N_CYCLES))
    start = monotonic()
    drive(server, drivers)
    elapsed = monotonic() - start
    results = [runner.results[0] for runner in runners]
    return results, elapsed, server, learner


def _paired_rounds(rounds: int, n_campaigns: int):
    """Run ``rounds`` back-to-back (direct, served) pairs after a warm-up.

    Returns the per-round speedups, each mode's best seconds, and the
    results of the last round (the served side with its server and
    learner) — every round computes the same campaigns.
    """
    _run_sequential_direct(1)
    _run_served_shared_learner(1)
    speedups = []
    best_direct = best_served = float("inf")
    for _ in range(rounds):
        direct_results, t_direct = _run_sequential_direct(n_campaigns)
        served_results, t_served, server, learner = _run_served_shared_learner(
            n_campaigns
        )
        speedups.append(t_direct / t_served)
        best_direct = min(best_direct, t_direct)
        best_served = min(best_served, t_served)
    return (
        speedups,
        best_direct,
        best_served,
        (direct_results, served_results, server, learner),
    )


def _endpoint_latency(stats, kind: str) -> dict:
    endpoint = stats.endpoint(kind)
    snapshot = endpoint.as_dict()
    return {
        f"{kind}_requests": snapshot["requests"],
        f"{kind}_p50_latency_seconds": snapshot["p50_latency_seconds"],
        f"{kind}_p99_latency_seconds": snapshot["p99_latency_seconds"],
    }


def test_bench_learner_throughput(benchmark):
    """Record shared-learner throughput vs sequential per-campaign training."""
    smoke = _smoke_mode()
    n_campaigns = 3 if smoke else 8
    rounds = 1 if smoke else 5

    speedups, t_direct, t_served, (
        direct_results,
        served_results,
        server,
        learner,
    ) = _paired_rounds(rounds, n_campaigns)
    speedup = sorted(speedups)[len(speedups) // 2]

    direct_rate = n_campaigns * N_CYCLES / t_direct
    served_rate = n_campaigns * N_CYCLES / t_served
    telemetry = learner.telemetry()

    rows = [
        {
            "mode": "sequential_direct",
            "campaigns": n_campaigns,
            "cycles_per_campaign": N_CYCLES,
            "n_cells": N_CELLS,
            "seconds": round(t_direct, 4),
            "campaign_cycles_per_second": round(direct_rate, 2),
            "speedup_vs_sequential": 1.0,
            "final_true_errors": _final_errors(direct_results),
            "smoke": smoke,
        },
        {
            "mode": "served_shared_learner",
            "campaigns": n_campaigns,
            "cycles_per_campaign": N_CYCLES,
            "n_cells": N_CELLS,
            "seconds": round(t_served, 4),
            "campaign_cycles_per_second": round(served_rate, 2),
            "speedup_vs_sequential": round(speedup, 2),
            "round_speedups": [round(r, 4) for r in speedups],
            "final_true_errors": _final_errors(served_results),
            "steps_per_publish": STEPS_PER_PUBLISH,
            "learner_minibatch": BATCH_SIZE,
            "shared_replay_capacity": REPLAY_CAPACITY,
            "learner": telemetry,
            **_endpoint_latency(server.stats, "select"),
            **_endpoint_latency(server.stats, "learn"),
            "smoke": smoke,
        },
    ]

    benchmark.pedantic(
        _run_served_shared_learner, args=(n_campaigns,), rounds=1, iterations=1
    )
    write_result("learner", rows)

    # Structural checks hold even in smoke mode.
    weights = telemetry["weights"]
    assert weights["publishes"] >= 1 and weights["pulls"] > 0
    replay = telemetry["replay"]
    assert len(replay["campaigns"]) == n_campaigns
    assert all(
        account["transitions"] > 0 for account in replay["campaigns"].values()
    )
    for result in served_results:
        assert result.n_cycles == N_CYCLES
    assert np.isfinite(_final_errors(served_results)).all()

    if not smoke:
        # The acceptance bar: ≥ 8 concurrent online campaigns through one
        # shared learner sustain ≥ 1.3× the aggregate throughput of
        # sequential per-campaign direct training (measured well above that
        # locally: fused cycle-level updates replace per-transition ones).
        assert speedup >= 1.3, f"median round speedup {speedup:.2f} below 1.3x"
