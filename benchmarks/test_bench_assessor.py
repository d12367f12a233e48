"""Benchmark: sequential vs batched quality assessment.

The quality assessor is consulted after every submission of a campaign and
each consultation runs up to ``max_loo_cells`` full ALS matrix completions,
so assessment — not selection — dominates testing-stage cost.  This
benchmark measures the leave-one-out Bayesian assessor's throughput with the
completions solved one at a time (the seed protocol) against the batched
path (all held-out windows in one ``complete_batch`` call), plus the pooled
``assess_many`` path used by the lockstep campaign runner.

The three modes run back to back in 5 paired rounds, after a discarded
warm-up pass that pays the process's one-time costs; the asserted ratios are
the median round's.  Results go to ``benchmarks/results/assessor.json``.
Smoke mode for CI: ``ASSESSOR_BENCH_SMOKE=1`` runs a single round so
regressions in the batched path fail fast without paying the full
measurement.
"""

import os

import numpy as np

from repro.inference.compressive import CompressiveSensingInference
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.utils.timing import monotonic

from benchmarks.conftest import write_result

#: Matches the FULL-scale assessor budget (`ExperimentScale.max_loo_cells`).
MAX_LOO_CELLS = 12

N_CELLS = 20
HISTORY = 24
SENSED_PER_CYCLE = 15
REQUIREMENT = QualityRequirement(epsilon=0.3, p=0.9, metric="mae")
MODES = ("sequential", "batched", "assess_many_pooled")


def _smoke_mode() -> bool:
    return os.environ.get("ASSESSOR_BENCH_SMOKE", "") not in ("", "0")


def _assessment_inputs(n_states: int, seed: int = 0):
    """Partially observed windows in the regime the campaign assesses in."""
    rng = np.random.default_rng(seed)
    base = (
        np.linspace(0, 3, N_CELLS)[:, None]
        + np.sin(np.linspace(0, 6, HISTORY))[None, :]
    )
    matrix = base + 0.1 * rng.normal(size=(N_CELLS, HISTORY))
    states = []
    for _ in range(n_states):
        observed = matrix.copy()
        cycle = HISTORY - 1
        observed[:, cycle] = np.nan
        sensed = rng.choice(N_CELLS, size=SENSED_PER_CYCLE, replace=False)
        observed[sensed, cycle] = matrix[sensed, cycle]
        states.append((observed, cycle))
    return states


def _throughput(assessor, states, inference, repeats):
    start = monotonic()
    for _ in range(repeats):
        for observed, cycle in states:
            assessor.probability_error_below(observed, cycle, REQUIREMENT, inference)
    elapsed = monotonic() - start
    n_assessments = repeats * len(states)
    return n_assessments, elapsed


def _pooled_throughput(assessor, states, inference, repeats):
    start = monotonic()
    for _ in range(repeats):
        assessor.probabilities_error_below(
            [observed for observed, _ in states],
            [cycle for _, cycle in states],
            [REQUIREMENT] * len(states),
            inference,
        )
    elapsed = monotonic() - start
    return repeats * len(states), elapsed


def _paired_rounds(rounds, make, states, inference):
    """Run ``rounds`` back-to-back (sequential, batched, pooled) triples after a warm-up.

    Each mode assesses every state once per round with a fresh assessor, so
    all rounds do the same work.  Returns each mode's per-round seconds.
    """
    warm_up = states[:1]
    _throughput(make(batched=False), warm_up, inference, 1)
    _throughput(make(batched=True), warm_up, inference, 1)
    _pooled_throughput(make(batched=True), warm_up, inference, 1)
    seconds = {mode: [] for mode in MODES}
    for _ in range(rounds):
        seconds["sequential"].append(_throughput(make(batched=False), states, inference, 1)[1])
        seconds["batched"].append(_throughput(make(batched=True), states, inference, 1)[1])
        seconds["assess_many_pooled"].append(
            _pooled_throughput(make(batched=True), states, inference, 1)[1]
        )
    return seconds


def _median(values):
    return sorted(values)[len(values) // 2]


def test_bench_assessor_batched_throughput(benchmark):
    """Record sequential vs batched assessment throughput at max_loo_cells=12."""
    smoke = _smoke_mode()
    rounds = 1 if smoke else 5
    states = _assessment_inputs(2 if smoke else 6)
    inference = CompressiveSensingInference(iterations=8, seed=0)

    def make(batched):
        return LeaveOneOutBayesianAssessor(
            min_observations=3,
            max_loo_cells=MAX_LOO_CELLS,
            history_window=HISTORY,
            batched=batched,
            rng=np.random.default_rng(0),
        )

    seconds = _paired_rounds(rounds, make, states, inference)
    benchmark.pedantic(
        _throughput,
        args=(make(batched=True), states, inference, 1),
        rounds=1,
        iterations=1,
    )

    # Per-round speedups over the same round's sequential pass; the asserted
    # figure is the median round's, which one round disturbed by a busy host
    # cannot move.
    speedups = {
        mode: [t_seq / t for t_seq, t in zip(seconds["sequential"], seconds[mode])]
        for mode in MODES
    }
    rows = []
    for mode in MODES:
        best = min(seconds[mode])
        rows.append(
            {
                "mode": mode,
                "max_loo_cells": MAX_LOO_CELLS,
                "n_cells": N_CELLS,
                "history_window": HISTORY,
                "sensed_per_cycle": SENSED_PER_CYCLE,
                "assessments": len(states),
                "rounds": rounds,
                "seconds": round(best, 4),
                "assessments_per_second": round(len(states) / best, 2),
                "speedup_vs_sequential": round(_median(speedups[mode]), 2),
                "round_speedups": [round(r, 4) for r in speedups[mode]],
                "smoke": smoke,
            }
        )
    write_result("assessor", rows)

    # The acceptance bar: batching 12 LOO completions into one stacked ALS
    # must at least double assessment throughput (measured ~6-7x locally, so
    # 2x stays robust to machine noise).
    batched = _median(speedups["batched"])
    assert batched >= 2.0, f"median round batched speedup {batched:.2f} below 2x"
    # Pooling whole slots through assess_many must not be slower than the
    # per-slot batched path.
    pooled = _median(
        [t_bat / t_pool for t_bat, t_pool in zip(seconds["batched"], seconds["assess_many_pooled"])]
    )
    assert pooled >= 0.8, f"median round pooled/batched throughput {pooled:.2f} below 0.8"
