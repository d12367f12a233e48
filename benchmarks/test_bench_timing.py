"""Benchmark: DR-Cell training wall-clock time (paper §5.4, last paragraph).

The paper reports 2–4 hours of off-line TensorFlow training on a Xeon
server.  This benchmark measures the analogous quantity for the NumPy DRQN
at SMALL scale and records the throughput (environment steps per second)
from which larger scales can be extrapolated.

``timing.json`` keeps the seed repo's measurement as a frozen baseline row
so the effect of the vectorized training engine (array-backed replay, fused
TD pipeline, batched rollouts) stays visible next to the current numbers.
It also carries MEDIUM- and FULL-scale rows (bounded episode budgets, so
they measure per-episode cost at paper-sized grids rather than a full
training run).  Those are too slow for the default suite: they re-measure
only when ``TIMING_BENCH_SCALES`` lists them (e.g.
``TIMING_BENCH_SCALES=medium,full``); otherwise the previously published
rows are carried over from the checked-in ``timing.json``.

``test_bench_als_backends`` times the ALS completion kernel itself (see
:mod:`repro.inference.als`) on synthetic low-rank matrices: one matrix per
size class through ``solve`` and through the per-row-loop reference the
tests hold it to (``tests/inference/als_reference.py``), and stacks of
K ∈ {1, 8, 34} 20×8 windows through ``complete_batch``.  Every call runs 5
paired rounds after a warm-up, and the test asserts that ``solve`` returns
the reference's bytes and the bucketed cell half-step's headline claim on
the median round: ≥2× the per-row reference on medium-scale (city-sized)
matrices, which one round disturbed by a busy host cannot move.
``ALS_BENCH_SMOKE=1`` shrinks the matrices and keeps a single stack size
for CI smoke runs (the speedup assertion is skipped there — tiny matrices
are overhead-bound).
"""

import json
import os

from repro.experiments.config import FULL_SCALE, MEDIUM_SCALE, SMALL_SCALE
from repro.experiments.timing import (
    ALS_BENCH_SIZES,
    ALS_BENCH_STACKS,
    run_als_bench,
    run_timing,
)

from benchmarks.conftest import RESULTS_DIR, write_result
from tests.inference.als_reference import reference_solve

# The seed repo's measurement on this benchmark (pre-vectorization), kept
# for comparison.  Do not update this row when re-running the benchmark.
SEED_BASELINE = {
    "label": "seed-baseline",
    "scale": "small",
    "n_cells": 20,
    "training_cycles": 48,
    "episodes": 4,
    "total_steps": 1538,
    "vector_envs": 1,
    "wall_clock_seconds": 5.66,
    "seconds_per_episode": 1.42,
    "steps_per_second": 271.7,
}

#: Bounded episode budgets for the big-scale rows: enough to measure the
#: per-episode cost at paper-sized grids without a multi-hour run.
BIG_SCALE_ROWS = (
    ("medium", MEDIUM_SCALE, 2),
    ("full", FULL_SCALE, 1),
)


def _requested_scales() -> set:
    return {
        name.strip()
        for name in os.environ.get("TIMING_BENCH_SCALES", "").split(",")
        if name.strip()
    }


def _published_rows(labels) -> list:
    """Previously published timing.json rows with the given labels, in order."""
    path = RESULTS_DIR / "timing.json"
    if not path.exists():
        return []
    by_label = {row.get("label"): row for row in json.loads(path.read_text())}
    return [by_label[label] for label in labels if label in by_label]


def test_bench_training_time(benchmark):
    result = benchmark.pedantic(
        run_timing, kwargs=dict(scale=SMALL_SCALE, seed=0), rounds=1, iterations=1
    )
    vectorized = run_timing(scale=SMALL_SCALE, seed=0, vector_envs=8)
    fused = run_timing(scale=SMALL_SCALE, seed=0, vector_envs=8, fused=True)

    rows = [
        SEED_BASELINE,
        {"label": "sequential", **result.as_dict()},
        {"label": "vectorized-k8", **vectorized.as_dict()},
        {"label": "fused-k8", **fused.as_dict()},
    ]

    # MEDIUM/FULL rows: re-measured on request, carried over otherwise.
    requested = _requested_scales()
    for label, scale, episodes in BIG_SCALE_ROWS:
        if label in requested:
            measured = run_timing(
                scale=scale, seed=0, vector_envs=8, fused=True, episodes=episodes
            )
            rows.append({"label": label, **measured.as_dict()})
        else:
            rows.extend(_published_rows([label]))
    write_result("timing", rows)

    assert result.wall_clock_seconds > 0
    assert result.total_steps > 0
    assert result.episodes == SMALL_SCALE.episodes
    assert vectorized.total_steps > 0
    assert fused.total_steps > 0


def test_bench_als_backends():
    smoke = os.environ.get("ALS_BENCH_SMOKE", "") not in ("", "0")
    sizes = (
        {"small": (40, 12), "medium": (120, 16)} if smoke else dict(ALS_BENCH_SIZES)
    )
    stacks = (8,) if smoke else ALS_BENCH_STACKS
    rows = run_als_bench(
        sizes, reference=reference_solve, stacks=stacks, iterations=10, seed=0
    )
    write_result("als_kernel", rows)

    by_size = {row["size"]: row for row in rows if row["kernel"] == "solve"}
    assert set(by_size) == set(sizes)
    stacked = {row["stack"]: row for row in rows if row["kernel"] == "complete_batch"}
    for stack in stacks:
        assert stacked[stack]["matrices_per_second"] > 0
    # The bucketed solve returns the per-row reference's bytes everywhere.
    for row in by_size.values():
        assert row["bytes_equal_reference"], row
    if not smoke:
        # The headline perf claim: ≥2× the per-row reference on city-scale
        # matrices, in the median of the paired rounds (2 leaves slack for
        # noisy CI boxes).
        speedup = by_size["medium"]["speedup_vs_reference"]
        assert speedup >= 2.0, f"median round speedup {speedup:.2f} below 2.0x"
