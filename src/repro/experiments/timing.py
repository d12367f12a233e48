"""Training-time measurement (paper §5.4, last paragraph).

The paper reports that training DR-Cell takes around 2–4 hours on a Xeon
E2630 v4 with TensorFlow (CPU) and argues this is acceptable because
training is an offline process.  This experiment measures the analogous
quantity for this reproduction: the wall-clock time of the NumPy DRQN
training loop at a given experiment scale, together with throughput numbers
that make it easy to extrapolate to larger scales.

:func:`run_als_bench` complements the end-to-end number with a
microbenchmark of the ALS completion kernel itself
(:mod:`repro.inference.als`): one synthetic low-rank matrix per size class
through :func:`~repro.inference.als.solve` and through a reference solve,
and stacks of K small windows through ``complete_batch``, reporting the
median over paired rounds of the wall-clock time, the speedup over the
reference and whether the bytes match it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.trainer import DRCellTrainer
from repro.experiments.config import ExperimentScale, SMALL_SCALE
import repro.inference.als as als
from repro.inference.als import ALSProblem
from repro.inference.compressive import CompressiveSensingInference
from repro.quality.epsilon_p import QualityRequirement
from repro.utils.timing import monotonic


@dataclass(frozen=True)
class TimingResult:
    """Wall-clock statistics of one DR-Cell training run."""

    scale: str
    n_cells: int
    training_cycles: int
    episodes: int
    total_steps: int
    wall_clock_seconds: float
    vector_envs: int = 1
    fused: bool = False

    @property
    def seconds_per_episode(self) -> float:
        """Average wall-clock seconds per training episode."""
        return self.wall_clock_seconds / max(1, self.episodes)

    @property
    def steps_per_second(self) -> float:
        """Environment steps (cell selections) processed per second."""
        if self.wall_clock_seconds <= 0:
            return float("inf")
        return self.total_steps / self.wall_clock_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "scale": self.scale,
            "n_cells": self.n_cells,
            "training_cycles": self.training_cycles,
            "episodes": self.episodes,
            "total_steps": self.total_steps,
            "vector_envs": self.vector_envs,
            "fused": self.fused,
            "wall_clock_seconds": round(self.wall_clock_seconds, 2),
            "seconds_per_episode": round(self.seconds_per_episode, 2),
            "steps_per_second": round(self.steps_per_second, 1),
        }


def run_timing(
    scale: Optional[ExperimentScale] = None,
    *,
    epsilon: float = 0.5,
    p: float = 0.9,
    seed: int = 0,
    vector_envs: int = 1,
    fused: bool = False,
    episodes: Optional[int] = None,
) -> TimingResult:
    """Measure DR-Cell training wall-clock time on the temperature task.

    Parameters
    ----------
    vector_envs:
        Number of lockstep training environments (see
        ``DRCellConfig.vector_envs``).  The default 1 measures the paper's
        sequential protocol.
    fused:
        Learn with the fused global-step schedule (one minibatch per
        lockstep step spanning all K fresh transitions) instead of the
        per-transition loop; see ``DRCellConfig.fused_learning``.
    episodes:
        Training-episode override.  Defaults to the scale's episode budget,
        raised to ``vector_envs`` when vectorized so every environment has
        at least one episode of work.
    """
    scale = scale or SMALL_SCALE
    dataset = scale.sensorscope_dataset("temperature", seed=seed)
    train_set, _ = dataset.train_test_split(scale.training_days)
    requirement = QualityRequirement(epsilon=epsilon, p=p, metric="mae")
    config = scale.drcell_config(seed=seed)
    if episodes is None:
        episodes = max(scale.episodes, vector_envs) if vector_envs > 1 else scale.episodes
    if vector_envs != 1 or fused or episodes != config.episodes:
        config = replace(
            config, vector_envs=vector_envs, fused_learning=fused, episodes=episodes
        )
    trainer = DRCellTrainer(config, inference=scale.inference(seed=seed))
    _, report = trainer.train(train_set, requirement)
    return TimingResult(
        scale=scale.name,
        n_cells=train_set.n_cells,
        training_cycles=train_set.n_cycles,
        episodes=report.episodes,
        total_steps=report.total_steps,
        wall_clock_seconds=report.wall_clock_seconds,
        vector_envs=vector_envs,
        fused=fused,
    )


# -- ALS kernel microbenchmark -------------------------------------------------

#: Default size classes: (n_cells, n_cycles) of the synthetic low-rank
#: matrices.  ``medium`` is the city-scale shape the bucketed cell
#: half-step is expected to win on by ≥2×; ``full`` approaches the paper's
#: largest grids.
ALS_BENCH_SIZES: Mapping[str, Tuple[int, int]] = {
    "small": (200, 48),
    "medium": (2000, 48),
    "full": (6000, 96),
}

#: Stack sizes K of the ``complete_batch`` rows: one window, a training
#: fleet's quality checks, and an LOO assessment's held-out copies.
ALS_BENCH_STACKS: Tuple[int, ...] = (1, 8, 34)

#: The stacked rows complete 20-cell × 8-cycle windows with 8 sweeps: the
#: SMALL-scale window (20 cells, 8-cycle history) and sweep budget that the
#: perfbench workloads run.
ALS_STACK_WINDOW: Tuple[int, int] = (20, 8)
ALS_STACK_ITERATIONS = 8

#: Paired rounds every timed call runs after its warm-up; rows report medians.
ALS_BENCH_ROUNDS = 5

#: A single-matrix solve: ``ALSProblem -> (cell_factors, cycle_factors)``.
Solve = Callable[[ALSProblem], Tuple[np.ndarray, np.ndarray]]


def synthetic_low_rank(
    n_cells: int,
    n_cycles: int,
    *,
    rank: int = 3,
    missing: float = 0.6,
    noise: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """A partially observed synthetic low-rank matrix (``NaN`` = missing).

    Built as ``U Vᵀ`` plus Gaussian noise with a uniform random missing
    pattern — the shape class the completion kernel is designed for, without
    dragging a whole dataset generator into the microbenchmark.
    """
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((n_cells, rank))
    V = rng.standard_normal((n_cycles, rank))
    data = U @ V.T + noise * rng.standard_normal((n_cells, n_cycles))
    mask = rng.random((n_cells, n_cycles)) < missing
    if mask.all(axis=1).any():  # every row keeps at least one observation
        forced = rng.integers(0, n_cycles, size=n_cells)
        mask[np.arange(n_cells), forced] = False
    return np.where(mask, np.nan, data)


def _normalised_problem(
    observed: np.ndarray, *, rank: int, iterations: int, seed: int = 0
) -> ALSProblem:
    """The normalised ALS problem of a partially observed matrix.

    Centred and scaled on the observed entries, with ``0.1·N(0, 1)`` factor
    initialisations and the default ridge and smoothness weights, as
    ``CompressiveSensingInference.complete`` builds it.
    """
    mask = ~np.isnan(observed)
    values = observed[mask]
    normalised = np.where(mask, (observed - values.mean()) / values.std(), 0.0)
    rng = np.random.default_rng(seed)
    return ALSProblem(
        normalised=normalised,
        mask=mask,
        cell_init=0.1 * rng.standard_normal((observed.shape[0], rank)),
        cycle_init=0.1 * rng.standard_normal((observed.shape[1], rank)),
        regularization=0.1,
        mu=0.1,
        iterations=iterations,
    )


def _paired_seconds(runs: Mapping[str, Callable[[], object]]) -> Dict[str, List[float]]:
    """Seconds of every run per round, the runs back to back in each round,
    so a busy host slows a round's calls alike and per-round ratios stay
    comparable."""
    seconds: Dict[str, List[float]] = {name: [] for name in runs}
    for _ in range(ALS_BENCH_ROUNDS):
        for name, run in runs.items():
            start = monotonic()
            run()
            seconds[name].append(monotonic() - start)
    return seconds


def run_als_bench(
    sizes: Optional[Mapping[str, Tuple[int, int]]] = None,
    *,
    reference: Solve,
    stacks: Optional[Sequence[int]] = None,
    iterations: int = 10,
    rank: int = 3,
    missing: float = 0.6,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Time the ALS kernel on synthetic low-rank matrices.

    ``solve`` rows: for each size class one partially observed matrix is
    normalised into an :class:`~repro.inference.als.ALSProblem` and solved
    by :func:`repro.inference.als.solve` and by ``reference``, a solve with
    the same signature (the test suite's per-row loop).  Each first solves
    once (the warm-up, whose factor bytes are compared), then both run
    :data:`ALS_BENCH_ROUNDS` paired rounds; rows report the median seconds
    and the median of the per-round speedups over the reference.

    ``complete_batch`` rows: for each stack size K in ``stacks`` (default
    :data:`ALS_BENCH_STACKS`), K distinct :data:`ALS_STACK_WINDOW` windows
    are completed in one call; rows report the median ms per call and
    matrices/s.
    """
    sizes = dict(sizes if sizes is not None else ALS_BENCH_SIZES)
    stacks = tuple(stacks if stacks is not None else ALS_BENCH_STACKS)
    solvers: Dict[str, Solve] = {"solve": als.solve, "reference": reference}

    # The sub-millisecond stacked calls run first: after the multi-megabyte
    # size classes, the allocator's state makes their timings erratic.
    rows: List[Dict[str, object]] = []
    n_cells, n_cycles = ALS_STACK_WINDOW
    solver = CompressiveSensingInference(rank=rank, iterations=ALS_STACK_ITERATIONS, seed=seed)
    for stack in stacks:
        windows = [
            synthetic_low_rank(n_cells, n_cycles, rank=rank, missing=missing, seed=seed + k)
            for k in range(stack)
        ]
        solver.complete_batch(windows)  # warm-up
        seconds = _paired_seconds({"complete_batch": lambda: solver.complete_batch(windows)})
        median = float(np.median(seconds["complete_batch"]))
        rows.append(
            {
                "kernel": "complete_batch",
                "stack": stack,
                "n_cells": n_cells,
                "n_cycles": n_cycles,
                "iterations": ALS_STACK_ITERATIONS,
                "rounds": ALS_BENCH_ROUNDS,
                "ms_per_call": round(median * 1e3, 3),
                "matrices_per_second": round(stack / median, 1),
            }
        )
    for size_name, (n_cells, n_cycles) in sizes.items():
        observed = synthetic_low_rank(n_cells, n_cycles, rank=rank, missing=missing, seed=seed)
        problem = _normalised_problem(observed, rank=rank, iterations=iterations, seed=seed)

        def fresh() -> ALSProblem:  # the solves update the factors in place
            return replace(
                problem, cell_init=problem.cell_init.copy(), cycle_init=problem.cycle_init.copy()
            )

        factors = {name: solve(fresh()) for name, solve in solvers.items()}
        seconds = _paired_seconds(
            {name: (lambda solve=solve: solve(fresh())) for name, solve in solvers.items()}
        )
        rows.append(
            {
                "kernel": "solve",
                "size": size_name,
                "n_cells": n_cells,
                "n_cycles": n_cycles,
                "iterations": iterations,
                "rounds": ALS_BENCH_ROUNDS,
                "wall_clock_seconds": round(float(np.median(seconds["solve"])), 4),
                "reference_seconds": round(float(np.median(seconds["reference"])), 4),
                "speedup_vs_reference": round(
                    float(np.median(np.divide(seconds["reference"], seconds["solve"]))), 2
                ),
                "bytes_equal_reference": all(
                    got.tobytes() == want.tobytes()
                    for got, want in zip(factors["solve"], factors["reference"])
                ),
            }
        )
    return rows
