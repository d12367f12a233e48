"""The per-row-loop ALS solve: the reference ``repro.inference.als.solve`` is
held to, byte for byte.

This is the kernel ``CompressiveSensingInference.complete`` ran before rows
were bucketed by observation count: one gram per observed row assembled in
a Python loop, one stacked LAPACK solve for the cell half-step, and the
sequential Gauss–Seidel cycle half-step.  ``als_golden.npz`` pins its output
on one matrix; the parity tests and ``benchmarks/test_bench_timing.py``
compare the bucketed solve against it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.inference.als import ALSProblem


def reference_solve(problem: ALSProblem) -> Tuple[np.ndarray, np.ndarray]:
    """Solve ``problem`` with the per-row loop; updates its factors in place."""
    normalised, mask = problem.normalised, problem.mask
    n_cells, n_cycles = normalised.shape
    rank = problem.rank
    cell_factors, cycle_factors = problem.cell_init, problem.cycle_init
    ridge = problem.regularization * np.eye(rank)
    mu = problem.mu

    row_obs = [np.flatnonzero(mask[i]) for i in range(n_cells)]
    row_targets = [normalised[i, idx] for i, idx in enumerate(row_obs)]
    rows = np.array([i for i in range(n_cells) if row_obs[i].size], dtype=int)
    col_obs = [np.flatnonzero(mask[:, j]) for j in range(n_cycles)]
    col_targets = [normalised[idx, j] for j, idx in enumerate(col_obs)]
    zero_rhs = np.zeros(rank)

    for _ in range(problem.iterations):
        if rows.size:
            grams = np.empty((rows.size, rank, rank))
            rhs = np.empty((rows.size, rank))
            for k, i in enumerate(rows):
                v = cycle_factors[row_obs[i]]
                grams[k] = v.T @ v + ridge
                rhs[k] = v.T @ row_targets[i]
            cell_factors[rows] = np.linalg.solve(grams, rhs[..., None])[..., 0]

        for j in range(n_cycles):
            has_obs = col_obs[j].size > 0
            u = cell_factors[col_obs[j]]
            gram = u.T @ u + ridge
            rhs_j = u.T @ col_targets[j] if has_obs else zero_rhs
            neighbor_count = 0
            if mu > 0:
                if j > 0:
                    if j < n_cycles - 1:
                        neighbor_sum = cycle_factors[j - 1] + cycle_factors[j + 1]
                        neighbor_count = 2
                    else:
                        neighbor_sum = cycle_factors[j - 1]
                        neighbor_count = 1
                elif j < n_cycles - 1:
                    neighbor_sum = cycle_factors[j + 1]
                    neighbor_count = 1
                else:
                    neighbor_sum = zero_rhs
                gram = gram + mu * ((j > 0) + (j < n_cycles - 1)) * np.eye(rank)
                rhs_j = rhs_j + mu * neighbor_sum
            if not has_obs and neighbor_count == 0:
                continue
            cycle_factors[j] = np.linalg.solve(gram, rhs_j)
    return cell_factors, cycle_factors
