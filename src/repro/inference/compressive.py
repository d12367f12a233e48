"""Compressive-sensing data inference via regularised low-rank matrix completion.

The Sparse MCS literature (and this paper, Definition 5) uses compressive
sensing to fill the unsensed cells: the cells × cycles data matrix is
approximately low-rank because of spatial and temporal correlations, so the
missing entries can be recovered from a factorisation ``D ≈ U Vᵀ`` fitted to
the observed entries.

The solver is alternating least squares (ALS) on the objective

    min_{U,V}  Σ_{(i,j)∈Ω} (D[i,j] − U[i]·V[j])²
             + λ (‖U‖² + ‖V‖²)
             + μ ‖V[1:] − V[:-1]‖²            (temporal smoothness)

where Ω is the set of observed entries.  The temporal-smoothness term links
consecutive cycles' latent factors, which is what makes selections spread
over time (paper Figure 1, case 2.2) more informative than repeatedly
sensing the same cells.

This class owns normalisation, initialisation, width bucketing and
post-conditions; the sweep inner loops — the hot kernels of the whole
system — live in :mod:`repro.inference.als`.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import INFERENCE

import repro.inference.als as als
from repro.inference.als import ALSProblem, SolverStats, StackedALSProblem
from repro.inference.base import ColumnMeanFallbackMixin, InferenceAlgorithm, observed_mask
from repro.obs.profile import phase
from repro.utils.seeding import RngLike, as_rng
from repro.utils.validation import check_non_negative, check_positive_int


@functools.lru_cache(maxsize=256)
def _initial_factors(
    init_seed: int, n_cells: int, n_cycles: int, rank: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``0.1·N(0, 1)`` cell and cycle factors an ALS solve starts from.

    Drawn from a fresh generator on the frozen ``init_seed``, so they depend
    only on the arguments; cached per argument tuple, read-only because
    every caller shares them.  Module-level, not an instance attribute: the
    configuration key reads ``vars()``.
    """
    init_rng = np.random.default_rng(init_seed)
    cell_init = 0.1 * init_rng.standard_normal((n_cells, rank))
    cycle_init = 0.1 * init_rng.standard_normal((n_cycles, rank))
    cell_init.flags.writeable = False
    cycle_init.flags.writeable = False
    return cell_init, cycle_init


@INFERENCE.register("als", seed_stream=5)
class CompressiveSensingInference(ColumnMeanFallbackMixin, InferenceAlgorithm):
    """ALS low-rank matrix completion with optional temporal smoothness.

    Parameters
    ----------
    rank:
        Number of latent factors (the assumed rank of the data matrix).
    regularization:
        λ, the ridge penalty on both factor matrices.
    temporal_weight:
        μ, the weight of the smoothness penalty tying consecutive cycles'
        factors together.  Zero disables the term.
    iterations:
        Number of ALS sweeps; every solve runs all of them.
    seed:
        Seed or generator for factor initialisation.
    """

    name = "compressive_sensing"
    #: The ``backend`` label of the ``repro_als_*`` metrics.  A class
    #: attribute, not configuration: there is one kernel.
    backend = "numpy"
    #: Attributes outside :func:`~repro.serve.cache.pool_key`: a batched
    #: solve starts every slot from the lead's factors, so the frozen seed
    #: does not keep equally configured instances out of one batch.
    batch_shared = ("_init_seed",)

    def __init__(
        self,
        rank: int = 3,
        regularization: float = 0.1,
        temporal_weight: float = 0.1,
        iterations: int = 15,
        *,
        seed: RngLike = None,
    ) -> None:
        self.rank = check_positive_int(rank, "rank")
        self.regularization = check_non_negative(regularization, "regularization")
        self.temporal_weight = check_non_negative(temporal_weight, "temporal_weight")
        self.iterations = check_positive_int(iterations, "iterations")
        # Telemetry only — outside the configuration key.
        self.solver_stats = SolverStats()
        # Freeze the initialisation seed so that repeated `complete` calls on
        # the same instance (and the same input) return identical results.
        self._init_seed = int(as_rng(seed).integers(0, 2**31 - 1))

    def _complete(self, matrix: np.ndarray, mask: np.ndarray) -> np.ndarray:
        n_cells, n_cycles = matrix.shape
        rank = min(self.rank, n_cells, n_cycles)
        observed_values = matrix[mask]
        # Work on a centred/scaled copy so the ridge penalty is scale-free.
        mean = float(observed_values.mean())
        scale = float(observed_values.std())
        if scale <= 1e-12:
            # Constant data: the completion is trivially the constant.
            return np.full_like(matrix, mean)
        normalised = np.where(mask, (matrix - mean) / scale, 0.0)

        cell_init, cycle_init = _initial_factors(self._init_seed, n_cells, n_cycles, rank)
        problem = ALSProblem(
            normalised=normalised,
            mask=mask,
            # Copies: the kernel updates the factors in place.
            cell_init=cell_init.copy(),
            cycle_init=cycle_init.copy(),
            regularization=self.regularization,
            mu=self.temporal_weight,
            iterations=self.iterations,
        )
        with phase("als.solve"):
            cell_factors, cycle_factors = als.solve(problem)
        self.solver_stats.record(matrices=1, sweeps_run=self.iterations)
        completed = cell_factors @ cycle_factors.T
        return completed * scale + mean

    # -- batched fast path ---------------------------------------------------

    def complete_batch(self, matrices: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Complete several partially observed matrices in one vectorized pass.

        This is the hot path of the vectorized training engine: K
        environments in lockstep each need a quality-check inference per
        step, and running K full ALS loops one by one is what the per-step
        Python overhead of :meth:`complete` costs.  Matrices are grouped by
        shape and each group is solved with a fully batched ALS
        (``np.einsum`` grams, stacked LAPACK solves).  The grams stay einsum
        reductions, never BLAS products, laid out so that no operand is
        contiguous along the contracted axis: only then does the einsum add
        the terms in index order, which keeps the sweep byte-identical as it
        is optimised (see :func:`repro.inference.als.solve_stacked`).

        The batched solver optimises the same objective with the same
        initialisation and iteration budget, but updates the cycle factors
        Jacobi-style (all columns from the previous sweep's values) instead
        of the sequential Gauss–Seidel sweep, so results may differ from
        :meth:`complete` by a small tolerance.  Use :meth:`complete` when
        bit-exact reproduction of the paper protocol matters.

        Matrices are grouped into **width buckets**: all matrices with the
        same cell count — regardless of their cycle count — are padded with
        unobserved (NaN) columns to the bucket's widest matrix and solved as
        one stack, with the temporal-smoothness coupling restricted to each
        matrix's true width.  Padding only adds zero terms to the batched
        sums, so a padded solve optimises exactly the per-shape objective;
        because reductions over the longer padded axes (NumPy's pairwise
        normalisation sums, the cell half-step's BLAS right-hand side) may
        group the same terms differently, results can differ from the
        per-shape solve by float rounding (within 2e-12 relative on data of
        order 10 — uniform-width groups remain bitwise identical, no padding
        is involved).  Fleets whose windows span many distinct widths — e.g.
        campaigns at different cycles pooled by the decision server —
        therefore still fuse into a single ALS instead of
        degenerating to per-shape calls.  Matrices narrower than the
        effective rank keep their exact-shape groups (their rank clamp
        differs, so padding would genuinely change results).

        Parameters
        ----------
        matrices:
            Partially observed cells × cycles matrices (``NaN`` = missing).
            Shapes may differ between matrices.

        Returns
        -------
        list of np.ndarray
            Completed matrices, index-aligned with the input.
        """
        prepared = [np.asarray(matrix, dtype=float) for matrix in matrices]
        results: List[Optional[np.ndarray]] = [None] * len(prepared)
        groups: dict = {}
        for index, matrix in enumerate(prepared):
            if matrix.ndim != 2:
                raise ValueError(f"matrix {index} must be 2-D, got shape {matrix.shape}")
            groups.setdefault(matrix.shape, []).append(index)

        # Width-bucket the shape groups: same cell count + width >= the
        # effective rank (so every member's rank clamp agrees) → one padded
        # stack.  Narrower matrices keep their own exact-shape groups.
        buckets: dict = {}
        for shape, indices in groups.items():
            n_cells, width = shape
            bucketable = width >= min(self.rank, n_cells)
            key = ("rows", n_cells) if bucketable else ("shape", shape)
            buckets.setdefault(key, []).append((shape, indices))

        for shape_groups in buckets.values():
            distinct_widths = {shape[1] for shape, _ in shape_groups}
            indices = [i for _, group in shape_groups for i in group]
            if len(distinct_widths) == 1:
                # Uniform width: the stack needs no padding.
                stack = np.stack([prepared[i] for i in indices])
                slot_widths = None
            else:
                n_cells = shape_groups[0][0][0]
                slot_widths = np.array([prepared[i].shape[1] for i in indices])
                stack = np.full((len(indices), n_cells, int(slot_widths.max())), np.nan)
                for k, i in enumerate(indices):
                    stack[k, :, : slot_widths[k]] = prepared[i]
            masks = observed_mask(stack)
            if not masks.any(axis=(1, 2)).all():
                raise ValueError("cannot infer from a matrix with no observed entries")
            completed = self._complete_batch(stack, masks, widths=slot_widths)
            # Same post-conditions as InferenceAlgorithm.complete, once per
            # stack: observed entries pass through untouched and NaNs fall
            # back to the slot's observed mean.
            completed = np.where(masks, stack, completed)
            if slot_widths is None:
                outs = list(completed)
            else:
                outs = [completed[k, :, :width] for k, width in enumerate(slot_widths)]
            if np.isnan(completed).any():
                outs = [
                    np.where(np.isnan(out), float(np.nanmean(stack[k])), out)
                    if np.isnan(out).any()
                    else out
                    for k, out in enumerate(outs)
                ]
            for i, out in zip(indices, outs):
                results[i] = out
        return results  # type: ignore[return-value]

    def _complete_batch(
        self,
        data: np.ndarray,
        mask: np.ndarray,
        widths: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched ALS over a ``(K, n_cells, n_cycles)`` stack.

        ``widths`` (optional, per-slot) marks the true cycle count of each
        slot in a width-bucketed stack whose trailing columns are NaN
        padding: the temporal-smoothness coupling, the neighbour counts and
        the cycle-factor updates are then restricted to each slot's true
        columns, so the padded solve optimises exactly the per-shape
        objective (padded columns contribute only zero terms; see
        :meth:`complete_batch` for the resulting 2e-12 relative rounding
        caveat).

        The sweep loop itself is :func:`repro.inference.als.solve_stacked`;
        this method owns normalisation, degenerate-slot short-circuiting and
        the width-gating setup.
        """
        n_batch, n_cells, n_cycles = data.shape
        rank = min(self.rank, n_cells, n_cycles)
        maskf = mask.astype(float)
        counts = maskf.sum(axis=(1, 2))
        sums = np.where(mask, data, 0.0)
        means = sums.sum(axis=(1, 2)) / counts
        centred = np.where(mask, data - means[:, None, None], 0.0)
        scales = np.sqrt((centred * centred).sum(axis=(1, 2)) / counts)
        degenerate = scales <= 1e-12
        if degenerate.any():
            # Constant slots short-circuit to their mean (exactly like the
            # sequential solver) instead of running ALS on an all-zero
            # normalised matrix; the remaining slots recurse as a clean batch.
            completed = np.empty_like(data)
            completed[degenerate] = np.broadcast_to(
                means[degenerate, None, None], (int(degenerate.sum()), n_cells, n_cycles)
            )
            keep = ~degenerate
            if keep.any():
                completed[keep] = self._complete_batch(
                    data[keep],
                    mask[keep],
                    widths=widths[keep] if widths is not None else None,
                )
            return completed
        normalised = centred / scales[:, None, None]

        # Identical initialisation to the sequential path, broadcast over K.
        cell_init, cycle_init = _initial_factors(self._init_seed, n_cells, n_cycles, rank)
        U = np.broadcast_to(cell_init, (n_batch, n_cells, rank)).copy()
        V = np.broadcast_to(cycle_init, (n_batch, n_cycles, rank)).copy()

        mu = self.temporal_weight
        row_has_obs = mask.any(axis=2)[..., None]
        col_has_obs = mask.any(axis=1)
        if widths is None:
            left_gate = right_gate = None
            neighbor_counts = np.full(n_cycles, 2.0)
            if n_cycles >= 1:
                neighbor_counts[0] = min(1.0, n_cycles - 1.0)
                neighbor_counts[-1] = min(1.0, n_cycles - 1.0)
            smooth = mu * neighbor_counts[:, None, None] * np.eye(rank)
            col_update = (col_has_obs | (mu > 0) & (neighbor_counts > 0))[..., None]
        else:
            # Per-slot neighbour structure: column j of slot k is real iff
            # j < widths[k]; its neighbours only count when they are real too,
            # so padded columns never couple into the smoothness term.
            widths = np.asarray(widths, dtype=int)
            cols = np.arange(n_cycles)
            valid = cols[None, :] < widths[:, None]
            left_gate = valid & (cols[None, :] >= 1)
            right_gate = (cols[None, :] + 1) < widths[:, None]
            neighbor_counts = left_gate.astype(float) + right_gate.astype(float)
            smooth = mu * neighbor_counts[..., None, None] * np.eye(rank)
            col_update = ((col_has_obs | (mu > 0) & (neighbor_counts > 0)) & valid)[
                ..., None
            ]

        problem = StackedALSProblem(
            normalised=normalised,
            maskf=maskf,
            cell_init=U,
            cycle_init=V,
            regularization=self.regularization,
            mu=mu,
            iterations=self.iterations,
            row_has_obs=row_has_obs,
            col_update=col_update,
            smooth=smooth,
            left_gate=left_gate,
            right_gate=right_gate,
        )
        with phase("als.solve_stacked"):
            U, V = als.solve_stacked(problem)
        self.solver_stats.record(matrices=n_batch, sweeps_run=self.iterations)
        completed = U @ V.transpose(0, 2, 1)
        return completed * scales[:, None, None] + means[:, None, None]
