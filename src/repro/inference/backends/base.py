"""Execution-backend interface for the ALS completion kernel.

The ALS solver in :class:`~repro.inference.compressive.
CompressiveSensingInference` separates *what* is solved from *how* the sweep
inner loop executes.  The algorithm layer (normalisation, initialisation,
width bucketing, post-conditions) stays in :mod:`repro.inference.compressive`;
the sweep loops — the hot kernels — live behind the :class:`ALSBackend`
interface so they can be swapped for a vectorized-grouped NumPy kernel, a
``numba``-JIT loop or a ``torch`` (CPU/GPU) implementation without touching
any caller.

Two problem shapes exist, mirroring the two entry points of the solver:

* :class:`ALSProblem` — one partially observed matrix, solved with the
  paper-protocol sweep (batched cell half-step, Gauss–Seidel cycle
  half-step).  This is what :meth:`InferenceAlgorithm.complete` bottoms out
  in.
* :class:`StackedALSProblem` — a ``(K, n_cells, n_cycles)`` stack solved with
  the Jacobi batched sweep of ``complete_batch`` (one ``einsum`` gram per
  half-step, optionally width-gated for NaN-padded stacks).

All quantities are in the **normalised domain**: the algorithm layer centres
and scales the data before building a problem, so the ridge penalty — and
the convergence ``tolerance`` — are scale-free.

Backends return the final factors plus the number of sweeps actually run;
the algorithm layer turns the difference against the sweep budget into
:class:`SolverStats` telemetry.  A ``tolerance`` of zero (the default)
disables the convergence early-exit entirely, which keeps the default
configuration bit-exact with the pre-backend kernel.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

try:  # pragma: no cover - exercised indirectly on every solve
    # The raw LAPACK gufunc behind np.linalg.solve for 1-D right-hand sides.
    # Calling it directly skips ~10µs of per-call wrapper overhead, which
    # dominates the Gauss–Seidel cycle sweep (tiny rank×rank systems).
    # Bit-for-bit identical to np.linalg.solve; falls back to the public API
    # if the private module moves.
    from numpy.linalg import _umath_linalg as _raw_linalg

    _solve_vector = _raw_linalg.solve1
except Exception:  # pragma: no cover - depends on numpy internals
    _solve_vector = None


def solve_small(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve one small dense system, minimising call overhead."""
    if _solve_vector is not None:
        out = _solve_vector(gram, rhs)
        total = out.sum()
        if total != total:  # NaN ⇒ singular system; match np.linalg.solve
            raise np.linalg.LinAlgError("Singular matrix")
        return out
    return np.linalg.solve(gram, rhs)


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def solve_stack(grams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a stack of small dense systems ``grams[...] @ x = rhs[...]``.

    Byte-identical to ``np.linalg.solve(grams, rhs[..., None])[..., 0]``
    (the same LAPACK ``gesv`` per system, under the same floating-point
    error state, so a singular system raises ``LinAlgError`` and warns
    nothing) without the wrapper and the column-vector round trip.

    A ``1 × 1`` system skips LAPACK: ``gesv`` returns exactly ``b / a``
    there, so rank-1 stacks divide, and a zero pivot (either sign) raises
    as ``gesv`` does.  Larger systems cannot be reproduced with NumPy
    element-wise arithmetic; ``docs/backends.md`` has the measurements.
    """
    if grams.shape[-1] == 1:
        pivots = grams[..., 0]
        if not pivots.all():
            raise np.linalg.LinAlgError("Singular matrix")
        with np.errstate(all="ignore"):
            return rhs / pivots
    if _solve_vector is None:
        return np.linalg.solve(grams, rhs[..., None])[..., 0]
    with np.errstate(
        call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        return _solve_vector(grams, rhs)


@functools.lru_cache(maxsize=16)
def packed_pairs(rank: int) -> Tuple[int, np.ndarray, np.ndarray]:
    """The packed upper-triangle layout of a ``rank × rank`` gram.

    Returns the number of pairs ``r ≤ s`` (in ``np.triu_indices`` order),
    the factor columns of every pair's first members followed by its second
    members, and ``mirror[r, s]``, the packed index of the pair
    ``(min(r, s), max(r, s))``.  Cached per rank, because building them
    costs more than a whole sweep on a small stack; the arrays are
    read-only since every caller shares them.
    """
    upper = np.triu_indices(rank)
    n_pairs = len(upper[0])
    pair_columns = np.concatenate(upper)
    mirror = np.empty((rank, rank), dtype=np.intp)
    mirror[upper] = np.arange(n_pairs)
    mirror[upper[::-1]] = mirror[upper]
    pair_columns.flags.writeable = False
    mirror.flags.writeable = False
    return n_pairs, pair_columns, mirror


@dataclass
class SolverStats:
    """Mutable per-instance telemetry of the ALS solver.

    Attributes
    ----------
    solves:
        Backend invocations (one per ``complete`` call, one per stacked
        ``complete_batch`` group).
    matrices:
        Matrices completed (a stacked solve of K slots counts K).
    sweeps_run:
        ALS sweeps actually executed.
    sweeps_saved:
        Sweeps skipped by the convergence early-exit (budget − run).
    sharded_solves:
        Solves that ran with row-block sharding active.

    The object is telemetry only — it never changes what the solver
    computes — so cache fingerprints and pooling-equivalence checks skip it.
    """

    solves: int = 0
    matrices: int = 0
    sweeps_run: int = 0
    sweeps_saved: int = 0
    sharded_solves: int = 0

    def record(self, *, matrices: int, sweeps_run: int, budget: int, sharded: bool) -> None:
        self.solves += 1
        self.matrices += matrices
        self.sweeps_run += sweeps_run
        self.sweeps_saved += max(0, budget - sweeps_run)
        if sharded:
            self.sharded_solves += 1

    def reset(self) -> None:
        self.solves = 0
        self.matrices = 0
        self.sweeps_run = 0
        self.sweeps_saved = 0
        self.sharded_solves = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "solves": self.solves,
            "matrices": self.matrices,
            "sweeps_run": self.sweeps_run,
            "sweeps_saved": self.sweeps_saved,
            "sharded_solves": self.sharded_solves,
        }

    def metrics(self, *, backend: Optional[str] = None) -> Dict[str, object]:
        """The canonical ``repro_als_*`` metric view of these counters.

        Flat sample keys identical to what :mod:`repro.obs` exports
        (optionally labelled with the backend name); :meth:`as_dict` remains
        the backwards-compatible legacy shape.
        """
        from repro.obs.adapters import solver_stats_metrics

        return solver_stats_metrics(self, backend=backend)


@dataclass
class ALSProblem:
    """One normalised single-matrix ALS solve.

    ``normalised`` holds zeros at unobserved entries; ``cell_init`` /
    ``cycle_init`` are freshly drawn factor initialisations the backend may
    mutate in place.  ``shard_rows`` (optional) bounds how many rows the
    cell half-step materialises intermediates for at once; consecutive
    blocks additionally share ``shard_overlap`` boundary rows (re-solved in
    both blocks — the cell half-step holds the cycle factors fixed, so the
    duplicate solves are identical and exactness is preserved).
    """

    normalised: np.ndarray  # (n_cells, n_cycles), zeros where unobserved
    mask: np.ndarray  # (n_cells, n_cycles) bool
    cell_init: np.ndarray  # (n_cells, rank)
    cycle_init: np.ndarray  # (n_cycles, rank)
    regularization: float
    mu: float
    iterations: int
    tolerance: float = 0.0
    shard_rows: Optional[int] = None
    shard_overlap: int = 0

    @property
    def rank(self) -> int:
        return self.cell_init.shape[1]


@dataclass
class StackedALSProblem:
    """A normalised ``(K, n_cells, n_cycles)`` Jacobi batched ALS solve.

    The gating arrays encode the width-bucketing seam of ``complete_batch``:
    ``row_has_obs`` / ``col_update`` mark which factors update at all (the
    rest keep their prior value through an identity system), ``smooth`` is
    the precomputed per-column temporal-smoothness gram contribution, and
    ``left_gate`` / ``right_gate`` (present only for NaN-padded mixed-width
    stacks) restrict the neighbour coupling to each slot's true columns.
    """

    normalised: np.ndarray  # (K, n_cells, n_cycles)
    maskf: np.ndarray  # (K, n_cells, n_cycles) float 0/1
    cell_init: np.ndarray  # (K, n_cells, rank)
    cycle_init: np.ndarray  # (K, n_cycles, rank)
    regularization: float
    mu: float
    iterations: int
    row_has_obs: np.ndarray  # (K, n_cells, 1) bool
    col_update: np.ndarray  # (K, n_cycles, 1) bool
    smooth: np.ndarray  # broadcastable to (K, n_cycles, rank, rank)
    left_gate: Optional[np.ndarray] = None  # (K, n_cycles) bool
    right_gate: Optional[np.ndarray] = None  # (K, n_cycles) bool
    tolerance: float = 0.0
    shard_rows: Optional[int] = None

    @property
    def rank(self) -> int:
        return self.cell_init.shape[2]


def factor_delta(
    U: np.ndarray, V: np.ndarray, U_prev: np.ndarray, V_prev: np.ndarray
) -> float:
    """RMS change of the concatenated factors between two sweeps.

    Computed in the normalised data domain, so a fixed tolerance means the
    same thing across datasets of different magnitudes.
    """
    squared = float(((U - U_prev) ** 2).sum() + ((V - V_prev) ** 2).sum())
    return float(np.sqrt(squared / (U.size + V.size)))


def row_blocks(
    n_rows: int, shard_rows: Optional[int], shard_overlap: int = 0
) -> List[np.ndarray]:
    """Row-index blocks for the sharded cell half-step.

    Blocks of ``shard_rows`` consecutive rows, each (except the first)
    extended backwards by ``shard_overlap`` boundary rows.  ``None`` (or a
    block size covering everything) yields one block — the dense solve.
    """
    if shard_rows is None or shard_rows >= n_rows:
        return [np.arange(n_rows)]
    blocks = []
    start = 0
    while start < n_rows:
        lo = max(0, start - shard_overlap) if start else 0
        blocks.append(np.arange(lo, min(start + shard_rows, n_rows)))
        start += shard_rows
    return blocks


def gauss_seidel_cycle_sweep(
    cell_factors: np.ndarray,
    cycle_factors: np.ndarray,
    ridge: np.ndarray,
    mu: float,
    col_obs,
    col_targets,
    zero_rhs: np.ndarray,
    smooth_gram,
) -> None:
    """One Gauss–Seidel sweep over the cycle factors (the paper protocol).

    The temporal-smoothness coupling uses the neighbours' *current* values,
    so the per-column solves stay sequential.  Bit-exact with the pre-backend
    kernel; shared by the NumPy baseline and grouped backends.
    """
    n_cycles = cycle_factors.shape[0]
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
            gram = gram + smooth_gram[j]
            rhs_j = rhs_j + mu * neighbor_sum
        if not has_obs and neighbor_count == 0:
            continue
        cycle_factors[j] = solve_small(gram, rhs_j)


@dataclass
class _CyclePrep:
    """Hoisted per-column observation structure for the Gauss–Seidel sweep."""

    col_obs: list = field(default_factory=list)
    col_targets: list = field(default_factory=list)
    zero_rhs: np.ndarray = None  # type: ignore[assignment]
    smooth_gram: Optional[list] = None


def prepare_cycle_sweep(problem: ALSProblem, ridge: np.ndarray) -> _CyclePrep:
    """Precompute the column index sets / targets / smoothness grams once.

    The observation pattern is constant across sweeps, so this runs once per
    solve, exactly as the pre-backend kernel hoisted it out of the loop.
    """
    n_cycles = problem.normalised.shape[1]
    rank = problem.rank
    prep = _CyclePrep()
    prep.col_obs = [np.flatnonzero(problem.mask[:, j]) for j in range(n_cycles)]
    prep.col_targets = [
        problem.normalised[idx, j] for j, idx in enumerate(prep.col_obs)
    ]
    prep.zero_rhs = np.zeros(rank)
    if problem.mu > 0:
        prep.smooth_gram = [
            problem.mu * ((j > 0) + (j < n_cycles - 1)) * np.eye(rank)
            for j in range(n_cycles)
        ]
    return prep


class ALSBackend(abc.ABC):
    """One execution strategy for the ALS sweep loops.

    Backends are stateless singletons (the registry hands out one instance
    per key); all per-solve state lives in the problem objects.  ``solve``
    runs the single-matrix paper-protocol sweep; ``solve_stacked`` runs the
    Jacobi batched sweep and has a shared NumPy implementation every backend
    inherits (override to execute the stacked path elsewhere, e.g. on a
    GPU).
    """

    #: Registry key; set by subclasses.
    name: str = "backend"

    @abc.abstractmethod
    def solve(self, problem: ALSProblem) -> Tuple[np.ndarray, np.ndarray, int]:
        """Run the sweep loop; returns ``(cell_factors, cycle_factors, sweeps_run)``."""

    def solve_stacked(
        self, problem: StackedALSProblem
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Run the Jacobi batched sweep over a stack; shared NumPy implementation.

        Bit-exact with the pre-backend ``complete_batch`` kernel when
        ``tolerance`` is zero and ``shard_rows`` is unset; row-block sharding
        changes only BLAS reduction grouping (~1e-15 rounding).

        Both grams are ``einsum`` reductions, never BLAS products.  A
        three-operand einsum adds the contracted terms in index order
        whatever the layout; a two-operand einsum only while no operand is
        contiguous along the contracted axis (otherwise NumPy may reduce it
        with several SIMD partial sums).  For rank ≥ 2 each gram is one
        two-operand einsum of the 0/1 mask against the packed upper-triangle
        products ``F_r F_s`` (r ≤ s), mirrored to ``rank × rank``, in
        layouts that keep the contracted axis strided: with a 0/1 mask
        ``(m F_r) F_s == m (F_r F_s)`` up to a signed zero that the ridge
        ``+=`` normalises.  One-cell and one-cycle stacks would make the
        mask contiguous along the contracted axis; they clamp to rank 1, and
        rank-1 stacks keep the three-operand grams.  ``docs/backends.md``
        has the measurements.
        """
        normalised, maskf = problem.normalised, problem.maskf
        U, V = problem.cell_init, problem.cycle_init
        rank = problem.rank
        ridge = problem.regularization * np.eye(rank)
        mu = problem.mu
        eye = np.eye(rank)
        n_cells = normalised.shape[1]
        # Row blocks as slices: a view keeps the mask's strides, so even a
        # one-row block of the cells-last mask stays strided along the
        # contracted cycles.  A fancy-indexed copy would make that axis
        # stride-1 and change the packed einsum's summation order.
        blocks = [
            slice(rows[0], rows[-1] + 1)
            for rows in row_blocks(n_cells, problem.shard_rows)
        ]
        # Cells-last copy of the mask, made once per solve: the packed cell
        # gram contracts its (strided) cycle axis, and the three-operand
        # rank-1 cycle gram reads its cells stride-1.
        mask_t = np.ascontiguousarray(maskf.transpose(0, 2, 1))
        packed = rank > 1
        if packed:
            n_pairs, pair_columns, mirror = packed_pairs(rank)
        # Identity gates keep non-updating factors at their prior value; when
        # every factor updates they are a byte-for-byte no-op, so skip them.
        gate_rows = not problem.row_has_obs.all()
        gate_cols = not problem.col_update.all()
        sweeps_run = 0
        for _ in range(problem.iterations):
            previous = (U.copy(), V.copy()) if problem.tolerance > 0 else None

            # Cell half-step: gram_i = Σ_j m_ij V_j V_jᵀ, batched over (K, i);
            # row-blocked so the (K, block, rank, rank) intermediates stay
            # bounded.  Rows with no observation keep their prior factor via
            # an identity system, so the stacked solve cannot hit a singular
            # slot.
            if packed:
                columns = V[:, :, pair_columns]
                pairs = columns[..., :n_pairs] * columns[..., n_pairs:]
            for block in blocks:
                if packed:
                    grams = np.einsum("kji,kjt->kit", mask_t[:, :, block], pairs)[..., mirror]
                else:
                    grams = np.einsum("kij,kjr,kjs->kirs", maskf[:, block], V, V)
                grams += ridge
                rhs = normalised[:, block] @ V
                if gate_rows:
                    has_obs = problem.row_has_obs[:, block]
                    grams = np.where(has_obs[..., None], grams, eye)
                    U[:, block] = np.where(has_obs, solve_stack(grams, rhs), U[:, block])
                else:
                    U[:, block] = solve_stack(grams, rhs)

            # Cycle half-step (Jacobi): neighbours come from the previous
            # sweep's V, so all columns solve in one stacked call.
            if packed:
                columns = U[:, :, pair_columns]
                pairs = columns[..., :n_pairs] * columns[..., n_pairs:]
                grams = np.einsum("kij,kit->kjt", maskf, pairs)[..., mirror]
            else:
                grams = np.einsum("kji,kir,kis->kjrs", mask_t, U, U)
            grams += ridge
            # Cycles-last output: the inner loop runs along the cycles.
            rhs = np.einsum("kij,kir->krj", normalised, U).transpose(0, 2, 1)
            if mu > 0:
                # zeros_like then ``+=``, not assignment: ``0.0 + -0.0`` is
                # ``+0.0``, so assigning would change signed zeros.
                neighbor_sum = np.zeros_like(V)
                if problem.left_gate is None:
                    neighbor_sum[:, :-1] += V[:, 1:]
                    neighbor_sum[:, 1:] += V[:, :-1]
                else:
                    neighbor_sum[:, :-1] += V[:, 1:] * problem.right_gate[:, :-1, None]
                    neighbor_sum[:, 1:] += V[:, :-1] * problem.left_gate[:, 1:, None]
                grams += problem.smooth
                rhs += mu * neighbor_sum
            if gate_cols:
                grams = np.where(problem.col_update[..., None], grams, eye)
            solved = solve_stack(grams, rhs)
            V = np.where(problem.col_update, solved, V) if gate_cols else solved

            sweeps_run += 1
            if previous is not None and factor_delta(U, V, *previous) < problem.tolerance:
                break
        return U, V, sweeps_run

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"
