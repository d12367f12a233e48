"""The ALS completion kernel: the sweep loops behind ``CompressiveSensingInference``.

:class:`~repro.inference.compressive.CompressiveSensingInference` owns
normalisation, initialisation, width bucketing and post-conditions; this
module runs the sweeps.  Two problem shapes exist, one per entry point:

* :class:`ALSProblem` — one partially observed matrix, solved by
  :func:`solve` with the paper-protocol sweep: a batched cell half-step
  (rows bucketed by observation count, one stacked solve per bucket) and a
  Gauss–Seidel cycle half-step.  This is what ``complete`` bottoms out in.
* :class:`StackedALSProblem` — a ``(K, n_cells, n_cycles)`` stack, solved by
  :func:`solve_stacked` with the Jacobi batched sweep of ``complete_batch``
  (one ``einsum`` gram per half-step, width-gated for NaN-padded stacks).

All quantities are in the **normalised domain**: the caller centres and
scales the data before building a problem, so the ridge penalty is
scale-free.  Every solve runs its full sweep budget.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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
    element-wise arithmetic; ``docs/als.md`` has the measurements.
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
        Kernel invocations (one per ``complete`` call, one per stacked
        ``complete_batch`` group).
    matrices:
        Matrices completed (a stacked solve of K slots counts K).
    sweeps_run:
        ALS sweeps executed.

    The object is telemetry only — it never changes what the solver
    computes — so :func:`~repro.serve.cache.config_key` skips it.
    """

    solves: int = 0
    matrices: int = 0
    sweeps_run: int = 0

    def record(self, *, matrices: int, sweeps_run: int) -> None:
        self.solves += 1
        self.matrices += matrices
        self.sweeps_run += sweeps_run

    def reset(self) -> None:
        self.solves = 0
        self.matrices = 0
        self.sweeps_run = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "solves": self.solves,
            "matrices": self.matrices,
            "sweeps_run": self.sweeps_run,
        }

    def metrics(self, *, backend: Optional[str] = None) -> Dict[str, object]:
        """The canonical ``repro_als_*`` metric view of these counters.

        Exactly the samples :mod:`repro.obs` exports (optionally carrying
        the ``backend`` label); :meth:`as_dict` remains the
        backwards-compatible legacy shape.
        """
        from repro.obs.adapters import flat_samples, ingest_solver_stats

        return flat_samples(ingest_solver_stats, self, backend=backend)


@dataclass
class ALSProblem:
    """One normalised single-matrix ALS solve.

    ``normalised`` holds zeros at unobserved entries; ``cell_init`` /
    ``cycle_init`` are freshly drawn factor initialisations that
    :func:`solve` updates in place.
    """

    normalised: np.ndarray  # (n_cells, n_cycles), zeros where unobserved
    mask: np.ndarray  # (n_cells, n_cycles) bool
    cell_init: np.ndarray  # (n_cells, rank)
    cycle_init: np.ndarray  # (n_cycles, rank)
    regularization: float
    mu: float
    iterations: int

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

    @property
    def rank(self) -> int:
        return self.cell_init.shape[2]


@dataclass
class _RowBucket:
    """Rows sharing one observation count, with their gathered structure."""

    rows: np.ndarray  # (B,) int row indices
    obs_columns: np.ndarray  # (B, count) int observed-column indices per row
    targets: np.ndarray  # (B, count) observed values per row


def bucket_rows(mask: np.ndarray, normalised: np.ndarray) -> List[_RowBucket]:
    """Group the rows by observation count and gather their index structure.

    Runs once per solve (the observation pattern is constant across sweeps).
    Rows with zero observations are dropped — they keep their prior factor.
    """
    rows = np.arange(mask.shape[0])
    counts = mask.sum(axis=1)
    buckets: List[_RowBucket] = []
    for count in np.unique(counts):
        if count == 0:
            continue
        members = rows[counts == count]
        # np.nonzero is row-major, so reshaping recovers each row's sorted
        # observed-column indices — the order a per-row np.flatnonzero gives.
        obs_columns = np.nonzero(mask[members])[1].reshape(members.size, int(count))
        targets = normalised[members[:, None], obs_columns]
        buckets.append(_RowBucket(rows=members, obs_columns=obs_columns, targets=targets))
    return buckets


def _gauss_seidel_cycle_sweep(
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
    so the per-column solves stay sequential.
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


def solve(problem: ALSProblem) -> Tuple[np.ndarray, np.ndarray]:
    """Run the paper-protocol sweeps; returns ``(cell_factors, cycle_factors)``.

    The cell half-step buckets rows by observation count: each bucket's
    observed-column indices are gathered into one ``(B, count)`` array, and
    its grams, right-hand sides and solves run as single stacked calls —

        V_b   = cycle_factors[idx]                  # (B, count, rank) gather
        grams = V_bᵀ V_b + λI                        # one batched matmul
        rhs   = V_bᵀ t_b                             # one batched matmul
        U_b   = solve(grams, rhs)                    # one stacked LAPACK call

    Each slice is the system a per-row loop would build, so the result is
    byte-identical to one (``tests/inference/als_reference.py``).  The cycle
    half-step is the sequential Gauss–Seidel sweep.
    """
    normalised, mask = problem.normalised, problem.mask
    n_cycles = normalised.shape[1]
    rank = problem.rank
    cell_factors, cycle_factors = problem.cell_init, problem.cycle_init
    ridge = problem.regularization * np.eye(rank)
    mu = problem.mu

    # The observation pattern is constant across sweeps: hoist the row
    # buckets and the per-column index sets, targets and smoothness grams.
    buckets = bucket_rows(mask, normalised)
    col_obs = [np.flatnonzero(mask[:, j]) for j in range(n_cycles)]
    col_targets = [normalised[idx, j] for j, idx in enumerate(col_obs)]
    zero_rhs = np.zeros(rank)
    smooth_gram = None
    if mu > 0:
        smooth_gram = [mu * ((j > 0) + (j < n_cycles - 1)) * np.eye(rank) for j in range(n_cycles)]

    for _ in range(problem.iterations):
        for bucket in buckets:
            v = cycle_factors[bucket.obs_columns]  # (B, count, rank)
            vt = v.transpose(0, 2, 1)
            grams = vt @ v + ridge
            rhs = (vt @ bucket.targets[..., None])[..., 0]
            cell_factors[bucket.rows] = np.linalg.solve(grams, rhs[..., None])[..., 0]

        # One errstate for the whole sweep keeps the raw solve gufunc from
        # leaking FP warnings on singular systems (the NaN guard in
        # solve_small converts those to LinAlgError).
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            _gauss_seidel_cycle_sweep(
                cell_factors, cycle_factors, ridge, mu, col_obs, col_targets, zero_rhs, smooth_gram
            )
    return cell_factors, cycle_factors


def solve_stacked(problem: StackedALSProblem) -> Tuple[np.ndarray, np.ndarray]:
    """Run the Jacobi batched sweeps over a stack; returns ``(U, V)``.

    Both grams are ``einsum`` reductions, never BLAS products.  A
    three-operand einsum adds the contracted terms in index order whatever
    the layout; a two-operand einsum only while no operand is contiguous
    along the contracted axis (otherwise NumPy may reduce it with several
    SIMD partial sums).  For rank ≥ 2 each gram is one two-operand einsum of
    the 0/1 mask against the packed upper-triangle products ``F_r F_s``
    (r ≤ s), mirrored to ``rank × rank``, in layouts that keep the
    contracted axis strided: with a 0/1 mask ``(m F_r) F_s == m (F_r F_s)``
    up to a signed zero that the ridge ``+=`` normalises.  One-cell and
    one-cycle stacks would make the mask contiguous along the contracted
    axis; they clamp to rank 1, and rank-1 stacks keep the three-operand
    grams.  ``docs/als.md`` has the measurements.
    """
    normalised, maskf = problem.normalised, problem.maskf
    U, V = problem.cell_init, problem.cycle_init
    rank = problem.rank
    ridge = problem.regularization * np.eye(rank)
    mu = problem.mu
    eye = np.eye(rank)
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
    for _ in range(problem.iterations):
        # Cell half-step: gram_i = Σ_j m_ij V_j V_jᵀ, batched over (K, i).
        # Rows with no observation keep their prior factor via an identity
        # system, so the stacked solve cannot hit a singular slot.
        if packed:
            columns = V[:, :, pair_columns]
            pairs = columns[..., :n_pairs] * columns[..., n_pairs:]
            grams = np.einsum("kji,kjt->kit", mask_t, pairs)[..., mirror]
        else:
            grams = np.einsum("kij,kjr,kjs->kirs", maskf, V, V)
        grams += ridge
        rhs = normalised @ V
        if gate_rows:
            has_obs = problem.row_has_obs
            grams = np.where(has_obs[..., None], grams, eye)
            U[:] = np.where(has_obs, solve_stack(grams, rhs), U)
        else:
            U[:] = solve_stack(grams, rhs)

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
    return U, V
