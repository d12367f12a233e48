"""Byte parity of the stacked (Jacobi) ALS sweep with its earlier form.

``repro.inference.als.solve_stacked`` is the kernel behind every
``complete_batch``, so every LOO assessment and training quality check runs
it.  Its leaner form (packed upper-triangle grams reduced by two-operand
einsums, direct stacked LAPACK solves, identity gates skipped when every
factor updates, in-place ridge/smoothness terms) must return the same bytes
as the sweep it replaced.  ``reference_solve_stacked`` below keeps that
earlier sweep, less its row-block and early-exit branches (the defaults
never took them, and the options are gone); each test captures the
``StackedALSProblem`` objects that ``CompressiveSensingInference.
complete_batch`` really builds and compares ``tobytes()`` of U and V.
``als_golden.npz`` pins a single two-matrix case; this file covers the
gating and width-bucketing branches.
"""

from __future__ import annotations

import copy
import warnings

import numpy as np
import pytest

from repro.inference import als
from repro.inference.als import StackedALSProblem
from repro.inference.compressive import CompressiveSensingInference

#: The sweep under test, taken before any test patches the module.
solve_stacked = als.solve_stacked


def reference_solve_stacked(problem):
    """The stacked sweep as it was before the leaner form."""
    normalised, maskf = problem.normalised, problem.maskf
    U, V = problem.cell_init, problem.cycle_init
    rank = problem.rank
    ridge = problem.regularization * np.eye(rank)
    mu = problem.mu
    eye = np.eye(rank)
    for _ in range(problem.iterations):
        grams = np.einsum("kij,kjr,kjs->kirs", maskf, V, V) + ridge
        grams = np.where(problem.row_has_obs[..., None], grams, eye)
        rhs = normalised @ V
        solved = np.linalg.solve(grams, rhs[..., None])[..., 0]
        U = np.where(problem.row_has_obs, solved, U)

        grams = np.einsum("kij,kir,kis->kjrs", maskf, U, U) + ridge
        rhs = np.einsum("kij,kir->kjr", normalised, U)
        if mu > 0:
            neighbor_sum = np.zeros_like(V)
            if problem.left_gate is None:
                neighbor_sum[:, :-1] += V[:, 1:]
                neighbor_sum[:, 1:] += V[:, :-1]
            else:
                neighbor_sum[:, :-1] += V[:, 1:] * problem.right_gate[:, :-1, None]
                neighbor_sum[:, 1:] += V[:, :-1] * problem.left_gate[:, 1:, None]
            grams = grams + problem.smooth
            rhs = rhs + mu * neighbor_sum
        grams = np.where(problem.col_update[..., None], grams, eye)
        solved = np.linalg.solve(grams, rhs[..., None])[..., 0]
        V = np.where(problem.col_update, solved, V)
    return U, V


@pytest.fixture
def captured(monkeypatch):
    """Every StackedALSProblem handed to the kernel, copied before it runs."""
    problems = []

    def spy(problem):
        problems.append(copy.deepcopy(problem))
        return solve_stacked(problem)

    monkeypatch.setattr(als, "solve_stacked", spy)
    return problems


def assert_byte_parity(problems):
    assert problems, "no stacked solve was captured"
    for problem in problems:
        U_ref, V_ref = reference_solve_stacked(copy.deepcopy(problem))
        U, V = solve_stacked(copy.deepcopy(problem))
        assert U.tobytes() == U_ref.tobytes()
        assert V.tobytes() == V_ref.tobytes()


def random_matrix(rng, n_cells, n_cycles, density=0.5, empty_rows=0, empty_cols=0):
    """A partially observed field with at least one observation."""
    base = rng.standard_normal((n_cells, 1)) + 0.3 * rng.standard_normal((n_cells, n_cycles))
    observed = rng.random((n_cells, n_cycles)) < density
    observed[rng.integers(n_cells), rng.integers(n_cycles)] = True
    matrix = np.where(observed, base, np.nan)
    for row in rng.choice(n_cells, size=empty_rows, replace=False):
        matrix[row] = np.nan
    for col in rng.choice(n_cycles, size=empty_cols, replace=False):
        matrix[:, col] = np.nan
    if np.isnan(matrix).all():
        matrix[0, 0] = 1.0
    return matrix


def solve(captured, matrices, **kwargs):
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("iterations", 6)
    CompressiveSensingInference(**kwargs).complete_batch(matrices)
    assert_byte_parity(captured)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("temporal_weight", [0.0, 0.1])
def test_dense_uniform_stack(captured, rank, temporal_weight):
    rng = np.random.default_rng(rank)
    matrices = [random_matrix(rng, 20, 8, density=0.6) for _ in range(7)]
    solve(captured, matrices, rank=rank, temporal_weight=temporal_weight)


@pytest.mark.parametrize("rank", [1, 3, 5])
@pytest.mark.parametrize("temporal_weight", [0.0, 0.1])
def test_rows_and_columns_without_observations(captured, rank, temporal_weight):
    rng = np.random.default_rng(10 + rank)
    matrices = [
        random_matrix(rng, 16, 9, density=0.4, empty_rows=3, empty_cols=2)
        for _ in range(5)
    ]
    solve(captured, matrices, rank=rank, temporal_weight=temporal_weight)
    # Both identity gates must really have been exercised.
    assert not all(problem.row_has_obs.all() for problem in captured)
    if temporal_weight == 0.0:
        assert not all(problem.col_update.all() for problem in captured)


@pytest.mark.parametrize("temporal_weight", [0.0, 0.25])
def test_mixed_width_stack_uses_the_gates(captured, temporal_weight):
    rng = np.random.default_rng(3)
    matrices = [
        random_matrix(rng, 12, width, density=0.5, empty_rows=1)
        for width in (3, 5, 8, 8, 11, 4)
    ]
    solve(captured, matrices, rank=3, temporal_weight=temporal_weight)
    assert any(problem.left_gate is not None for problem in captured)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_single_slot_stack(captured, rank):
    rng = np.random.default_rng(20 + rank)
    solve(captured, [random_matrix(rng, 15, 8, empty_rows=1)], rank=rank)
    assert captured[0].normalised.shape[0] == 1


@pytest.mark.parametrize("temporal_weight", [0.0, 0.1])
def test_single_cycle_stack(captured, temporal_weight):
    rng = np.random.default_rng(30)
    matrices = [random_matrix(rng, 10, 1, density=0.6) for _ in range(4)]
    solve(captured, matrices, rank=3, temporal_weight=temporal_weight)
    assert all(problem.normalised.shape[2] == 1 for problem in captured)


def test_many_random_problems(captured):
    """Seeded sweep over shapes, densities, ranks and knobs."""
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n_cells = int(rng.integers(2, 40))
        widths = rng.integers(1, 26, size=int(rng.integers(1, 10)))
        matrices = [
            random_matrix(
                rng,
                n_cells,
                int(width),
                density=float(rng.uniform(0.1, 0.9)),
                empty_rows=int(rng.integers(0, max(1, n_cells // 4))),
            )
            for width in widths
        ]
        CompressiveSensingInference(
            rank=int(rng.integers(1, 6)),
            temporal_weight=float(rng.choice([0.0, 0.05, 0.3])),
            regularization=float(rng.choice([0.01, 0.1, 1.0])),
            iterations=int(rng.integers(1, 9)),
            seed=int(rng.integers(1000)),
        ).complete_batch(matrices)
    assert len(captured) >= 40
    assert_byte_parity(captured)


def loo_stack(rng, n_windows=4):
    """20x8 windows, each followed by copies that hold out one observed entry
    of its current (last) column, as the LOO assessment stacks them."""
    matrices = []
    for _ in range(n_windows):
        window = random_matrix(rng, 20, 8, density=0.6)
        matrices.append(window)
        for row in np.flatnonzero(~np.isnan(window[:, -1])):
            held_out = window.copy()
            held_out[row, -1] = np.nan
            matrices.append(held_out)
    return matrices


def test_loo_shaped_stack(captured):
    """The large same-width stacks of an LOO assessment (K >= 34), whose
    packed grams run the widest einsums."""
    rng = np.random.default_rng(34)
    matrices = loo_stack(rng)
    solve(captured, matrices, rank=3, temporal_weight=0.1, iterations=8)
    assert len(captured) == 1 and captured[0].normalised.shape[0] >= 34


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("shape", [(1, 8), (10, 1)], ids=["one_cell", "one_cycle"])
def test_one_cell_and_one_cycle_stacks_clamp_to_rank_one(captured, shape, rank):
    """These are the shapes whose mask is contiguous along a contracted axis,
    so they must keep the three-operand grams."""
    rng = np.random.default_rng(40 + rank)
    matrices = [random_matrix(rng, *shape, density=0.7) for _ in range(5)]
    solve(captured, matrices, rank=rank, temporal_weight=0.1)
    assert all(problem.rank == 1 for problem in captured)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_slot_bytes_do_not_depend_on_the_stack(rank):
    rng = np.random.default_rng(50 + rank)
    a, b, c = (random_matrix(rng, 20, 8, empty_rows=2) for _ in range(3))
    als = CompressiveSensingInference(rank=rank, temporal_weight=0.1, seed=3)
    alone = als.complete_batch([a])[0]
    shared = als.complete_batch([b, a, c])[1]
    assert alone.tobytes() == shared.tobytes()


def singular_problem(rank=2):
    """Regularization 0 and a row whose only observation meets the cycle
    factor ``(1, 0)`` (rank 2) or ``0`` (rank 1): that row's cell gram is
    exactly singular."""
    mask = np.ones((1, 3, 4), dtype=bool)
    mask[0, 0, 1:] = False
    rng = np.random.default_rng(60)
    cycle_init = rng.standard_normal((1, 4, rank))
    cycle_init[0, 0] = (1.0, 0.0) if rank == 2 else 0.0
    return StackedALSProblem(
        normalised=np.where(mask, rng.standard_normal(mask.shape), 0.0),
        maskf=mask.astype(float),
        cell_init=rng.standard_normal((1, 3, rank)),
        cycle_init=cycle_init,
        regularization=0.0,
        mu=0.0,
        iterations=2,
        row_has_obs=mask.any(axis=2)[..., None],
        col_update=mask.any(axis=1)[..., None],
        smooth=np.zeros((4, rank, rank)),
    )


@pytest.mark.parametrize(
    "raw_lapack, rank",
    [(True, 2), (False, 2), (True, 1), (False, 1)],
    ids=["raw", "fallback", "raw-rank1", "fallback-rank1"],
)
def test_singular_stack_raises_without_warning(monkeypatch, raw_lapack, rank):
    if not raw_lapack:
        monkeypatch.setattr(als, "_solve_vector", None)
    with pytest.raises(np.linalg.LinAlgError):
        reference_solve_stacked(singular_problem(rank))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            solve_stacked(singular_problem(rank))


def test_rank_one_division_is_lapack_bytes():
    """A 1 x 1 system is solved by division; gesv returns exactly ``b / a``,
    over ordinary, tiny, huge and mixed-sign magnitudes, with overflow and
    underflow as silent as in LAPACK."""
    from numpy.linalg import _umath_linalg

    rng = np.random.default_rng(80)
    shape = (40, 500)
    magnitudes = np.exp(rng.uniform(-700.0, 700.0, shape))
    for pivots, rhs in (
        (rng.standard_normal(shape), rng.standard_normal(shape)),
        (rng.uniform(0.1, 50.0, shape), 10.0 * rng.standard_normal(shape)),
        (magnitudes * rng.choice([-1.0, 1.0], shape), np.exp(rng.uniform(-700.0, 700.0, shape))),
    ):
        grams, rhs = pivots[..., None, None], rhs[..., None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = als.solve_stack(grams, rhs)
        with np.errstate(all="ignore"):
            expected = _umath_linalg.solve1(grams, rhs)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("pivot", [0.0, -0.0])
def test_rank_one_zero_pivot_raises_without_warning(pivot):
    grams = np.array([2.0, pivot, 3.0])[:, None, None, None]
    rhs = np.ones((3, 1, 1))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(grams, rhs[..., None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            als.solve_stack(grams, rhs)


def test_fallback_solve_is_byte_identical(captured, monkeypatch):
    """Without NumPy's private LAPACK module the sweep falls back to
    ``np.linalg.solve`` and still returns the reference bytes."""
    rng = np.random.default_rng(70)
    CompressiveSensingInference(rank=3, temporal_weight=0.1, seed=0).complete_batch(
        [random_matrix(rng, 20, 8, empty_rows=2) for _ in range(6)]
    )
    monkeypatch.setattr(als, "_solve_vector", None)
    assert_byte_parity(captured)
