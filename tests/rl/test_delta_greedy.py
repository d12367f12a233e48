"""The batched δ-greedy helper against the per-row loop it replaced.

``reference`` is the per-row selection every selection site used to run:
one explore/exploit draw per row, then a ``choice`` over the valid actions
(explore) or over the tied best actions (exploit).  The helper must pick the
same actions *and* leave the generator in the same state.
"""

import numpy as np
import pytest

from repro.rl.dqn import delta_greedy


def reference(q, masks, rng, deltas=None):
    actions = []
    for row in range(q.shape[0]):
        mask = masks[row]
        valid = np.flatnonzero(mask)
        if valid.size == 0:
            raise ValueError("no valid actions available")
        if deltas is not None and rng.random() < deltas[row]:
            actions.append(int(rng.choice(valid)))
            continue
        masked = np.where(mask, q[row], -np.inf)
        best = float(masked.max())
        candidates = np.flatnonzero(masked == best)
        actions.append(int(rng.choice(candidates)))
    return actions


def outcome(select, q, masks, deltas, seed):
    rng = np.random.default_rng(seed)
    try:
        result = select(q, masks, rng, deltas)
    except ValueError as error:
        result = ("ValueError", str(error))
    return result, rng.bit_generator.state


def assert_same(q, masks, deltas, seed=0):
    expected = outcome(reference, q, masks, deltas, seed)
    assert outcome(delta_greedy, q, masks, deltas, seed) == expected
    return expected[0]


def batch(rows, seed, n_actions=20, *, ties=False):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(rows, n_actions))
    if ties:
        # Coarse Q-values: two- and three-way ties for the best action are common.
        q = np.round(q)
    masks = rng.random((rows, n_actions)) < 0.6
    masks[np.arange(rows), rng.integers(n_actions, size=rows)] = True
    return q, masks


@pytest.mark.parametrize("rows", [1, 8, 64])
@pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("ties", [False, True])
def test_matches_per_row_selection(rows, delta, ties):
    q, masks = batch(rows, seed=rows, ties=ties)
    # Greedy rows carry δ = 0, as select_actions passes them.
    greedy = np.random.default_rng(rows + 1).random(rows) < 0.5
    deltas = [0.0 if flag else delta for flag in greedy]
    for seed in range(5):
        assert_same(q, masks, deltas, seed)


@pytest.mark.parametrize("rows", [1, 8, 64])
def test_exploit_only_matches(rows):
    q, masks = batch(rows, seed=7, ties=True)
    for seed in range(5):
        assert_same(q, masks, None, seed)


@pytest.mark.parametrize("tied", [2, 3])
def test_forced_ties_draw_like_per_row(tied):
    q = np.zeros((8, 6))
    q[:, :tied] = 5.0
    masks = np.ones((8, 6), dtype=bool)
    actions = assert_same(q, masks, [0.0] * 8)
    assert set(actions) <= set(range(tied))
    # A tie whose other members are masked out is a single best action.
    masks[:, 1:tied] = False
    assert assert_same(q, masks, [0.0] * 8) == [0] * 8


def test_nan_row_raises_like_per_row():
    q, masks = batch(4, seed=3)
    q[2, np.flatnonzero(masks[2])[0]] = np.nan
    result = assert_same(q, masks, [0.0] * 4)
    assert result[0] == "ValueError"


def test_all_valid_minus_inf_matches():
    q, masks = batch(4, seed=5)
    q[1] = -np.inf
    assert_same(q, masks, [0.0] * 4)
    assert_same(q, masks, [0.5] * 4, seed=1)


def test_empty_mask_raises_before_any_draw():
    q, masks = batch(4, seed=9)
    masks[3] = False
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="no valid actions"):
        delta_greedy(q, masks, rng, [1.0] * 4)
    assert rng.bit_generator.state == before


def per_group_and_per_row(sizes, owners, deltas, seed):
    """Draw groups of ``sizes`` rows once per group, then once over all rows.

    ``owners[g]`` names group ``g``'s generator; groups with one owner share
    it.  Returns both runs' actions and generator states.
    """
    q, masks = batch(sum(sizes), seed=seed, ties=True)
    bounds = np.cumsum([0, *sizes])
    row_deltas = [deltas[g] for g, size in enumerate(sizes) for _ in range(size)]

    def streams():
        return {owner: np.random.default_rng(seed + owner) for owner in set(owners)}

    grouped = streams()
    per_group = []
    for g, owner in enumerate(owners):
        rows = slice(bounds[g], bounds[g + 1])
        per_group += delta_greedy(q[rows], masks[rows], grouped[owner], row_deltas[rows])
    flat = streams()
    rngs = [flat[owner] for g, owner in enumerate(owners) for _ in range(sizes[g])]
    per_row = delta_greedy(q, masks, rngs, row_deltas)
    states = lambda by_owner: {k: rng.bit_generator.state for k, rng in by_owner.items()}
    return (per_group, states(grouped)), (per_row, states(flat))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "sizes, owners",
    [
        ([1, 1, 1, 1, 1], [0, 1, 2, 3, 4]),  # one query per serving actor
        ([3, 1, 2], [0, 1, 2]),
        ([2, 2, 1], [0, 1, 0]),  # groups 0 and 2 share one generator
        ([1, 1, 1], [5, 5, 5]),  # every group on one generator
    ],
)
def test_per_row_generators_match_per_group_calls(sizes, owners, seed):
    deltas = [0.0, 0.5, 1.0, 0.25, 0.75][: len(sizes)]
    per_group, per_row = per_group_and_per_row(sizes, owners, deltas, seed)
    assert per_row == per_group


def test_single_generator_and_its_per_row_list_agree():
    q, masks = batch(6, seed=2, ties=True)
    one, listed = np.random.default_rng(0), np.random.default_rng(0)
    assert delta_greedy(q, masks, one, [0.5] * 6) == delta_greedy(
        q, masks, [listed] * 6, [0.5] * 6
    )
    assert one.bit_generator.state == listed.bit_generator.state


def test_generator_count_must_match_rows():
    q, masks = batch(3, seed=1)
    with pytest.raises(ValueError, match="3 rows but 2 generators"):
        delta_greedy(q, masks, [np.random.default_rng(0)] * 2)
