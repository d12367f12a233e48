"""A leading group axis on the Q-network forward, byte for byte.

``predict`` over ``(groups, batch, window, n_cells)`` states must give, for
every group ``g``, exactly the bytes of ``predict(states[g])``: the decision
server answers several serving actors with one grouped forward and promises
each the Q-values of its own call.  ``np.matmul`` broadcasts the weights
over the group axis and runs the per-slice product, so this holds; folding
the groups into one ``(groups·batch, …)`` batch does not: a one-row group
alone is a matrix-vector product, folded it is a row of a matrix-matrix
product, and the two round differently
(:func:`test_folded_rows_are_not_byte_equal`).
"""

import numpy as np
import pytest

from repro.nn.layers import LSTM, Dense
from repro.nn.network import FeedForwardQNetwork, RecurrentQNetwork

N_CELLS = 20
GROUPS = range(1, 17)
BATCHES = range(1, 9)
WINDOWS = range(1, 5)


def network(kind, window):
    if kind == "recurrent":
        return RecurrentQNetwork(N_CELLS, window, lstm_hidden=32, dense_hidden=(32,), seed=3)
    return FeedForwardQNetwork(N_CELLS, window, hidden_dims=(64, 64), seed=3)


@pytest.mark.parametrize("kind", ["recurrent", "feedforward"])
@pytest.mark.parametrize("window", WINDOWS)
def test_grouped_predict_equals_per_group_predict(kind, window):
    net = network(kind, window)
    rng = np.random.default_rng(window)
    for groups in GROUPS:
        for batch in BATCHES:
            states = rng.random((groups, batch, window, N_CELLS))
            grouped = net.predict(states)
            assert grouped.shape == (groups, batch, N_CELLS)
            for g in range(groups):
                assert grouped[g].tobytes() == net.predict(states[g]).tobytes(), (
                    groups,
                    batch,
                    g,
                )


@pytest.mark.parametrize("kind", ["recurrent", "feedforward"])
def test_folded_rows_are_not_byte_equal(kind):
    # The contrast the grouped axis exists for: eight one-row groups (one
    # query per serving actor) folded into one 2-D batch move the last bits
    # of their Q-values.
    net = network(kind, 2)
    states = np.random.default_rng(0).random((8, 1, 2, N_CELLS))
    folded = net.predict(states.reshape(8, 2, N_CELLS)).reshape(8, 1, N_CELLS)
    per_group = np.stack([net.predict(group) for group in states])
    assert folded.tobytes() != per_group.tobytes()
    np.testing.assert_allclose(folded, per_group, rtol=1e-12, atol=1e-12)


def test_lstm_return_sequences_takes_a_group_axis():
    layer = LSTM(5, 7, return_sequences=True, seed=0)
    x = np.random.default_rng(1).random((3, 2, 4, 5))
    out = layer.forward(x, training=False)
    assert out.shape == (3, 2, 4, 7)
    for g in range(3):
        assert out[g].tobytes() == layer.forward(x[g], training=False).tobytes()


@pytest.mark.parametrize("kind", ["recurrent", "feedforward"])
def test_training_forward_with_a_group_axis_raises(kind):
    net = network(kind, 2)
    states = np.random.default_rng(0).random((2, 3, 2, N_CELLS))
    with pytest.raises(ValueError, match="inference-only"):
        net.model.forward(net._prepare_states(states), training=True)
    with pytest.raises(ValueError, match="inference-only"):
        net.train_step(states, np.zeros(6, dtype=int), np.zeros(6))


def test_layers_refuse_a_training_group_axis():
    with pytest.raises(ValueError, match="inference-only"):
        Dense(3, 2, seed=0).forward(np.ones((2, 4, 3)), training=True)
    with pytest.raises(ValueError, match="inference-only"):
        LSTM(3, 2, seed=0).forward(np.ones((2, 4, 5, 3)), training=True)


@pytest.mark.parametrize("shape", [(2, 3, 2, N_CELLS + 1), (2, 3, 3, N_CELLS), (1, 2, 3, 2, N_CELLS)])
def test_grouped_states_are_checked(shape):
    with pytest.raises(ValueError):
        network("recurrent", 2).predict(np.zeros(shape))
