"""``sigmoid`` and the LSTM gate step, byte for byte against their older forms.

The references below are the forms they replaced: a sigmoid that adds
``1 + z`` once per branch, and an LSTM step that applies two ``sigmoid``
calls and a ``tanh`` to column slices of the gate slab.
"""

import numpy as np
import pytest

from repro.nn.activations import sigmoid
from repro.nn.layers import LSTM


def reference_sigmoid(x):
    x = np.asarray(x, dtype=float)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


class ReferenceLSTM(LSTM):
    """An LSTM whose forward runs the three-call gate step."""

    def forward(self, x, training=True):
        x = np.asarray(x, dtype=float)
        batch, steps, _ = x.shape
        hidden = self.hidden_dim
        h = np.zeros((batch, hidden))
        c = np.zeros((batch, hidden))
        gates = np.empty((steps, batch, 4 * hidden))
        cells = np.empty((steps, batch, hidden))
        hiddens = np.empty((steps, batch, hidden))
        Wx, Wh, b = self.params["Wx"], self.params["Wh"], self.params["b"]
        for t in range(steps):
            z = gates[t]
            np.matmul(x[:, t, :], Wx, out=z)
            z += h @ Wh
            z += b
            z[:, : 2 * hidden] = reference_sigmoid(z[:, : 2 * hidden])
            z[:, 2 * hidden : 3 * hidden] = np.tanh(z[:, 2 * hidden : 3 * hidden])
            z[:, 3 * hidden :] = reference_sigmoid(z[:, 3 * hidden :])
            i, f, g, o = (z[:, k * hidden : (k + 1) * hidden] for k in range(4))
            cells[t] = f * c
            cells[t] += i * g
            c = cells[t]
            hiddens[t] = o * np.tanh(c)
            h = hiddens[t]
        self._cache = {"x": x, "gates": gates, "c": cells, "h": hiddens} if training else None
        return h.copy()


def wide_values(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-800.0, 800.0, size=shape)
    x.flat[:6] = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0]
    x.flat[6:40] = rng.normal(scale=4.0, size=34)
    return x


@pytest.mark.parametrize(
    "view",
    [
        lambda x: x,
        lambda x: x[:, ::3],
        lambda x: x.T,
        lambda x: x[1:, 7:50],
        lambda x: x[::2, ::-1],
    ],
)
def test_sigmoid_matches_reference_on_arrays(view):
    x = view(wide_values((16, 96), seed=0))
    out = sigmoid(x)
    expected = reference_sigmoid(x)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("value", [0.0, -0.0, 0.3, -2.5, 40.0, -800.0, np.inf, -np.inf])
def test_sigmoid_matches_reference_on_scalars(value):
    for x in (value, np.float64(value), np.array(value)):
        out = sigmoid(x)
        expected = reference_sigmoid(x)
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert out.tobytes() == expected.tobytes()


def test_sigmoid_leaves_its_input_alone():
    x = wide_values((4, 12), seed=1)
    before = x.copy()
    sigmoid(x)
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("batch", [1, 8, 32])
def test_lstm_forward_and_backward_match_reference(batch):
    layer = LSTM(20, 16, seed=3)
    reference = ReferenceLSTM(20, 16, seed=3)
    rng = np.random.default_rng(batch)
    x = rng.normal(scale=2.0, size=(batch, 6, 20))
    out = layer.forward(x)
    assert out.tobytes() == reference.forward(x).tobytes()
    assert layer._cache["gates"].tobytes() == reference._cache["gates"].tobytes()

    grad = rng.normal(size=out.shape)
    assert layer.backward(grad).tobytes() == reference.backward(grad).tobytes()
    for name in ("Wx", "Wh", "b"):
        assert layer.grads[name].tobytes() == reference.grads[name].tobytes()
