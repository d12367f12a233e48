"""Neural-network layers with hand-written backpropagation.

The layers follow a small, uniform protocol:

* ``params`` / ``grads`` — dictionaries of parameter name to array; the
  optimizer updates ``params`` in place using ``grads``.
* ``forward(x, training)`` — computes the output and caches whatever the
  backward pass needs.
* ``backward(grad_output)`` — consumes the upstream gradient, fills
  ``grads`` and returns the gradient with respect to the layer input.

Only the pieces DR-Cell needs are implemented: :class:`Dense`,
:class:`Dropout` and a sequence-consuming :class:`LSTM` (the recurrent layer
the paper uses to capture temporal correlations in the state).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.activations import Activation, get_activation, sigmoid
from repro.nn.initializers import get_initializer
from repro.utils.seeding import RngLike, as_rng
from repro.utils.validation import check_positive_int, check_probability


class Layer:
    """Base class for all layers."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Compute the layer output for a batch ``x``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` and return the input gradient."""
        raise NotImplementedError

    def zero_grads(self) -> None:
        """Reset accumulated gradients to zero.

        Existing gradient buffers are zeroed in place (no reallocation on the
        training hot path); buffers are only (re)allocated when a parameter
        appears or changes shape.
        """
        for name, value in self.params.items():
            grad = self.grads.get(name)
            if grad is not None and grad.shape == value.shape:
                grad.fill(0.0)
            else:
                self.grads[name] = np.zeros_like(value)

    def _grad_buffer(self, name: str, *, zero: bool = False) -> np.ndarray:
        """Return the reusable gradient buffer for parameter ``name``.

        ``backward`` implementations write into these buffers instead of
        allocating fresh arrays every step.  ``zero=True`` clears the buffer
        for accumulation-style backward passes.
        """
        param = self.params[name]
        grad = self.grads.get(name)
        if grad is None or grad.shape != param.shape:
            grad = self.grads[name] = np.zeros_like(param)
            return grad
        if zero:
            grad.fill(0.0)
        return grad

    @property
    def parameter_count(self) -> int:
        """Total number of scalar parameters in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def __call__(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self.forward(x, training=training)


class Dense(Layer):
    """Fully connected layer: ``y = activation(x @ W + b)``.

    Parameters
    ----------
    input_dim, output_dim:
        Layer fan-in and fan-out.
    activation:
        Activation name or instance; defaults to identity (linear).
    weight_init:
        Initializer name for the weight matrix (``glorot_uniform`` by
        default, ``he_uniform`` recommended for ReLU).
    seed:
        Seed or generator used to draw the initial weights.
    """

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        activation: str | Activation = "identity",
        *,
        weight_init: str = "glorot_uniform",
        seed: RngLike = None,
    ) -> None:
        super().__init__()
        self.input_dim = check_positive_int(input_dim, "input_dim")
        self.output_dim = check_positive_int(output_dim, "output_dim")
        self.activation = get_activation(activation)
        rng = as_rng(seed)
        init = get_initializer(weight_init)
        self.params = {
            "W": init((self.input_dim, self.output_dim), rng),
            "b": np.zeros(self.output_dim, dtype=float),
        }
        self.zero_grads()
        self._cache_x: Optional[np.ndarray] = None
        self._cache_pre: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """``(batch, in)`` gives ``(batch, out)``; ``(groups, batch, in)`` gives
        ``(groups, batch, out)``, inference only.

        A leading group axis broadcasts the weights: ``np.matmul`` runs the
        same per-slice product as ``forward(x[g])``, so each group's output
        equals that call byte for byte.  Folding the groups into one
        ``(groups·batch, in)`` batch is a different product (a one-row
        group alone is a matrix-vector product, folded it is a row of a
        matrix-matrix one), which can round differently in the last bit.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim == 3 and training:
            raise ValueError("a grouped Dense forward is inference-only (training=False)")
        if x.ndim not in (2, 3) or x.shape[-1] != self.input_dim:
            raise ValueError(
                f"Dense expected input dim {self.input_dim}, got shape {x.shape}"
            )
        pre = x @ self.params["W"] + self.params["b"]
        if training:
            self._cache_x = x
            self._cache_pre = pre
        return self.activation.forward(pre)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_x is None or self._cache_pre is None:
            raise RuntimeError("backward called before forward (or forward ran with training=False)")
        grad_output = np.asarray(grad_output, dtype=float)
        if grad_output.ndim == 1:
            grad_output = grad_output[None, :]
        grad_pre = grad_output * self.activation.derivative(self._cache_pre)
        np.matmul(self._cache_x.T, grad_pre, out=self._grad_buffer("W"))
        np.sum(grad_pre, axis=0, out=self._grad_buffer("b"))
        return grad_pre @ self.params["W"].T


class Dropout(Layer):
    """Inverted dropout; active only when ``training=True``."""

    def __init__(self, rate: float, *, seed: RngLike = None) -> None:
        super().__init__()
        self.rate = check_probability(rate, "rate")
        if self.rate >= 1.0:
            raise ValueError("dropout rate must be < 1")
        self._rng = as_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep).astype(float) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=float)
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class LSTM(Layer):
    """Long Short-Term Memory layer consuming a ``(batch, time, features)`` sequence.

    The gate parameters are stored stacked as ``Wx`` (input_dim × 4·hidden),
    ``Wh`` (hidden × 4·hidden) and ``b`` (4·hidden) with gate order
    input / forget / candidate / output.  The forget-gate bias is initialised
    to 1, the standard trick that keeps gradients flowing early in training.

    Parameters
    ----------
    input_dim:
        Number of features per timestep (for DR-Cell this equals the number
        of cells: each timestep is one cycle's cell-selection vector).
    hidden_dim:
        Size of the LSTM hidden state.
    return_sequences:
        When True the layer outputs the full hidden sequence
        ``(batch, time, hidden)``; when False (default) only the last hidden
        state ``(batch, hidden)`` — the form the DRQN head consumes.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        *,
        return_sequences: bool = False,
        weight_init: str = "glorot_uniform",
        recurrent_init: str = "orthogonal",
        forget_bias: float = 1.0,
        seed: RngLike = None,
    ) -> None:
        super().__init__()
        self.input_dim = check_positive_int(input_dim, "input_dim")
        self.hidden_dim = check_positive_int(hidden_dim, "hidden_dim")
        self.return_sequences = bool(return_sequences)
        rng = as_rng(seed)
        w_init = get_initializer(weight_init)
        r_init = get_initializer(recurrent_init)
        hidden4 = 4 * self.hidden_dim
        bias = np.zeros(hidden4, dtype=float)
        bias[self.hidden_dim : 2 * self.hidden_dim] = float(forget_bias)
        self.params = {
            "Wx": w_init((self.input_dim, hidden4), rng),
            "Wh": np.concatenate(
                [r_init((self.hidden_dim, self.hidden_dim), rng) for _ in range(4)], axis=1
            ),
            "b": bias,
        }
        self.zero_grads()
        self._cache: Optional[dict] = None

    # -- forward -----------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """``(batch, time, in)`` gives ``(batch, hidden)`` (or the sequence).

        A leading group axis, ``(groups, batch, time, in)``, is accepted for
        inference only: every product is a per-slice ``np.matmul`` and every
        activation elementwise, so each group's output equals
        ``forward(x[g])`` byte for byte (see :meth:`Dense.forward`).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            # Interpret a single sequence as batch size one.
            x = x[None, :, :]
        if x.ndim == 4 and training:
            raise ValueError("a grouped LSTM forward is inference-only (training=False)")
        if x.ndim not in (3, 4) or x.shape[-1] != self.input_dim:
            raise ValueError(
                "LSTM expects input of shape ([groups,] batch, time, "
                f"{self.input_dim}), got {x.shape}"
            )
        lead, steps = x.shape[:-2], x.shape[-2]
        hidden = self.hidden_dim
        h = np.zeros(lead + (hidden,), dtype=float)
        c = np.zeros(lead + (hidden,), dtype=float)

        # All four gates of every timestep live in one
        # (steps, [groups,] batch, 4H) slab; per-step activations are applied to the whole slab instead
        # of four separate temporaries.
        gates = np.empty((steps,) + lead + (4 * hidden,), dtype=float)
        cells = np.empty((steps,) + lead + (hidden,), dtype=float)
        hiddens = np.empty((steps,) + lead + (hidden,), dtype=float)
        scratch = np.empty(lead + (4 * hidden,), dtype=float)
        scratch_h = np.empty(lead + (hidden,), dtype=float)

        Wx, Wh, b = self.params["Wx"], self.params["Wh"], self.params["b"]
        for t in range(steps):
            z = gates[t]
            np.matmul(x[..., t, :], Wx, out=z)
            np.matmul(h, Wh, out=scratch)
            z += scratch
            z += b
            # One sigmoid over the whole slab; the candidate slice keeps
            # its tanh, taken first and written back.
            np.tanh(z[..., 2 * hidden : 3 * hidden], out=scratch_h)
            z[...] = sigmoid(z)
            z[..., 2 * hidden : 3 * hidden] = scratch_h
            i = z[..., :hidden]
            f = z[..., hidden : 2 * hidden]
            g = z[..., 2 * hidden : 3 * hidden]
            o = z[..., 3 * hidden :]
            np.multiply(f, c, out=cells[t])
            np.multiply(i, g, out=scratch_h)
            cells[t] += scratch_h
            c = cells[t]
            np.tanh(c, out=scratch_h)
            np.multiply(o, scratch_h, out=hiddens[t])
            h = hiddens[t]

        if training:
            self._cache = {"x": x, "gates": gates, "c": cells, "h": hiddens}
        else:
            self._cache = None

        if self.return_sequences:
            return np.moveaxis(hiddens, 0, -2).copy()
        return h.copy()

    # -- backward ----------------------------------------------------------

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (or forward ran with training=False)")
        cache = self._cache
        x = cache["x"]
        batch, steps, _ = x.shape
        hidden = self.hidden_dim

        grad_output = np.asarray(grad_output, dtype=float)
        if self.return_sequences:
            if grad_output.shape != (batch, steps, hidden):
                raise ValueError(
                    f"grad_output shape {grad_output.shape} does not match output "
                    f"shape {(batch, steps, hidden)}"
                )
            grad_h_seq = grad_output.transpose(1, 0, 2)
        else:
            if grad_output.ndim == 1:
                grad_output = grad_output[None, :]
            if grad_output.shape != (batch, hidden):
                raise ValueError(
                    f"grad_output shape {grad_output.shape} does not match output "
                    f"shape {(batch, hidden)}"
                )
            grad_h_seq = np.zeros((steps, batch, hidden), dtype=float)
            grad_h_seq[-1] = grad_output

        Wx, Wh = self.params["Wx"], self.params["Wh"]
        grad_Wx = self._grad_buffer("Wx", zero=True)
        grad_Wh = self._grad_buffer("Wh", zero=True)
        grad_b = self._grad_buffer("b", zero=True)
        grad_x = np.zeros_like(x)

        grad_h_next = np.zeros((batch, hidden), dtype=float)
        grad_c_next = np.zeros((batch, hidden), dtype=float)

        gates = cache["gates"]
        cells = cache["c"]
        hiddens = cache["h"]
        zeros_bh = np.zeros((batch, hidden), dtype=float)
        # Pre-activation gradients for all four gates of one timestep are
        # assembled in a single reused (batch, 4H) buffer.
        dz = np.empty((batch, 4 * hidden), dtype=float)

        for t in reversed(range(steps)):
            grad_h = grad_h_seq[t] + grad_h_next
            gate = gates[t]
            i = gate[:, :hidden]
            f = gate[:, hidden : 2 * hidden]
            g = gate[:, 2 * hidden : 3 * hidden]
            o = gate[:, 3 * hidden :]
            c = cells[t]
            c_prev = cells[t - 1] if t > 0 else zeros_bh
            h_prev = hiddens[t - 1] if t > 0 else zeros_bh
            tanh_c = np.tanh(c)

            grad_o = grad_h * tanh_c
            grad_c = grad_h * o * (1.0 - tanh_c * tanh_c) + grad_c_next
            grad_f = grad_c * c_prev
            grad_i = grad_c * g
            grad_g = grad_c * i
            grad_c_next = grad_c * f

            dz[:, :hidden] = grad_i * i * (1.0 - i)
            dz[:, hidden : 2 * hidden] = grad_f * f * (1.0 - f)
            dz[:, 2 * hidden : 3 * hidden] = grad_g * (1.0 - g * g)
            dz[:, 3 * hidden :] = grad_o * o * (1.0 - o)

            grad_Wx += x[:, t, :].T @ dz
            grad_Wh += h_prev.T @ dz
            grad_b += dz.sum(axis=0)
            grad_x[:, t, :] = dz @ Wx.T
            grad_h_next = dz @ Wh.T

        return grad_x

    def initial_state(self, batch: int = 1) -> Tuple[np.ndarray, np.ndarray]:
        """Return zero (hidden, cell) states for a batch of ``batch`` sequences."""
        shape = (batch, self.hidden_dim)
        return np.zeros(shape, dtype=float), np.zeros(shape, dtype=float)
