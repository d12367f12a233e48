"""Network containers: a generic :class:`Sequential` and Q-network variants.

Two Q-network architectures are provided, matching the paper's discussion in
§4.3:

* :class:`FeedForwardQNetwork` — dense layers over the flattened state
  window (the "common way" the paper contrasts against), used as the
  ablation baseline.
* :class:`RecurrentQNetwork` — an LSTM over the window of recent cell
  selection vectors followed by dense layers, i.e. the DRQN the paper
  proposes to capture temporal correlations.

Both expose the same training API so that the DQN agent is agnostic to the
architecture.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence as TypingSequence

import numpy as np

from repro.nn.layers import Dense, Layer, LSTM
from repro.nn.losses import Loss, get_loss
from repro.nn.optimizers import Optimizer, get_optimizer
from repro.utils.seeding import RngLike, derive_rng
from repro.utils.validation import check_positive_int


class Sequential:
    """A simple ordered container of layers with joint forward/backward passes."""

    def __init__(self, layers: TypingSequence[Layer]) -> None:
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers: List[Layer] = list(layers)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def parameter_groups(self):
        """Yield ``(params, grads)`` pairs for the optimizer."""
        for layer in self.layers:
            if layer.params:
                yield layer.params, layer.grads

    @property
    def parameter_count(self) -> int:
        return int(sum(layer.parameter_count for layer in self.layers))

    def get_weights(self) -> List[Dict[str, np.ndarray]]:
        """Return a deep copy of every layer's parameters, in layer order."""
        return [
            {name: value.copy() for name, value in layer.params.items()}
            for layer in self.layers
        ]

    def set_weights(self, weights: List[Dict[str, np.ndarray]]) -> None:
        """Load parameters previously produced by :meth:`get_weights`."""
        if len(weights) != len(self.layers):
            raise ValueError(
                f"expected weights for {len(self.layers)} layers, got {len(weights)}"
            )
        for layer, layer_weights in zip(self.layers, weights):
            if set(layer_weights) != set(layer.params):
                raise ValueError(
                    f"parameter names {sorted(layer_weights)} do not match layer "
                    f"parameters {sorted(layer.params)}"
                )
            for name, value in layer_weights.items():
                value = np.asarray(value, dtype=float)
                if value.shape != layer.params[name].shape:
                    raise ValueError(
                        f"shape mismatch for parameter {name!r}: "
                        f"{value.shape} vs {layer.params[name].shape}"
                    )
                layer.params[name] = value.copy()

    def __call__(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self.forward(x, training=training)


class QNetworkBase:
    """Shared machinery for Q-networks: prediction, masked TD training, cloning."""

    def __init__(
        self,
        model: Sequential,
        n_actions: int,
        *,
        optimizer: str | Optimizer = "adam",
        learning_rate: float = 1e-3,
        loss: str | Loss = "huber",
        clip_norm: Optional[float] = 5.0,
    ) -> None:
        self.model = model
        self.n_actions = check_positive_int(n_actions, "n_actions")
        if isinstance(optimizer, Optimizer):
            self.optimizer = optimizer
        else:
            self.optimizer = get_optimizer(
                optimizer, learning_rate=learning_rate, clip_norm=clip_norm
            )
        self.loss = get_loss(loss)
        self._grad_scratch: Optional[np.ndarray] = None

    @property
    def state_shape(self) -> tuple:
        """The ``(window, n_cells)`` shape of one state (subclasses set both)."""
        return (self.window, self.n_cells)

    # -- inference ---------------------------------------------------------

    def predict(self, states: np.ndarray) -> np.ndarray:
        """Return Q-values of shape ``(batch, n_actions)`` without caching gradients.

        Grouped states ``(groups, batch, window, n_cells)`` give Q-values
        ``(groups, batch, n_actions)`` from one forward with the weights
        broadcast over the group axis; group ``g`` equals
        ``predict(states[g])`` byte for byte.  Rows folded into one
        ``(groups·batch, …)`` batch need not: a one-row group alone runs a
        matrix-vector product, folded a matrix-matrix one, and the two can
        round differently in the last bit.
        """
        batch = self._prepare_states(states)
        return self.model.forward(batch, training=False)

    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Return the Q-value vector for a single state."""
        return self.predict(np.asarray(state)[None, ...])[0]

    # -- training ----------------------------------------------------------

    def train_step(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
    ) -> float:
        """Run one gradient step on the TD targets for the taken actions.

        Parameters
        ----------
        states:
            Batch of states in the network's native layout.
        actions:
            Integer action indices, one per sample.
        targets:
            TD targets ``r + γ·max_a' Q_target(s', a')`` (or just ``r`` for
            terminal transitions), one per sample.

        Returns
        -------
        float
            The masked loss value before the update.
        """
        batch = self._prepare_states(states)
        actions = np.asarray(actions, dtype=int)
        targets = np.asarray(targets, dtype=float)
        if actions.ndim != 1 or targets.ndim != 1 or len(actions) != len(targets):
            raise ValueError("actions and targets must be 1-D arrays of equal length")
        if np.any(actions < 0) or np.any(actions >= self.n_actions):
            raise ValueError("action index out of range")

        self.model.zero_grads()
        predictions = self.model.forward(batch, training=True)
        if predictions.shape[0] != len(actions):
            raise ValueError("batch size mismatch between states and actions")

        target_matrix = predictions.copy()
        mask = np.zeros_like(predictions)
        rows = np.arange(len(actions))
        target_matrix[rows, actions] = targets
        mask[rows, actions] = 1.0

        loss_value = self.loss.value(predictions, target_matrix, weights=mask)
        grad = self.loss.gradient(predictions, target_matrix, weights=mask)
        self.model.backward(grad)
        self.optimizer.step(self.model.parameter_groups())
        return loss_value

    def train_on_batch(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        dones: np.ndarray,
        *,
        target_network: Optional["QNetworkBase"] = None,
        discount: float = 0.95,
    ) -> float:
        """Fused TD pipeline: targets, masked loss and the update in one pass.

        Computes the TD targets ``r + γ·max_a' Q_target(s', a')`` with a
        single target-network forward, then runs the masked gradient step
        directly on the selected ``(row, action)`` entries — no full
        ``(batch, n_actions)`` target-matrix copy and no dense weight mask.
        The resulting parameter update is identical to
        ``train_step(states, actions, targets)``; only the scalar loss is
        reduced over the selected entries instead of the padded matrix.

        The pipeline is batch-size agnostic: callers may hand it anything
        from a lone transition to the fused global-step minibatch (the K
        lockstep transitions of one vectorized step plus random replay
        fill), whose size varies as environments finish.  The dense output
        gradient lives in a scratch buffer reused across calls of the same
        batch size, so steady-state fused training allocates no
        ``(batch, n_actions)`` arrays for the backward seed.

        Parameters
        ----------
        states, actions, rewards, next_states, dones:
            A replay minibatch in array form (see
            :meth:`~repro.rl.replay.ArrayReplayBuffer.sample_arrays`).
        target_network:
            Network evaluated on ``next_states`` (defaults to ``self``).
        discount:
            γ used in the TD target.
        """
        target_network = target_network or self
        actions = np.asarray(actions, dtype=int)
        rewards = np.asarray(rewards, dtype=float)
        dones = np.asarray(dones, dtype=bool)
        if actions.ndim != 1 or rewards.shape != actions.shape or dones.shape != actions.shape:
            raise ValueError("actions, rewards and dones must be 1-D arrays of equal length")
        if np.any(actions < 0) or np.any(actions >= self.n_actions):
            raise ValueError("action index out of range")

        next_q = target_network.predict(next_states)
        max_next = next_q.max(axis=1)
        targets = rewards + discount * max_next * (~dones)

        batch = self._prepare_states(states)
        self.model.zero_grads()
        predictions = self.model.forward(batch, training=True)
        if predictions.shape[0] != len(actions):
            raise ValueError("batch size mismatch between states and actions")

        rows = np.arange(len(actions))
        selected = predictions[rows, actions]
        loss_value = self.loss.value(selected, targets)
        grad = self._grad_scratch
        if grad is None or grad.shape != predictions.shape:
            grad = self._grad_scratch = np.zeros(predictions.shape, dtype=predictions.dtype)
        else:
            grad.fill(0.0)
        grad[rows, actions] = self.loss.gradient(selected, targets)
        self.model.backward(grad)
        self.optimizer.step(self.model.parameter_groups())
        return loss_value

    # -- weights -----------------------------------------------------------

    def get_weights(self) -> List[Dict[str, np.ndarray]]:
        return self.model.get_weights()

    def set_weights(self, weights: List[Dict[str, np.ndarray]]) -> None:
        self.model.set_weights(weights)

    def copy_weights_from(self, other: "QNetworkBase") -> None:
        """Copy another network's weights into this one (used for fixed Q-targets)."""
        self.set_weights(other.get_weights())

    def clone(self, *, with_optimizer: bool = False) -> "QNetworkBase":
        """Return a deep copy of this network.

        By default the clone's optimizer state (Adam moments, iteration
        counter) is reset: target networks never take gradient steps, so
        carrying the online network's dead moments around is pure waste.
        Pass ``with_optimizer=True`` to preserve the optimizer state, e.g.
        when forking a network to continue training it.
        """
        clone = copy.deepcopy(self)
        if not with_optimizer:
            clone.optimizer.reset()
        return clone

    # -- hooks -------------------------------------------------------------

    def _prepare_states(self, states: np.ndarray) -> np.ndarray:
        """Convert a batch of environment states into the network input layout."""
        raise NotImplementedError

    def _check_states(self, states: np.ndarray) -> np.ndarray:
        """``states`` as a float ``([groups,] batch, window, n_cells)`` array.

        A single ``(window, n_cells)`` state becomes a batch of one.
        """
        states = np.asarray(states, dtype=float)
        if states.ndim == 2:
            states = states[None, ...]
        if states.ndim not in (3, 4):
            raise ValueError(
                "expected states of shape ([groups,] batch, window, n_cells), "
                f"got {states.shape}"
            )
        if states.shape[-2:] != (self.window, self.n_cells):
            raise ValueError(
                f"state window/cells {states.shape[-2:]} do not match network "
                f"({self.window}, {self.n_cells})"
            )
        return states


class FeedForwardQNetwork(QNetworkBase):
    """Dense Q-network over the flattened state window (DQN ablation baseline).

    Parameters
    ----------
    n_cells:
        Number of cells in the sensing area; the action space size.
    window:
        Number of recent cycles in the state.
    hidden_dims:
        Sizes of the hidden dense layers (ReLU).
    """

    def __init__(
        self,
        n_cells: int,
        window: int,
        hidden_dims: TypingSequence[int] = (64, 64),
        *,
        optimizer: str | Optimizer = "adam",
        learning_rate: float = 1e-3,
        loss: str | Loss = "huber",
        clip_norm: Optional[float] = 5.0,
        seed: RngLike = None,
    ) -> None:
        self.n_cells = check_positive_int(n_cells, "n_cells")
        self.window = check_positive_int(window, "window")
        input_dim = self.n_cells * self.window
        layers: List[Layer] = []
        previous = input_dim
        for index, width in enumerate(hidden_dims):
            layers.append(
                Dense(
                    previous,
                    check_positive_int(width, "hidden width"),
                    activation="relu",
                    weight_init="he_uniform",
                    seed=derive_rng(seed, index),
                )
            )
            previous = width
        layers.append(
            Dense(previous, self.n_cells, activation="identity", seed=derive_rng(seed, 97))
        )
        super().__init__(
            Sequential(layers),
            n_actions=self.n_cells,
            optimizer=optimizer,
            learning_rate=learning_rate,
            loss=loss,
            clip_norm=clip_norm,
        )

    def _prepare_states(self, states: np.ndarray) -> np.ndarray:
        states = self._check_states(states)
        return states.reshape(states.shape[:-2] + (self.window * self.n_cells,))


class RecurrentQNetwork(QNetworkBase):
    """The paper's DRQN: LSTM over the recent-cycle window, dense head to per-cell Q-values.

    The state ``S = [s_{-k+1}, …, s_0]`` is fed as a length-``k`` sequence of
    cell-selection vectors; the LSTM's final hidden state summarises the
    spatio-temporal collection history and a dense head maps it to one
    Q-value per cell (action).
    """

    def __init__(
        self,
        n_cells: int,
        window: int,
        lstm_hidden: int = 64,
        dense_hidden: TypingSequence[int] = (64,),
        *,
        optimizer: str | Optimizer = "adam",
        learning_rate: float = 1e-3,
        loss: str | Loss = "huber",
        clip_norm: Optional[float] = 5.0,
        seed: RngLike = None,
    ) -> None:
        self.n_cells = check_positive_int(n_cells, "n_cells")
        self.window = check_positive_int(window, "window")
        self.lstm_hidden = check_positive_int(lstm_hidden, "lstm_hidden")
        layers: List[Layer] = [
            LSTM(self.n_cells, self.lstm_hidden, seed=derive_rng(seed, 0))
        ]
        previous = self.lstm_hidden
        for index, width in enumerate(dense_hidden):
            layers.append(
                Dense(
                    previous,
                    check_positive_int(width, "dense width"),
                    activation="relu",
                    weight_init="he_uniform",
                    seed=derive_rng(seed, index + 1),
                )
            )
            previous = width
        layers.append(
            Dense(previous, self.n_cells, activation="identity", seed=derive_rng(seed, 97))
        )
        super().__init__(
            Sequential(layers),
            n_actions=self.n_cells,
            optimizer=optimizer,
            learning_rate=learning_rate,
            loss=loss,
            clip_norm=clip_norm,
        )

    def _prepare_states(self, states: np.ndarray) -> np.ndarray:
        return self._check_states(states)
