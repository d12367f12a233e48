"""Activation functions with forward and derivative evaluation.

Activations are stateless; both the value and the derivative are computed
from the pre-activation input so that layers can cache a single array.
"""

from __future__ import annotations

from typing import Dict, Type

import numpy as np


class Activation:
    """Base class for elementwise activations."""

    name = "identity"

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Return the activation applied elementwise to ``x``."""
        raise NotImplementedError

    def derivative(self, x: np.ndarray) -> np.ndarray:
        """Return d(activation)/dx evaluated elementwise at ``x``."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Identity(Activation):
    """The identity activation; used for Q-value output heads."""

    name = "identity"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(x, dtype=float))


class ReLU(Activation):
    """Rectified linear unit."""

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x) > 0.0).astype(float)


class Sigmoid(Activation):
    """Logistic sigmoid, numerically stabilised for large |x|."""

    name = "sigmoid"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(x)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        s = sigmoid(x)
        return s * (1.0 - s)


class Tanh(Activation):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        t = np.tanh(x)
        return 1.0 - t * t


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid used by both the activation and the LSTM.

    A single ``z = exp(-|x|)`` and a single ``d = 1 + z`` feed both the
    positive branch ``1/d`` and the negative branch ``z/d``; ``where``
    selects per element.  This is element-for-element identical to the
    classic two-branch form and never overflows.  The intermediates are
    computed in place in two fresh buffers, so scalar and 0-d input work too
    (a 0-d result is a 0-d array).
    """
    x = np.asarray(x, dtype=float)
    z = np.abs(x, out=np.empty_like(x))
    np.negative(z, out=z)
    np.exp(z, out=z)
    d = np.add(z, 1.0, out=np.empty_like(x))
    np.divide(z, d, out=z)
    np.divide(1.0, d, out=d)
    return np.where(x >= 0, d, z)


_REGISTRY: Dict[str, Type[Activation]] = {
    "identity": Identity,
    "linear": Identity,
    "relu": ReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
}


def get_activation(name_or_instance) -> Activation:
    """Return an :class:`Activation` instance for a name or pass through an instance."""
    if isinstance(name_or_instance, Activation):
        return name_or_instance
    try:
        return _REGISTRY[str(name_or_instance).lower()]()
    except KeyError:
        raise ValueError(
            f"unknown activation {name_or_instance!r}; available: {sorted(_REGISTRY)}"
        ) from None
