"""Single-hidden-layer feed-forward network on the logistic loss."""

from __future__ import annotations

import numpy as np

from .base import BinaryClassifier, array_record, check_int, check_real, sigmoid, state_array


class MlpClassifier(BinaryClassifier):
    """One tanh hidden layer, sigmoid output, full-batch gradient descent.

    The input weight matrix starts at zero while the hidden biases and
    output weights are drawn randomly: the random (b1, w2) pairs already
    break hidden-unit symmetry, and a zero W1 keeps training equivariant
    under feature permutation, so column order cannot leak into the
    decision function.

    Parameters are packed flat as [W1 (d*h), b1 (h), w2 (h), b2] so the
    analytic gradient can be checked against finite differences.
    """

    family = "MLP"

    def __init__(
        self,
        hidden_units: int = 16,
        learning_rate: float = 0.5,
        n_iters: int = 200,
        l2: float = 0.0,
        seed: int = 0,
    ):
        super().__init__()
        self.hidden_units = check_int("hidden_units", hidden_units, 1)
        self.learning_rate = check_real("learning_rate", learning_rate, 0.0, strict=True)
        self.n_iters = check_int("n_iters", n_iters, 1)
        self.l2 = check_real("l2", l2, 0.0)
        self.seed = check_int("seed", seed, 0)
        self.params_: np.ndarray | None = None

    def _unpack(self, params: np.ndarray, d: int):
        h = self.hidden_units
        w1 = params[: d * h].reshape(d, h)
        b1 = params[d * h : d * h + h]
        w2 = params[d * h + h : d * h + 2 * h]
        b2 = params[-1]
        return w1, b1, w2, b2

    def n_params(self, d: int) -> int:
        return d * self.hidden_units + 2 * self.hidden_units + 1

    def init_params(self, d: int, rng: np.random.Generator) -> np.ndarray:
        h = self.hidden_units
        params = np.zeros(self.n_params(d), dtype=np.float64)
        params[d * h : d * h + h] = rng.normal(0.0, 0.5, size=h)  # b1
        params[d * h + h : d * h + 2 * h] = rng.normal(0.0, 0.5, size=h)  # w2
        return params

    def gradient(self, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of the mean log loss plus L2 on the weight matrices."""
        d = X.shape[1]
        w1, b1, w2, b2 = self._unpack(params, d)
        a1 = np.tanh(X @ w1 + b1)
        z2 = a1 @ w2 + b2
        delta2 = (sigmoid(z2) - y) / len(X)
        grad_w2 = a1.T @ delta2 + self.l2 * w2
        grad_b2 = float(delta2.sum())
        delta1 = np.outer(delta2, w2) * (1.0 - a1 * a1)
        grad_w1 = X.T @ delta1 + self.l2 * w1
        grad_b1 = delta1.sum(axis=0)
        return np.concatenate([grad_w1.ravel(), grad_b1, grad_w2, [grad_b2]])

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.seed)
        params = self.init_params(X.shape[1], rng)
        yf = y.astype(np.float64)
        for _ in range(self.n_iters):
            grad = self.gradient(params, X, yf)
            params = params - self.learning_rate * grad
        self.params_ = params

    def _score(self, X: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self._unpack(self.params_, X.shape[1])
        return sigmoid(np.tanh(X @ w1 + b1) @ w2 + b2)

    def state_to_dict(self) -> dict:
        return {"params": array_record(self.params_)}

    def state_from_dict(self, state: dict) -> None:
        self.params_ = state_array(state, "params", (self.n_params(self.n_features_),))
