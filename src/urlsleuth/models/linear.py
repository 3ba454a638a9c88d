"""Linear families: logistic regression and a linear SVM, both trained
by full-batch (sub)gradient descent from a zero initialization."""

from __future__ import annotations

import numpy as np

from .base import BinaryClassifier, array_record, check_int, check_real, sigmoid, state_array


def logistic_grad(params: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float) -> np.ndarray:
    """Gradient of the mean log loss plus L2 penalty; params packs
    [weights..., bias].  The bias is not regularized."""
    w, b = params[:-1], params[-1]
    z = X @ w + b
    residual = sigmoid(z) - y
    grad_w = X.T @ residual / len(X) + l2 * w
    grad_b = float(np.mean(residual))
    return np.append(grad_w, grad_b)


def hinge_subgrad(params: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float) -> np.ndarray:
    """One valid subgradient of the mean hinge loss plus L2 penalty."""
    w, b = params[:-1], params[-1]
    t = 2.0 * y - 1.0  # labels in {-1, +1}
    margins = 1.0 - t * (X @ w + b)
    active = margins > 0
    grad_w = -(X[active].T @ t[active]) / len(X) + l2 * w
    grad_b = -float(np.sum(t[active])) / len(X)
    return np.append(grad_w, grad_b)


class _GradientDescentLinear(BinaryClassifier):
    """Common descent loop; subclasses pick the gradient as ``_gradient``."""

    def __init__(self, learning_rate: float = 0.1, n_iters: int = 300, l2: float = 0.0):
        super().__init__()
        self.learning_rate = check_real("learning_rate", learning_rate, 0.0, strict=True)
        self.n_iters = check_int("n_iters", n_iters, 1)
        self.l2 = check_real("l2", l2, 0.0)
        self.weights_: np.ndarray | None = None
        self.bias_: float = 0.0

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        params = np.zeros(X.shape[1] + 1, dtype=np.float64)
        for _ in range(self.n_iters):
            grad = self._gradient(params, X, y, self.l2)
            params = params - self.learning_rate * grad
        self.weights_ = params[:-1]
        self.bias_ = float(params[-1])

    def _score(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(X @ self.weights_ + self.bias_)

    def state_to_dict(self) -> dict:
        bias = array_record(np.float64(self.bias_))
        return {"weights": array_record(self.weights_), "bias": bias}

    def state_from_dict(self, state: dict) -> None:
        self.weights_ = state_array(state, "weights", (self.n_features_,))
        self.bias_ = float(state_array(state, "bias", ()))


class LogisticRegressionGD(_GradientDescentLinear):
    """Logistic regression; the score is the model probability."""

    family = "LR"
    _gradient = staticmethod(logistic_grad)


class LinearSvmSubgradient(_GradientDescentLinear):
    """Hinge-loss linear SVM; the score squashes the margin through a
    logistic, which preserves ranking but is not calibrated."""

    family = "LINEAR_SVM"

    def __init__(self, learning_rate: float = 0.1, n_iters: int = 300, l2: float = 0.01):
        super().__init__(learning_rate=learning_rate, n_iters=n_iters, l2=l2)

    _gradient = staticmethod(hinge_subgrad)
