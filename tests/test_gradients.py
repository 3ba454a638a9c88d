"""Finite-difference verification of analytic gradients: the production
gradient against central differences of the oracle loss."""

from __future__ import annotations

import numpy as np
import pytest

from urlsleuth.models.linear import hinge_subgrad, logistic_grad
from urlsleuth.models.neural import MlpClassifier

from oracles import hinge_loss_and_subgrad, logistic_loss_and_grad, mlp_loss_and_gradient

EPS = 1e-6
N_PROBES = 20


def central_difference(loss_fn, params: np.ndarray, indices) -> np.ndarray:
    grads = np.empty(len(indices))
    for j, i in enumerate(indices):
        hi = params.copy()
        lo = params.copy()
        hi[i] += EPS
        lo[i] -= EPS
        grads[j] = (loss_fn(hi) - loss_fn(lo)) / (2 * EPS)
    return grads


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-8)))


@pytest.mark.parametrize("l2", [0.0, 0.3])
def test_logistic_gradient_matches_finite_differences(noisy_data, l2):
    x, y = noisy_data
    rng = np.random.default_rng(2)
    params = rng.normal(scale=0.5, size=x.shape[1] + 1)
    analytic = logistic_grad(params, x, y, l2)
    indices = rng.choice(len(params), size=min(N_PROBES, len(params)), replace=False)
    numeric = central_difference(lambda p: logistic_loss_and_grad(p, x, y, l2)[0], params, indices)
    assert relative_error(analytic[indices], numeric) < 1e-4


def test_hinge_subgradient_matches_where_smooth(noisy_data):
    # The hinge is non-differentiable exactly at margin == 1; at a random
    # float parameter vector no training point sits on the hinge, so the
    # subgradient must agree with finite differences.
    x, y = noisy_data
    rng = np.random.default_rng(3)
    params = rng.normal(scale=0.5, size=x.shape[1] + 1)
    t = 2.0 * y - 1.0
    margins = 1.0 - t * (x @ params[:-1] + params[-1])
    assert np.min(np.abs(margins)) > 1e-4  # nowhere near the kink
    analytic = hinge_subgrad(params, x, y, l2=0.1)
    indices = rng.choice(len(params), size=min(N_PROBES, len(params)), replace=False)
    numeric = central_difference(lambda p: hinge_loss_and_subgrad(p, x, y, 0.1)[0], params, indices)
    assert relative_error(analytic[indices], numeric) < 1e-4


@pytest.mark.parametrize("l2", [0.0, 0.05])
def test_mlp_gradient_matches_finite_differences(noisy_data, l2):
    x, y = noisy_data
    clf = MlpClassifier(hidden_units=4, l2=l2)
    rng = np.random.default_rng(4)
    params = rng.normal(scale=0.4, size=clf.n_params(x.shape[1]))
    analytic = clf.gradient(params, x, y)
    indices = rng.choice(len(params), size=N_PROBES, replace=False)
    numeric = central_difference(lambda p: mlp_loss_and_gradient(clf, p, x, y)[0], params, indices)
    assert relative_error(analytic[indices], numeric) < 1e-4


def test_mlp_init_is_permutation_equivariant_by_construction(noisy_data):
    # W1 starts at zero, so the first backprop step gives every hidden unit
    # a column-symmetric update; randomness lives in b1 and w2 only.
    x, _ = noisy_data
    clf = MlpClassifier(hidden_units=4)
    params = clf.init_params(x.shape[1], np.random.default_rng(0))
    d, h = x.shape[1], 4
    assert np.all(params[: d * h] == 0.0)
    assert np.any(params[d * h :] != 0.0)
