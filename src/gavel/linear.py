"""Regularized logistic regression over sparse feature rows.

Rows are {feature_index: value} dicts. Training is full-batch gradient
descent from a zero start, so identical inputs give bitwise-identical
weights. Each epoch is guarded by step halving: if a step would raise the
regularized loss, it is retried with half the learning rate, which makes
the per-epoch loss non-increasing by construction. The bias term is not
regularized.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import sum_floats

SparseRow = dict[int, float]


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def predict_proba(weights: Sequence[float], bias: float, row: SparseRow) -> float:
    z = bias
    for idx, value in row.items():
        z += weights[idx] * value
    return sigmoid(z)


def loss_and_gradient(
    weights: Sequence[float],
    bias: float,
    rows: Sequence[SparseRow],
    labels: Sequence[int],
    l2: float,
) -> tuple[float, list[float], float]:
    """Mean log loss plus (l2/2)*||w||^2, with its gradient."""
    n = len(rows)
    grad_w = [0.0] * len(weights)
    grad_b = 0.0
    loss = 0.0
    for row, y in zip(rows, labels):
        p = predict_proba(weights, bias, row)
        # clamp to avoid log(0) on saturated predictions
        p_safe = min(max(p, 1e-15), 1.0 - 1e-15)
        loss += -(y * math.log(p_safe) + (1 - y) * math.log(1.0 - p_safe))
        err = p - y
        for idx, value in row.items():
            grad_w[idx] += err * value
        grad_b += err
    loss /= n
    grad_b /= n
    for i in range(len(grad_w)):
        grad_w[i] = grad_w[i] / n + l2 * weights[i]
    loss += 0.5 * l2 * sum_floats(w * w for w in weights)
    return loss, grad_w, grad_b


def train_binary_logistic(
    rows: Sequence[SparseRow],
    labels: Sequence[int],
    n_features: int,
    learning_rate: float = 0.5,
    epochs: int = 100,
    l2: float = 1e-4,
) -> tuple[tuple[tuple[float, ...], float], list[float]]:
    """Train and return `((weights, bias), trace)`, the trace holding the per-epoch loss.

    The trace starts with the initial loss, so trace[i+1] <= trace[i] holds
    for every accepted epoch.
    """
    if not rows:
        raise ValueError("empty training set")
    if len(rows) != len(labels):
        raise ValueError("rows and labels differ in length")
    present = set(labels)
    if present - {0, 1}:
        raise ValueError("labels must be 0 or 1")
    if len(present) < 2:
        raise ValueError("training set contains a single class")

    weights = [0.0] * n_features
    bias = 0.0
    lr = learning_rate
    loss, grad_w, grad_b = loss_and_gradient(weights, bias, rows, labels, l2)
    if not math.isfinite(loss):
        # a step is kept only when its loss is <= this one, so from a finite
        # start every kept loss, and with it every weight, stays finite
        raise ValueError("initial loss is not finite; the rows hold a non-finite value")
    trace = [loss]
    for _ in range(epochs):
        stepped = False
        while lr >= 1e-12:
            new_w = [w - lr * g for w, g in zip(weights, grad_w)]
            new_b = bias - lr * grad_b
            new_loss, new_gw, new_gb = loss_and_gradient(new_w, new_b, rows, labels, l2)
            if new_loss <= loss:
                weights, bias = new_w, new_b
                loss, grad_w, grad_b = new_loss, new_gw, new_gb
                stepped = True
                break
            lr /= 2.0
        trace.append(loss)
        if not stepped:
            break  # no descent possible at float precision
    return (tuple(weights), bias), trace
