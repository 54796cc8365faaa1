"""Regularized logistic regression over sparse feature rows.

Rows are {feature_index: value} dicts. Training is full-batch gradient
descent from a zero start, so identical inputs give bitwise-identical
weights. Each epoch is guarded by step halving: if a step would raise the
regularized loss, it is retried with half the learning rate, which makes
the per-epoch loss non-increasing by construction. The bias term is not
regularized.

A fit packs its rows once into `PackedRows`: each row's column indices in
the dict's order, for the logits, and each column's row indices in row
order, for the gradient. Values are kept only for a row or column that
holds one other than 1.0. A pass over the packing does the float operations
of the plain row-by-row pass, on the same operands and in the same order,
so it has its bits:
- a logit adds its row's weights (times its values) to the bias in the
  row's stored order, and `w * 1.0 == w` for every float, so a product by
  1.0 can go;
- a gradient component adds its column's residuals (times its values) to
  0.0 in row order, which is the order the row-by-row pass reaches them in;
- with p clamped to [1e-15, 1 - 1e-15] (by comparisons, which pass NaN
  through as `min`/`max` did), both logs of `y * log(p) + (1 - y) * log(1 - p)`
  are finite and negative; for y in {0, 1} one product is a log times 1, the
  log itself, and the other a zero, which adds nothing to it. So the term is
  `log(p)` or `log(1 - p)` bit for bit, and adding its negation to the loss
  is subtracting it.
A trial step needs only its loss; the gradient is taken once per epoch, at
the step kept. `loss_and_gradient` gives both at one point, for gradient
checks.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, Sequence

from . import sum_floats

SparseRow = dict[int, float]

_P_MIN = 1e-15
_P_MAX = 1.0 - 1e-15


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


class PackedRows:
    """Sparse rows of `n_features` columns, packed by row and by column.

    `row_cols[i]` holds row i's column indices in its dict's order and
    `row_vals[i]` their values, or None when every one is 1.0; `col_rows[j]`
    holds the rows that hold column j, ascending, and `col_vals[j]` their
    values, or None when every one is 1.0.
    """

    __slots__ = ("n_features", "row_cols", "row_vals", "col_rows", "col_vals")

    def __init__(self, rows: Iterable[SparseRow], n_features: int):
        self.n_features = n_features
        self.row_cols: list[tuple[int, ...]] = []
        self.row_vals: list[tuple[float, ...] | None] = []
        col_rows: list = [[] for _ in range(n_features)]
        col_vals: list = [[] for _ in range(n_features)]
        for i, row in enumerate(rows):
            cols = tuple(row)
            vals = tuple(row.values())
            self.row_cols.append(cols)
            self.row_vals.append(None if vals.count(1.0) == len(vals) else vals)
            for j, value in zip(cols, vals):
                col_rows[j].append(i)
                col_vals[j].append(value)
        # each list is dropped as its tuple is made, so the two are never all held at once
        for j, (rows_j, vals) in enumerate(zip(col_rows, col_vals)):
            col_rows[j] = tuple(rows_j)
            col_vals[j] = None if vals.count(1.0) == len(vals) else tuple(vals)
        self.col_rows = col_rows
        self.col_vals = col_vals


def _loss_and_residuals(
    weights: Sequence[float], bias: float, matrix: PackedRows, labels: Sequence[int], l2: float
) -> tuple[float, list[float]]:
    """Mean log loss plus (l2/2)*||w||^2, and each row's residual p - y."""
    residuals = []
    loss = 0.0
    for cols, vals, y in zip(matrix.row_cols, matrix.row_vals, labels):
        z = bias
        if vals is None:
            for j in cols:
                z += weights[j]
        else:
            for j, value in zip(cols, vals):
                z += weights[j] * value
        p = sigmoid(z)
        # clamp to avoid log(0) on saturated predictions; NaN passes through
        p_safe = _P_MIN if p < _P_MIN else _P_MAX if p > _P_MAX else p
        loss -= math.log(p_safe) if y else math.log(1.0 - p_safe)
        residuals.append(p - y)
    loss /= len(residuals)
    loss += 0.5 * l2 * sum_floats(map(mul, weights, weights))
    return loss, residuals


def _gradient(
    weights: Sequence[float], matrix: PackedRows, residuals: Sequence[float], l2: float
) -> tuple[list[float], float]:
    """The gradient of `_loss_and_residuals` at `weights`, from its residuals there."""
    n = len(residuals)
    grad_w = []
    for rows, vals, w in zip(matrix.col_rows, matrix.col_vals, weights):
        acc = 0.0
        if vals is None:
            for i in rows:
                acc += residuals[i]
        else:
            for i, value in zip(rows, vals):
                acc += residuals[i] * value
        grad_w.append(acc / n + l2 * w)
    return grad_w, sum_floats(residuals) / n


def loss_and_gradient(
    weights: Sequence[float],
    bias: float,
    matrix: PackedRows,
    labels: Sequence[int],
    l2: float,
) -> tuple[float, list[float], float]:
    """Mean log loss plus (l2/2)*||w||^2, with its gradient."""
    loss, residuals = _loss_and_residuals(weights, bias, matrix, labels, l2)
    return (loss, *_gradient(weights, matrix, residuals, l2))


def train_binary_logistic(
    matrix: PackedRows,
    labels: Sequence[int],
    learning_rate: float = 0.5,
    epochs: int = 100,
    l2: float = 1e-4,
) -> tuple[tuple[tuple[float, ...], float], list[float]]:
    """Train and return `((weights, bias), trace)`, the trace holding the per-epoch loss.

    The trace starts with the initial loss, so trace[i+1] <= trace[i] holds
    for every accepted epoch.
    """
    if not matrix.row_cols:
        raise ValueError("empty training set")
    if len(matrix.row_cols) != len(labels):
        raise ValueError("rows and labels differ in length")
    present = set(labels)
    if present - {0, 1}:
        raise ValueError("labels must be 0 or 1")
    if len(present) < 2:
        raise ValueError("training set contains a single class")

    weights = [0.0] * matrix.n_features
    bias = 0.0
    lr = learning_rate
    loss, residuals = _loss_and_residuals(weights, bias, matrix, labels, l2)
    if not math.isfinite(loss):
        # a step is kept only when its loss is <= this one, so from a finite
        # start every kept loss, and with it every weight, stays finite
        raise ValueError("initial loss is not finite; the rows hold a non-finite value")
    trace = [loss]
    for _ in range(epochs):
        grad_w, grad_b = _gradient(weights, matrix, residuals, l2)
        stepped = False
        while lr >= 1e-12:
            new_w = [w - lr * g for w, g in zip(weights, grad_w)]
            new_b = bias - lr * grad_b
            new_loss, new_residuals = _loss_and_residuals(new_w, new_b, matrix, labels, l2)
            if new_loss <= loss:
                weights, bias, loss, residuals = new_w, new_b, new_loss, new_residuals
                stepped = True
                break
            lr /= 2.0
        trace.append(loss)
        if not stepped:
            break  # no descent possible at float precision
    return (tuple(weights), bias), trace
