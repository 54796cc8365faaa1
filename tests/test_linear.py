"""The packed training pass has the bits of the plain row-by-row pass.

`reference_loss_and_gradient` and `reference_train` are the dict-row pass and
trainer the packed ones replaced, kept here as the oracle. Floats are compared
by `float.hex`, so a sign of zero or a last-place difference fails.
"""

import math
import random

import pytest

from gavel import linear, sum_floats
from gavel.linear import PackedRows, loss_and_gradient, sigmoid, train_binary_logistic


def reference_loss_and_gradient(weights, bias, rows, labels, l2):
    n = len(rows)
    grad_w = [0.0] * len(weights)
    grad_b = 0.0
    loss = 0.0
    for row, y in zip(rows, labels):
        z = bias
        for idx, value in row.items():
            z += weights[idx] * value
        p = sigmoid(z)
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


def reference_train(rows, labels, n_features, learning_rate, epochs, l2):
    weights = [0.0] * n_features
    bias = 0.0
    lr = learning_rate
    loss, grad_w, grad_b = reference_loss_and_gradient(weights, bias, rows, labels, l2)
    trace = [loss]
    for _ in range(epochs):
        stepped = False
        while lr >= 1e-12:
            new_w = [w - lr * g for w, g in zip(weights, grad_w)]
            new_b = bias - lr * grad_b
            new_loss, new_gw, new_gb = reference_loss_and_gradient(new_w, new_b, rows, labels, l2)
            if new_loss <= loss:
                weights, bias = new_w, new_b
                loss, grad_w, grad_b = new_loss, new_gw, new_gb
                stepped = True
                break
            lr /= 2.0
        trace.append(loss)
        if not stepped:
            break
    return (tuple(weights), bias), trace


def _hex(values):
    return [v.hex() for v in values]


N_FEATURES = 9  # column 8 is held by no row
HOSTILE_ROWS = [
    {},  # an empty row: its logit is the bias
    {0: 1.0, 1: 1.0, 2: 1.0},  # all 1.0, in a column order that is not sorted below
    {2: 1.0, 0: 1.0},
    {0: 2.0, 3: 1.0, 1: 0.5},  # a mixed row
    {3: -1.5, 4: 1.0},  # a negative value
    {4: 1, 2: 1.0},  # an int 1 counts as 1.0
    {5: 0.0, 0: 1.0},  # an explicit zero: w * 0.0 is kept
    {6: 40.0},  # p rounds to 1.0 and is clamped to 1 - 1e-15
    {7: -50.0},  # p falls below 1e-15 and is clamped to it
    {1: 1.0, 3: 2.0, 0: -0.25, 4: 1.0},
]
HOSTILE_LABELS = [1, 0, 1, 0, 1, 1, 0, 0, 1, 0]


def _hostile_points():
    rng = random.Random(17)
    yield [0.0] * N_FEATURES, 0.0
    yield [1.0] * N_FEATURES, -0.5  # logits on both sides of 0, both clamps hit
    for _ in range(6):
        yield [rng.uniform(-3.0, 3.0) for _ in range(N_FEATURES)], rng.uniform(-1.0, 1.0)


def test_the_packing_keeps_rows_in_stored_order_and_columns_in_row_order():
    matrix = PackedRows(HOSTILE_ROWS, N_FEATURES)
    assert matrix.row_cols == [tuple(row) for row in HOSTILE_ROWS]
    assert [vals is None for vals in matrix.row_vals] == [True, True, True, False, False, True, False, False, False, False]
    assert matrix.col_rows[0] == (1, 2, 3, 6, 9) and matrix.col_vals[0] == (1.0, 1.0, 2.0, 1.0, -0.25)
    assert matrix.col_rows[2] == (1, 2, 5) and matrix.col_vals[2] is None
    assert matrix.col_rows[8] == () and matrix.col_vals[8] is None


@pytest.mark.parametrize("l2", [0.0, 1e-3])
def test_packed_pass_has_the_bits_of_the_row_by_row_pass(l2):
    matrix = PackedRows(HOSTILE_ROWS, N_FEATURES)
    clamped = set()
    for weights, bias in _hostile_points():
        for row in HOSTILE_ROWS:
            z = bias + sum_floats(weights[j] * v for j, v in row.items())
            p = sigmoid(z)
            clamped.update({"low"} if p < 1e-15 else {"high"} if p > 1.0 - 1e-15 else set())
            clamped.add("z<0" if z < 0 else "z>=0")
        loss, grad_w, grad_b = loss_and_gradient(weights, bias, matrix, HOSTILE_LABELS, l2)
        ref_loss, ref_grad_w, ref_grad_b = reference_loss_and_gradient(weights, bias, HOSTILE_ROWS, HOSTILE_LABELS, l2)
        assert _hex([loss, grad_b, *grad_w]) == _hex([ref_loss, ref_grad_b, *ref_grad_w])
    assert clamped == {"low", "high", "z<0", "z>=0"}  # the points reach every branch


def test_packed_training_has_the_bits_of_the_row_by_row_trainer(monkeypatch):
    passes = []
    loss_pass = linear._loss_and_residuals
    monkeypatch.setattr(linear, "_loss_and_residuals", lambda *args: passes.append(1) or loss_pass(*args))
    rng = random.Random(5)
    rows = [{j: rng.choice((1.0, 1.0, 1.0, 2.0, -0.5)) for j in rng.sample(range(30), rng.randint(0, 8))}
            for _ in range(120)]
    labels = [int(row.get(0, 0.0) + row.get(1, 0.0) >= row.get(2, 0.0) + rng.random()) for row in rows]
    for lr, epochs, l2, halvings in ((0.5, 60, 1e-4, 0), (50.0, 40, 1e-3, 3)):
        passes.clear()
        (weights, bias), trace = train_binary_logistic(PackedRows(rows, 31), labels, lr, epochs, l2)
        (ref_weights, ref_bias), ref_trace = reference_train(rows, labels, 31, lr, epochs, l2)
        assert _hex([bias, *weights]) == _hex([ref_bias, *ref_weights])
        assert _hex(trace) == _hex(ref_trace)
        assert len(passes) == len(trace) + halvings  # a rejected step costs one loss pass
