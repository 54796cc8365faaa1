"""Random forest classifier grown on Gini-impurity splits.

Each tree sees a bootstrap resample and, at every split, a random feature
subset (sqrt of the feature count by default). Candidate thresholds are
midpoints between consecutive distinct values; the best split minimizes the
weighted child Gini, with ties going to the first candidate in (feature,
threshold) order so training is deterministic. Per-tree seeds derive from
the root seed through a splitmix-style mixer.

Training takes feature columns; each column's distinct values are ranked
once per `train_forest` call, so a node tallies its rows per (value, class)
and scans only the distinct values it holds, never re-sorting rows. Feature
values must be finite. Prediction takes one row at a time.

Leaves store class-count distributions. Forest prediction averages the
normalized leaf distributions and takes the argmax, breaking ties by class
order, so the returned label is always consistent with the probabilities.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from . import sum_floats
from .corpus import write_lines

FOREST_FORMAT_VERSION = 1

_M64 = (1 << 64) - 1


def derive_seed(root_seed: int, index: int) -> int:
    """Splitmix-style stream split: independent child seed per index."""
    z = (root_seed + (index + 1) * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ForestHyper:
    n_estimators: int = 50
    max_depth: Optional[int] = None
    min_samples_split: int = 2
    max_features: Optional[int] = None  # None = round(sqrt(d)), at least 1
    seed: int = 0

    def resolved_max_features(self, n_features: int) -> int:
        if self.max_features is not None:
            return max(1, min(self.max_features, n_features))
        return max(1, int(math.isqrt(n_features)))


@dataclass
class TreeNode:
    counts: tuple[int, ...]
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[TreeNode, ...]
    classes: tuple[str, ...]
    n_features: int
    hyper: ForestHyper
    impurity_importance: tuple[float, ...] = field(default=())


def _gini(counts: Sequence[int], total: int) -> float:
    if total == 0:
        return 0.0
    acc = 0.0
    for c in counts:
        p = c / total
        acc += p * p
    return 1.0 - acc


def _split_tables(
    columns: Sequence[Sequence[float]], y_idx: Sequence[int], n_classes: int
) -> tuple[list[list[float]], list[list[int]]]:
    """Per feature column: its sorted distinct values, and per-row codes
    rank(value) * n_classes + class, so a node's sorted code tally walks its
    values in ascending order with their class counts."""
    values = []
    codes = []
    for f, col in enumerate(columns):
        distinct = sorted(set(col))
        if not all(map(math.isfinite, distinct)):
            raise ValueError(f"non-finite value in feature {f}")
        rank = {v: r * n_classes for r, v in enumerate(distinct)}
        values.append(distinct)
        codes.append([rank[v] + c for v, c in zip(col, y_idx)])
    return values, codes


def _best_split(
    values: Sequence[Sequence[float]],
    codes: Sequence[Sequence[int]],
    indices: list[int],
    parent: Sequence[int],
    features: list[int],
):
    """Minimum weighted-Gini split over the candidate features, or None.

    `parent` holds the node's class counts. Candidates are the midpoints
    between consecutive distinct values; ties keep the first candidate in
    (feature, threshold) order.
    """
    n = len(indices)
    n_classes = len(parent)
    best = None  # (score, feature, threshold)
    for f in features:
        tally = Counter(map(codes[f].__getitem__, indices))
        left = [0] * n_classes
        n_left = 0
        prev = None
        for code, m in sorted(tally.items()):
            r = code // n_classes
            if r != prev and prev is not None:
                n_right = n - n_left
                acc_l = acc_r = 0.0
                for j in range(n_classes):
                    p = left[j] / n_left
                    acc_l += p * p
                    p = (parent[j] - left[j]) / n_right
                    acc_r += p * p
                score = (n_left * (1.0 - acc_l) + n_right * (1.0 - acc_r)) / n
                if best is None or score < best[0]:
                    v, v_next = values[f][prev], values[f][r]
                    best = (score, f, v + (v_next - v) / 2.0)
            prev = r
            left[code - r * n_classes] += m
            n_left += m
    return best


def train_forest(
    columns: Sequence[Sequence[float]],
    y: Sequence[str],
    classes: Sequence[str],
    hyper: ForestHyper = ForestHyper(),
) -> ForestModel:
    """Grow a forest on feature `columns` (one sequence of row values per feature) and row labels `y`."""
    if not y:
        raise ValueError("empty training set")
    if any(len(column) != len(y) for column in columns):
        raise ValueError("columns and labels differ in length")
    present = set(y)
    if len(present) < 2:
        raise ValueError("training set contains a single class")
    unknown = present - set(classes)
    if unknown:
        raise ValueError(f"labels outside the class list: {sorted(unknown)}")
    n_features = len(columns)
    n_classes = len(classes)
    class_index = {c: i for i, c in enumerate(classes)}
    y_idx = [class_index[label] for label in y]
    values, codes = _split_tables(columns, y_idx, n_classes)
    k = hyper.resolved_max_features(n_features)
    importance = [0.0] * n_features

    def grow(indices: list[int], depth: int) -> TreeNode:
        tally = Counter(map(y_idx.__getitem__, indices))
        counts = [tally[c] for c in range(n_classes)]
        node = TreeNode(counts=tuple(counts))
        n = len(indices)
        depth_stop = hyper.max_depth is not None and depth >= hyper.max_depth
        if len(tally) <= 1 or depth_stop or n < hyper.min_samples_split:
            return node
        features = sorted(rng.sample(range(n_features), k))
        best = _best_split(values, codes, indices, counts, features)
        if best is None:
            return node
        score, f, threshold = best
        col = columns[f]
        left_idx = [i for i in indices if col[i] <= threshold]
        right_idx = [i for i in indices if col[i] > threshold]
        if not left_idx or not right_idx:
            return node
        # weighted impurity decrease, accumulated per feature for importances
        importance[f] += (n / n_rows) * (_gini(counts, n) - score)
        node.feature = f
        node.threshold = threshold
        node.left = grow(left_idx, depth + 1)
        node.right = grow(right_idx, depth + 1)
        return node

    n_rows = len(y)
    trees = []
    for t in range(hyper.n_estimators):
        rng = random.Random(derive_seed(hyper.seed, t))  # read by grow
        boot = [rng.randrange(n_rows) for _ in range(n_rows)]
        trees.append(grow(boot, 0))
    total = sum_floats(importance)
    if total > 0:
        importance = [v / total for v in importance]
    return ForestModel(
        trees=tuple(trees),
        classes=tuple(classes),
        n_features=n_features,
        hyper=hyper,
        impurity_importance=tuple(importance),
    )


def _leaf_for(node: TreeNode, row: Sequence[float]) -> TreeNode:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


def predict_forest(model: ForestModel, row: Sequence[float]) -> tuple[str, dict[str, float]]:
    """Averaged leaf distributions; argmax label with ties to class order."""
    if len(row) != model.n_features:
        raise ValueError(f"row has {len(row)} features, model expects {model.n_features}")
    k = len(model.classes)
    acc = [0.0] * k
    for tree in model.trees:
        leaf = _leaf_for(tree, row)
        total = sum(leaf.counts)
        if total == 0:
            continue
        for i, c in enumerate(leaf.counts):
            acc[i] += c / total
    n_trees = len(model.trees)
    probs = [v / n_trees for v in acc]
    best_i = max(range(k), key=lambda i: (probs[i], -i))
    return model.classes[best_i], dict(zip(model.classes, probs))


def forest_accuracy(model: ForestModel, x: Sequence[Sequence[float]], y: Sequence[str]) -> float:
    if not x:
        raise ValueError("empty evaluation set")
    hits = sum(1 for row, label in zip(x, y) if predict_forest(model, row)[0] == label)
    return hits / len(x)


def _node_to_record(node: TreeNode) -> dict:
    rec = {"counts": list(node.counts)}
    if not node.is_leaf:
        rec.update(
            feature=node.feature,
            threshold=node.threshold,
            left=_node_to_record(node.left),
            right=_node_to_record(node.right),
        )
    return rec


def save_forest(model: ForestModel, path: Path | str) -> None:
    record = {
        "format_version": FOREST_FORMAT_VERSION,
        "classes": list(model.classes),
        "n_features": model.n_features,
        "hyper": asdict(model.hyper),
        "impurity_importance": list(model.impurity_importance),
        "trees": [_node_to_record(t) for t in model.trees],
    }
    write_lines(path, [json.dumps(record)])
