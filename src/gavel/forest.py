"""Random forest classifier grown on Gini-impurity splits.

Each tree sees a bootstrap resample and, at every split, a random feature
subset (sqrt of the feature count by default). Candidate thresholds are
midpoints between consecutive distinct values; the best split minimizes the
weighted child Gini, with ties going to the first candidate in (feature,
threshold) order so training is deterministic. Per-tree seeds derive from
the root seed through a splitmix-style mixer, which keeps parallel and
sequential training identical.

Leaves store class-count distributions. Forest prediction averages the
normalized leaf distributions and takes the argmax, breaking ties by class
order, so the returned label is always consistent with the probabilities.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

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


def _best_split(
    x: Sequence[Sequence[float]],
    y_idx: Sequence[int],
    indices: list[int],
    features: list[int],
    n_classes: int,
):
    """Minimum weighted-Gini split over the candidate features, or None."""
    n = len(indices)
    parent_counts = [0] * n_classes
    for i in indices:
        parent_counts[y_idx[i]] += 1
    best = None  # (score, feature, threshold)
    for f in features:
        ordered = sorted(indices, key=lambda i: x[i][f])
        left_counts = [0] * n_classes
        right_counts = parent_counts.copy()
        n_left = 0
        for pos in range(n - 1):
            i = ordered[pos]
            left_counts[y_idx[i]] += 1
            right_counts[y_idx[i]] -= 1
            n_left += 1
            v, v_next = x[i][f], x[ordered[pos + 1]][f]
            if v == v_next:
                continue
            n_right = n - n_left
            score = (n_left * _gini(left_counts, n_left) + n_right * _gini(right_counts, n_right)) / n
            threshold = v + (v_next - v) / 2.0
            if best is None or score < best[0]:
                best = (score, f, threshold)
    return best


def _grow(
    x: Sequence[Sequence[float]],
    y_idx: Sequence[int],
    indices: list[int],
    depth: int,
    hyper: ForestHyper,
    rng: random.Random,
    n_classes: int,
    n_features: int,
    importance: list[float],
    n_root: int,
) -> TreeNode:
    counts = [0] * n_classes
    for i in indices:
        counts[y_idx[i]] += 1
    node = TreeNode(counts=tuple(counts))
    n = len(indices)
    pure = sum(1 for c in counts if c > 0) <= 1
    depth_stop = hyper.max_depth is not None and depth >= hyper.max_depth
    if pure or depth_stop or n < hyper.min_samples_split:
        return node
    k = hyper.resolved_max_features(n_features)
    features = sorted(rng.sample(range(n_features), k))
    best = _best_split(x, y_idx, indices, features, n_classes)
    if best is None:
        return node
    score, f, threshold = best
    left_idx = [i for i in indices if x[i][f] <= threshold]
    right_idx = [i for i in indices if x[i][f] > threshold]
    if not left_idx or not right_idx:
        return node
    # weighted impurity decrease, accumulated per feature for importances
    importance[f] += (n / n_root) * (_gini(counts, n) - score)
    node.feature = f
    node.threshold = threshold
    node.left = _grow(x, y_idx, left_idx, depth + 1, hyper, rng, n_classes, n_features, importance, n_root)
    node.right = _grow(x, y_idx, right_idx, depth + 1, hyper, rng, n_classes, n_features, importance, n_root)
    return node


def train_forest(
    x: Sequence[Sequence[float]],
    y: Sequence[str],
    classes: Sequence[str],
    hyper: ForestHyper = ForestHyper(),
) -> ForestModel:
    if not x:
        raise ValueError("empty training set")
    if len(x) != len(y):
        raise ValueError("rows and labels differ in length")
    present = set(y)
    if len(present) < 2:
        raise ValueError("training set contains a single class")
    unknown = present - set(classes)
    if unknown:
        raise ValueError(f"labels outside the class list: {sorted(unknown)}")
    n_features = len(x[0])
    class_index = {c: i for i, c in enumerate(classes)}
    y_idx = [class_index[label] for label in y]
    n = len(x)
    trees = []
    importance = [0.0] * n_features
    for t in range(hyper.n_estimators):
        rng = random.Random(derive_seed(hyper.seed, t))
        boot = [rng.randrange(n) for _ in range(n)]
        trees.append(
            _grow(x, y_idx, boot, 0, hyper, rng, len(classes), n_features, importance, n_root=len(boot))
        )
    total = sum(importance)
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
