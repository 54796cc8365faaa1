"""The tally-based split search against the sort-and-scan search it replaced."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gavel.forest import ForestHyper, _best_split, _gini, _split_tables, save_forest, train_forest

SRC = Path(__file__).resolve().parent.parent / "src"

# sha256 of save_forest's bytes for golden_forest(), as written by the
# sort-and-scan search below: the tally search must grow the same trees.
GOLDEN_SHA256 = "3f315f1af3649bf392ff416cc6c4fe93902d57ad6f318937f4a442b253aa61bd"


def reference_best_split(x, y_idx, indices, features, n_classes):
    """The sort-and-scan split search: sort the node's rows per feature, walk every row."""
    n = len(indices)
    parent_counts = [0] * n_classes
    for i in indices:
        parent_counts[y_idx[i]] += 1
    best = None
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


def random_matrix(rng, n, n_classes):
    """Columns with 1 to 4 distinct values, +-0.0 together, ties and a continuous one."""
    columns = [
        [rng.choice((0.0, -0.0, 1.0)) for _ in range(n)],
        [7.5] * n,
        [float(rng.randrange(2)) for _ in range(n)],
        [rng.choice((-1.5, 0.25, 3.0)) for _ in range(n)],
        [rng.choice((-2.0, 1e-3, 0.5, 4.0)) for _ in range(n)],
        [round(rng.uniform(-2.0, 2.0), 1) for _ in range(n)],
        [rng.gauss(0.0, 1.0) for _ in range(n)],
    ]
    x = [list(row) for row in zip(*columns)]
    # labels lean on two columns so that splits score differently
    y_idx = [(int(row[2]) + (row[5] > 0) + rng.randrange(2)) % n_classes for row in x]
    return x, y_idx


@pytest.mark.parametrize("n_classes", [2, 3])
def test_tally_search_matches_sort_and_scan(n_classes):
    rng = random.Random(20 + n_classes)
    for _ in range(40):
        n = rng.randrange(2, 60)
        x, y_idx = random_matrix(rng, n, n_classes)
        columns = [list(col) for col in zip(*x)]
        values, codes = _split_tables(columns, y_idx, n_classes)
        boot = [rng.randrange(n) for _ in range(n)]  # duplicate rows, as in a bootstrap
        for _ in range(10):
            indices = rng.sample(boot, rng.randrange(1, n + 1))
            features = sorted(rng.sample(range(len(columns)), rng.randrange(1, len(columns) + 1)))
            parent = [0] * n_classes
            for i in indices:
                parent[y_idx[i]] += 1
            expected = reference_best_split(x, y_idx, indices, features, n_classes)
            got = _best_split(values, codes, indices, parent, features)
            assert repr(got) == repr(expected)


def golden_forest(path):
    rng = random.Random(7)
    x, y_idx = random_matrix(rng, 150, 3)
    hyper = ForestHyper(n_estimators=6, max_depth=None, min_samples_split=5, max_features=1, seed=13)
    save_forest(train_forest(list(zip(*x)), ["ABC"[c] for c in y_idx], ("A", "B", "C"), hyper), path)
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_saved_forest_matches_golden_bytes(tmp_path):
    assert golden_forest(tmp_path / "forest.json") == GOLDEN_SHA256


def test_saved_forest_does_not_depend_on_hash_seed(tmp_path):
    digests = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=f"{SRC}{os.pathsep}{Path(__file__).parent}")
        code = f"import test_forest; print(test_forest.golden_forest({str(tmp_path / hash_seed)!r}))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert digests == [GOLDEN_SHA256, GOLDEN_SHA256]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_value_rejected(bad):
    x = [[0.0, 1.0], [1.0, bad], [2.0, 0.0]]
    with pytest.raises(ValueError, match="non-finite value in feature 1"):
        train_forest(list(zip(*x)), ["A", "B", "A"], ("A", "B"), ForestHyper(n_estimators=1))
