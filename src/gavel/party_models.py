"""Classical prediction stack for party affiliation and standing.

The learners train on feature columns, NaN for a null cell; callers impute
nulls with train-split medians (`impute`) before training, and the linear
model standardizes columns to train mean 0 / variance 1 (parameters stored
for test-time reuse). Prediction takes one row at a time.
The logistic model is one-vs-rest, except that a two-class task fits one
model: the second class's is the first's negated, as sigma(-z) = 1 - sigma(z).
Speaker-name removal happens on text before feature extraction so names
cannot leak the label. Every randomized step derives its stream from the
root seed, and all tie-breaks are by class/lexicographic order, so repeat
runs are identical. The models take plain columns and labels; the per-split
`Dataset` they are cut from lives in `harness`, next to `build_datasets`.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from . import map_ordered, sum_floats, take
from .corpus import Roster, Task
from .forest import ForestHyper, ForestModel, derive_seed, forest_accuracy, train_forest
from .linear import PackedRows, predict_proba, train_binary_logistic

NAME_PLACEHOLDER = "⟨NAME⟩"  # ⟨NAME⟩

_NAME_TOKEN_RE = re.compile(r"[A-Za-z0-9']+")
# The four non-ASCII characters that re.IGNORECASE matches to [A-Za-z0-9'], mapped to
# the letters they match; after this and lower(), text tokens are runs of [a-z0-9'].
_FOLD = str.maketrans({"\u0130": "i", "\u0131": "i", "\u017f": "s", "\u212a": "k"})
_FOLDED_TOKEN_RE = re.compile(r"[a-z0-9']+")


TASK_LABEL_ORDER: dict[Task, tuple[str, ...]] = {
    Task.AFFILIATION: ("Democrat", "Republican", "Independent"),
    Task.STANDING: ("Majority", "Minority"),
}


@dataclass(frozen=True)
class EvalReport:
    """One split's evaluation: model accuracy against the majority baseline.

    Accuracy and baseline are computed on the same test split; the baseline
    is recomputable from the confusion matrix row sums. Degenerate splits
    (single-class train or test) are reported with the flag set, never
    suppressed.
    """

    split_key: tuple[tuple[str, str], ...]  # ((dimension, value), ...) in canonical order
    task: Task
    accuracy: float
    baseline_accuracy: float
    baseline_class: str
    confusion: tuple[tuple[str, str, int], ...]  # (true, predicted, count)
    n_train: int
    n_test: int
    degenerate: bool = False
    beats_baseline: bool = False
    error: Optional[str] = None
    warnings: tuple[str, ...] = ()  # what fitting the split's model warned of

    def __post_init__(self):
        if self.error is None:
            if not (0.0 <= self.accuracy <= 1.0 and 0.0 <= self.baseline_accuracy <= 1.0):
                raise ValueError("accuracy and baseline must lie in [0, 1]")

    @property
    def split_label(self) -> str:
        if not self.split_key:
            return "all"
        return "|".join(f"{dim}={value}" for dim, value in self.split_key)


def _name_variants(names: Iterable[str]) -> list[tuple[str, ...]]:
    variants: set[tuple[str, ...]] = set()
    for name in names:
        toks = tuple(t.lower() for t in _NAME_TOKEN_RE.findall(name))
        # single-letter "names" (initials) would shred ordinary text
        if toks and not all(len(t) == 1 for t in toks):
            variants.add(toks)
    # longest first so full names win over bare surnames
    return sorted(variants, key=lambda v: (-len(v), v))


@lru_cache(maxsize=64)
def _name_index(roster_names: tuple[str, ...], directory: tuple[str, ...]) -> dict[str, list[tuple[str, ...]]]:
    """First name token -> the name variants starting with it, longest first."""
    index: dict[str, list[tuple[str, ...]]] = {}
    for toks in _name_variants(roster_names + directory):
        index.setdefault(toks[0], []).append(toks)
    return index


def strip_speaker_names(
    text: str, roster: Optional[Roster] = None, member_directory: Iterable[str] = ()
) -> str:
    """Replace roster/directory names with a neutral placeholder. Idempotent.

    Every surname and display name on the roster, and every directory name,
    is a name; a name matches a run of whole text tokens (maximal runs of
    ASCII letters, digits and apostrophes) equal to its own tokens ignoring
    case, with any run of other characters between them. At each token the
    longest name wins, and text already replaced (a name right after `⟨` or
    right before `⟩`) is left alone. The name index is built once per roster
    and directory and cached under their names, so all utterances of a
    hearing share it; a text holding no name's first token costs one
    case fold and one tokenization.
    """
    roster_names = () if roster is None else tuple(n for p in roster.people for n in (p.surname, p.display_name))
    index = _name_index(roster_names, tuple(member_directory))
    # Folding first makes a token match exactly what case-insensitive [A-Za-z0-9'] matches,
    # and keeps every position: U+0130 is the one character whose lower() is longer.
    folded = (text if text.isascii() else text.translate(_FOLD)).lower()
    if index.keys().isdisjoint(_FOLDED_TOKEN_RE.findall(folded)):
        return text
    spans = [m.span() for m in _FOLDED_TOKEN_RE.finditer(folded)]
    tokens = [folded[a:b] for a, b in spans]
    pieces = []
    last = i = 0
    while i < len(tokens):
        start = spans[i][0]
        candidates = () if text[start - 1 : start] == "⟨" else index.get(tokens[i], ())
        for toks in candidates:
            j = i + len(toks)
            if tuple(tokens[i:j]) != toks:
                continue
            end = spans[j - 1][1]
            if text[end : end + 1] != "⟩":
                pieces += (text[last:start], NAME_PLACEHOLDER)
                last, i = end, j
                break
        else:
            i += 1
    return "".join(pieces) + text[last:]


def majority_baseline(labels: Sequence[str], order: Sequence[str]) -> tuple[str, float]:
    """Most frequent label and its share; ties break by `order` position."""
    if not labels:
        raise ValueError("empty label list")
    counts: dict[str, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    rank = {lab: i for i, lab in enumerate(order)}
    best = min(counts, key=lambda lab: (-counts[lab], rank.get(lab, len(rank))))
    return best, counts[best] / len(labels)


def impute(
    columns: Sequence[Sequence[float]], medians: Optional[Sequence[float]] = None
) -> tuple[list[list[float]], list[float]]:
    """`columns` with each NaN (null) cell replaced by its column's median: `medians[j]` when given, else
    the median of the column's other cells (0.0 when it has none). Returns (columns, medians)."""
    if medians is None:
        medians = []
        for column in columns:
            vals = sorted(v for v in column if v == v)  # NaN is the one float not equal to itself
            if not vals:
                medians.append(0.0)
                continue
            mid = len(vals) // 2
            medians.append(vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2.0)
    return [[m if v != v else v for v in column] for column, m in zip(columns, medians)], medians


@dataclass(frozen=True)
class Standardizer:
    means: tuple[float, ...]
    scales: tuple[float, ...]

    def apply(self, row: Sequence[float]) -> list[float]:
        return [(v - m) / s for v, m, s in zip(row, self.means, self.scales)]


def fit_standardizer(columns: Sequence[Sequence[float]]) -> Standardizer:
    means = []
    scales = []
    for column in columns:
        n = len(column)
        mean = sum_floats(column) / n
        var = sum_floats((v - mean) ** 2 for v in column) / n
        means.append(mean)
        scales.append(math.sqrt(var) if var > 0 else 1.0)  # constant columns pass through
    return Standardizer(tuple(means), tuple(scales))


@dataclass(frozen=True)
class LinearModel:
    """One-vs-rest logistic over standardized columns.

    With two classes the second class's weights and bias are the first's
    negated, so the normalized probabilities are the binary logistic
    sigma(z) and 1 - sigma(z); a tie (z = 0) goes to the first class.
    """

    classes: tuple[str, ...]
    per_class: tuple[tuple[tuple[float, ...], float], ...]  # (weights, bias) per class
    standardizer: Standardizer

    def predict(self, row: Sequence[float]) -> tuple[str, dict[str, float]]:
        z = self.standardizer.apply(row)
        sparse = {j: v for j, v in enumerate(z) if v != 0.0}
        scores = [predict_proba(weights, bias, sparse) for weights, bias in self.per_class]
        total = sum_floats(scores)
        probs = [s / total for s in scores] if total > 0 else [1.0 / len(scores)] * len(scores)
        best_i = max(range(len(self.classes)), key=lambda i: (probs[i], -i))
        return self.classes[best_i], dict(zip(self.classes, probs))


def train_logistic(x: Sequence[Sequence[float]], y: Sequence[str], classes: Sequence[str]) -> LinearModel:
    """Fit on feature columns `x` and row labels `y`."""
    if not y:
        raise ValueError("empty training set")
    present = set(y)
    if len(present) < 2:
        raise ValueError("training set contains a single class")
    width = len(x)
    std = fit_standardizer(x)
    z = [[(v - m) / s for v in column] for column, m, s in zip(x, std.means, std.scales)]
    matrix = PackedRows(({j: v for j, v in enumerate(row) if v != 0.0} for row in zip(*z)), width)

    def one_vs_rest(c: str) -> tuple[tuple[float, ...], float]:
        yc = [1 if lab == c else 0 for lab in y]
        if len(set(yc)) < 2:
            # class absent from training data: constant near-zero scorer
            return (0.0,) * width, -20.0
        weights_bias, _ = train_binary_logistic(matrix, yc, learning_rate=0.5, epochs=200, l2=1e-3)
        return weights_bias

    if len(classes) == 2 and set(classes) == present:
        # the second class's fit would only rebuild the first's mirrored: sigma(-z) = 1 - sigma(z)
        weights, bias = one_vs_rest(classes[0])
        models = [(weights, bias), (tuple(-w for w in weights), -bias)]
    else:
        models = [one_vs_rest(c) for c in classes]
    return LinearModel(classes=tuple(classes), per_class=tuple(models), standardizer=std)


def stratified_folds(
    labels: Sequence[str], k: int, seed: int
) -> tuple[list[list[int]], list[str]]:
    """Deterministic stratified k-fold assignment; returns (folds, warnings).

    Classes with fewer than k members force a plain unstratified split.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(labels) < k:
        raise ValueError(f"need at least {k} rows for {k} folds")
    warnings: list[str] = []
    by_class: dict[str, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    small = [lab for lab, idxs in by_class.items() if len(idxs) < k]
    folds: list[list[int]] = [[] for _ in range(k)]
    rng = random.Random(seed)
    if small:
        warnings.append(f"classes with fewer than {k} members ({sorted(small)}); falling back to unstratified folds")
        order = list(range(len(labels)))
        rng.shuffle(order)
        for pos, i in enumerate(order):
            folds[pos % k].append(i)
    else:
        for lab in sorted(by_class):
            idxs = by_class[lab]
            rng.shuffle(idxs)
            for pos, i in enumerate(idxs):
                folds[pos % k].append(i)
    for fold in folds:
        fold.sort()
    return folds, warnings


@dataclass(frozen=True)
class GridCellScore:
    hyper: ForestHyper
    mean_accuracy: float
    fold_accuracies: tuple[float, ...]


def cross_validate_grid(
    x: Sequence[Sequence[float]],
    y: Sequence[str],
    classes: Sequence[str],
    grid: Sequence[ForestHyper],
    k: int = 5,
    seed: int = 0,
) -> tuple[ForestHyper, list[GridCellScore], list[str]]:
    """Grid search by k-fold mean validation accuracy, over feature columns `x` and row labels `y`.

    Ties prefer the smaller model: fewer estimators, then shallower trees,
    then grid order. A fold whose training part holds fewer than 2 classes,
    or whose validation part is empty, scores 0.0; any other error raises.
    """
    if not grid:
        raise ValueError("empty hyperparameter grid")
    folds, warnings = stratified_folds(y, k, seed)

    def fold_accuracy(job: tuple[int, int]) -> float:
        cell_no, held_out = job
        val_idx = folds[held_out]
        train_idx = [i for f in range(k) if f != held_out for i in folds[f]]
        yt = [y[i] for i in train_idx]
        yv = [y[i] for i in val_idx]
        if len(set(yt)) < 2 or not yv:
            return 0.0  # degenerate fold; scored as useless
        cell_hyper = replace(grid[cell_no], seed=derive_seed(seed, cell_no * k + held_out))
        model = train_forest(take(x, train_idx), yt, classes, cell_hyper)
        return forest_accuracy(model, list(zip(*take(x, val_idx))), yv)

    # every (cell, fold) fit draws its own seed, so the fits run in any order or process
    accs = map_ordered(fold_accuracy, [(cell_no, held_out) for cell_no in range(len(grid)) for held_out in range(k)])
    scores: list[GridCellScore] = []
    for cell_no, hyper in enumerate(grid):
        fold_accs = accs[cell_no * k : (cell_no + 1) * k]
        scores.append(GridCellScore(hyper, sum_floats(fold_accs) / k, tuple(fold_accs)))

    def depth_rank(h: ForestHyper) -> float:
        return float("inf") if h.max_depth is None else h.max_depth

    best_i = min(
        range(len(scores)),
        key=lambda i: (
            -scores[i].mean_accuracy,
            grid[i].n_estimators,
            depth_rank(grid[i]),
            i,
        ),
    )
    return grid[best_i], scores, warnings


def feature_importance(model: ForestModel, schema: Sequence[str]) -> dict[str, float]:
    """Feature name -> normalized impurity decrease."""
    return dict(zip(schema, model.impurity_importance))
