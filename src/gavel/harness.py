"""Experiment grid: dataset assembly, split-wise evaluation, table emission.

Examples are built per question-answer exchange: the Question row carries
the question utterance's features, the Answer row the paired answer's, and
the Both row the concatenated pair; every row is labeled with the
questioner's party and standing. `build_datasets` then partitions them
into one `Dataset` per split along any subset of five dimensions
(committee, session, hearing type, unified/divided government,
presidency): the example table's columns plus the split's row indices.
Each split hands its learners imputed feature columns and labels for
training and rows for prediction, is scored against its own majority-class
baseline, and lands in stable, byte-reproducible tab-separated tables.

The example table's column form and file codec live in `features`, and the
zero-shot prompt renderer in `corpus`, so `kstest` and `prompts` run
without loading the learners. External models driven by those prompts
feed their label files back in through `read_predictions_file` and
`score_predictions`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from . import KINDS, map_ordered, take
from .corpus import (
    GovernmentContext,
    HearingMeta,
    QALabel,
    QAPair,
    RecordError,
    Role,
    Roster,
    Task,
    Utterance,
    derive_standing,
    read_tsv,
    render_prompt,  # not called here; perfbench/tracing.py wraps it under this module's name
    write_tsv,
)
from .features import (
    ExampleTable,
    extract_features,
    read_examples,  # not called here; perfbench/tracing.py wraps it under this module's name
    write_examples,  # likewise
)
from .forest import ForestHyper, ForestModel, derive_seed, predict_forest, train_forest
from .lexicons import Lexicons
from .party_models import (
    EvalReport,
    TASK_LABEL_ORDER,
    cross_validate_grid,
    feature_importance,  # not called here; perfbench/tracing.py wraps it under this module's name
    impute,
    majority_baseline,
    strip_speaker_names,
    train_logistic,
)

DIMENSIONS = ("committee", "session", "hearing_type", "government", "presidency")

def build_examples(
    corpus: Sequence[tuple[HearingMeta, Sequence[Utterance]]],
    rosters: Mapping[str, Roster],
    gov_config: Mapping[int, GovernmentContext],
    lexicons: Lexicons,
    pairs: Mapping[str, Sequence[QAPair]] | None = None,
    member_directory: Iterable[str] = (),
    strip_names: bool = True,
) -> tuple[list[tuple], list[str]]:
    """Featurized, labeled example rows as tuples in `features.COLUMNS` order; returns (rows, warnings).

    Names are removed from text before feature extraction unless
    `strip_names` is off, so speaker identity cannot leak into features.
    """
    rows: list[tuple] = []
    warnings: list[str] = []
    directory = tuple(member_directory)
    for meta, utterances in corpus:
        roster = rosters.get(meta.hearing_id)
        if roster is None:
            warnings.append(f"{meta.hearing_id}: no roster, skipped")
            continue
        ctx = gov_config.get(meta.session)
        if ctx is None:
            warnings.append(f"{meta.hearing_id}: no government context for session {meta.session}, skipped")
            continue
        hearing = (meta.hearing_id, meta.session, meta.committee, meta.chamber.value, meta.hearing_type.value,
                   "Unified" if ctx.unified else "Divided", ctx.president_party.value)
        by_id = {u.utterance_id: u for u in utterances}

        def featurize(text: str) -> tuple[Optional[float], ...]:
            if strip_names:
                text = strip_speaker_names(text, roster, directory)
            return extract_features(text, lexicons).values

        def columns_for(member_id: str) -> Optional[tuple]:
            """The cells after `kind` of the examples `member_id` asks; None unless a member with a standing."""
            person = roster.people_by_id.get(member_id)
            if person is None or person.role is not Role.MEMBER:
                return None
            try:
                standing = derive_standing(person, meta, ctx)
            except Exception as exc:
                warnings.append(f"{meta.hearing_id}/{member_id}: standing unresolved ({exc})")
                return None
            return (*hearing, person.party.value, standing.value)

        for u in utterances:
            if u.qa_label is not QALabel.QUESTION:
                continue
            columns = columns_for(u.speaker)
            if columns is None:
                continue
            rows.append((u.utterance_id, "Question", *columns, *featurize(u.text)))
        hearing_pairs = (pairs or {}).get(meta.hearing_id, ())
        for pair in hearing_pairs:
            columns = columns_for(pair.questioner)
            if columns is None:
                continue
            question = by_id.get(pair.question_utterance_id)
            answer = by_id.get(pair.answer_utterance_id)
            if question is None or answer is None:
                warnings.append(f"{meta.hearing_id}/{pair.pair_id}: pair references unknown utterances")
                continue
            rows.append((answer.utterance_id, "Answer", *columns, *featurize(answer.text)))
            rows.append((pair.pair_id, "Both", *columns, *featurize(question.text + "\n" + answer.text)))
    rows.sort(key=itemgetter(1, 0))  # by kind, then example_id
    return rows, warnings


@dataclass(frozen=True)
class SplitSpec:
    dimensions: tuple[str, ...] = ()
    utterance_kind: str = "Question"
    task: Task = Task.AFFILIATION
    min_rows: int = 50

    def __post_init__(self):
        bad = [d for d in self.dimensions if d not in DIMENSIONS]
        if bad:
            raise ValueError(f"unknown split dimensions {bad}; valid: {DIMENSIONS}")
        # canonical dimension order keeps split keys stable
        object.__setattr__(
            self, "dimensions", tuple(d for d in DIMENSIONS if d in self.dimensions)
        )
        if self.utterance_kind not in KINDS:
            raise ValueError(f"utterance_kind must be one of {KINDS}")
        if self.min_rows < 2:
            raise ValueError("min_rows must be at least 2")


@dataclass(frozen=True)
class Dataset:
    """One split: the example table, the indices of the split's rows ordered by `example_id`, and the task."""

    table: ExampleTable
    rows: tuple[int, ...]
    task: Task

    @property
    def labels(self) -> list[str]:
        column = self.table.labels(self.task)
        return [column[i] for i in self.rows]

    @property
    def label_order(self) -> tuple[str, ...]:
        return TASK_LABEL_ORDER[self.task]


@dataclass(frozen=True)
class SplitSkip:
    key: tuple[tuple[str, str], ...]
    n_rows: int
    reason: str


def build_datasets(
    table: ExampleTable, spec: SplitSpec
) -> tuple[list[tuple[tuple[tuple[str, str], ...], Dataset]], list[SplitSkip]]:
    """Partition the table's rows into one Dataset per split-key tuple.

    Every selected row lands in exactly one split or one skip record.
    """
    valid_labels = set(TASK_LABEL_ORDER[spec.task])
    dims = [getattr(table, d) for d in spec.dimensions]
    groups: dict[tuple[tuple[str, str], ...], list[int]] = {}
    for i, (kind, label) in enumerate(zip(table.kind, table.labels(spec.task))):
        if kind != spec.utterance_kind or label not in valid_labels:
            continue
        key = tuple(zip(spec.dimensions, [column[i] for column in dims]))
        groups.setdefault(key, []).append(i)
    datasets = []
    skips = []
    for key in sorted(groups):
        rows = groups[key]
        if len(rows) < spec.min_rows:
            skips.append(SplitSkip(key=key, n_rows=len(rows), reason=f"fewer than min_rows={spec.min_rows}"))
            continue
        rows.sort(key=table.example_id.__getitem__)
        datasets.append((key, Dataset(table=table, rows=tuple(rows), task=spec.task)))
    return datasets, skips


DEFAULT_GRID = (ForestHyper(n_estimators=30, max_depth=8),)


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "forest"  # "forest" or "logistic"
    grid: tuple[ForestHyper, ...] = DEFAULT_GRID
    cv_folds: int = 5
    test_fraction: float = 0.2
    seed: int = 108

    def __post_init__(self):
        if self.model not in ("forest", "logistic"):
            raise ValueError("model must be 'forest' or 'logistic'")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")


def _stratified_holdout(
    labels: Sequence[str], fraction: float, seed: int
) -> tuple[list[int], list[int]]:
    by_class: dict[str, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    rng = random.Random(seed)
    test: list[int] = []
    for lab in sorted(by_class):
        idxs = by_class[lab]
        rng.shuffle(idxs)
        n_test = max(1, round(fraction * len(idxs))) if len(idxs) > 1 else 0
        n_test = min(n_test, len(idxs) - 1)
        test.extend(idxs[:n_test])
    if not test:
        raise ValueError("no row to hold out: every class has a single row")
    test_set = set(test)
    train = [i for i in range(len(labels)) if i not in test_set]
    return train, sorted(test)


def fit_forest(
    x: Sequence[Sequence[float]],
    y: Sequence[str],
    classes: Sequence[str],
    grid: Sequence[ForestHyper],
    cv_folds: int,
    seed: int,
) -> tuple[ForestModel, list[str]]:
    """Train a forest on feature columns `x` with the grid cell cross-validation picks; returns (model, warnings).

    A one-cell grid is taken as it is, without cross-validation.
    """
    best, warnings = grid[0], []
    if len(grid) > 1:
        best, _, warnings = cross_validate_grid(x, y, classes, grid, k=cv_folds, seed=seed)
    return train_forest(x, y, classes, replace(best, seed=seed)), warnings


def _eval_report(
    key: tuple[tuple[str, str], ...],
    task: Task,
    y_true: Sequence[str],
    y_pred: Sequence[str],
    n_train: int,
    degenerate: bool = False,
    warnings: Sequence[str] = (),
) -> EvalReport:
    """Score predictions against truth and the truth's own majority-class baseline."""
    confusion = Counter(zip(y_true, y_pred))
    accuracy = sum(n for (t, p), n in confusion.items() if t == p) / len(y_true)
    base_class, base_acc = majority_baseline(y_true, TASK_LABEL_ORDER[task])
    return EvalReport(
        split_key=key,
        task=task,
        accuracy=accuracy,
        baseline_accuracy=base_acc,
        baseline_class=base_class,
        confusion=tuple(sorted((t, p, n) for (t, p), n in confusion.items())),
        n_train=n_train,
        n_test=len(y_true),
        degenerate=degenerate,
        beats_baseline=accuracy > base_acc,
        warnings=tuple(warnings),
    )


def run_experiment(
    datasets: Sequence[tuple[tuple[tuple[str, str], ...], Dataset]],
    config: ExperimentConfig = ExperimentConfig(),
) -> list[EvalReport]:
    """Train and score each split.

    A `ValueError`, the learners' signal that a split's data cannot be fitted
    or scored, is recorded as that split's error and the run continues; any
    other exception is a bug and propagates. Each split draws its own seed,
    so the splits run through `map_ordered`, each on its own CPU when there
    are several; a lone split runs here and its grid search spreads instead.
    """
    if not datasets:
        raise ValueError("no datasets to run")

    def run_split(job: tuple[int, tuple[tuple[tuple[str, str], ...], Dataset]]) -> EvalReport:
        split_no, (key, dataset) = job
        try:
            return _run_split(key, dataset, config, derive_seed(config.seed, split_no))
        except ValueError as exc:
            return EvalReport(
                split_key=key,
                task=dataset.task,
                accuracy=0.0,
                baseline_accuracy=0.0,
                baseline_class="",
                confusion=(),
                n_train=0,
                n_test=0,
                error=f"{type(exc).__name__}: {exc}",
            )

    return map_ordered(run_split, enumerate(datasets))


def _run_split(key, dataset: Dataset, config: ExperimentConfig, seed: int) -> EvalReport:
    labels = dataset.labels
    train_idx, test_idx = _stratified_holdout(labels, config.test_fraction, seed)
    features = dataset.table.features
    x_train, medians = impute(take(features, [dataset.rows[i] for i in train_idx]))
    y_train = [labels[i] for i in train_idx]
    x_test, _ = impute(take(features, [dataset.rows[i] for i in test_idx]), medians)
    x_test = list(zip(*x_test))  # predictions go row by row
    y_test = [labels[i] for i in test_idx]
    present_train = set(y_train)
    classes = [c for c in dataset.label_order if c in present_train]
    degenerate = len(present_train) < 2 or len(set(y_test)) < 2
    warnings: list[str] = []
    if len(present_train) < 2:
        # single-class split: constant prediction, flagged, never suppressed
        constant = next(iter(present_train))
        predictions = [constant] * len(y_test)
    elif config.model == "forest":
        model, warnings = fit_forest(x_train, y_train, classes, config.grid, config.cv_folds, seed)
        predictions = [predict_forest(model, row)[0] for row in x_test]
    else:
        model = train_logistic(x_train, y_train, classes)
        predictions = [model.predict(row)[0] for row in x_test]
    return _eval_report(key, dataset.task, y_test, predictions, len(y_train), degenerate, warnings)


# --- table emission ----------------------------------------------------------

_BASE_CLASS_MARK = {
    "Democrat": "D",
    "Republican": "R",
    "Independent": "I",
    "Majority": "M",
    "Minority": "m",
}


_SCORE_COLUMNS = ("accuracy", "accuracy_2dp", "baseline", "baseline_2dp", "baseline_class")


def _scores(r: EvalReport) -> tuple:
    """The `_SCORE_COLUMNS` cells of one report."""
    return (
        r.accuracy,
        f"{r.accuracy:.2f}",
        r.baseline_accuracy,
        f"{r.baseline_accuracy:.2f}",
        _BASE_CLASS_MARK.get(r.baseline_class, r.baseline_class),
    )


_PRESIDENCY_BLOCKS = (("All", "all"), ("Democrat", "democrat_president"), ("Republican", "republican_president"))

# pivot table -> the split dimensions (in DIMENSIONS order) that key its rows; a run writes
# the pivot exactly when its dimensions are one of these. Presidency picks a column block.
PIVOTS = {
    "committee": (("committee",),),
    "hearing_type_government": (("hearing_type", "government"), ("hearing_type", "government", "presidency")),
}


def emit_tables(reports: Sequence[EvalReport], layout: str, path: Path | str) -> None:
    """Write `split_grid` or a pivot of `PIVOTS`, one report per cell; full-precision numbers plus 2-decimal display."""
    if layout == "split_grid":
        header = ("split", "task", "n_train", "n_test", *_SCORE_COLUMNS, "beats_baseline", "degenerate", "confusion",
                  "error")
        rows = (
            (r.split_label, r.task, r.n_train, r.n_test, *_scores(r), r.beats_baseline, r.degenerate,
             ";".join(f"{t}>{p}:{n}" for t, p, n in r.confusion), r.error)
            for r in sorted(reports, key=lambda r: r.split_label)
        )
    elif layout not in PIVOTS:
        raise ValueError(f"unknown layout {layout!r}; valid: split_grid, {', '.join(PIVOTS)}")
    else:
        stray = sorted({r.split_label for r in reports if tuple(d for d, _ in r.split_key) not in PIVOTS[layout]})
        if stray:
            raise ValueError(f"{layout} is not keyed by the dimensions of split(s) {'; '.join(stray)}")
        scored = [(dict(r.split_key), r) for r in reports if r.error is None]
        if layout == "committee":
            header = ("committee", *_SCORE_COLUMNS, "beats_baseline")
            rows = ((key["committee"], *_scores(r), r.beats_baseline)
                    for key, r in sorted(scored, key=lambda kr: kr[0]["committee"]))
        else:
            header, rows = _ht_gov_table(scored)
    write_tsv(path, header, rows)


def empty_blocks(reports: Sequence[EvalReport], skips: Sequence[SplitSkip], spec: SplitSpec) -> list[tuple[str, str]]:
    """(block, reason) for each column block of the hearing_type_government layout that no report fills."""

    def presidencies(keys) -> set[str]:
        return {dict(key).get("presidency", "All") for key in keys}

    filled = presidencies(r.split_key for r in reports if r.error is None)
    scored = presidencies(r.split_key for r in reports)
    skipped = presidencies(s.key for s in skips)
    partisan = "presidency" in spec.dimensions
    out = []
    for value, block in _PRESIDENCY_BLOCKS:
        if value in filled:
            continue
        if value == "All" and partisan:
            reason = "presidency is in --split-dims, so every split is partisan"
        elif value != "All" and not partisan:
            reason = "presidency is not in --split-dims, so no split is partisan"
        elif value in scored:
            reason = "every split for it ended in an error (see split_grid.tsv)"
        elif value in skipped:
            reason = f"no split for it reached --min-rows {spec.min_rows} (see skipped_splits.tsv)"
        else:
            reason = "the examples hold no row for it"
        out.append((block, reason))
    return out


def _ht_gov_table(scored: Sequence[tuple[dict, EvalReport]]) -> tuple[list[str], list[list]]:
    """Hearing-type x government rows; All/Democrat/Republican presidency column blocks."""
    cells = {(key["hearing_type"], key["government"], key.get("presidency", "All")): r for key, r in scored}
    header = ["hearing_type", "government",
              *(f"{block}_{column}" for _, block in _PRESIDENCY_BLOCKS for column in (*_SCORE_COLUMNS, "degenerate"))]
    rows = []
    for ht, gov in sorted({(ht, gov) for ht, gov, _ in cells}):
        row = [ht, gov]
        for presidency, _ in _PRESIDENCY_BLOCKS:
            r = cells.get((ht, gov, presidency))
            row += [None] * (len(_SCORE_COLUMNS) + 1) if r is None else [*_scores(r), r.degenerate]
        rows.append(row)
    return header, rows


# --- external-prediction ingestion -------------------------------------------

def read_predictions_file(path: Path | str) -> list[tuple[str, str]]:
    """Rows of (example_id, predicted_label); header line allowed."""
    out = []
    for line_no, cols in read_tsv(path):
        if line_no == 1 and cols[0] in ("example_id", "utterance_id", "pair_id"):
            continue
        if len(cols) < 2:
            raise RecordError("expected (example_id, predicted_label)", path=str(path), line_no=line_no)
        out.append((cols[0], cols[1]))
    return out


_LABEL_ALIASES = {
    "d": "Democrat",
    "r": "Republican",
    "i": "Independent",
    "democrat": "Democrat",
    "republican": "Republican",
    "independent": "Independent",
    "majority": "Majority",
    "minority": "Minority",
}


def score_predictions(
    predictions: Sequence[tuple[str, str]],
    table: ExampleTable,
    task: Task,
) -> tuple[EvalReport, list[str]]:
    """Score an external model's label file against the example table's labels."""
    truth = dict(zip(table.example_id, table.labels(task)))
    order = TASK_LABEL_ORDER[task]
    warnings = []
    matched: list[tuple[str, str]] = []
    for example_id, raw_label in predictions:
        raw = raw_label.strip()
        # M/m are case-significant: majority vs minority
        if raw == "M":
            label = "Majority"
        elif raw == "m":
            label = "Minority"
        else:
            label = _LABEL_ALIASES.get(raw.lower())
        if label is None or label not in order:
            warnings.append(f"{example_id}: unusable predicted label {raw_label!r}")
            continue
        true_label = truth.get(example_id)
        if true_label is None or true_label not in order:
            warnings.append(f"{example_id}: no labeled example for this id")
            continue
        matched.append((true_label, label))
    if not matched:
        raise ValueError("no predictions matched labeled examples")
    truths, labels = zip(*matched)
    return _eval_report((("source", "external-predictions"),), task, truths, labels, 0), warnings
