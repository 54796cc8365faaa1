"""Acceptance suite: one criterion per test, one PASS line printed on success.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 1 carries one strict-xfail case: the reference accuracy row
value for session 116 (0.87) is inconsistent with that column's own counts
(101+134 correct of 267 = 0.8801, which displays as 0.88 under any rounding
that also maps session 117's 0.8272 to 0.83). The assertion is kept as
stated and expected to fail; every derivable cell is asserted exactly.
"""

import random

import pytest

from gavel.cli import main as cli_main
from gavel.features import complexity_features
from gavel.forest import ForestHyper, forest_accuracy, predict_forest, train_forest
from gavel.harness import (
    ExperimentConfig,
    SplitSpec,
    build_datasets,
    emit_tables,
    render_prompt,
    run_experiment,
)
from gavel.kstest import ks_statistic, ks_two_sample
from gavel.linear import PackedRows, loss_and_gradient
from gavel.qa import (
    ConfusionCounts,
    QAHyper,
    Source,
    build_vocabulary,
    classify_qa,
    featurize_text,
    load_training_corpus,
    score_confusion,
    train_qa,
)
from gavel.segmenter import (
    SegmenterRules,
    reconstruct,
    score_verdicts,
    segment_utterances,
    trim_proceedings,
)
from gavel.synth import synth_corpus

from test_cli import FIXTURES
from test_features import READABILITY_FIXTURES, stats_from_row
from test_harness import GOLDEN_ANSWER, GOLDEN_BOTH, GOLDEN_QUESTION
from test_kstest import brute_force_d, series_reference


def _ok(line: str) -> None:
    print(f"\nACCEPTANCE {line}: PASS")


# --- criterion 1: metric arithmetic reproduction -------------------------------

TABLE2_OVERALL = ConfusionCounts(291, 88, 380, 11)
TABLE2_BY_SESSION = {
    "114": ConfusionCounts(20, 6, 26, 0),
    "115": ConfusionCounts(105, 25, 127, 3),
    "116": ConfusionCounts(101, 29, 134, 3),
    "117": ConfusionCounts(65, 28, 93, 5),
}
REFERENCE_DISPLAY = {"114": "0.88", "115": "0.89", "116": "0.87", "117": "0.83"}


def test_acceptance_1_metric_arithmetic():
    assert f"{TABLE2_OVERALL.accuracy:.4f}" == "0.8714"
    assert TABLE2_OVERALL.display_accuracy() == "0.87"
    assert sum(TABLE2_BY_SESSION.values(), ConfusionCounts(0, 0, 0, 0)) == TABLE2_OVERALL
    for session in ("114", "115", "117"):
        assert TABLE2_BY_SESSION[session].display_accuracy() == REFERENCE_DISPLAY[session]
    # the scorer agrees with itself when fed aligned prediction/truth lists
    from gavel.corpus import QALabel

    preds = [QALabel.QUESTION] * 3 + [QALabel.ANSWER] * 2
    truths = [QALabel.QUESTION, QALabel.QUESTION, QALabel.ANSWER, QALabel.ANSWER, QALabel.QUESTION]
    assert score_confusion(preds, truths).accuracy == pytest.approx(3 / 5)
    # verification-rate arithmetic: 302 of 5000 non-correct
    summary = score_verdicts(["correct"] * 4698 + ["clubbed"] * 226 + ["broken"] * 76)
    assert summary.correctness_rate == pytest.approx(0.9396, abs=1e-12)
    assert f"{100 * summary.correctness_rate:.2f}" == "93.96"
    _ok("1 metric-arithmetic (session-116 display cell recorded separately)")


@pytest.mark.xfail(
    strict=True,
    reason="reference row prints 0.87 for session 116, but its own counts give "
    "(101+134)/267 = 0.8801 -> 0.88; the stated value is not derivable",
)
def test_acceptance_1_session_116_reference_cell():
    assert TABLE2_BY_SESSION["116"].display_accuracy() == REFERENCE_DISPLAY["116"]


# --- criterion 2: readability formula oracle ------------------------------------

def test_acceptance_2_readability_oracle():
    assert len(READABILITY_FIXTURES) == 50
    for row in READABILITY_FIXTURES:
        feats = complexity_features(stats_from_row(row))
        fkgl, smog, cli, lix = row[7:]
        assert abs(feats["FKGLvl"] - fkgl) < 1e-9
        assert abs(feats["SmgIn"] - smog) < 1e-9
        assert abs(feats["CLIn"] - cli) < 1e-9
        assert abs(feats["lix"] - lix) < 1e-9
    _ok("2 readability-oracle (50 fixtures, 1e-9)")


# --- criterion 3: KS oracle equivalence ------------------------------------------

def test_acceptance_3_ks_oracle_equivalence():
    rng = random.Random(20260808)
    for _ in range(1000):
        na, nb = rng.randrange(1, 51), rng.randrange(1, 51)
        tie_pool = [0.0, 0.25, 0.5, 1.0]
        a = [rng.choice(tie_pool) if rng.random() < 0.4 else rng.uniform(-3, 3) for _ in range(na)]
        b = [rng.choice(tie_pool) if rng.random() < 0.4 else rng.uniform(-3, 3) for _ in range(nb)]
        assert ks_statistic(a, b) == brute_force_d(a, b)
        result = ks_two_sample(a, b)
        assert abs(result.p_value - series_reference(result.lam)) < 1e-6
    assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).statistic_d == 0.0
    assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).p_value == 1.0
    assert ks_two_sample([0.0, 0.0], [1.0, 1.0]).statistic_d == 1.0
    assert ks_two_sample([1.0, 2.0], [1.5, 2.5]).statistic_d == 0.5
    _ok("3 ks-oracle-equivalence (1000 pairs, exact D, p within 1e-6)")


# --- criterion 4: segmentation losslessness and accuracy -------------------------

def test_acceptance_4_segmentation_lossless_and_accurate():
    rules = SegmenterRules()
    hearings = synth_corpus(50, seed=20260808)
    total = matched = 0
    for h in hearings:
        trim = trim_proceedings(h.raw_text, rules)
        assert trim.body == h.body  # head/tail trimmed exactly
        result = segment_utterances(trim.body, rules)
        assert reconstruct(result) == trim.body  # character-exact reconstruction
        truth = [(s.marker_raw, s.text_raw) for s in h.segments]
        got = [(s.marker_raw, s.text_raw) for s in result.segments]
        total += len(truth)
        if len(truth) == len(got):
            matched += sum(1 for t, g in zip(truth, got) if t == g)
    assert total >= 500
    accuracy = matched / total
    assert accuracy >= 0.99
    # clubbed + broken = incorrect on every ingest
    rng = random.Random(5)
    for _ in range(25):
        verdicts = [rng.choice(["correct", "clubbed", "broken"]) for _ in range(rng.randrange(1, 300))]
        s = score_verdicts(verdicts)
        assert s.n_clubbed + s.n_broken == s.n_incorrect
    _ok(f"4 segmentation (boundary accuracy {accuracy:.4f} on {total} utterances)")


# --- criterion 5: Q/A classifier floor --------------------------------------------

def test_acceptance_5_qa_classifier_floor():
    ama, _ = load_training_corpus(FIXTURES / "qa" / "ama_train.tsv", Source.AMA)
    uk, _ = load_training_corpus(FIXTURES / "qa" / "ukparl_train.tsv", Source.UKPARL)
    train_rows = ama + uk
    assert len(train_rows) >= 2000
    model, trace = train_qa(train_rows, QAHyper(epochs=40))
    test_rows, _ = load_training_corpus(FIXTURES / "qa" / "hand_labeled_test.tsv", Source.HAND_LABELED)
    from gavel.corpus import QALabel

    train_texts = {" ".join(r.text.split()).lower() for r in train_rows}
    assert not train_texts & {" ".join(r.text.split()).lower() for r in test_rows}  # disjoint sets
    predictions = [classify_qa(model, r.text)[0] for r in test_rows]
    counts = score_confusion(predictions, [r.label for r in test_rows])
    n_q = sum(r.label is QALabel.QUESTION for r in test_rows)
    majority = max(n_q, len(test_rows) - n_q) / len(test_rows)
    assert counts.accuracy >= majority + 0.10
    # analytic gradient vs central finite differences, 5 random coordinates
    rng = random.Random(2)
    sample = train_rows[:200]
    featurized = [featurize_text(r.text) for r in sample]
    vocab = build_vocabulary(featurized)
    rows = PackedRows(({vocab[k]: v for k, v in f.items() if k in vocab} for f in featurized), len(vocab))
    y = [1 if r.label is QALabel.QUESTION else 0 for r in sample]
    weights = [rng.uniform(-0.5, 0.5) for _ in range(len(vocab))]
    _, grad_w, _ = loss_and_gradient(weights, 0.05, rows, y, 1e-3)
    h = 1e-6
    for j in rng.sample(range(len(vocab)), 5):
        wp, wm = list(weights), list(weights)
        wp[j] += h
        wm[j] -= h
        lp, _, _ = loss_and_gradient(wp, 0.05, rows, y, 1e-3)
        lm, _, _ = loss_and_gradient(wm, 0.05, rows, y, 1e-3)
        numeric = (lp - lm) / (2 * h)
        assert abs(numeric - grad_w[j]) / max(abs(numeric), abs(grad_w[j]), 1e-8) < 1e-5
    _ok(f"5 qa-classifier-floor (accuracy {counts.accuracy:.4f} vs baseline {majority:.5f})")


# --- criterion 6: forest properties -------------------------------------------------

def _separable(n, seed, d=6):
    rng = random.Random(seed)
    x, y = [], []
    for i in range(n):
        label = "A" if i % 2 == 0 else "B"
        row = [rng.uniform(0, 1) for _ in range(d)]
        row[2] = 10.0 if label == "A" else -10.0
        x.append(row)
        y.append(label)
    return x, y


def test_acceptance_6_forest_properties():
    x, y = _separable(200, seed=1)
    xt, yt = _separable(80, seed=2)
    model = train_forest(list(zip(*x)), y, ("A", "B"), ForestHyper(n_estimators=15, max_depth=6, seed=3))
    assert forest_accuracy(model, xt, yt) == 1.0
    assert sum(model.impurity_importance) == pytest.approx(1.0, abs=1e-9)
    again = train_forest(list(zip(*x)), y, ("A", "B"), ForestHyper(n_estimators=15, max_depth=6, seed=3))
    probe = xt[:40]
    assert [predict_forest(model, r) for r in probe] == [predict_forest(again, r) for r in probe]
    rng = random.Random(9)
    null_accs = []
    for trial in range(10):
        n = 160
        xr = [[rng.uniform(0, 1) for _ in range(5)] for _ in range(n)]
        yr = ["A", "B"] * (n // 2)
        rng.shuffle(yr)
        xv = [[rng.uniform(0, 1) for _ in range(5)] for _ in range(200)]
        yv = ["A", "B"] * 100
        m = train_forest(list(zip(*xr)), yr, ("A", "B"), ForestHyper(n_estimators=12, max_depth=6, seed=trial))
        null_accs.append(forest_accuracy(m, xv, yv))
    mean_null = sum(null_accs) / len(null_accs)
    assert abs(mean_null - 0.5) <= 0.05
    _ok(f"6 forest-properties (null accuracy {mean_null:.3f})")


# --- criterion 7: experiment-grid partition and baseline consistency ----------------

def test_acceptance_7_experiment_grid(tmp_path):
    from test_harness import synthetic_examples, true_class_counts

    rows = synthetic_examples(400, seed=6)
    for dims in ((), ("committee",), ("committee", "government"), ("session",)):
        spec = SplitSpec(dimensions=dims, min_rows=12)
        datasets, skips = build_datasets(rows, spec)
        assert sum(len(ds.rows) for _, ds in datasets) + sum(s.n_rows for s in skips) == len(rows.example_id)
        ids = [rows.example_id[i] for _, ds in datasets for i in ds.rows]
        assert len(ids) == len(set(ids))
    spec = SplitSpec(dimensions=("committee",), min_rows=40)
    datasets, _ = build_datasets(rows, spec)
    config = ExperimentConfig(grid=(ForestHyper(n_estimators=8, max_depth=5),), seed=11)
    reports = run_experiment(datasets, config)
    for report in reports:
        assert report.error is None
        counts = true_class_counts(report)
        assert max(counts.values()) / report.n_test == pytest.approx(report.baseline_accuracy)
    again = run_experiment(datasets, config)
    p1, p2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
    emit_tables(reports, "split_grid", p1)
    emit_tables(again, "split_grid", p2)
    assert p1.read_bytes() == p2.read_bytes()
    _ok("7 experiment-grid (partition exact, baselines consistent, byte-identical)")


# --- criterion 8: prompt fidelity ----------------------------------------------------

def test_acceptance_8_prompt_fidelity():
    assert render_prompt("Question", question_text="Why is the sky blue?") == GOLDEN_QUESTION
    assert render_prompt("Answer", answer_text="Because of scattering.") == GOLDEN_ANSWER
    assert (
        render_prompt("Both", question_text="Why is the sky blue?", answer_text="Because of scattering.")
        == GOLDEN_BOTH
    )
    _ok("8 prompt-fidelity (three golden renderings)")


# --- criterion 9: end-to-end smoke ----------------------------------------------------

def test_acceptance_9_end_to_end_smoke(tmp_path):
    corpus = tmp_path / "corpus"
    steps = [
        ["segment", "--input", str(FIXTURES / "hearings"), "--output", str(corpus)],
        [
            "classify-qa", "train",
            "--train", f"{FIXTURES / 'qa' / 'ama_train.tsv'}:AMA",
            "--train", f"{FIXTURES / 'qa' / 'ukparl_train.tsv'}:UKParl",
            "--model-out", str(tmp_path / "qa_model.json"),
            "--epochs", "30",
        ],
        ["classify-qa", "apply", "--model", str(tmp_path / "qa_model.json"), "--corpus", str(corpus)],
        ["pair", "--corpus", str(corpus), "--output", str(tmp_path / "pairs.jsonl")],
        [
            "features", "--corpus", str(corpus), "--pairs", str(tmp_path / "pairs.jsonl"),
            "--government", str(FIXTURES / "government_context.json"),
            "--output", str(tmp_path / "examples.tsv"),
        ],
        [
            "kstest", "--examples", str(tmp_path / "examples.tsv"), "--kind", "Question",
            "--out-matrix", str(tmp_path / "ks_matrix.tsv"),
            "--out-details", str(tmp_path / "ks_details.tsv"),
        ],
        [
            "train", "--examples", str(tmp_path / "examples.tsv"), "--task", "Affiliation",
            "--kind", "Question", "--min-rows", "4",
            "--model-out", str(tmp_path / "party_model.json"),
        ],
        [
            "evaluate", "--examples", str(tmp_path / "examples.tsv"), "--task", "Affiliation",
            "--kind", "Question", "--min-rows", "10", "--out-dir", str(tmp_path / "eval"),
        ],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, f"pipeline step failed: {argv}"
    artifacts = [
        corpus / "segmentation_report.json",
        tmp_path / "qa_model.json",
        tmp_path / "pairs.jsonl",
        tmp_path / "examples.tsv",
        tmp_path / "ks_matrix.tsv",
        tmp_path / "ks_details.tsv",
        tmp_path / "party_model.json",
        tmp_path / "eval" / "split_grid.tsv",
        tmp_path / "eval" / "manifest.json",
    ]
    for artifact in artifacts:
        assert artifact.exists(), artifact
    _ok("9 end-to-end-smoke (all artifacts emitted, every step exit 0)")
