import json
import math
import random
from pathlib import Path

import pytest

from gavel.corpus import Party, Person, QALabel, RecordError, Role
from gavel import qa
from gavel.linear import PackedRows, loss_and_gradient, predict_proba, train_binary_logistic
from gavel.qa import (
    INTERROGATIVE_FEATURE,
    QMARK_FEATURE,
    ConfusionCounts,
    LabeledText,
    LexicalModel,
    QAHyper,
    Source,
    build_vocabulary,
    classify_qa,
    featurize_text,
    load_model,
    load_training_corpus,
    pair_qa,
    save_model,
    score_confusion,
    train_qa,
)
from gavel.synth import synth_ama_file, synth_hand_labeled_file, synth_ukparl_file

from test_corpus import make_utterance


def toy_corpus(n=40):
    rows = []
    for i in range(n):
        rows.append(LabeledText(f"is this item {i} ?", QALabel.QUESTION))
        rows.append(LabeledText(f"the answer is item {i} .", QALabel.ANSWER))
    return rows


def test_load_hand_labeled(tmp_path):
    path = tmp_path / "hand.tsv"
    path.write_text("Why?\tQuestion\nBecause.\tAnswer\nHow come?\tQuestion\nJust so.\tAnswer\n")
    rows, duplicates = load_training_corpus(path, Source.HAND_LABELED)
    assert len(rows) == 4
    assert sum(r.label is QALabel.QUESTION for r in rows) == 2
    assert duplicates == 0


def test_load_rejects_empty_text_with_row_number(tmp_path):
    path = tmp_path / "hand.tsv"
    path.write_text("Why?\tQuestion\n \tAnswer\n")
    with pytest.raises(RecordError) as err:
        load_training_corpus(path, Source.HAND_LABELED)
    assert err.value.line_no == 2


def test_load_rejects_bad_label(tmp_path):
    path = tmp_path / "hand.tsv"
    path.write_text("Why?\tStatement\n")
    with pytest.raises(RecordError) as err:
        load_training_corpus(path, Source.HAND_LABELED)
    assert err.value.field_name == "label"


@pytest.mark.parametrize("label", ["Other", "Unlabeled", "question"])
def test_load_rejects_a_label_that_is_not_question_or_answer(tmp_path, label):
    path = tmp_path / "hand.tsv"
    path.write_text(f"Why?\tQuestion\nFine.\t{label}\n")
    with pytest.raises(RecordError) as err:
        load_training_corpus(path, Source.HAND_LABELED)
    assert (err.value.path, err.value.line_no, err.value.field_name) == (str(path), 2, "label")


def test_load_deduplicates_and_reports(tmp_path):
    path = tmp_path / "hand.tsv"
    path.write_text("Why?\tQuestion\nwhy?\tQuestion\nBecause.\tAnswer\n")
    rows, duplicates = load_training_corpus(path, Source.HAND_LABELED)
    assert len(rows) == 2
    assert duplicates == 1


def test_ukparl_fixture_is_balanced(tmp_path):
    path = tmp_path / "ukparl.tsv"
    synth_ukparl_file(path, n_pairs=2344, seed=5)
    rows, duplicates = load_training_corpus(path, Source.UKPARL)
    assert len(rows) + duplicates == 4688
    # the file holds exactly 2344 of each label; the loader preserves the
    # balance as found, minus any exact-duplicate rows
    raw_labels = [line.split("\t")[1] for line in path.read_text().splitlines()]
    assert raw_labels.count("question") == 2344
    assert raw_labels.count("answer") == 2344
    questions = sum(r.label is QALabel.QUESTION for r in rows)
    answers = sum(r.label is QALabel.ANSWER for r in rows)
    assert questions + answers == len(rows)
    assert questions == 2344 - sum(
        1 for line in _duplicate_lines(path) if line.split("\t")[1] == "question"
    )


def _duplicate_lines(path):
    seen = set()
    dupes = []
    for line in path.read_text().splitlines():
        key = " ".join(line.split("\t")[2].split()).lower()
        if key in seen:
            dupes.append(line)
        else:
            seen.add(key)
    return dupes


def test_ama_format_levels(tmp_path):
    path = tmp_path / "ama.tsv"
    path.write_text("t0\t1\tWhat is this?\nt0\t2\tIt is a test.\nt1\t3\tbad level\n")
    with pytest.raises(RecordError) as err:
        load_training_corpus(path, Source.AMA)
    assert err.value.line_no == 3


def test_featurize_structural_flags():
    feats = featurize_text("Why?")
    assert feats["__qmark__"] == 1.0
    assert feats["__interrogative__"] == 1.0
    assert feats["u:why"] == 1.0


def test_featurize_empty_is_length_bucket_only():
    feats = featurize_text("")
    assert feats == {"__len0__": 1.0}


def test_featurize_deterministic():
    text = "Will the program be reauthorized next year?"
    assert featurize_text(text) == featurize_text(text)


def test_featurize_counts_bigrams():
    feats = featurize_text("the plan the plan")
    assert feats["u:the"] == 2.0
    assert feats["b:the plan"] == 2.0
    assert feats["b:plan the"] == 1.0


def test_vocabulary_is_deterministic_and_caps_bigrams(monkeypatch):
    featurized = [featurize_text(f"alpha beta gamma {i}") for i in range(20)]
    v1 = build_vocabulary(featurized)
    v2 = build_vocabulary(featurized)
    assert v1 == v2
    monkeypatch.setattr(qa, "BIGRAM_CAP", 3)
    capped = build_vocabulary(featurized)
    assert sum(1 for k in capped if k.startswith("b:")) == 3
    assert all(k in capped for k in v1 if k.startswith("u:"))


def test_train_separable_reaches_perfect_training_accuracy():
    corpus = toy_corpus()
    model, trace = train_qa(corpus, QAHyper(epochs=80))
    hits = sum(classify_qa(model, r.text)[0] is r.label for r in corpus)
    assert hits == len(corpus)


def test_train_loss_monotone_nonincreasing():
    model, trace = train_qa(toy_corpus(), QAHyper(epochs=50))
    for earlier, later in zip(trace, trace[1:]):
        assert later <= earlier + 1e-12


def test_train_is_deterministic():
    """Full-batch descent from zero weights draws nothing, so it needs no seed."""
    m1, _ = train_qa(toy_corpus(), QAHyper())
    m2, _ = train_qa(toy_corpus(), QAHyper())
    assert m1.weights == m2.weights and m1.bias == m2.bias
    assert list(m1.training_meta) == ["epochs", "learning_rate", "l2", "n_examples"]


def test_train_rejects_single_class():
    rows = [LabeledText("why?", QALabel.QUESTION)]
    with pytest.raises(ValueError):
        train_qa(rows + rows)


def test_logistic_rejects_a_non_finite_row():
    with pytest.raises(ValueError, match="not finite"):
        train_binary_logistic(PackedRows([{0: math.inf}, {0: 1.0}], 1), [1, 0])


def test_gradient_matches_central_finite_differences():
    rng = random.Random(5)
    corpus = toy_corpus(12)
    featurized = [featurize_text(r.text) for r in corpus]
    vocab = build_vocabulary(featurized)
    rows = PackedRows(({vocab[k]: v for k, v in f.items() if k in vocab} for f in featurized), len(vocab))
    y = [1 if r.label is QALabel.QUESTION else 0 for r in corpus]
    weights = [rng.uniform(-0.5, 0.5) for _ in range(len(vocab))]
    bias = 0.1
    l2 = 1e-3
    loss, grad_w, grad_b = loss_and_gradient(weights, bias, rows, y, l2)
    h = 1e-6
    for j in rng.sample(range(len(vocab)), 5):
        w_plus = list(weights)
        w_minus = list(weights)
        w_plus[j] += h
        w_minus[j] -= h
        lp, _, _ = loss_and_gradient(w_plus, bias, rows, y, l2)
        lm, _, _ = loss_and_gradient(w_minus, bias, rows, y, l2)
        numeric = (lp - lm) / (2 * h)
        denom = max(abs(numeric), abs(grad_w[j]), 1e-8)
        assert abs(numeric - grad_w[j]) / denom < 1e-5
    lp, _, _ = loss_and_gradient(weights, bias + h, rows, y, l2)
    lm, _, _ = loss_and_gradient(weights, bias - h, rows, y, l2)
    numeric = (lp - lm) / (2 * h)
    assert abs(numeric - grad_b) / max(abs(numeric), 1e-8) < 1e-5


def test_classifier_invariant_under_training_set_duplication():
    # mean loss is unchanged when every example appears twice (l2 untouched),
    # so predicted probabilities agree up to float summation order
    corpus = toy_corpus(15)
    m1, _ = train_qa(corpus, QAHyper(epochs=25))
    m2, _ = train_qa(corpus + corpus, QAHyper(epochs=25))
    assert m1.vocabulary == m2.vocabulary
    for w1, w2 in zip(m1.weights, m2.weights):
        assert w1 == pytest.approx(w2, abs=1e-9)
    for text in ("is this a test ?", "the answer is here .", "completely new words"):
        label1, conf1 = classify_qa(m1, text)
        label2, conf2 = classify_qa(m2, text)
        assert label1 is label2
        assert conf1 == pytest.approx(conf2, abs=1e-9)


def test_classifier_confidence_always_at_least_half():
    model, _ = train_qa(toy_corpus(), QAHyper(epochs=30))
    rng = random.Random(1)
    words = ["is", "this", "answer", "the", "item", "why", "zebra"]
    for _ in range(100):
        text = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 10)))
        label, confidence = classify_qa(model, text)
        assert confidence >= 0.5
        assert label in (QALabel.QUESTION, QALabel.ANSWER)


def test_zero_weight_model_ties_to_question():
    from gavel.qa import LexicalModel

    vocab = build_vocabulary([featurize_text("is this?"), featurize_text("it is.")])
    model = LexicalModel(
        vocabulary=vocab,
        weights=tuple([0.0] * len(vocab)),
        bias=0.0,
        training_meta={},
    )
    label, confidence = classify_qa(model, "anything at all")
    assert label is QALabel.QUESTION
    assert confidence == 0.5


def test_other_band_calibration_hook():
    from gavel.qa import LexicalModel

    vocab = build_vocabulary([featurize_text("is this?")])
    model = LexicalModel(
        vocabulary=vocab,
        weights=tuple([0.0] * len(vocab)),
        bias=0.0,
        training_meta={},
    )
    label, _ = classify_qa(model, "anything", other_band=0.05)
    assert label is QALabel.OTHER


def test_transfer_beats_majority_baseline_by_ten_points(tmp_path):
    ama = tmp_path / "ama.tsv"
    uk = tmp_path / "uk.tsv"
    hand = tmp_path / "hand.tsv"
    synth_ama_file(ama, n_pairs=600, seed=11)
    synth_ukparl_file(uk, n_pairs=500, seed=12)
    synth_hand_labeled_file(hand, 379, 421, seed=13)
    train_rows = load_training_corpus(ama, Source.AMA)[0] + load_training_corpus(uk, Source.UKPARL)[0]
    assert len(train_rows) >= 2000
    model, _ = train_qa(train_rows, QAHyper(epochs=40))
    test_rows, _ = load_training_corpus(hand, Source.HAND_LABELED)
    assert len(test_rows) >= 200
    predictions = [classify_qa(model, r.text)[0] for r in test_rows]
    counts = score_confusion(predictions, [r.label for r in test_rows])
    majority = max(
        sum(r.label is QALabel.QUESTION for r in test_rows),
        sum(r.label is QALabel.ANSWER for r in test_rows),
    ) / len(test_rows)
    assert counts.accuracy >= majority + 0.10


def test_model_file_round_trip(tmp_path):
    model, _ = train_qa(toy_corpus(), QAHyper(epochs=10))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.weights == model.weights
    assert loaded.vocabulary == dict(model.vocabulary)
    assert classify_qa(loaded, "is this?") == classify_qa(model, "is this?")


def _saved_model(tmp_path, edit):
    """A saved toy model whose stored record `edit` has changed in place."""
    model, _ = train_qa(toy_corpus(), QAHyper(epochs=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))
    return path


def _first_name(vocab):
    return min(vocab, key=vocab.get)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda v: v.__setitem__(_first_name(v), len(v)), id="index-past-the-end"),
        pytest.param(lambda v: v.__setitem__(_first_name(v), -1), id="index-minus-one"),
        pytest.param(lambda v: v.__setitem__(_first_name(v), 1), id="duplicate-index"),
        pytest.param(lambda v: v.__setitem__(_first_name(v), False), id="bool-index"),
        pytest.param(lambda v: v.__setitem__(_first_name(v), 0.0), id="float-index"),
    ],
)
def test_load_model_refuses_vocabulary_indices_other_than_zero_to_n_minus_one(tmp_path, edit):
    path = _saved_model(tmp_path, lambda record: edit(record["vocabulary"]))
    with pytest.raises(RecordError) as err:
        load_model(path)
    assert err.value.path == str(path)
    assert "vocabulary indices" in str(err.value)


@pytest.mark.parametrize(
    "name, value",
    [("weights", "0.5"), ("bias", "0.5"), ("weights", True), ("weights", float("nan")), ("bias", float("inf"))],
    ids=["string-weight", "string-bias", "true-weight", "nan-weight", "infinite-bias"],
)
def test_load_model_refuses_a_weight_or_bias_that_is_not_a_finite_number(tmp_path, name, value):
    def edit(record):
        if name == "bias":
            record["bias"] = value
        else:
            record["weights"][0] = value

    path = _saved_model(tmp_path, edit)
    with pytest.raises(RecordError) as err:
        load_model(path)
    assert (err.value.path, err.value.field_name) == (str(path), name)
    assert "not a finite number" in str(err.value)


# --- the scorer against the feature-vector oracle -----------------------------

FIXTURES = Path(__file__).parent.parent / "fixtures"


def oracle_p_question(model, text):
    """P(Question) as the dot product of the weights with the text's feature vector."""
    row = {}
    for name, value in featurize_text(text).items():
        idx = model.vocabulary.get(name)
        if idx is not None:
            row[idx] = value
    return predict_proba(model.weights, model.bias, row)


def assert_scores_like_oracle(model, texts, other_band=None):
    for text in texts:
        p = oracle_p_question(model, text)
        if other_band is not None and abs(p - 0.5) < other_band:
            expected = (QALabel.OTHER, max(p, 1.0 - p))
        elif p >= 0.5:
            expected = (QALabel.QUESTION, p)
        else:
            expected = (QALabel.ANSWER, 1.0 - p)
        label, confidence = classify_qa(model, text, other_band=other_band)
        assert (label, confidence.hex()) == (expected[0], expected[1].hex()), text


@pytest.fixture(scope="module")
def fixture_model():
    rows = load_training_corpus(FIXTURES / "qa" / "ama_train.tsv", Source.AMA)[0]
    rows += load_training_corpus(FIXTURES / "qa" / "ukparl_train.tsv", Source.UKPARL)[0]
    return train_qa(rows, QAHyper(epochs=30))[0]


ADVERSARIAL_TEXTS = [
    "",
    " \t\n ",
    "?",
    "is it over?  ",
    "Isn't it? Don't they? 'quoted' o'clock '",
    "\u0130stanbul \u017fo the \u212aelvin sign: WHAT is K?",
    "the the the the the",
    "the plan the plan the plan the plan",
    " ".join(f"the committee will hear item {i}" for i in range(14)),  # 84 tokens: the top length bucket
    "zzxq qqvw xyzzy plugh",
]


def test_scorer_matches_the_oracle_on_labeled_rows(fixture_model, tmp_path):
    hand = tmp_path / "hand.tsv"
    synth_hand_labeled_file(hand, 150, 170, seed=21)
    for path in (FIXTURES / "qa" / "hand_labeled_test.tsv", hand):
        rows, _ = load_training_corpus(path, Source.HAND_LABELED)
        assert_scores_like_oracle(fixture_model, [r.text for r in rows])


def test_scorer_matches_the_oracle_on_adversarial_texts(fixture_model):
    assert max(len(text.split()) for text in ADVERSARIAL_TEXTS) > 64
    assert_scores_like_oracle(fixture_model, ADVERSARIAL_TEXTS)
    assert_scores_like_oracle(fixture_model, ADVERSARIAL_TEXTS, other_band=0.4)


@pytest.mark.parametrize(
    "missing",
    [(QMARK_FEATURE,), (INTERROGATIVE_FEATURE,), ("__len0__", "__len7__"), ("__len1__",), ()],
    ids=["no-qmark", "no-interrogative", "no-len0-len7", "no-len1", "all-cues"],
)
def test_scorer_matches_the_oracle_on_hand_built_models(missing):
    texts = ADVERSARIAL_TEXTS + [r.text for r in toy_corpus(10)] + ["Why is the plan late?", "Who?", "it is."]
    names = sorted(n for n in build_vocabulary(featurize_text(t) for t in texts) if n not in missing)
    rng = random.Random(len(names))
    model = LexicalModel(
        vocabulary={name: i for i, name in enumerate(names)},
        weights=tuple(rng.uniform(-2.0, 2.0) for _ in names),
        bias=0.3,
        training_meta={},
    )
    for band in (None, 0.0, 0.2, 0.5):
        assert_scores_like_oracle(model, texts, other_band=band)


# --- confusion arithmetic ---------------------------------------------------

TABLE2_SESSIONS = {
    "114": ConfusionCounts(20, 6, 26, 0),
    "115": ConfusionCounts(105, 25, 127, 3),
    "116": ConfusionCounts(101, 29, 134, 3),
    "117": ConfusionCounts(65, 28, 93, 5),
}


def test_confusion_overall_accuracy_reference_counts():
    counts = ConfusionCounts(291, 88, 380, 11)
    assert counts.total == 770
    assert counts.accuracy == pytest.approx(671 / 770, abs=1e-15)
    assert f"{counts.accuracy:.4f}" == "0.8714"
    assert counts.display_accuracy() == "0.87"
    summed = sum(TABLE2_SESSIONS.values(), ConfusionCounts(0, 0, 0, 0))
    assert summed == counts


def test_confusion_per_session_arithmetic():
    assert TABLE2_SESSIONS["114"].accuracy == pytest.approx(46 / 52)
    assert TABLE2_SESSIONS["115"].accuracy == pytest.approx(232 / 260)
    assert TABLE2_SESSIONS["115"].display_accuracy() == "0.89"
    assert TABLE2_SESSIONS["117"].display_accuracy() == "0.83"
    # session 116 computes to 235/267 = 0.8801..., display 0.88
    assert TABLE2_SESSIONS["116"].accuracy == pytest.approx(235 / 267)
    assert TABLE2_SESSIONS["116"].display_accuracy() == "0.88"


def test_score_confusion_from_pairs_and_identity():
    rng = random.Random(6)
    labels = [QALabel.QUESTION, QALabel.ANSWER]
    for _ in range(50):
        n = rng.randrange(1, 60)
        preds = [rng.choice(labels) for _ in range(n)]
        truths = [rng.choice(labels) for _ in range(n)]
        counts = score_confusion(preds, truths)
        hamming = sum(p is not t for p, t in zip(preds, truths)) / n
        assert counts.accuracy == pytest.approx(1.0 - hamming, abs=1e-12)


def test_score_confusion_all_correct():
    preds = [QALabel.QUESTION, QALabel.ANSWER]
    assert score_confusion(preds, preds).accuracy == 1.0


def test_score_confusion_length_mismatch():
    with pytest.raises(ValueError):
        score_confusion([QALabel.QUESTION], [])


# --- pairing -----------------------------------------------------------------

def people_fixture():
    return {
        "m1": Person(person_id="m1", display_name="A B", surname="B", role=Role.MEMBER, party=Party.DEMOCRAT),
        "m2": Person(person_id="m2", display_name="C D", surname="D", role=Role.MEMBER, party=Party.REPUBLICAN),
        "w1": Person(person_id="w1", display_name="E F", surname="F", role=Role.WITNESS),
    }


def utt(seq, speaker, label):
    u = make_utterance("h-1", seq, speaker=speaker)
    return type(u)(
        utterance_id=u.utterance_id,
        hearing_id=u.hearing_id,
        sequence_no=u.sequence_no,
        speaker=speaker,
        raw_marker=u.raw_marker,
        text=u.text,
        qa_label=label,
    )


def test_pair_simple():
    pairs, report = pair_qa([utt(0, "m1", QALabel.QUESTION), utt(1, "w1", QALabel.ANSWER)], people_fixture())
    assert len(pairs) == 1
    assert pairs[0].questioner == "m1" and pairs[0].answerer == "w1"
    assert not report.unpaired_questions and not report.orphan_answers


def test_pair_superseded_question_reported():
    seq = [utt(0, "m1", QALabel.QUESTION), utt(1, "m2", QALabel.QUESTION), utt(2, "w1", QALabel.ANSWER)]
    pairs, report = pair_qa(seq, people_fixture())
    assert len(pairs) == 1
    assert pairs[0].questioner == "m2"
    assert report.unpaired_questions == ("h-1-u00000",)


def test_pair_orphan_answer_reported():
    pairs, report = pair_qa([utt(0, "w1", QALabel.ANSWER)], people_fixture())
    assert pairs == []
    assert report.orphan_answers == ("h-1-u00000",)


def test_pair_skips_nonpairable_roles():
    seq = [
        utt(0, "m1", QALabel.QUESTION),
        utt(1, "m2", QALabel.ANSWER),  # member answering: not pairable
        utt(2, "w1", QALabel.QUESTION),  # witness question: not pairable
        utt(3, "w1", QALabel.ANSWER),
    ]
    pairs, report = pair_qa(seq, people_fixture())
    assert len(pairs) == 1
    assert pairs[0].question_utterance_id == "h-1-u00000"
    assert pairs[0].answer_utterance_id == "h-1-u00003"
    assert report.unpaired_questions == () and report.orphan_answers == ()


def test_pairs_strictly_interleaved_property():
    rng = random.Random(77)
    people = people_fixture()
    for _ in range(50):
        seq = []
        for i in range(rng.randrange(0, 30)):
            speaker = rng.choice(["m1", "m2", "w1", "Unknown"])
            label = rng.choice([QALabel.QUESTION, QALabel.ANSWER, QALabel.OTHER])
            seq.append(utt(i, speaker, label))
        pairs, report = pair_qa(seq, people)
        seq_no = {u.utterance_id: u.sequence_no for u in seq}
        q_positions = [seq_no[p.question_utterance_id] for p in pairs]
        a_positions = [seq_no[p.answer_utterance_id] for p in pairs]
        assert q_positions == sorted(q_positions)
        assert a_positions == sorted(a_positions)
        for q, a in zip(q_positions, a_positions):
            assert q < a
        pairing = {(QALabel.QUESTION, Role.MEMBER), (QALabel.ANSWER, Role.WITNESS)}
        non_pairing = sum(1 for u in seq if (u.qa_label, people[u.speaker].role if u.speaker in people else None)
                          not in pairing)
        accounted = len(pairs) * 2 + len(report.unpaired_questions) + len(report.orphan_answers) + non_pairing
        assert accounted == len(seq)
