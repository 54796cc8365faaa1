import functools
import json
import math
import random
import re
from pathlib import Path

import pytest

from gavel import KINDS, take
from gavel.corpus import Chamber, Party, Person, Role, Roster, Task, Utterance, load_roster
from gavel.forest import (
    ForestHyper,
    _leaf_for,
    derive_seed,
    forest_accuracy,
    predict_forest,
    save_forest,
    train_forest,
)
from gavel import party_models
from gavel.harness import SplitSpec, build_datasets, build_examples
from gavel.lexicons import load_lexicons
from gavel.linear import PackedRows, train_binary_logistic
from gavel.party_models import (
    NAME_PLACEHOLDER,
    LinearModel,
    cross_validate_grid,
    fit_standardizer,
    impute,
    strip_speaker_names,
    stratified_folds,
    train_logistic,
)
from gavel.qa import pair_qa
from gavel.synth import government_context, synth_corpus
from test_harness import table_of


def roster_fixture():
    return Roster(
        hearing_id="h-1",
        people=(
            Person(person_id="m1", display_name="Carolyn Maloney", surname="Maloney", role=Role.MEMBER,
                   party=Party.DEMOCRAT, chamber=Chamber.HOUSE),
            Person(person_id="w1", display_name="Alex Okafor", surname="Okafor", role=Role.WITNESS),
        ),
    )


def test_strip_names_rule_forced():
    out = strip_speaker_names("Thank you, Chairman Maloney.", roster_fixture())
    assert out == f"Thank you, Chairman {NAME_PLACEHOLDER}."


def test_strip_names_full_name_and_case():
    out = strip_speaker_names("I agree with CAROLYN MALONEY about that.", roster_fixture())
    assert out == f"I agree with {NAME_PLACEHOLDER} about that."


def test_strip_names_no_names_unchanged():
    text = "Nothing to redact here."
    assert strip_speaker_names(text, roster_fixture()) == text


def test_strip_names_idempotent():
    rng = random.Random(4)
    words = ["Maloney", "Okafor", "hello", "committee", "Alex", "Carolyn Maloney", "budget"]
    roster = roster_fixture()
    directory = ("Jordan", "Mark Meadows")
    for _ in range(50):
        text = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 12)))
        once = strip_speaker_names(text, roster, directory)
        twice = strip_speaker_names(once, roster, directory)
        assert once == twice


def test_strip_names_member_directory_and_boundaries():
    out = strip_speaker_names("Maloneyville is not a name; Jordan is.", roster_fixture(), ("Jordan",))
    assert out == f"Maloneyville is not a name; {NAME_PLACEHOLDER} is."


@functools.lru_cache(maxsize=None)
def _name_pattern_oracle(names) -> re.Pattern | None:
    """Name removal as one case-insensitive regex per roster, as it was built before the token index."""
    variants = party_models._name_variants(names)
    if not variants:
        return None
    alternatives = (r"[^A-Za-z0-9']+".join(re.escape(t) for t in toks) for toks in variants)
    return re.compile(
        r"(?<![A-Za-z0-9'])(?<!⟨)(?:" + "|".join(alternatives) + r")(?![A-Za-z0-9'])(?!⟩)",
        re.IGNORECASE,
    )


def oracle_strip(text, roster=None, directory=()):
    names = () if roster is None else tuple(n for p in roster.people for n in (p.surname, p.display_name))
    pattern = _name_pattern_oracle(names + tuple(directory))
    return text if pattern is None else pattern.sub(NAME_PLACEHOLDER, text)


def test_fold_characters_are_exactly_what_ignorecase_adds():
    every = "".join(map(chr, range(0x110000)))
    matched = [m.start() for m in re.finditer(r"[A-Za-z0-9']", every, re.IGNORECASE)]
    assert {every[i] for i in matched if not every[i].isascii()} == {"\u0130", "\u0131", "\u017f", "\u212a"}
    # folding keeps every position, and yields a token character exactly where IGNORECASE matched one
    folded = every.translate(party_models._FOLD).lower()
    assert len(folded) == len(every)
    assert [m.start() for m in re.finditer(r"[a-z0-9']", folded)] == matched


def hostile_roster():
    people = [
        ("Carolyn Maloney", "Maloney"), ("Alex Okafor", "Okafor"), ("Sean O'Brien", "O'Brien"),
        ("Kirk Sikes", "Sikes"), ("Isaiah Kiss", "Kiss"), ("J. Smith", "Smith"), ("Ana María Ruiz", "Ruiz"),
        ("Name Namely", "Name"), ("Mal Maloneyville", "Mal"), ("Ed", "Ed"), ("St. Ives", "Ives"),
    ]
    return Roster(
        hearing_id="h-hostile",
        people=tuple(Person(person_id=f"p{i}", display_name=d, surname=s, role=Role.WITNESS)
                     for i, (d, s) in enumerate(people)),
    )


HOSTILE_DIRECTORY = ("Jordan", "Mark Meadows", "Le Roy", "Kiss Kiss", "O'", "Smith-Jones")

HOSTILE_PIECES = (
    "Maloney", "MALONEY", "maloney's", "Maloneyville", "Mal", "Carolyn", "carolyn maloney", "Carolyn-Maloney",
    "Carolyn, Maloney", "Carolyn \u27e9 Maloney", "Okafor", "OKAFOR", "O'Brien", "o'brien's", "O'", "Brien",
    "Kirk", "\u212airk", "Si\u017fes", "SI\u0130KES", "Sikes", "KISS", "Ki\u017f\u017f", "K\u0131ss",
    "\u0130saiah", "Isaiah Kiss", "Kiss Kiss Kiss", "J.", "J", "Smith", "J. Smith", "Smith-Jones", "Ana",
    "Mar\u00eda", "Mar\u00eda Ruiz", "Ruiz\u00e9", "\u00e9Ruiz", "Stra\u00dfe", "Name", "NAME", "Namely",
    "\u27e8NAME\u27e9", "\u27e8", "\u27e9", "\u27e8Maloney", "Maloney\u27e9", "Ed", "ed_", "_Ed", "St. Ives",
    "Ives", "Jordan", "jordan\u0663", "\u0663Jordan", "Mark", "Meadows", "Le Roy", "Le", "Roy", "'", "''",
    "the", "committee", "1999", "x", "-", "--", ",", ".", "\u00b2",
)
HOSTILE_SEPARATORS = ("", " ", " ", "  ", ", ", "-", "'", "_", "\u00e9", "\u27e8", "\u27e9", ". ", "\n", "\u0663")


def hostile_text(rng: random.Random) -> str:
    out = []
    for _ in range(rng.randrange(0, 12)):
        out += (rng.choice(HOSTILE_PIECES), rng.choice(HOSTILE_SEPARATORS))
    return "".join(out)


def test_strip_names_matches_regex_oracle_on_hostile_texts():
    rng = random.Random(2024)
    roster = hostile_roster()
    changed = 0
    for _ in range(12000):
        text = hostile_text(rng)
        directory = HOSTILE_DIRECTORY if rng.random() < 0.5 else ()
        expected = oracle_strip(text, roster, directory)
        assert strip_speaker_names(text, roster, directory) == expected, text
        changed += expected != text
    assert changed > 5000  # replacement is exercised, not only the no-name path


FIXTURE_HEARINGS = sorted((Path(__file__).parent.parent / "fixtures" / "hearings").iterdir())


@pytest.mark.parametrize("hearing", FIXTURE_HEARINGS, ids=lambda h: h.name)
def test_strip_names_matches_regex_oracle_on_fixture_transcripts(hearing):
    roster = load_roster(hearing / "roster.json", hearing.name)
    assert len(roster.people) >= 6
    transcript = (hearing / "transcript.txt").read_text(encoding="utf-8")
    expected = oracle_strip(transcript, roster)
    assert expected.count(NAME_PLACEHOLDER) > 10
    assert strip_speaker_names(transcript, roster) == expected
    for line in transcript.splitlines():
        assert strip_speaker_names(line, roster, HOSTILE_DIRECTORY) == oracle_strip(line, roster, HOSTILE_DIRECTORY)


def columns(rows):
    """Row-major `rows` as the feature columns the learners train on."""
    return [list(column) for column in zip(*rows)]


def separable_rows(n=200, seed=0, d=6):
    rng = random.Random(seed)
    x, y = [], []
    for i in range(n):
        label = "A" if i % 2 == 0 else "B"
        row = [rng.uniform(0, 1) for _ in range(d)]
        row[2] = 10.0 if label == "A" else -10.0  # feature 2 separates perfectly
        x.append(row)
        y.append(label)
    return x, y


def test_forest_perfect_on_separable_fixture():
    x, y = separable_rows(200, seed=1)
    xt, yt = separable_rows(80, seed=2)
    model = train_forest(columns(x), y, classes=("A", "B"), hyper=ForestHyper(n_estimators=15, max_depth=6, seed=5))
    assert forest_accuracy(model, xt, yt) == 1.0


def test_forest_seed_determinism_bitwise():
    x, y = separable_rows(120, seed=3)
    probe, _ = separable_rows(40, seed=4)
    m1 = train_forest(columns(x), y, ("A", "B"), ForestHyper(n_estimators=9, max_depth=5, seed=11))
    m2 = train_forest(columns(x), y, ("A", "B"), ForestHyper(n_estimators=9, max_depth=5, seed=11))
    p1 = [predict_forest(m1, row) for row in probe]
    p2 = [predict_forest(m2, row) for row in probe]
    assert p1 == p2
    assert m1.impurity_importance == m2.impurity_importance
    m3 = train_forest(columns(x), y, ("A", "B"), ForestHyper(n_estimators=9, max_depth=5, seed=12))
    assert any(predict_forest(m3, row)[1] != a[1] for row, a in zip(probe, p1))


def test_forest_null_experiment_permuted_labels():
    """Labels carry no signal: holdout accuracy stays near chance."""
    rng = random.Random(100)
    accs = []
    for trial in range(10):
        n = 160
        x = [[rng.uniform(0, 1) for _ in range(5)] for _ in range(n)]
        y = ["A", "B"] * (n // 2)
        rng.shuffle(y)
        xt = [[rng.uniform(0, 1) for _ in range(5)] for _ in range(200)]
        yt = ["A", "B"] * 100
        model = train_forest(columns(x), y, ("A", "B"), ForestHyper(n_estimators=12, max_depth=6, seed=trial))
        accs.append(forest_accuracy(model, xt, yt))
    mean_acc = sum(accs) / len(accs)
    assert abs(mean_acc - 0.5) <= 0.05


def test_forest_single_class_rejected():
    x = [[0.0], [1.0]]
    with pytest.raises(ValueError):
        train_forest(columns(x), ["A", "A"], ("A", "B"))


def test_predict_probabilities_sum_to_one_and_match_label():
    x, y = separable_rows(100, seed=9)
    model = train_forest(columns(x), y, ("A", "B"), ForestHyper(n_estimators=7, max_depth=4, seed=2))
    rng = random.Random(0)
    for _ in range(50):
        row = [rng.uniform(-12, 12) for _ in range(6)]
        label, probs = predict_forest(model, row)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
        assert label == max(("A", "B"), key=lambda c: (probs[c], -("AB".index(c))))


def test_single_tree_prediction_equals_leaf_argmax():
    x, y = separable_rows(60, seed=5)
    model = train_forest(columns(x), y, ("A", "B"), ForestHyper(n_estimators=1, max_depth=3, seed=8))
    row = x[0]
    label, probs = predict_forest(model, row)
    assert probs[label] == max(probs.values())


def test_duplicating_trees_keeps_predictions():
    from gavel.forest import ForestModel

    x, y = separable_rows(80, seed=6)
    model = train_forest(columns(x), y, ("A", "B"), ForestHyper(n_estimators=5, max_depth=4, seed=3))
    doubled = ForestModel(
        trees=model.trees + model.trees,
        classes=model.classes,
        n_features=model.n_features,
        hyper=model.hyper,
        impurity_importance=model.impurity_importance,
    )
    rng = random.Random(2)
    for _ in range(30):
        row = [rng.uniform(-12, 12) for _ in range(6)]
        assert predict_forest(model, row)[0] == predict_forest(doubled, row)[0]
        p1 = predict_forest(model, row)[1]
        p2 = predict_forest(doubled, row)[1]
        for c in p1:
            assert p1[c] == pytest.approx(p2[c], abs=1e-12)


def test_forest_tree_order_invariance():
    from gavel.forest import ForestModel

    x, y = separable_rows(80, seed=13)
    model = train_forest(columns(x), y, ("A", "B"), ForestHyper(n_estimators=6, max_depth=4, seed=4))
    reversed_model = ForestModel(
        trees=tuple(reversed(model.trees)),
        classes=model.classes,
        n_features=model.n_features,
        hyper=model.hyper,
        impurity_importance=model.impurity_importance,
    )
    rng = random.Random(9)
    for _ in range(30):
        row = [rng.uniform(-12, 12) for _ in range(6)]
        assert predict_forest(model, row) == predict_forest(reversed_model, row)


def test_impurity_importance_sums_to_one_and_localizes():
    x, y = separable_rows(150, seed=21)
    model = train_forest(columns(x), y, ("A", "B"), ForestHyper(n_estimators=10, max_depth=6, seed=1))
    total = sum(model.impurity_importance)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert max(range(6), key=lambda i: model.impurity_importance[i]) == 2


def test_importance_single_feature_is_one():
    rng = random.Random(5)
    x = [[rng.uniform(0, 1)] for _ in range(60)]
    y = ["A" if row[0] > 0.5 else "B" for row in x]
    model = train_forest(columns(x), y, ("A", "B"), ForestHyper(n_estimators=5, max_depth=4, seed=0, max_features=1))
    assert model.impurity_importance[0] == pytest.approx(1.0, abs=1e-9)


def test_unused_feature_importance_zero():
    x, y = separable_rows(100, seed=30)
    for row in x:
        row.append(0.0)  # constant column can never split
    model = train_forest(columns(x), y, ("A", "B"), ForestHyper(n_estimators=8, max_depth=5, seed=7))
    assert model.impurity_importance[-1] == 0.0


def test_forest_save_load_round_trip(tmp_path):
    """The saved JSON holds every split and leaf: walking its records reaches the model's own leaves."""
    x, y = separable_rows(80, seed=50)
    model = train_forest(columns(x), y, ("A", "B"), ForestHyper(n_estimators=4, max_depth=4, seed=9))
    path = tmp_path / "forest.json"
    save_forest(model, path)
    saved = json.loads(path.read_text(encoding="utf-8"))
    assert len(saved["trees"]) == len(model.trees)

    def walk(rec, row):
        while "feature" in rec:
            rec = rec["left"] if row[rec["feature"]] <= rec["threshold"] else rec["right"]
        return tuple(rec["counts"])

    rng = random.Random(1)
    for _ in range(20):
        row = [rng.uniform(-12, 12) for _ in range(6)]
        for rec, tree in zip(saved["trees"], model.trees):
            assert walk(rec, row) == _leaf_for(tree, row).counts


def test_derive_seed_spreads():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_stratified_folds_cover_and_balance():
    labels = ["A"] * 60 + ["B"] * 40
    folds, warnings = stratified_folds(labels, k=5, seed=3)
    assert not warnings
    assert sorted(i for fold in folds for i in fold) == list(range(100))
    for fold in folds:
        assert len(fold) == 20
        n_a = sum(1 for i in fold if labels[i] == "A")
        assert abs(n_a - 12) <= 1


def test_stratified_folds_small_class_falls_back():
    labels = ["A"] * 97 + ["B"] * 3
    folds, warnings = stratified_folds(labels, k=5, seed=3)
    assert warnings and "unstratified" in warnings[0]
    assert sorted(i for fold in folds for i in fold) == list(range(100))


def test_cv_grid_single_cell_returned():
    x, y = separable_rows(60, seed=60)
    grid = (ForestHyper(n_estimators=3, max_depth=3),)
    best, scores, _ = cross_validate_grid(columns(x), y, ("A", "B"), grid, k=5, seed=0)
    assert best == grid[0]
    assert len(scores) == 1


def test_cv_grid_dominant_cell_wins():
    # feature 2 separates; a depth-0-ish stump grid cell cannot use it after
    # the informative feature is hidden from max_features=1 draws often
    rng = random.Random(70)
    x, y = [], []
    for i in range(120):
        label = "A" if i % 2 == 0 else "B"
        row = [rng.uniform(0, 1) for _ in range(4)]
        row[1] = (1.0 if label == "A" else 0.0) + rng.uniform(-0.05, 0.05)
        x.append(row)
        y.append(label)
    strong = ForestHyper(n_estimators=12, max_depth=6)
    weak = ForestHyper(n_estimators=1, max_depth=1, max_features=1)
    best, scores, _ = cross_validate_grid(columns(x), y, ("A", "B"), (weak, strong), k=4, seed=5)
    by_hyper = {s.hyper: s.mean_accuracy for s in scores}
    assert by_hyper[strong] > by_hyper[weak]
    assert best == strong


def test_cv_grid_tie_prefers_smaller_model():
    x, y = separable_rows(80, seed=80)
    small = ForestHyper(n_estimators=5, max_depth=3)
    big = ForestHyper(n_estimators=20, max_depth=9)
    best, scores, _ = cross_validate_grid(columns(x), y, ("A", "B"), (big, small), k=4, seed=1)
    accs = {s.hyper: s.mean_accuracy for s in scores}
    if accs[small] == accs[big]:  # separable: both usually perfect
        assert best == small


def test_cv_grid_training_error_propagates(monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(party_models, "train_forest", boom)
    x, y = separable_rows(40, seed=4)
    with pytest.raises(ValueError, match="boom"):
        cross_validate_grid(columns(x), y, ("A", "B"), (ForestHyper(n_estimators=2),), k=4, seed=0)


def test_cv_grid_single_class_training_fold_scores_zero():
    x = [[float(i)] for i in range(4)]
    y = ["A", "A", "A", "B"]
    folds, warnings = stratified_folds(y, 2, seed=0)
    assert warnings  # B is too rare to stratify, so one training part is all A
    _, (score,), _ = cross_validate_grid(columns(x), y, ("A", "B"), (ForestHyper(n_estimators=2),), k=2, seed=0)
    held_out_b = next(i for i, fold in enumerate(folds) if 3 in fold)
    assert score.fold_accuracies[held_out_b] == 0.0


def test_cv_grid_empty_rejected():
    with pytest.raises(ValueError):
        cross_validate_grid([[0.0]], ["A"], ("A",), (), k=2, seed=0)


# --- logistic over dense standardized features --------------------------------

def dense_rows(n=80, seed=0):
    rng = random.Random(seed)
    x, y = [], []
    for i in range(n):
        label = "A" if i % 2 == 0 else "B"
        base = 1.0 if label == "A" else -1.0
        x.append([base + rng.gauss(0, 0.3), rng.gauss(0, 1), 7.5, math.nan if rng.random() < 0.2 else rng.gauss(0, 1)])
        y.append(label)
    imputed, _ = impute(columns(x))
    return [list(row) for row in zip(*imputed)], y


def test_logistic_trains_and_predicts():
    x, y = dense_rows()
    model = train_logistic(columns(x), y, ("A", "B"))
    hits = sum(model.predict(row)[0] == label for row, label in zip(x, y))
    assert hits / len(y) > 0.9


def test_logistic_deterministic():
    x, y = dense_rows()
    m1 = train_logistic(columns(x), y, ("A", "B"))
    m2 = train_logistic(columns(x), y, ("A", "B"))
    assert m1.per_class == m2.per_class


def test_logistic_constant_column_gets_zero_weight():
    x, y = dense_rows(120, seed=3)
    model = train_logistic(columns(x), y, ("A", "B"))
    for weights, _ in model.per_class:
        assert abs(weights[2]) < 1e-6  # column 2 is constant 7.5


def test_logistic_affine_rescaling_invariance():
    """Standardization makes predictions invariant to rescaling a column in
    both train and test."""
    x, y = dense_rows(100, seed=4)
    model_a = train_logistic(columns(x), y, ("A", "B"))
    scaled = [[v * 37.0 - 5.0 if j == 0 else v for j, v in enumerate(row)] for row in x]
    model_b = train_logistic(columns(scaled), y, ("A", "B"))
    for row, srow in zip(x, scaled):
        assert model_a.predict(row)[0] == model_b.predict(srow)[0]


def test_standardizer_constant_column_passthrough():
    std = fit_standardizer([[1.0, 3.0], [5.0, 5.0]])
    assert std.scales[1] == 1.0
    assert std.apply([2.0, 5.0]) == [0.0, 0.0]


# --- one fit per two-class task, against the two-fit one-vs-rest oracle --------

def oracle_train_logistic(x, y, classes):
    """One-vs-rest with one binary fit per class, as `train_logistic` did for every class count."""
    width = len(x[0])
    std = fit_standardizer(columns(x))
    matrix = PackedRows([{j: v for j, v in enumerate(std.apply(r)) if v != 0.0} for r in x], width)
    models = []
    for c in classes:
        yc = [1 if lab == c else 0 for lab in y]
        if len(set(yc)) < 2:
            models.append(((0.0,) * width, -20.0))
            continue
        weights_bias, _ = train_binary_logistic(matrix, yc, learning_rate=0.5, epochs=200, l2=1e-3)
        models.append(weights_bias)
    return LinearModel(classes=tuple(classes), per_class=tuple(models), standardizer=std)


def assert_mirror_labels_match_oracle(examples, dimension_sets, kinds, min_rows) -> int:
    """Fit every two-class split both ways; every row gets the same label. Returns the rows compared."""
    compared = 0
    for dims in dimension_sets:
        for kind in kinds:
            for task in Task:
                datasets, _ = build_datasets(examples, SplitSpec(dims, kind, task, min_rows=min_rows))
                for key, dataset in datasets:
                    labels = dataset.labels
                    classes = [c for c in dataset.label_order if c in set(labels)]
                    if len(classes) != 2:
                        continue
                    x, _ = impute(take(dataset.table.features, dataset.rows))
                    rows = list(zip(*x))
                    model = train_logistic(x, labels, classes)
                    oracle = oracle_train_logistic(rows, labels, classes)
                    got = [model.predict(row)[0] for row in rows]
                    assert got == [oracle.predict(row)[0] for row in rows], (dims, kind, task, key)
                    compared += len(rows)
    return compared


def synth_examples(n_hearings: int, seed: int):
    """The example table of `synth_rows`."""
    return table_of(synth_rows(n_hearings, seed))


def synth_rows(n_hearings: int, seed: int):
    """The example rows of a synthetic corpus, with its true speakers, Q/A labels and pairs."""
    corpus, rosters, pairs = [], {}, {}
    hearings = synth_corpus(n_hearings, seed=seed)
    for h in hearings:
        hid = h.meta.hearing_id
        utterances = [
            Utterance(f"{hid}-u{i:05d}", hid, i, seg.speaker_id, seg.marker_raw, seg.text_raw, seg.qa_label)
            for i, seg in enumerate(h.segments)
        ]
        corpus.append((h.meta, utterances))
        rosters[hid] = h.roster
        pairs[hid], _ = pair_qa(utterances, {p.person_id: p for p in h.roster.people})
    gov = {s: government_context(s) for s in {h.meta.session for h in hearings}}
    rows, warnings = build_examples(corpus, rosters, gov, load_lexicons(), pairs=pairs)
    assert not warnings
    return rows


def test_two_class_logistic_labels_match_oracle_on_synthetic_splits():
    examples = synth_examples(30, seed=2024)
    dimension_sets = [(), ("session",), ("committee",), ("government",), ("hearing_type", "government")]
    # Question rows only: every fit runs 200 epochs, and the other kinds share their splits
    assert assert_mirror_labels_match_oracle(examples, dimension_sets, ["Question"], min_rows=10) > 900


@pytest.fixture
def binary_fits(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return train_binary_logistic(*args, **kwargs)

    monkeypatch.setattr(party_models, "train_binary_logistic", counted)
    return calls


def test_two_class_logistic_fits_once_and_mirrors(binary_fits):
    x, y = dense_rows()
    model = train_logistic(columns(x), y, ("A", "B"))
    assert len(binary_fits) == 1
    (weights, bias), (mirror_weights, mirror_bias) = model.per_class
    assert mirror_weights == tuple(-w for w in weights) and mirror_bias == -bias
    for row in x:
        label, probs = model.predict(row)
        assert probs["A"] + probs["B"] == pytest.approx(1.0, abs=1e-15)
        assert label == ("A" if probs["A"] >= probs["B"] else "B")  # a tie goes to the first class


def test_logistic_fits_each_class_of_three(binary_fits):
    x, y = dense_rows(90)
    y = [("A", "B", "C")[i % 3] for i in range(len(y))]
    train_logistic(columns(x), y, ("A", "B", "C"))
    assert len(binary_fits) == 3


@pytest.mark.parametrize(
    "classes, relabel, fits",
    [
        (("A", "B", "C"), {}, 2),  # C absent: a constant scorer, no fit
        (("A", "B"), {0: "C"}, 2),  # C present but not a class
    ],
)
def test_logistic_keeps_one_vs_rest_when_classes_differ_from_labels(binary_fits, classes, relabel, fits):
    x, y = dense_rows()
    y = [relabel.get(i, lab) for i, lab in enumerate(y)]
    model = train_logistic(columns(x), y, classes)
    assert len(binary_fits) == fits
    assert model.per_class == oracle_train_logistic(x, y, classes).per_class

