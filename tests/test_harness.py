import math
import random
import tempfile
from pathlib import Path

import pytest

from gavel import harness, party_models
from gavel.corpus import (
    Chamber,
    GovernmentContext,
    HearingMeta,
    HearingType,
    Party,
    Person,
    QALabel,
    QAPair,
    Role,
    Roster,
    Utterance,
)
from gavel.features import COLUMNS, META_COLUMNS, SCHEMA
from gavel.forest import ForestHyper
from gavel.harness import (
    ExperimentConfig,
    SplitSpec,
    build_datasets,
    build_examples,
    emit_tables,
    read_examples,
    render_prompt,
    run_experiment,
    score_predictions,
    write_examples,
)
from gavel.lexicons import load_lexicons
from gavel.party_models import Task

LEX = load_lexicons()


def mini_corpus():
    meta = HearingMeta(
        hearing_id="h-1",
        session=116,
        chamber=Chamber.HOUSE,
        committee="Oversight",
        hearing_type=HearingType.OVERSIGHT,
    )
    people = (
        Person(person_id="d1", display_name="Carolyn Maloney", surname="Maloney", role=Role.MEMBER,
               party=Party.DEMOCRAT, chamber=Chamber.HOUSE),
        Person(person_id="r1", display_name="Jim Jordan", surname="Jordan", role=Role.MEMBER,
               party=Party.REPUBLICAN, chamber=Chamber.HOUSE),
        Person(person_id="w1", display_name="Alex Okafor", surname="Okafor", role=Role.WITNESS),
    )
    roster = Roster(hearing_id="h-1", people=people)

    def utt(i, speaker, label, text):
        return Utterance(
            utterance_id=f"h-1-u{i:05d}", hearing_id="h-1", sequence_no=i, speaker=speaker,
            raw_marker="X. ", text=text, qa_label=label,
        )

    utterances = [
        utt(0, "d1", QALabel.QUESTION, "Why did Carolyn Maloney ask about the backlog?"),
        utt(1, "w1", QALabel.ANSWER, "We fixed it in 2020."),
        utt(2, "r1", QALabel.QUESTION, "How much taxpayer money was wasted?"),
    ]
    pairs = {"h-1": [QAPair("h-1-p00000", "h-1-u00000", "h-1-u00001", "d1", "w1")]}
    gov = {116: GovernmentContext(116, Party.REPUBLICAN, Party.DEMOCRAT, Party.REPUBLICAN)}
    return [(meta, utterances)], {"h-1": roster}, gov, pairs


def records(rows):
    """Example row tuples as {column: cell} dicts."""
    return [dict(zip(COLUMNS, row)) for row in rows]


def table_of(rows):
    """The `ExampleTable` that `read_examples` gives for `rows` written by `write_examples`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "examples.tsv"
        write_examples(rows, path)
        return read_examples(path)


def test_build_examples_rows_and_labels():
    corpus, rosters, gov, pairs = mini_corpus()
    rows, warnings = build_examples(corpus, rosters, gov, LEX, pairs=pairs)
    assert not warnings
    by_kind = {}
    for r in records(rows):
        by_kind.setdefault(r["kind"], []).append(r)
    assert len(by_kind["Question"]) == 2
    assert len(by_kind["Answer"]) == 1
    assert len(by_kind["Both"]) == 1
    answer_row = by_kind["Answer"][0]
    # answer rows are labeled with the questioner's party/standing
    assert answer_row["party"] == "Democrat"
    assert answer_row["standing"] == "Majority"  # House majority is Democrat in the fixture
    r_question = next(r for r in by_kind["Question"] if r["party"] == "Republican")
    assert r_question["standing"] == "Minority"
    assert by_kind["Question"][0]["government"] == "Divided"
    assert by_kind["Question"][0]["presidency"] == "Republican"


def test_build_examples_name_stripping_changes_features():
    corpus, rosters, gov, pairs = mini_corpus()
    stripped, _ = build_examples(corpus, rosters, gov, LEX, pairs=pairs, strip_names=True)
    kept, _ = build_examples(corpus, rosters, gov, LEX, pairs=pairs, strip_names=False)
    row_s = next(r for r in records(stripped) if r["example_id"] == "h-1-u00000")
    row_k = next(r for r in records(kept) if r["example_id"] == "h-1-u00000")
    # "Carolyn Maloney" collapses to one placeholder token
    assert row_s["wCount"] == row_k["wCount"] - 1


def test_examples_file_round_trip(tmp_path):
    corpus, rosters, gov, pairs = mini_corpus()
    rows, _ = build_examples(corpus, rosters, gov, LEX, pairs=pairs)
    rows.append(("h-1-u00009", "Question", *rows[0][2:-1], None))  # a null feature cell
    path = tmp_path / "examples.tsv"
    write_examples(rows, path)
    table = read_examples(path)
    meta = [getattr(table, column) for column in META_COLUMNS]
    read_back = [(*cells, *values) for cells, values in zip(zip(*meta), zip(*table.features))]
    written = [(*row[:3], str(row[3]), *row[4:]) for row in rows]  # the session reads back as text
    assert read_back[:-1] == written[:-1]
    assert read_back[-1][:-1] == written[-1][:-1] and math.isnan(read_back[-1][-1])


def synthetic_rows(n=300, seed=1, committees=("A", "B", "C"), signal=True):
    """Row tuples whose wCount column separates the parties when signal is on."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        party = "Democrat" if i % 2 == 0 else "Republican"
        standing = "Majority" if party == "Democrat" else "Minority"
        values = []
        for name in SCHEMA:
            if name == "wCount" and signal:
                values.append(rng.gauss(40.0 if party == "Democrat" else 20.0, 2.0))
            elif name == "ttr":
                values.append(rng.uniform(0.5, 1.0))
            else:
                values.append(rng.uniform(0.0, 5.0))
        rows.append((
            f"ex{i:05d}",  # example_id
            "Question",  # kind
            f"h{i % 7}",  # hearing_id
            108 + i % 10,  # session
            committees[i % len(committees)],  # committee
            "House",  # chamber
            "General" if i % 3 else "Oversight",  # hearing_type
            "Unified" if i % 2 else "Divided",  # government
            "Democrat" if i % 4 < 2 else "Republican",  # presidency
            party,
            standing,
            *values,
        ))
    return rows


def synthetic_examples(n=300, seed=1, committees=("A", "B", "C"), signal=True):
    """The table of `synthetic_rows`."""
    return table_of(synthetic_rows(n, seed, committees, signal))


def test_split_spec_validates():
    with pytest.raises(ValueError):
        SplitSpec(dimensions=("nope",))
    with pytest.raises(ValueError):
        SplitSpec(utterance_kind="Speech")
    spec = SplitSpec(dimensions=("session", "committee"))
    assert spec.dimensions == ("committee", "session")  # canonical order


def test_build_datasets_no_dims_single_dataset():
    rows = synthetic_examples(100)
    datasets, skips = build_datasets(rows, SplitSpec(dimensions=(), min_rows=10))
    assert len(datasets) == 1 and not skips
    key, ds = datasets[0]
    assert key == ()
    assert len(ds.rows) == 100
    assert [rows.example_id[i] for i in ds.rows] == sorted(rows.example_id)


def test_build_datasets_partition_property():
    rows = synthetic_examples(240)
    spec = SplitSpec(dimensions=("committee", "government"), min_rows=5)
    datasets, skips = build_datasets(rows, spec)
    total = sum(len(ds.rows) for _, ds in datasets) + sum(s.n_rows for s in skips)
    assert total == len(rows.example_id)
    seen = set()
    for _, ds in datasets:
        for row in ds.rows:
            assert rows.example_id[row] not in seen
            seen.add(rows.example_id[row])


def test_build_datasets_committee_counts_sum():
    rows = synthetic_examples(200)
    datasets, _ = build_datasets(rows, SplitSpec(dimensions=("committee",), min_rows=2))
    assert len(datasets) == 3
    assert sum(len(ds.rows) for _, ds in datasets) == 200


def test_build_datasets_known_cell_counts():
    rows = synthetic_examples(120)
    spec = SplitSpec(dimensions=("hearing_type", "government"), min_rows=2)
    datasets, skips = build_datasets(rows, spec)
    # hand tally over the generator's construction
    expected = {}
    for hearing_type, government in zip(rows.hearing_type, rows.government):
        key = (("hearing_type", hearing_type), ("government", government))
        expected[key] = expected.get(key, 0) + 1
    got = {key: len(ds.rows) for key, ds in datasets}
    for s in skips:
        got[s.key] = s.n_rows
    assert got == expected


def test_build_datasets_min_rows_skips_with_reason():
    rows = synthetic_examples(30)
    datasets, skips = build_datasets(rows, SplitSpec(dimensions=("session",), min_rows=50))
    assert not datasets
    assert skips and all("min_rows" in s.reason for s in skips)


def test_run_experiment_separable_beats_baseline():
    rows = synthetic_examples(200)
    datasets, _ = build_datasets(rows, SplitSpec(min_rows=20))
    config = ExperimentConfig(grid=(ForestHyper(n_estimators=10, max_depth=6),), seed=3)
    (report,) = run_experiment(datasets, config)
    assert report.error is None
    assert report.accuracy == 1.0
    assert report.beats_baseline
    assert report.n_train + report.n_test == 200


def test_run_experiment_records_a_grid_search_error(monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(party_models, "train_forest", boom)
    datasets, _ = build_datasets(synthetic_examples(200), SplitSpec(min_rows=20))
    grid = (ForestHyper(n_estimators=2, max_depth=2), ForestHyper(n_estimators=3, max_depth=2))
    (report,) = run_experiment(datasets, ExperimentConfig(grid=grid, seed=3))
    assert report.error == "ValueError: boom"


@pytest.mark.parametrize("model", ["forest", "logistic"])
def test_run_experiment_records_a_split_with_no_row_to_hold_out(tmp_path, model):
    # one Democrat and one Republican: each class keeps its one row for training
    datasets, _ = build_datasets(synthetic_examples(2), SplitSpec(min_rows=2))
    (report,) = run_experiment(datasets, ExperimentConfig(model=model, seed=3))
    assert report.error == "ValueError: no row to hold out: every class has a single row"
    emit_tables([report], "split_grid", tmp_path / "split_grid.tsv")
    row = (tmp_path / "split_grid.tsv").read_text().splitlines()[1].split("\t")
    assert row[0] == "all" and row[-1] == report.error


def test_run_experiment_lets_a_programming_error_through(monkeypatch):
    def bug(*args, **kwargs):
        raise AttributeError("'list' object has no attribute 'values'")

    monkeypatch.setattr(harness, "train_logistic", bug)
    datasets, _ = build_datasets(synthetic_examples(40), SplitSpec(min_rows=20))
    with pytest.raises(AttributeError):
        run_experiment(datasets, ExperimentConfig(model="logistic", seed=3))


def test_run_experiment_constant_features_match_baseline():
    rows = []
    base = synthetic_rows(100, signal=False)
    for i, r in enumerate(base):
        party = "Democrat" if i < 75 else "Republican"
        standing = "Majority" if party == "Democrat" else "Minority"
        rows.append((*r[:9], party, standing, *[0.0] * len(SCHEMA)))
    datasets, _ = build_datasets(table_of(rows), SplitSpec(min_rows=20))
    (report,) = run_experiment(datasets, ExperimentConfig(grid=(ForestHyper(n_estimators=5, max_depth=3),), seed=1))
    assert report.accuracy == pytest.approx(report.baseline_accuracy)
    assert not report.beats_baseline


def true_class_counts(report):
    """Test rows per true class: the row sums of the report's confusion matrix."""
    counts = {}
    for true_label, _, n in report.confusion:
        counts[true_label] = counts.get(true_label, 0) + n
    return counts


def test_every_report_baseline_recomputable_from_confusion():
    rows = synthetic_examples(300)
    datasets, _ = build_datasets(rows, SplitSpec(dimensions=("committee",), min_rows=30))
    reports = run_experiment(datasets, ExperimentConfig(grid=(ForestHyper(n_estimators=6, max_depth=5),), seed=9))
    assert not any(r.degenerate for r in reports)  # committees hold both parties
    for report in reports:
        counts = true_class_counts(report)
        assert sum(counts.values()) == report.n_test
        assert max(counts.values()) / report.n_test == pytest.approx(report.baseline_accuracy)
        confusion_accuracy = sum(n for t, p, n in report.confusion if t == p) / report.n_test
        assert confusion_accuracy == pytest.approx(report.accuracy)


def test_single_class_split_reported_degenerate():
    rows = [(*r[:9], "Republican", "Minority", *r[11:]) for r in synthetic_rows(60, signal=False)]
    datasets, _ = build_datasets(table_of(rows), SplitSpec(min_rows=10, task=Task.STANDING))
    (report,) = run_experiment(datasets, ExperimentConfig(seed=2))
    assert report.degenerate
    assert report.error is None
    assert report.accuracy == 1.0 and report.baseline_accuracy == 1.0


def test_logistic_model_path_runs():
    rows = synthetic_examples(150)
    datasets, _ = build_datasets(rows, SplitSpec(min_rows=20))
    (report,) = run_experiment(datasets, ExperimentConfig(model="logistic", seed=4))
    assert report.error is None
    assert report.beats_baseline


def test_emit_tables_byte_identical_across_runs(tmp_path):
    rows = synthetic_examples(240)
    datasets, _ = build_datasets(rows, SplitSpec(dimensions=("committee",), min_rows=30))
    config = ExperimentConfig(grid=(ForestHyper(n_estimators=5, max_depth=4),), seed=7)
    r1 = run_experiment(datasets, config)
    r2 = run_experiment(datasets, config)
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    emit_tables(r1, "split_grid", p1)
    emit_tables(r2, "split_grid", p2)
    assert p1.read_bytes() == p2.read_bytes()
    emit_tables(r1, "committee", tmp_path / "c.tsv")
    header = (tmp_path / "c.tsv").read_text().splitlines()[0]
    assert header.startswith("committee\t")


def test_emit_tables_empty_reports_header_only(tmp_path):
    out = tmp_path / "empty.tsv"
    emit_tables([], "split_grid", out)
    assert len(out.read_text().splitlines()) == 1


@pytest.mark.parametrize("layout, key", [
    ("committee", (("committee", "Armed Services"), ("government", "Unified"))),
    ("committee", (("session", "108"),)),
    ("hearing_type_government", (("committee", "Armed"), ("hearing_type", "General"), ("government", "Unified"))),
])
def test_a_pivot_refuses_a_report_split_by_other_dimensions(tmp_path, layout, key):
    report = party_models.EvalReport(split_key=key, task=Task.AFFILIATION, accuracy=1.0, baseline_accuracy=0.5,
                                     baseline_class="Democrat", confusion=(), n_train=4, n_test=2)
    with pytest.raises(ValueError, match=f"{layout} is not keyed by"):
        emit_tables([report], layout, tmp_path / "pivot.tsv")
    assert not (tmp_path / "pivot.tsv").exists()


def test_hearing_type_government_layout(tmp_path):
    rows = synthetic_examples(400)
    all_ds, _ = build_datasets(rows, SplitSpec(dimensions=("hearing_type", "government"), min_rows=20))
    pres_ds, _ = build_datasets(rows, SplitSpec(dimensions=("hearing_type", "government", "presidency"), min_rows=20))
    config = ExperimentConfig(grid=(ForestHyper(n_estimators=4, max_depth=4),), seed=5)
    reports = run_experiment(all_ds, config) + run_experiment(pres_ds, config)
    out = tmp_path / "ht.tsv"
    emit_tables(reports, "hearing_type_government", out)
    lines = out.read_text().splitlines()
    assert lines[0].split("\t")[:2] == ["hearing_type", "government"]
    assert len(lines) > 1
    first = lines[1].split("\t")
    assert first[2] != ""  # the All column is populated


# --- prompt rendering ----------------------------------------------------------

GOLDEN_QUESTION = (
    "What follows is a question that has been asked in a congressional hearing: "
    "Question: Why is the sky blue? "
    "The question was asked by a person who is a member of a congressional committee, "
    "and whose party affiliation is either Democrat, Independent, or Republican. "
    "Based on the question above, what is the party affiliation of the person "
    "who asked the question? Answer with either D for Democrat, I for Independent, "
    "or R for Republican. Do not explain."
)

GOLDEN_ANSWER = (
    "What follows is a response to a question asked in a congressional hearing: "
    "Answer: Because of scattering. "
    "The question was asked by a person who is a member of a congressional committee, "
    "and whose party affiliation is either Democrat, Independent, or Republican. "
    "Based on the answer above, what is the party affiliation of the person "
    "who asked the question? Answer with either D for Democrat, I for Independent, "
    "or R for Republican. Do not explain."
)

GOLDEN_BOTH = (
    "What follows is a question and its answer in a congressional hearing: "
    "Question: Why is the sky blue? Answer: Because of scattering. "
    "The question was asked by a person who is a member of a congressional committee, "
    "and whose party affiliation is either Democrat, Independent, or Republican. "
    "Based on the question and answer above, what is the party affiliation of the person "
    "who asked the question? Answer with either D for Democrat, I for Independent, "
    "or R for Republican. Do not explain."
)


def test_render_prompt_golden_question():
    assert render_prompt("Question", question_text="Why is the sky blue?") == GOLDEN_QUESTION


def test_render_prompt_golden_answer():
    assert render_prompt("Answer", answer_text="Because of scattering.") == GOLDEN_ANSWER


def test_render_prompt_golden_both():
    assert render_prompt("Both", question_text="Why is the sky blue?", answer_text="Because of scattering.") == GOLDEN_BOTH


def test_render_prompt_requires_texts():
    with pytest.raises(ValueError):
        render_prompt("Question")
    with pytest.raises(ValueError):
        render_prompt("Both", question_text="q")
    with pytest.raises(ValueError):
        render_prompt("Speech", question_text="q")


def test_render_prompt_no_unresolved_placeholders():
    rng = random.Random(12)
    for _ in range(50):
        q = " ".join(rng.choice(["why", "how", "what", "{odd}"]) for _ in range(rng.randrange(1, 6)))
        a = " ".join(rng.choice(["because", "thus", "so"]) for _ in range(rng.randrange(1, 6)))
        for kind in ("Question", "Answer", "Both"):
            text = render_prompt(kind, question_text=q, answer_text=a)
            assert "{type_text}" not in text
            assert "{utterance_text}" not in text
            assert "{type_text_2}" not in text


# --- external predictions -------------------------------------------------------

def test_score_predictions_against_examples():
    rows = synthetic_examples(40)
    predictions = [(example_id, "D" if i % 2 == 0 else "R") for i, example_id in enumerate(rows.example_id)]
    report, warnings = score_predictions(predictions, rows, Task.AFFILIATION)
    assert report.n_test == 40
    assert report.accuracy == 1.0  # generator alternates Democrat/Republican
    predictions_bad = predictions + [("missing-id", "D"), (rows.example_id[0], "X")]
    report2, warnings2 = score_predictions(predictions_bad, rows, Task.AFFILIATION)
    assert len(warnings2) == 2  # unknown id and unusable label both reported
    assert report2.n_test == 40


def test_score_predictions_standing_case_sensitivity():
    rows = synthetic_examples(10)
    predictions = [(example_id, "M" if standing == "Majority" else "m")
                   for example_id, standing in zip(rows.example_id, rows.standing)]
    report, warnings = score_predictions(predictions, rows, Task.STANDING)
    assert not warnings
    assert report.accuracy == 1.0
