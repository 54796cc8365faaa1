import ast
import builtins
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gavel import KINDS, GavelError, cli
from gavel.cli import main
from gavel.corpus import HearingMeta, QALabel, Utterance, from_record, load_roster, read_json, store_corpus
from gavel.features import META_COLUMNS, read_examples
from test_party_models import assert_mirror_labels_match_oracle, oracle_strip

# sha256 of the fixture pipeline's examples.tsv, as written before name removal
# and feature extraction became token scans: the table must not change.
GOLDEN_EXAMPLES_SHA256 = "b1f759a8a715d5752b6adb10452189be61749816ae616f7378d53c754d3b417d"
# sha256 of the fixture pipeline's KS tables, whose group means add floats left to right
GOLDEN_KS_SHA256 = {
    "ks_matrix.tsv": "9a3babb74ddb355e4c3bdc44839dab10bc96f617bc62e3841c04432db0c50591",
    "ks_details.tsv": "94b73c611965094c4761db8296f601df84bad37e3c3957e9b6a8c0e64a5ceacb",
}

# sha256 of the fixture pipeline's evaluation tables, pinned before two-class logistic
# models were fitted once and mirrored: (extra evaluate flags) -> {table: sha256}
GOLDEN_EVAL_SHA256 = {
    (): {
        "split_grid.tsv": "0f29fab530ac36923c6666db067a33d41a31b17517937517500a3995afb9d23c",
        "skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
    },
    ("--model", "logistic", "--task", "Standing"): {
        "split_grid.tsv": "0734cd5b73f5df05df3e0bd09f46ed77c3b139c7343b483d91462b5afb56217c",
        "skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
    },
    ("--model", "logistic", "--task", "Affiliation"): {
        "split_grid.tsv": "0f29fab530ac36923c6666db067a33d41a31b17517937517500a3995afb9d23c",
        "skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
    },
}
# Pinned before grid folds and splits ran in forked workers: runs that fork with two
# usable CPUs. "two-cell-grid" stands for a config file holding TWO_CELL_GRID.
TWO_CELL_GRID = {"grid": [{"n_estimators": 3, "max_depth": 2}, {"n_estimators": 3}]}
GOLDEN_PARALLEL_EVAL_SHA256 = {
    ("--split-dims", "session", "--min-rows", "4", "--cv-folds", "2"): {
        "split_grid.tsv": "0834901ab6236a7bfb91439e65dc860618cecf0038fe35a923bd93d6a322fdc3",
        "skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
    },
    ("--model", "logistic", "--task", "Standing", "--split-dims", "session", "--min-rows", "4", "--cv-folds", "2"): {
        "split_grid.tsv": "16325a6e001a315dec27433fd7486bc75aa08a918c146ee651e2ea2e25a27c51",
        "skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
    },
    ("--config", "two-cell-grid"): {
        "split_grid.tsv": "4c844578a36534baa14afa46ac4b6c92976228ba368a1824a52f0598fd55c5ee",
        "skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
    },
    ("--config", "two-cell-grid", "--split-dims", "session", "--min-rows", "4", "--cv-folds", "2"): {
        "split_grid.tsv": "aba8cc60fb6bb5d14980bad5d9552cd30afafdfa14acbc90d28e47a284d16089",
        "skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
    },
}
# sha256 of the forest `train --min-rows 4 --cv-folds 2` saves with TWO_CELL_GRID
GOLDEN_GRID_FOREST_SHA256 = "2610f167fac659656e01474f1a39251c8fbc36752b7e48ba436967737339fe50"

FIXTURES = Path(__file__).parent.parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


def run(argv):
    return main(argv)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert "segment" in out and "verify-sample" in out


def test_no_subcommand_exits_one(capsys):
    assert run([]) == 1


def test_unknown_flag_exits_one_with_usage(capsys):
    assert run(["segment", "--nonsense"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_subcommand_exits_one(capsys):
    assert run(["transmogrify"]) == 1


def test_segment_missing_input_exits_one(capsys):
    assert run(["segment", "--input", "/nonexistent/path", "--output", "/tmp/x"]) == 1
    err = capsys.readouterr().err
    assert "/nonexistent/path" in err


def test_classify_qa_missing_required_flag(capsys):
    assert run(["classify-qa", "train"]) == 1
    assert "--train" in capsys.readouterr().err


def test_config_file_provides_values(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": "/nonexistent/path", "output": str(tmp_path / "out")}))
    assert run(["segment", "--config", str(cfg)]) == 1
    assert "/nonexistent/path" in capsys.readouterr().err  # value came from the config file


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1,2,3]")
    assert run(["segment", "--config", str(cfg)]) == 1


def pipeline_steps(root: Path) -> list[list[str]]:
    """The argv of each command of the full fetch-free pipeline over the bundled fixture set."""
    corpus = root / "corpus"
    return [
        ["segment", "--input", str(FIXTURES / "hearings"), "--output", str(corpus)],
        [
            "classify-qa", "train",
            "--train", f"{FIXTURES / 'qa' / 'ama_train.tsv'}:AMA",
            "--train", f"{FIXTURES / 'qa' / 'ukparl_train.tsv'}:UKParl",
            "--model-out", str(root / "qa_model.json"),
            "--epochs", "30",
        ],
        ["classify-qa", "apply", "--model", str(root / "qa_model.json"), "--corpus", str(corpus)],
        ["pair", "--corpus", str(corpus), "--output", str(root / "pairs.jsonl")],
        [
            "features", "--corpus", str(corpus), "--pairs", str(root / "pairs.jsonl"),
            "--government", str(FIXTURES / "government_context.json"),
            "--output", str(root / "examples.tsv"),
        ],
        [
            "kstest", "--examples", str(root / "examples.tsv"), "--kind", "Question",
            "--out-matrix", str(root / "ks_matrix.tsv"), "--out-details", str(root / "ks_details.tsv"),
        ],
        [
            "train", "--examples", str(root / "examples.tsv"), "--task", "Affiliation",
            "--kind", "Question", "--min-rows", "4",
            "--model-out", str(root / "party_model.json"),
            "--importance-out", str(root / "importances.tsv"),
        ],
        [
            "evaluate", "--examples", str(root / "examples.tsv"), "--task", "Affiliation",
            "--kind", "Question", "--min-rows", "10", "--out-dir", str(root / "eval"),
        ],
        [
            "prompts", "--corpus", str(corpus), "--pairs", str(root / "pairs.jsonl"),
            "--kind", "Both", "--output", str(root / "prompts.jsonl"),
        ],
        [
            "verify-sample", "--corpus", str(corpus), "--hearings-per-session", "1",
            "--utterances-per-hearing", "4", "--output", str(root / "sample.tsv"),
        ],
    ]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    for argv in pipeline_steps(root):
        assert run(argv) == 0, f"step failed: {argv}"
    return root


def test_pipeline_artifacts_present(pipeline):
    expected = [
        "corpus/segmentation_report.json",
        "qa_model.json",
        "pairs.jsonl",
        "examples.tsv",
        "ks_matrix.tsv",
        "ks_details.tsv",
        "party_model.json",
        "importances.tsv",
        "eval/split_grid.tsv",
        "eval/skipped_splits.tsv",
        "eval/manifest.json",
        "prompts.jsonl",
        "sample.tsv",
    ]
    for rel in expected:
        assert (pipeline / rel).exists(), rel


def test_pipeline_corpus_store_layout(pipeline):
    hearing_dirs = [p for p in (pipeline / "corpus").iterdir() if p.is_dir()]
    assert hearing_dirs
    for hdir in hearing_dirs:
        assert (hdir / "meta.json").is_file()
        assert (hdir / "utterances.jsonl").is_file()
        assert (hdir / "roster.json").is_file()


def test_pipeline_manifest_hash_fields(pipeline):
    manifest = json.loads((pipeline / "eval" / "manifest.json").read_text())
    for field in ("subcommand", "config", "config_hash", "input_checksums", "seed", "version"):
        assert field in manifest
    assert manifest["subcommand"] == "evaluate"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_pipeline_examples_match_golden_bytes(pipeline):
    assert _sha256(pipeline / "examples.tsv") == GOLDEN_EXAMPLES_SHA256


def test_pipeline_ks_tables_match_golden_bytes(pipeline):
    assert {name: _sha256(pipeline / name) for name in GOLDEN_KS_SHA256} == GOLDEN_KS_SHA256


@pytest.mark.parametrize("flags", list(GOLDEN_EVAL_SHA256), ids=lambda f: " ".join(f) or "default")
def test_pipeline_evaluation_tables_match_golden_bytes(pipeline, tmp_path, flags):
    out = pipeline / "eval"  # the pipeline's own evaluate runs with the default flags
    if flags:
        out = tmp_path / "eval"
        argv = ["evaluate", "--examples", str(pipeline / "examples.tsv"), "--kind", "Question",
                "--min-rows", "10", *flags, "--out-dir", str(out)]
        assert run(argv) == 0
    assert {name: _sha256(out / name) for name in GOLDEN_EVAL_SHA256[flags]} == GOLDEN_EVAL_SHA256[flags]


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch, tmp_path):
    """Make `map_ordered` see this many usable CPUs, and log to `tmp_path/learner_pids`
    the process id of each forest fit and each split run."""
    import gavel.harness
    import gavel.party_models

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)), raising=False)
    log = tmp_path / "learner_pids"
    for module, name in ((gavel.party_models, "train_forest"), (gavel.harness, "_run_split")):
        def logged(*args, _fn=getattr(module, name), **kwargs):
            with open(log, "a") as f:  # a worker's write outlives the worker
                f.write(f"{os.getpid()}\n")
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, logged)
    return request.param


def test_tables_and_grid_forest_have_the_same_bytes_on_one_cpu_and_two(pipeline, tmp_path, cpus):
    grid = _config(tmp_path, TWO_CELL_GRID)
    golden = {**GOLDEN_EVAL_SHA256, **GOLDEN_PARALLEL_EVAL_SHA256}
    for n, (flags, tables) in enumerate(golden.items()):
        out = tmp_path / f"eval{n}"
        argv = ["evaluate", "--examples", str(pipeline / "examples.tsv"), "--kind", "Question", "--min-rows", "10",
                *(grid if f == "two-cell-grid" else f for f in flags), "--out-dir", str(out)]
        assert run(argv) == 0, flags
        assert {name: _sha256(out / name) for name in tables} == tables, flags
    forest = tmp_path / "grid" / "forest.json"
    argv = ["train", "--examples", str(pipeline / "examples.tsv"), "--min-rows", "4", "--cv-folds", "2",
            "--model-out", str(forest), "--config", grid]
    assert run(argv) == 0
    assert _sha256(forest) == GOLDEN_GRID_FOREST_SHA256
    learner_pids = {int(pid) for pid in (tmp_path / "learner_pids").read_text().split()}
    if cpus == 1:
        assert learner_pids == {os.getpid()}
    else:
        assert learner_pids - {os.getpid()}, "no fold or split ran in a worker"


def test_a_learner_bug_in_a_forked_split_exits_two(pipeline, tmp_path, monkeypatch, capsys):
    import gavel.harness

    def bug(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(gavel.harness, "train_logistic", bug)
    argv = ["evaluate", "--examples", str(pipeline / "examples.tsv"), "--model", "logistic", "--split-dims",
            "session", "--min-rows", "4", "--out-dir", str(tmp_path / "eval")]
    assert run(argv) == 2
    assert "TypeError: unsupported operand" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "split_grid.tsv").exists()


@pytest.mark.parametrize("flags", [("--model", "logistic"), ()], ids=["logistic", "one-cell-forest"])
def test_min_rows_below_twice_cv_folds_runs_when_nothing_cross_validates(pipeline, tmp_path, flags):
    out = tmp_path / "eval"
    argv = ["evaluate", "--examples", str(pipeline / "examples.tsv"), "--min-rows", "6", *flags, "--out-dir", str(out)]
    assert run(argv) == 0
    assert (out / "split_grid.tsv").read_text().splitlines()[1].startswith("all\t")
    assert (out / "skipped_splits.tsv").is_file()


def test_min_rows_below_twice_cv_folds_refuses_a_grid_search(pipeline, tmp_path, capsys):
    argv = ["evaluate", "--examples", str(pipeline / "examples.tsv"), "--min-rows", "6",
            "--config", _config(tmp_path, TWO_CELL_GRID), "--out-dir", str(tmp_path / "eval")]
    assert run(argv) == 1
    assert "min_rows=6 must be at least 2*cv_folds=10" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_two_class_logistic_labels_match_oracle_on_the_fixture_table(pipeline):
    examples = read_examples(pipeline / "examples.tsv")
    dimension_sets = [(), ("session",), ("committee",), ("hearing_type", "government")]
    assert assert_mirror_labels_match_oracle(examples, dimension_sets, KINDS, min_rows=4) > 50


def test_pipeline_adds_no_float_with_builtin_sum(tmp_path, monkeypatch):
    """Builtin `sum` rounds float sums differently from Python 3.12 on; no float may reach it."""
    builtin_sum = builtins.sum
    float_sums = []  # kept as well as raised, so a failure names the sum

    def int_sum(items, start=0):
        items = list(items)
        if any(isinstance(x, float) for x in items):
            float_sums.append(items[:3])
            raise TypeError(f"builtin sum over floats: {items[:3]}")
        return builtin_sum(items, start)

    grid = _config(tmp_path, {"grid": [{"n_estimators": 3, "max_depth": 2}, {"n_estimators": 3}]})
    monkeypatch.setattr(builtins, "sum", int_sum)
    steps = pipeline_steps(tmp_path) + [
        ["train", "--examples", str(tmp_path / "examples.tsv"), "--min-rows", "4", "--cv-folds", "2",
         "--model-out", str(tmp_path / "grid" / "forest.json"), "--config", grid],
        ["evaluate", "--examples", str(tmp_path / "examples.tsv"), "--model", "logistic", "--min-rows", "10",
         "--out-dir", str(tmp_path / "logistic")],
    ]
    for argv in steps:
        assert run(argv) == 0, f"step failed: {argv}"
    monkeypatch.undo()
    assert float_sums == []
    assert _sha256(tmp_path / "examples.tsv") == GOLDEN_EXAMPLES_SHA256
    assert {name: _sha256(tmp_path / name) for name in GOLDEN_KS_SHA256} == GOLDEN_KS_SHA256


# Run one command in a fresh interpreter; print its exit code and the gavel modules it loaded.
_LOADED = """
import json, sys
from gavel.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("gavel."))]))
"""


def run_fresh(code: str, *args: str) -> str:
    """stdout of `python -c code *args` in a fresh interpreter that imports gavel from `src/`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                          check=True).stdout


def _modules_loaded_by(argv: list[str]) -> set[str]:
    out = run_fresh(_LOADED, json.dumps(argv))
    code, modules = json.loads(out.splitlines()[-1])
    assert code == 0, argv
    return {m.removeprefix("gavel.") for m in modules} - {"cli"}


def test_each_command_loads_only_the_modules_it_runs(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline / "corpus", corpus)
    assert _modules_loaded_by(["--version"]) == set()
    segment = ["segment", "--input", str(FIXTURES / "hearings"), "--output", str(tmp_path / "segmented")]
    assert _modules_loaded_by(segment) == {"corpus", "segmenter"}
    pair = ["pair", "--corpus", str(corpus), "--output", str(tmp_path / "pairs.jsonl")]
    assert _modules_loaded_by(pair) == {"corpus", "qa", "linear"}
    apply = ["classify-qa", "apply", "--model", str(pipeline / "qa_model.json"), "--corpus", str(corpus)]
    assert _modules_loaded_by(apply) == {"corpus", "qa", "linear"}
    kstest = ["kstest", "--examples", str(pipeline / "examples.tsv"), "--out-matrix", str(tmp_path / "ks.tsv")]
    assert _modules_loaded_by(kstest) == {"corpus", "features", "lexicons", "kstest"}
    prompts = ["prompts", "--corpus", str(corpus), "--pairs", str(pipeline / "pairs.jsonl"), "--kind", "Both",
               "--output", str(tmp_path / "prompts.jsonl")]
    assert _modules_loaded_by(prompts) == {"corpus", "qa", "linear"}


def test_each_command_binds_the_modules_of_the_names_it_reads():
    """A name a command takes from another gavel module is bound by the command's `_use` line,
    or by `main` for `corpus`. Were it not, the command would fail with NameError in a fresh
    process even when a command run earlier in the same process had bound the name."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def reads(name: str, seen: set[str]) -> set[str]:  # with the module's functions it calls
        seen.add(name)
        names = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for callee in (names & functions.keys()) - seen:
            names |= reads(callee, seen)
        return names

    commands = [name for name in functions if name.startswith("cmd_")]
    assert len(commands) == 11
    for name in commands:
        calls = [c for c in ast.walk(functions[name]) if isinstance(c, ast.Call) and getattr(c.func, "id", "") == "_use"]
        bound = {"corpus"} | {arg.value for call in calls for arg in call.args}
        needed = {cli._HOME[n] for n in reads(name, set()) if n in cli._HOME}
        assert needed <= bound, name


def test_user_errors_exit_one_through_one_base_class():
    from gavel.corpus import CorpusError
    from gavel.features import FeatureError
    from gavel.fetcher import FetchError
    from gavel.lexicons import LexiconError
    from gavel.segmenter import SegmentationFailed

    assert all(issubclass(e, GavelError) for e in (CorpusError, FetchError, LexiconError, SegmentationFailed))
    assert not issubclass(FeatureError, GavelError)  # an internal error: exit code 2


def test_verify_sample_scoring_round_trip(pipeline, tmp_path, capsys):
    sample = (pipeline / "sample.tsv").read_text().splitlines()
    verdicts = tmp_path / "verdicts.tsv"
    rows = []
    for i, line in enumerate(sample[1:]):
        utterance_id = line.split("\t")[0]
        verdict = "correct" if i % 7 else "clubbed"
        rows.append(f"{utterance_id}\t{verdict}")
    verdicts.write_text("\n".join(rows) + "\n")
    assert run(["verify-sample", "--score", str(verdicts)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_total"] == len(rows)
    assert summary["n_incorrect"] == summary["n_clubbed"] + summary["n_broken"]


def test_classify_qa_eval_prints_confusion(pipeline, capsys):
    rc = run(
        [
            "classify-qa", "apply", "--model", str(pipeline / "qa_model.json"),
            "--eval", f"{FIXTURES / 'qa' / 'hand_labeled_test.tsv'}:HandLabeled",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 800
    assert payload["accuracy"] > 0.52625 + 0.10


def test_evaluate_predictions_mode(pipeline, tmp_path, capsys):
    examples = (pipeline / "examples.tsv").read_text().splitlines()
    header = examples[0].split("\t")
    id_col = header.index("example_id")
    party_col = header.index("party")
    kind_col = header.index("kind")
    rows = []
    for line in examples[1:]:
        cols = line.split("\t")
        if cols[kind_col] == "Question":
            rows.append(f"{cols[id_col]}\t{cols[party_col][0]}")
    predictions = tmp_path / "preds.tsv"
    predictions.write_text("\n".join(rows) + "\n")
    rc = run(
        [
            "evaluate", "--examples", str(pipeline / "examples.tsv"), "--task", "Affiliation",
            "--predictions", str(predictions), "--out-dir", str(tmp_path / "ext"),
        ]
    )
    assert rc == 0
    table = (tmp_path / "ext" / "external_predictions.tsv").read_text().splitlines()
    assert len(table) == 2
    assert "\t1.0\t" in table[1]  # perfect oracle predictions


def test_version_exits_zero(capsys):
    assert run(["--version"]) == 0
    assert "gavel" in capsys.readouterr().out


def test_fetch_requires_endpoint_and_ids(capsys):
    assert run(["fetch", "--cache-dir", "/tmp/c"]) == 1
    assert "--endpoint" in capsys.readouterr().err
    assert run(["fetch", "--endpoint", "https://x.test/{hearing_id}", "--cache-dir", "/tmp/c"]) == 1
    assert "no hearing ids" in capsys.readouterr().err


def test_segment_with_custom_rules_file(tmp_path):
    from gavel.corpus import to_record
    from gavel.segmenter import SegmenterRules

    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps(to_record(SegmenterRules())))
    out = tmp_path / "store"
    assert run(["segment", "--input", str(FIXTURES / "hearings"), "--output", str(out),
                "--rules", str(rules_path)]) == 0
    assert (out / "segmentation_report.json").is_file()


def test_segment_rejects_malformed_rules_file(tmp_path, capsys):
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps({"marker_patterns": ["(no name group"]}))
    assert run(["segment", "--input", str(FIXTURES / "hearings"), "--output", str(tmp_path / "s"),
                "--rules", str(rules_path)]) == 1


def test_prompts_content_matches_renderer(pipeline):
    from gavel.harness import render_prompt

    lines = (pipeline / "prompts.jsonl").read_text().splitlines()
    assert lines
    record = json.loads(lines[0])
    assert record["prompt"].startswith("What follows is a question and its answer in a congressional hearing:")
    assert "Do not explain." in record["prompt"]
    assert "{" not in record["prompt"].replace("{", "", 0)  # no unresolved placeholders survive
    # cross-check one rendering against the library call
    pairs = (pipeline / "pairs.jsonl").read_text().splitlines()
    first_pair = json.loads(pairs[0])
    corpus_dir = pipeline / "corpus" / first_pair["hearing_id"]
    utts = {}
    for line in (corpus_dir / "utterances.jsonl").read_text().splitlines():
        rec = json.loads(line)
        utts[rec["utterance_id"]] = rec["text"]
    expected = render_prompt(
        "Both",
        question_text=utts[first_pair["question_utterance_id"]],
        answer_text=utts[first_pair["answer_utterance_id"]],
    )
    by_id = {json.loads(l)["example_id"]: json.loads(l)["prompt"] for l in lines}
    assert by_id[first_pair["pair_id"]] == expected


def test_internal_error_exits_two(monkeypatch, tmp_path, capsys):
    import gavel.cli as cli_module

    def boom(path):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli_module, "load_corpus", boom)
    store = tmp_path / "corpus"
    assert run(["segment", "--input", str(FIXTURES / "hearings"), "--output", str(store)]) == 0
    assert run(["pair", "--corpus", str(store), "--output", str(tmp_path / "p.jsonl")]) == 2
    assert "RuntimeError" in capsys.readouterr().err


def test_a_learner_bug_exits_two_rather_than_filling_the_split_grid(pipeline, tmp_path, monkeypatch, capsys):
    import gavel.harness

    def bug(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(gavel.harness, "train_logistic", bug)
    argv = ["evaluate", "--examples", str(pipeline / "examples.tsv"), "--model", "logistic", "--min-rows", "10",
            "--out-dir", str(tmp_path / "eval")]
    assert run(argv) == 2
    assert "TypeError: unsupported operand" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "split_grid.tsv").exists()


def test_evaluate_rejects_qa_sessions_layout(pipeline, tmp_path, capsys):
    argv = [
        "evaluate", "--examples", str(pipeline / "examples.tsv"), "--kind", "Question",
        "--min-rows", "10", "--out-dir", str(tmp_path / "eval"), "--layouts", "qa_sessions",
    ]
    assert run(argv) == 1
    assert "unknown layout 'qa_sessions'" in capsys.readouterr().err


def test_classify_qa_train_creates_model_out_parent(tmp_path):
    model = tmp_path / "not" / "yet" / "qa.json"
    argv = [
        "classify-qa", "train", "--train", f"{FIXTURES / 'qa' / 'ama_train.tsv'}:AMA",
        "--model-out", str(model), "--epochs", "2",
    ]
    assert run(argv) == 0
    assert json.loads(model.read_text())["format_version"]
    assert (model.parent / "manifest.json").is_file()


def test_evaluate_byte_identical_tables(tmp_path):
    corpus = tmp_path / "corpus"
    assert run(["segment", "--input", str(FIXTURES / "hearings"), "--output", str(corpus)]) == 0
    # label from ground truth-ish questions by reusing classify-qa with a quick model
    model = tmp_path / "m.json"
    assert run(
        [
            "classify-qa", "train",
            "--train", f"{FIXTURES / 'qa' / 'ama_train.tsv'}:AMA",
            "--model-out", str(model), "--epochs", "12",
        ]
    ) == 0
    assert run(["classify-qa", "apply", "--model", str(model), "--corpus", str(corpus)]) == 0
    examples = tmp_path / "ex.tsv"
    assert run(
        [
            "features", "--corpus", str(corpus),
            "--government", str(FIXTURES / "government_context.json"),
            "--output", str(examples),
        ]
    ) == 0
    common = ["--min-rows", "4", "--cv-folds", "2"]
    rc1 = run(["evaluate", "--examples", str(examples), *common, "--out-dir", str(tmp_path / "e1")])
    rc2 = run(["evaluate", "--examples", str(examples), *common, "--out-dir", str(tmp_path / "e2")])
    assert rc1 == 0 and rc2 == 0
    assert (tmp_path / "e1" / "split_grid.tsv").read_bytes() == (tmp_path / "e2" / "split_grid.tsv").read_bytes()


def _config(tmp_path, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    return str(cfg)


def test_unknown_config_key_exits_one_and_names_it(tmp_path, capsys):
    cfg = _config(tmp_path, {"ouput_typo": "x"})
    argv = ["segment", "--input", str(FIXTURES / "hearings"), "--output", str(tmp_path / "s"), "--config", cfg]
    assert run(argv) == 1
    assert "ouput_typo" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_config_value_checked_like_its_flag(tmp_path, capsys):
    cfg = _config(tmp_path, {"kind": "Bogus"})
    argv = ["kstest", "--examples", str(tmp_path / "ex.tsv"), "--out-matrix", str(tmp_path / "m.tsv"), "--config", cfg]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "'kind'" in err and "Bogus" in err
    cfg = _config(tmp_path, {"epochs": "ten"})
    assert run(["classify-qa", "train", "--config", cfg]) == 1
    assert "'epochs'" in capsys.readouterr().err


def test_evaluate_checks_settings_before_reading_input(tmp_path, capsys):
    argv = ["evaluate", "--examples", str(tmp_path / "absent.tsv"), "--out-dir", str(tmp_path / "eval")]
    assert run(argv + ["--test-fraction", "1.5"]) == 1
    assert "test_fraction" in capsys.readouterr().err
    assert run(argv + ["--split-dims", "party"]) == 1
    assert "unknown split dimensions" in capsys.readouterr().err


def test_evaluate_checks_layouts_before_reading_input(pipeline, tmp_path, capsys):
    argv = [
        "evaluate", "--examples", str(pipeline / "examples.tsv"), "--min-rows", "10",
        "--out-dir", str(tmp_path / "eval"), "--layouts", "split_grid,bogus",
    ]
    assert run(argv) == 1
    assert "unknown layout 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "split_grid.tsv").exists()


def test_classify_qa_train_rejects_apply_flags(tmp_path, capsys):
    argv = [
        "classify-qa", "train", "--train", f"{FIXTURES / 'qa' / 'ama_train.tsv'}:AMA",
        "--model-out", str(tmp_path / "m.json"), "--corpus", str(tmp_path),
    ]
    assert run(argv) == 1
    assert "--corpus" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_train_flag_replaces_config_train_list(tmp_path):
    ama, uk = f"{FIXTURES / 'qa' / 'ama_train.tsv'}:AMA", f"{FIXTURES / 'qa' / 'ukparl_train.tsv'}:UKParl"
    cfg = _config(tmp_path, {"train": [ama, uk], "epochs": 2})
    assert run(["classify-qa", "train", "--config", cfg, "--model-out", str(tmp_path / "a" / "m.json")]) == 0
    assert run(["classify-qa", "train", "--config", cfg, "--train", ama, "--model-out", str(tmp_path / "b" / "m.json")]) == 0
    from_config = json.loads((tmp_path / "a" / "manifest.json").read_text())["config"]
    from_flag = json.loads((tmp_path / "b" / "manifest.json").read_text())["config"]
    assert from_config["train"] == [ama, uk]
    assert from_flag["train"] == [ama]
    assert from_flag["epochs"] == 2


def test_config_values_do_not_leak_between_calls(tmp_path, capsys):
    cfg = _config(tmp_path, {"input": "/nonexistent/path", "output": str(tmp_path / "out")})
    assert run(["segment", "--config", cfg]) == 1
    assert "/nonexistent/path" in capsys.readouterr().err
    assert run(["segment"]) == 1
    err = capsys.readouterr().err
    assert "missing required option(s): --input, --output" in err
    assert "/nonexistent/path" not in err


@pytest.mark.parametrize(
    "argv, config, names",
    [
        (["classify-qa", "apply", "--model", "absent.json", "--eval", "absent.tsv:HandLabeled"],
         {"corpus": "/nonexistent"}, ("--eval", "config key 'corpus'")),
        (["evaluate", "--examples", "absent.tsv", "--out-dir", "eval", "--predictions", "absent-predictions.tsv"],
         {"split_dims": "session"}, ("--predictions", "config key 'split_dims'")),
        (["verify-sample", "--score", "absent.tsv"], {"corpus": "/nonexistent"}, ("--score", "config key 'corpus'")),
        (["verify-sample"], {"corpus": "/nonexistent", "score": "absent.tsv"},
         ("config key 'corpus'", "config key 'score'")),
    ],
)
def test_config_key_obeys_mode_group(tmp_path, capsys, argv, config, names):
    assert run(argv + ["--config", _config(tmp_path, config)]) == 1
    err = capsys.readouterr().err
    assert f"{names[0]} and {names[1]} cannot be used together" in err
    assert "absent" not in err  # refused before any input is read


def test_apply_without_corpus_or_eval_exits_one_before_reading_the_model(capsys):
    assert run(["classify-qa", "apply", "--model", "absent.json"]) == 1
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("error: ") and "--corpus" in first and "--eval" in first
    assert "absent" not in first


def test_apply_relabels_the_store_without_touching_rosters(pipeline, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline / "corpus", corpus)
    stored = {p: p.read_bytes() for p in corpus.rglob("*") if p.is_file() and p.name != "manifest.json"}
    assert any(p.name == "roster.json" for p in stored)

    def no_rosters(root):
        raise AssertionError(f"apply read the rosters under {root}")

    monkeypatch.setattr("gavel.cli.load_rosters", no_rosters)
    assert run(["classify-qa", "apply", "--model", str(pipeline / "qa_model.json"), "--corpus", str(corpus)]) == 0
    assert {p: p.read_bytes() for p in stored} == stored


def test_prompts_manifest_checksums_the_pairs_file(pipeline, tmp_path):
    pairs = tmp_path / "pairs.jsonl"
    lines = (pipeline / "pairs.jsonl").read_text().splitlines()
    hashes = []
    for kept in (lines, lines[:-1]):
        pairs.write_text("\n".join(kept) + "\n")
        assert run(["prompts", "--corpus", str(pipeline / "corpus"), "--pairs", str(pairs), "--kind", "Both",
                    "--output", str(tmp_path / "prompts.jsonl")]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert str(pairs) in manifest["input_checksums"]
        hashes.append(manifest["config_hash"])
    assert hashes[0] != hashes[1]


def test_directory_checksum_ignores_upstream_manifest(tmp_path):
    from gavel.cli import _checksum_input

    store = tmp_path / "corpus"
    assert run(["segment", "--input", str(FIXTURES / "hearings"), "--output", str(store)]) == 0
    before = _checksum_input(store)
    manifest = store / "manifest.json"
    record = json.loads(manifest.read_text())
    record["started_at"] = record["finished_at"] = "1999-01-01T00:00:00Z"
    manifest.write_text(json.dumps(record))
    assert _checksum_input(store) == before
    (store / "segmentation_report.json").write_text("{}\n")
    assert _checksum_input(store) != before


@pytest.mark.parametrize("grid", [[], [{"n_estimators": 5, "max_depth": "4"}], [{"n_estimators": 5, "depth": 4}]])
def test_bad_grid_config_exits_one_before_training(pipeline, tmp_path, capsys, grid):
    cfg = _config(tmp_path, {"grid": grid})
    argv = ["evaluate", "--examples", str(pipeline / "examples.tsv"), "--min-rows", "10",
            "--out-dir", str(tmp_path / "eval"), "--config", cfg]
    assert run(argv) == 1
    assert "'grid'" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()
    argv = ["train", "--examples", str(pipeline / "examples.tsv"), "--min-rows", "4",
            "--model-out", str(tmp_path / "m" / "f.json"), "--config", cfg]
    assert run(argv) == 1
    assert not (tmp_path / "m").exists()


def _raw_hearings(tmp_path):
    raw = tmp_path / "raw"
    shutil.copytree(FIXTURES / "hearings", raw)
    return raw, raw / "synth-108-0000"


def _segment_bad_roster(pipeline, tmp_path):
    raw, hdir = _raw_hearings(tmp_path)
    (hdir / "roster.json").write_text("[]")
    return ["segment", "--input", str(raw), "--output", str(tmp_path / "s")], hdir / "roster.json"


def _segment_bad_meta(pipeline, tmp_path):
    raw, hdir = _raw_hearings(tmp_path)
    (hdir / "meta.json").write_text('{"hearing_id": ')
    return ["segment", "--input", str(raw), "--output", str(tmp_path / "s")], hdir / "meta.json"


def _rewrite_json(path, change):
    record = json.loads(path.read_text())
    change(record)
    path.write_text(json.dumps(record))


def _segment_meta(change, where):
    def case(pipeline, tmp_path):
        raw, hdir = _raw_hearings(tmp_path)
        _rewrite_json(hdir / "meta.json", change)
        return ["segment", "--input", str(raw), "--output", str(tmp_path / "s")], where.format(hdir / "meta.json")
    return case


def _segment_roster_person_party(pipeline, tmp_path):
    raw, hdir = _raw_hearings(tmp_path)
    _rewrite_json(hdir / "roster.json", lambda record: record["people"][0].update(party="Whig"))
    argv = ["segment", "--input", str(raw), "--output", str(tmp_path / "s")]
    return argv, f"unknown party 'Whig' ({hdir / 'roster.json'} field 'party')"


def _pair_utterance_label(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline / "corpus", corpus)
    path = next(corpus.glob("*/utterances.jsonl"))
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "qa_label": "Maybe"})
    path.write_text("\n".join(lines) + "\n")
    argv = ["pair", "--corpus", str(corpus), "--output", str(tmp_path / "pairs.jsonl")]
    return argv, f"unknown qa_label 'Maybe' ({path}:2 field 'qa_label')"


def _segment_rules(content):
    def case(pipeline, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(content)
        argv = ["segment", "--input", str(FIXTURES / "hearings"), "--output", str(tmp_path / "s"), "--rules", str(rules)]
        return argv, rules
    return case


def _pair_bad_utterance(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline / "corpus", corpus)
    path = next(corpus.glob("*/utterances.jsonl"))
    lines = path.read_text().splitlines()
    lines[1] = "[1]"
    path.write_text("\n".join(lines) + "\n")
    return ["pair", "--corpus", str(corpus), "--output", str(tmp_path / "pairs.jsonl")], f"{path}:2"


def _bad_pairs_file(subcommand, line):
    def case(pipeline, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        good = (pipeline / "pairs.jsonl").read_text().splitlines()
        pairs.write_text("\n".join([good[0], line(good[1])]) + "\n")
        argv = [subcommand, "--corpus", str(pipeline / "corpus"), "--pairs", str(pairs),
                "--output", str(tmp_path / "out" / "f")]
        if subcommand == "features":
            argv += ["--government", str(FIXTURES / "government_context.json")]
        else:
            argv += ["--kind", "Both"]
        return argv, f"{pairs}:2"
    return case


def _no_hearing_id(record_line):
    record = json.loads(record_line)
    del record["hearing_id"]
    return json.dumps(record)


def _features_government_object(pipeline, tmp_path):
    gov = tmp_path / "gov.json"
    gov.write_text(json.dumps({"session": 108}))
    argv = ["features", "--corpus", str(pipeline / "corpus"), "--government", str(gov),
            "--output", str(tmp_path / "ex.tsv")]
    return argv, gov


def _model_without_training_meta(pipeline, tmp_path):
    model = tmp_path / "model.json"
    record = json.loads((pipeline / "qa_model.json").read_text())
    del record["training_meta"]
    model.write_text(json.dumps(record))
    argv = ["classify-qa", "apply", "--model", str(model),
            "--eval", f"{FIXTURES / 'qa' / 'hand_labeled_test.tsv'}:HandLabeled"]
    return argv, model


def _model_without_n_examples(pipeline, tmp_path):
    model = tmp_path / "model.json"
    record = json.loads((pipeline / "qa_model.json").read_text())
    del record["training_meta"]["n_examples"]
    model.write_text(json.dumps(record))
    argv = ["classify-qa", "apply", "--model", str(model),
            "--eval", f"{FIXTURES / 'qa' / 'hand_labeled_test.tsv'}:HandLabeled"]
    return argv, f"{model} field 'n_examples'"


def _kstest_bad_session(pipeline, tmp_path):
    examples = tmp_path / "examples.tsv"
    lines = (pipeline / "examples.tsv").read_text().splitlines()
    cells = lines[2].split("\t")
    cells[3] = "abc"  # session
    lines[2] = "\t".join(cells)
    examples.write_text("\n".join(lines) + "\n")
    return ["kstest", "--examples", str(examples), "--out-matrix", str(tmp_path / "m.tsv")], f"{examples}:3"


def _pair_sequence_gap(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline / "corpus", corpus)
    path = next(corpus.glob("*/utterances.jsonl"))
    lines = path.read_text().splitlines()
    del lines[1]  # sequence_no 1 goes missing
    path.write_text("\n".join(lines) + "\n")
    return ["pair", "--corpus", str(corpus), "--output", str(tmp_path / "pairs.jsonl")], path


MALFORMED_INPUTS = {
    "roster-not-object": _segment_bad_roster,
    "meta-invalid-json": _segment_bad_meta,
    "meta-unknown-chamber": _segment_meta(lambda r: r.update(chamber="Moon"),
                                          "unknown chamber 'Moon' ({} field 'chamber')"),
    "meta-without-committee": _segment_meta(lambda r: r.pop("committee"), "missing field ({} field 'committee')"),
    "roster-person-unknown-party": _segment_roster_person_party,
    "utterance-unknown-qa-label": _pair_utterance_label,
    "rules-not-object": _segment_rules("[1]"),
    "rules-unknown-key": _segment_rules('{"x": 1}'),
    "utterance-not-object": _pair_bad_utterance,
    "features-pair-without-hearing-id": _bad_pairs_file("features", _no_hearing_id),
    "prompts-pair-not-object": _bad_pairs_file("prompts", lambda line: "[1,2]"),
    "government-not-array": _features_government_object,
    "model-without-training-meta": _model_without_training_meta,
    "model-training-meta-without-n-examples": _model_without_n_examples,
    "examples-bad-session": _kstest_bad_session,
    "utterances-sequence-gap": _pair_sequence_gap,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_one_and_names_the_file(pipeline, tmp_path, capsys, case):
    argv, where = MALFORMED_INPUTS[case](pipeline, tmp_path)
    assert run(argv) == 1
    assert str(where) in capsys.readouterr().err


NON_FINITE_READERS = {
    "kstest": lambda ex, out: ["kstest", "--examples", str(ex), "--out-matrix", str(out / "m.tsv")],
    "train": lambda ex, out: ["train", "--examples", str(ex), "--model-out", str(out / "model.json")],
    "evaluate": lambda ex, out: ["evaluate", "--examples", str(ex), "--out-dir", str(out)],
}


@pytest.mark.parametrize("command", sorted(NON_FINITE_READERS))
@pytest.mark.parametrize("cell", ["nan", "-inf"])
def test_non_finite_feature_cell_exits_one_and_names_the_line(pipeline, tmp_path, capsys, cell, command):
    examples = tmp_path / "examples.tsv"
    lines = (pipeline / "examples.tsv").read_text().splitlines()
    cells = lines[2].split("\t")
    column = lines[0].split("\t")[len(META_COLUMNS)]
    cells[len(META_COLUMNS)] = cell
    lines[2] = "\t".join(cells)
    examples.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run(NON_FINITE_READERS[command](examples, out)) == 1
    err = capsys.readouterr().err
    assert f"{examples}:3" in err and "non-finite" in err and column in err
    assert not out.exists()


DIRECTORY_AS_FILE = {
    "prompts-pairs": lambda p, d: ["prompts", "--corpus", str(p / "corpus"), "--pairs", str(d), "--kind", "Both",
                                   "--output", str(d.parent / "out" / "prompts.jsonl")],
    "features-government": lambda p, d: ["features", "--corpus", str(p / "corpus"), "--government", str(d),
                                         "--output", str(d.parent / "out" / "ex.tsv")],
    "classify-qa-apply-model": lambda p, d: ["classify-qa", "apply", "--model", str(d),
                                             "--eval", f"{FIXTURES / 'qa' / 'hand_labeled_test.tsv'}:HandLabeled"],
    "kstest-examples": lambda p, d: ["kstest", "--examples", str(d), "--out-matrix", str(d.parent / "out" / "m.tsv")],
    "evaluate-examples": lambda p, d: ["evaluate", "--examples", str(d), "--out-dir", str(d.parent / "out")],
}


@pytest.mark.parametrize("case", sorted(DIRECTORY_AS_FILE))
def test_directory_given_as_input_file_exits_one_and_names_it(pipeline, tmp_path, capsys, case):
    directory = tmp_path / "a-directory"
    directory.mkdir()
    assert run(DIRECTORY_AS_FILE[case](pipeline, directory)) == 1
    err = capsys.readouterr().err
    assert str(directory) in err and "Traceback" not in err


def _bad_examples(tmp_path):
    path = tmp_path / "bad-examples.tsv"
    path.write_text("not\ta\theader\n")
    return path


def _bad_government(tmp_path):
    path = tmp_path / "bad-government.json"
    path.write_text("{")
    return path


# (argv, option, output path): each output cannot be written, and each command also has a malformed input
BAD_OUTPUTS = {
    "evaluate-out-dir-is-a-file": lambda p, t, f, d: (
        ["evaluate", "--examples", str(_bad_examples(t)), "--out-dir", str(f)], "--out-dir", f),
    "kstest-out-matrix-is-a-directory": lambda p, t, f, d: (
        ["kstest", "--examples", str(_bad_examples(t)), "--out-matrix", str(d)], "--out-matrix", d),
    "features-output-is-a-directory": lambda p, t, f, d: (
        ["features", "--corpus", str(p / "corpus"), "--government", str(_bad_government(t)), "--output", str(d)],
        "--output", d),
    "train-model-out-under-a-file": lambda p, t, f, d: (
        ["train", "--examples", str(_bad_examples(t)), "--model-out", str(f / "model.json")], "--model-out", f),
    "segment-output-under-a-file": lambda p, t, f, d: (
        ["segment", "--input", str(t / "absent-input"), "--output", str(f / "corpus")], "--output", f),
}


@pytest.mark.parametrize("case", sorted(BAD_OUTPUTS))
def test_bad_output_location_exits_one_before_reading_input(pipeline, tmp_path, capsys, case):
    a_file = tmp_path / "an-output-file"
    a_file.write_text("keep")
    a_dir = tmp_path / "an-output-dir"
    a_dir.mkdir()
    argv, option, where = BAD_OUTPUTS[case](pipeline, tmp_path, a_file, a_dir)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {option} " in err and str(where) in err
    # the malformed input was never read
    assert str(tmp_path / "bad-") not in err and str(tmp_path / "absent-input") not in err
    assert a_file.read_text() == "keep" and list(a_dir.iterdir()) == []


@pytest.mark.parametrize("mode_argv", [
    lambda p, t: ["classify-qa", "apply", "--model", str(p / "qa_model.json"),
                  "--eval", f"{FIXTURES / 'qa' / 'hand_labeled_test.tsv'}:HandLabeled", "--corpus", str(t / "c")],
    lambda p, t: ["verify-sample", "--score", str(t / "verdicts.tsv"), "--corpus", str(t / "c"),
                  "--output", str(t / "out" / "s.tsv")],
    lambda p, t: ["evaluate", "--examples", str(p / "examples.tsv"), "--predictions", str(t / "predictions.tsv"),
                  "--split-dims", "session", "--out-dir", str(t / "out")],
], ids=["classify-qa-apply", "verify-sample", "evaluate"])
def test_mode_flags_exclude_each_other(pipeline, tmp_path, capsys, mode_argv):
    (tmp_path / "verdicts.tsv").write_text("u1\tcorrect\n")
    example_ids = [l.split("\t")[0] for l in (pipeline / "examples.tsv").read_text().splitlines()[1:]]
    (tmp_path / "predictions.tsv").write_text("".join(f"{i}\tD\n" for i in example_ids))
    assert run(mode_argv(pipeline, tmp_path)) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rules, named", [
    ({"start_patterns": "abc"}, "start_patterns"),
    ({"honorifics": ["Mr"], "marker_paterns": ["x"]}, "marker_paterns"),
])
def test_rules_file_checked_like_config(tmp_path, capsys, rules, named):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rules))
    argv = ["segment", "--input", str(FIXTURES / "hearings"), "--output", str(tmp_path / "s"), "--rules", str(path)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert named in err and str(path) in err
    assert not (tmp_path / "s").exists()


def _named_hearing_store(tmp_path) -> Path:
    """One fixture hearing whose member questions name roster members in hostile ways."""
    hearing = FIXTURES / "hearings" / "synth-108-0000"
    meta = read_json(hearing / "meta.json", dict, lambda rec: from_record(HearingMeta, rec))
    roster = load_roster(hearing / "roster.json")
    members = [p.person_id for p in roster.people if p.role.value == "Member"]
    texts = [
        "Thank you, MR. GOMEZ. Dr. McCLAIN said the same thing in 2019, did he not?",
        "Mr. Patel, is Mr. Hansen's estimate right, or is Mr. Hansen\u2019s?",
        "I yield to Richard, Gomez and then to Richard\u2014Gomez again. Why?",
        "Ms. Lev\u0131n has asked about Ohio; LEVIN's staff asked too. Will you answer?",
        "Would Robert Lawrence, or Lawrence alone, or \u27e8Lawrence\u27e9, agree? Perhaps not!",
        "Nobody here is named at all. Is that so?",
    ]
    utterances = [
        Utterance(f"{meta.hearing_id}-u{i:05d}", meta.hearing_id, i, members[i % len(members)], "Mr. X.", text,
                  QALabel.QUESTION)
        for i, text in enumerate(texts)
    ]
    store = tmp_path / "corpus"
    store_corpus([(meta, utterances)], store, rosters={meta.hearing_id: roster})
    return store


def test_features_remove_names_as_the_regex_oracle_does(tmp_path, monkeypatch):
    store = _named_hearing_store(tmp_path)

    def table(name, *extra):
        out = tmp_path / name
        argv = ["features", "--corpus", str(store), "--government", str(FIXTURES / "government_context.json"),
                "--output", str(out), *extra]
        assert run(argv) == 0
        return out.read_bytes()

    stripped = table("stripped.tsv")
    kept = table("kept.tsv", "--no-strip-names")
    assert len(stripped.splitlines()) == 7
    assert stripped != kept
    monkeypatch.setattr("gavel.harness.strip_speaker_names", oracle_strip)
    assert table("oracle.tsv") == stripped


def test_segment_refuses_a_non_empty_output_directory(tmp_path, capsys):
    store = tmp_path / "store"
    store.mkdir()  # an empty directory is a fine place for a new store
    assert run(["segment", "--input", str(FIXTURES / "hearings"), "--output", str(store)]) == 0
    before = sorted(p for p in store.rglob("*"))
    capsys.readouterr()
    assert run(["segment", "--input", str(tmp_path / "absent-input"), "--output", str(store)]) == 1
    err = capsys.readouterr().err
    assert f"error: --output {store}: directory exists and is not empty" in err
    assert "absent-input" not in err  # refused before any input is read
    assert sorted(p for p in store.rglob("*")) == before


# (argv of one mode, that mode's flag, a setting it ignores as a flag, the same setting as a config key)
IGNORED_SETTINGS = {
    "apply-eval-other-band": (
        ["classify-qa", "apply", "--model", "absent.json", "--eval", "absent.tsv:HandLabeled"], "--eval",
        ["--other-band", "0.1"], {"other_band": 0.1}),
    **{
        f"evaluate-predictions-{flag[2:]}": (
            ["evaluate", "--examples", "absent.tsv", "--out-dir", "OUT", "--predictions", "absent-predictions.tsv"],
            "--predictions", [flag, value], {key: config})
        for flag, value, key, config in (
            ("--model", "logistic", "model", "logistic"),
            ("--layouts", "committee", "layouts", "committee"),
            ("--cv-folds", "3", "cv_folds", 3),
            ("--test-fraction", "0.3", "test_fraction", 0.3),
            ("--min-rows", "7", "min_rows", 7),
            ("--kind", "Answer", "kind", "Answer"),
        )
    },
    **{
        f"verify-sample-score-{flag[2:]}": (
            ["verify-sample", "--score", "absent.tsv"], "--score", [flag, value], {key: config})
        for flag, value, key, config in (
            ("--output", "OUT/sample.tsv", "output", "OUT/sample.tsv"),
            ("--hearings-per-session", "3", "hearings_per_session", 3),
            ("--utterances-per-hearing", "3", "utterances_per_hearing", 3),
        )
    },
}


# Each setting again at its default value: an option counts as given whatever its value.
IGNORED_DEFAULTS = {"model": "forest", "layouts": "split_grid", "cv_folds": 5, "test_fraction": 0.2,
                    "min_rows": 50, "kind": "Question", "hearings_per_session": 50, "utterances_per_hearing": 10}
IGNORED_SETTINGS.update({
    f"{case}-at-default": (argv, mode, [flag[0], str(IGNORED_DEFAULTS[key])], {key: IGNORED_DEFAULTS[key]})
    for case, (argv, mode, flag, config) in IGNORED_SETTINGS.items()
    for key in config
    if key in IGNORED_DEFAULTS
})


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("case", sorted(IGNORED_SETTINGS))
def test_mode_refuses_settings_it_ignores(tmp_path, capsys, case, source):
    argv, mode, flag, config = IGNORED_SETTINGS[case]
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else a for a in argv]
    config = {k: v.replace("OUT", str(out)) if isinstance(v, str) else v for k, v in config.items()}
    flag = [f.replace("OUT", str(out)) for f in flag]
    if source == "flag":
        assert run(argv + flag) == 1
        expected = f"argument {flag[0]}: not allowed with argument {mode}"
    else:
        assert run(argv + ["--config", _config(tmp_path, config)]) == 1
        expected = f"{mode} and config key {next(iter(config))!r} cannot be used together"
    err = capsys.readouterr().err
    assert expected in err
    assert "absent" not in err  # refused before any input is read
    assert not out.exists()
