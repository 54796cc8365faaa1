import ast
import builtins
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gavel import KINDS, GavelError, cli
from gavel.cli import main
from gavel.corpus import HearingMeta, QALabel, Utterance, from_record, load_roster, read_json, store_corpus
from gavel.features import COLUMNS, META_COLUMNS, read_examples
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
    # pinned before every table cell was formatted by corpus.write_tsv: a split by three dimensions
    # (no pivot is keyed by them), and a pivot beside a skipped_splits.tsv with a row
    ("--split-dims", "committee,hearing_type,government", "--min-rows", "4"): {
        "split_grid.tsv": "e32eab04ab9324446f80d4ec99d12b517929d032058d445328334b84c4b30a4c",
        "skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
    },
    ("--split-dims", "hearing_type,government,presidency", "--min-rows", "5"): {
        "split_grid.tsv": "f865b05e13540ccf368a776c885a0abec255a4d7a9c8e0e44bfd790b593c09cb",
        "hearing_type_government.tsv": "805364a91e539320b237e03436ad5262a8f56fc1bde4bf05e0b28fe1e6d4da7f",
        "skipped_splits.tsv": "06cf5c0466d12c1e039530ae7fc55a17a6f4a3b1fa4957d1329defb72e2d3e0f",
    },
    # pinned when a pivot was written only when `--layouts` named it: runs split by the pivot's own dimensions
    ("--split-dims", "committee", "--min-rows", "4"): {
        "split_grid.tsv": "96f41380bf592f695577adc656f7804b43b2553204bf6780112021555eb175e2",
        "committee.tsv": "6cb5fa04478923c89cbbfba8bb2a1060e97cf1b6980b5e7f5c10cfa27172ed19",
        "skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
    },
    ("--split-dims", "hearing_type,government", "--min-rows", "4"): {
        "split_grid.tsv": "f3594bf0c90fabb7cff0c1eee4d1f365d092490d3737ac3780f7fad74947edc6",
        "hearing_type_government.tsv": "c64e18c31682065fa93d5dd9469e6bdaadca2c935e2ce3967e65a39c54cad19f",
        "skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
    },
}
# sha256 of the fixture pipeline's `train --importance-out` and `verify-sample` tables,
# pinned before every table cell was formatted by corpus.write_tsv
GOLDEN_PIPELINE_TABLES_SHA256 = {
    "importances.tsv": "467a26ca2778edd9282a115e85d64a3f2078f16e698ee0e18a4814f14dd00195",
    "sample.tsv": "f86f66f699c4da8d6a4010097b140e1e564e9a9f596b8217115687298df85a64",
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
# sha256 of the Q/A model `classify-qa train` writes from the fixture AMA and UKParl files:
# (extra flags) -> sha256. Re-pinned when `training_meta` lost its seed; the weights are
# those pinned before the logistic fits ran over packed rows.
GOLDEN_QA_MODEL_SHA256 = {
    ("--epochs", "30"): "45762eb8f1c018e402cb5f69ea435fb4c6c4f5c32ed1a0c4da56f810b4d23ba7",  # the pipeline's
    (): "e8a895ee1549b18b352e9abbb149af165ecdf8d1d3f97c42476e69e6088c6866",
}

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


def test_only_a_seeded_run_records_a_seed(pipeline):
    manifest = json.loads((pipeline / "corpus" / "manifest.json").read_text())
    assert manifest["subcommand"] == "classify-qa apply"  # it labels the store and draws nothing
    assert "seed" not in manifest and "seed" not in manifest["config"]


UNSEEDED_RUNS = {
    "fetch": ["fetch", "--ids", "h-1", "--endpoint", "https://x.test/{hearing_id}", "--cache-dir", "c"],
    "segment": ["segment", "--input", "in", "--output", "out"],
    "classify-qa train": ["classify-qa", "train", "--train", "t.tsv:AMA", "--model-out", "m.json"],
    "classify-qa apply": ["classify-qa", "apply", "--model", "m.json", "--corpus", "c"],
    "pair": ["pair", "--corpus", "c", "--output", "p.jsonl"],
    "features": ["features", "--corpus", "c", "--government", "g.json", "--output", "e.tsv"],
    "kstest": ["kstest", "--examples", "e.tsv", "--out-matrix", "m.tsv"],
    "prompts": ["prompts", "--corpus", "c", "--output", "p.jsonl"],
    "evaluate --predictions": ["evaluate", "--examples", "e.tsv", "--predictions", "p.tsv", "--out-dir", "o"],
    "verify-sample --score": ["verify-sample", "--score", "v.tsv"],
}


@pytest.mark.parametrize("run_name", list(UNSEEDED_RUNS))
def test_a_run_that_draws_no_random_number_refuses_seed(run_name, capsys):
    assert run([*UNSEEDED_RUNS[run_name], "--seed", "1"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_evaluate_predictions_refuses_a_seed_from_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}))
    assert run([*UNSEEDED_RUNS["evaluate --predictions"], "--config", str(cfg)]) == 1
    assert "config key 'seed'" in capsys.readouterr().err


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("flags", list(GOLDEN_QA_MODEL_SHA256), ids=lambda f: " ".join(f) or "default")
def test_qa_model_matches_golden_bytes(pipeline, tmp_path, flags):
    model = pipeline / "qa_model.json"
    if flags != ("--epochs", "30"):
        model = tmp_path / "qa_model.json"
        argv = ["classify-qa", "train", "--train", f"{FIXTURES / 'qa' / 'ama_train.tsv'}:AMA",
                "--train", f"{FIXTURES / 'qa' / 'ukparl_train.tsv'}:UKParl", "--model-out", str(model), *flags]
        assert run(argv) == 0
    assert _sha256(model) == GOLDEN_QA_MODEL_SHA256[flags]


def test_pipeline_examples_match_golden_bytes(pipeline):
    assert _sha256(pipeline / "examples.tsv") == GOLDEN_EXAMPLES_SHA256


def test_pipeline_ks_tables_match_golden_bytes(pipeline):
    assert {name: _sha256(pipeline / name) for name in GOLDEN_KS_SHA256} == GOLDEN_KS_SHA256


def test_pipeline_importance_and_sample_tables_match_golden_bytes(pipeline):
    tables = GOLDEN_PIPELINE_TABLES_SHA256
    assert {name: _sha256(pipeline / name) for name in tables} == tables


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


# The analysis commands on a synthetic table: a 16-hearing tree (the benchmark's tiny grid-search
# size) labeled by the pipeline's Q/A model, as built and with null feature cells written into it.
# Pinned before the table was read into columns: table -> {file under the run's directory: sha256}.
SYNTH_FOREST_GRID = {"grid": [{"n_estimators": 10, "max_depth": 6}, {"n_estimators": 10, "max_depth": 10},
                              {"n_estimators": 15, "max_depth": 8}, {"n_estimators": 20, "max_depth": 6}]}
GOLDEN_SYNTH_ANALYSIS_SHA256 = {
    "synth": {
        "ks-Question/matrix.tsv": "e27253c97c2196ba8565985cfcb854cee686cd2e89d3437027536b2872e966dc",
        "ks-Question/details.tsv": "f4fa5a5dde6bb5684e28887171ffbc8a8fe8263ca4cee225247c6fbdcc447be9",
        "ks-Answer/matrix.tsv": "d920fb8d399845cae2147797fc5c8b09c03999932fc7bc50ad77b6bb5499d1e3",
        "ks-Answer/details.tsv": "df3297db2099b47af9f7803b44d869c069d3fcc9b7aaa4f277ec1653802fc15a",
        "ks-Both/matrix.tsv": "5f1889105285159c3f1882c9364070a6b7810fac50c47c1483da8288799675d8",
        "ks-Both/details.tsv": "6ed4422a78a3c154be42cd6f35aeab459722ef646de69439f14d763d58bc90b8",
        "eval-grid/split_grid.tsv": "0552abca36882b0ab52c0b0a2e2b236cc2bcaeddf15456d42fee558c8e8723e5",
        "eval-grid/skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
        "eval-standing/split_grid.tsv": "4cc1114b85a4fa408ef678fdde5d6d699ad13b88c1f3b7a0b62b4ed73dfab920",
        "eval-standing/skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
    },
    "synth-with-nulls": {
        "ks-Question/matrix.tsv": "12c8f414c0df102ecef7666d7a556b0a60f15ad12b63fbb381ec09934b662a6f",
        "ks-Question/details.tsv": "bb691b48ec881ee85c56f9eb0ad7a385ca36c17b44d5acbec7480453510e7686",
        "ks-Answer/matrix.tsv": "a0fde3423d9cb6cd40caf0d76d170426d61098f0444d30116b0178ba102292c6",
        "ks-Answer/details.tsv": "cf0b2e26addb0dfd543a01af34bfccb20f9a609822be25aaaab186dd7b40c01d",
        "ks-Both/matrix.tsv": "6fe5ed2805d6a56c51ab53f5272d85f76f05623574fedcff32e3bcbb534b36fe",
        "ks-Both/details.tsv": "70228b22016f99a3e87514539e1cb3490c11b8192896c55b66373153e4580283",
        "eval-grid/split_grid.tsv": "e4cb68f96ed146b97cdf0e78dbe9a9d6e04ad4ffa391ac0ff1790ce17052e2f6",
        "eval-grid/skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
        "eval-standing/split_grid.tsv": "2cbbea0540160fe4c0108eae6e3247a17528efec535e85d20f2f23a69a966f79",
        "eval-standing/skipped_splits.tsv": "b267ad2eeb95e0a6ee43e4dc204d0296cea158f042a1810129f9a103970c1155",
    },
}
_RATIO_FEATURES = ("ttr", "avgWlen", "FKGLvl", "SmgIn", "CLIn", "lix")


@pytest.fixture(scope="module")
def synth_table(pipeline, tmp_path_factory):
    """The examples.tsv the pipeline's commands build from a 16-hearing synthetic tree."""
    from gavel import synth

    root = tmp_path_factory.mktemp("synth")
    synth.write_raw_tree(synth.synth_corpus(seed=101, n_hearings=16, n_exchanges=20), root / "raw")
    synth.write_government_config(root / "government.json")
    corpus, pairs, examples = root / "corpus", root / "pairs.jsonl", root / "examples.tsv"
    for argv in (
        ["segment", "--input", str(root / "raw"), "--output", str(corpus)],
        ["classify-qa", "apply", "--model", str(pipeline / "qa_model.json"), "--corpus", str(corpus)],
        ["pair", "--corpus", str(corpus), "--output", str(pairs)],
        ["features", "--corpus", str(corpus), "--pairs", str(pairs), "--government", str(root / "government.json"),
         "--output", str(examples)],
    ):
        assert run(argv) == 0, argv
    return examples


def _with_null_features(examples: Path, out: Path) -> Path:
    """A copy of `examples` with null (empty) feature cells: each 7th row's six ratio features, each 11th row's lix."""
    header, *rows = examples.read_text().splitlines()
    columns = header.split("\t")
    for n, row in enumerate(rows, 1):
        cells = row.split("\t")
        for name in _RATIO_FEATURES if n % 7 == 0 else ("lix",) if n % 11 == 0 else ():
            cells[columns.index(name)] = ""
        rows[n - 1] = "\t".join(cells)
    out.write_text("\n".join([header, *rows]) + "\n")
    return out


@pytest.mark.parametrize("table", list(GOLDEN_SYNTH_ANALYSIS_SHA256))
def test_analysis_of_a_synth_table_has_the_golden_bytes_on_one_cpu_and_two(synth_table, tmp_path, cpus, table):
    examples = synth_table if table == "synth" else _with_null_features(synth_table, tmp_path / "examples.tsv")
    steps = [["kstest", "--examples", str(examples), "--kind", kind, "--out-matrix",
              str(tmp_path / f"ks-{kind}" / "matrix.tsv"), "--out-details", str(tmp_path / f"ks-{kind}" / "details.tsv")]
             for kind in KINDS]
    steps += [
        ["evaluate", "--examples", str(examples), "--config", _config(tmp_path, SYNTH_FOREST_GRID),
         "--out-dir", str(tmp_path / "eval-grid")],
        ["evaluate", "--examples", str(examples), "--task", "Standing", "--model", "logistic",
         "--split-dims", "government", "--out-dir", str(tmp_path / "eval-standing")],
    ]
    for argv in steps:
        assert run(argv) == 0, argv
    golden = GOLDEN_SYNTH_ANALYSIS_SHA256[table]
    assert {name: _sha256(tmp_path / name) for name in golden} == golden


# On a 10-hearing synthetic tree of 20 exchanges each, labeled with the fixture pipeline's Q/A model:
# (true label, label found) -> utterances, and (true pairs, pairs found, pairs found correctly).
# Without --other-band nothing is labeled Other.
QA_TRUTH_CONFUSION = {
    ("Question", "Question"): 123, ("Question", "Answer"): 77,
    ("Answer", "Question"): 44, ("Answer", "Answer"): 156,
    ("Other", "Question"): 33, ("Other", "Answer"): 25,
}
QA_TRUTH_PAIRS = (200, 114, 97)


def _score_against_truth(hearings, corpus, pairs):
    """(label confusion, pair counts) of a labeled, paired store against the synthetic truth.

    The confusion counts (true label, label found) over every utterance; the pair counts are
    (true, found, found correctly), a true pair being a Question segment followed directly by an
    Answer segment, compared by utterance id."""
    from gavel.corpus import load_corpus
    from gavel.qa import load_pairs

    stored = dict(load_corpus(corpus))
    found = {(p.question_utterance_id, p.answer_utterance_id) for ps in load_pairs(pairs).values() for p in ps}
    confusion, true_pairs = {}, set()
    for hearing in hearings:
        utterances = stored[hearing.meta]
        assert len(utterances) == len(hearing.segments), hearing.meta.hearing_id
        for truth, u in zip(hearing.segments, utterances):
            key = (truth.qa_label.value, u.qa_label.value)
            confusion[key] = confusion.get(key, 0) + 1
        for i in range(len(utterances) - 1):
            if (hearing.segments[i].qa_label, hearing.segments[i + 1].qa_label) == (QALabel.QUESTION, QALabel.ANSWER):
                true_pairs.add((utterances[i].utterance_id, utterances[i + 1].utterance_id))
    return confusion, (len(true_pairs), len(found), len(true_pairs & found))


def test_qa_labels_and_pairs_against_the_generator_truth(pipeline, tmp_path):
    from gavel import synth

    hearings = synth.synth_corpus(10, seed=101, n_exchanges=20)
    synth.write_raw_tree(hearings, tmp_path / "raw")
    corpus, pairs = tmp_path / "corpus", tmp_path / "pairs.jsonl"
    for argv in (
        ["segment", "--input", str(tmp_path / "raw"), "--output", str(corpus)],
        ["classify-qa", "apply", "--model", str(pipeline / "qa_model.json"), "--corpus", str(corpus)],
        ["pair", "--corpus", str(corpus), "--output", str(pairs)],
    ):
        assert run(argv) == 0, argv
    confusion, pair_counts = _score_against_truth(hearings, corpus, pairs)
    assert confusion == QA_TRUTH_CONFUSION
    assert pair_counts == QA_TRUTH_PAIRS


# The synth table's grid search by session, whose split_grid.tsv has the bytes it had before each split's
# cross-validation warnings were printed: the classes that warn, by session, with --cv-folds 5.
SYNTH_SESSION_GRID_SHA256 = "0e1f3661bf7a8af82156b461c16c1fed6845c7d77d4b6d0e8e336f39c4566b7e"
SYNTH_SESSION_GRID_SMALL_CLASSES = {
    "108": "['Independent']", "109": "['Independent']", "111": "['Independent']",
    "114": "['Republican']", "116": "['Republican']",
}


def test_evaluate_prints_the_cross_validation_warnings_of_each_split(synth_table, tmp_path, capsys, cpus):
    out = tmp_path / "eval"
    assert run(["evaluate", "--examples", str(synth_table), "--config", _config(tmp_path, TWO_CELL_GRID),
                "--split-dims", "session", "--min-rows", "10", "--out-dir", str(out)]) == 0
    warned = re.findall(r"(?m)^warning: session=(\d+): classes with fewer than 5 members \((.+)\); "
                        r"falling back to unstratified folds$", capsys.readouterr().err)
    assert dict(warned) == SYNTH_SESSION_GRID_SMALL_CLASSES and len(warned) == len(SYNTH_SESSION_GRID_SMALL_CLASSES)
    assert _sha256(out / "split_grid.tsv") == SYNTH_SESSION_GRID_SHA256


_BLOCKS = ("all", "democrat_president", "republican_president")
# (table, extra evaluate flags) -> {empty block of hearing_type_government.tsv: the reason evaluate gives}.
# The fixture runs are the two pinned in GOLDEN_EVAL_SHA256; the fixture hearings all fall under a
# Republican president.
EMPTY_BLOCK_REASONS = {
    ("fixture", "--split-dims", "hearing_type,government", "--min-rows", "4"): {
        "democrat_president": "presidency is not in --split-dims, so no split is partisan",
        "republican_president": "presidency is not in --split-dims, so no split is partisan",
    },
    ("fixture", "--split-dims", "hearing_type,government,presidency", "--min-rows", "5"): {
        "all": "presidency is in --split-dims, so every split is partisan",
        "democrat_president": "the examples hold no row for it",
    },
    ("synth", "--split-dims", "hearing_type,government,presidency", "--min-rows", "30"): {
        "all": "presidency is in --split-dims, so every split is partisan",
        "republican_president": "no split for it reached --min-rows 30 (see skipped_splits.tsv)",
    },
}


@pytest.mark.parametrize("case", list(EMPTY_BLOCK_REASONS), ids=lambda case: f"{case[0]}-{case[2]}")
def test_evaluate_says_why_each_empty_block_is_empty(pipeline, synth_table, tmp_path, capsys, case):
    table, *flags = case
    out = tmp_path / "eval"
    examples = pipeline / "examples.tsv" if table == "fixture" else synth_table
    assert run(["evaluate", "--examples", str(examples), "--kind", "Question", "--min-rows", "10", *flags,
                "--out-dir", str(out)]) == 0
    if tuple(flags) in GOLDEN_EVAL_SHA256:
        assert {name: _sha256(out / name) for name in GOLDEN_EVAL_SHA256[tuple(flags)]} == GOLDEN_EVAL_SHA256[tuple(flags)]
    reasons = dict(re.findall(r"(?m)^hearing_type_government\.tsv: the (\w+) block is empty: (.+)$",
                              capsys.readouterr().err))
    assert reasons == EMPTY_BLOCK_REASONS[case]
    header, *rows = [line.split("\t") for line in (out / "hearing_type_government.tsv").read_text().splitlines()]
    empty = {block for block in _BLOCKS
             if not any(row[j] for row in rows for j, name in enumerate(header) if name.startswith(f"{block}_"))}
    assert empty == set(reasons)


# --split-dims -> the pivot table evaluate writes beside split_grid.tsv and skipped_splits.tsv; other
# dimensions write none. A pivot's row key is its dimensions but presidency, which picks a column block.
PIVOT_OF_SPLIT_DIMS = {
    "committee": "committee.tsv",
    "hearing_type,government": "hearing_type_government.tsv",
    "hearing_type,government,presidency": "hearing_type_government.tsv",
}
_SCORE_CELLS = ("accuracy", "accuracy_2dp", "baseline", "baseline_2dp", "baseline_class")
_PRESIDENCY_BLOCK = {"Democrat": "democrat_president_", "Republican": "republican_president_"}


def _tsv_rows(path: Path) -> list[dict[str, str]]:
    header, *rows = [line.split("\t") for line in path.read_text().splitlines()]
    return [dict(zip(header, row)) for row in rows]


# (table, --split-dims, --min-rows) of each run: each pivot, and dimensions that key none
PIVOT_RUNS = [
    *(("fixture", dims, "4") for dims in ("committee", "hearing_type,government", "committee,hearing_type,government",
                                          "committee,presidency", "session", "")),
    ("fixture", "hearing_type,government,presidency", "5"),
    *(("synth", dims, "30") for dims in ("committee", "hearing_type,government", "hearing_type,government,presidency")),
    ("synth", "committee,hearing_type,government", "10"),
]


@pytest.mark.parametrize("table, dims, min_rows", PIVOT_RUNS, ids=[f"{t}-{d or 'unsplit'}" for t, d, _ in PIVOT_RUNS])
def test_each_report_fills_one_pivot_cell(pipeline, synth_table, tmp_path, table, dims, min_rows):
    """Each error-free split of a pivot-writing run fills one cell of the pivot, and each filled cell is one split."""
    out = tmp_path / "eval"
    examples = pipeline / "examples.tsv" if table == "fixture" else synth_table
    assert run(["evaluate", "--examples", str(examples), "--split-dims", dims, "--min-rows", min_rows,
                "--out-dir", str(out)]) == 0
    pivot = PIVOT_OF_SPLIT_DIMS.get(dims)
    assert sorted(p.name for p in out.glob("*.tsv")) == sorted({"split_grid.tsv", "skipped_splits.tsv", pivot} - {None})
    if pivot is None:
        return
    rows = _tsv_rows(out / pivot)
    keys = [d for d in dims.split(",") if d != "presidency"]
    blocks = [b for b in ("", "all_", *_PRESIDENCY_BLOCK.values()) if f"{b}accuracy" in rows[0]]
    cells = sorted((tuple(row[k] for k in keys), b, tuple(row[b + c] for c in _SCORE_CELLS))
                   for row in rows for b in blocks if row[b + "accuracy"])
    reports = []
    for report in _tsv_rows(out / "split_grid.tsv"):
        if report["error"]:
            continue
        key = dict(part.split("=", 1) for part in report["split"].split("|"))
        block = _PRESIDENCY_BLOCK.get(key.get("presidency"), blocks[0])
        reports.append((tuple(key[k] for k in keys), block, tuple(report[c] for c in _SCORE_CELLS)))
    assert reports and cells == sorted(reports)


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


def test_main_alone_checks_outputs_and_writes_manifests():
    """Each path option's role is declared with it, so no command restates its outputs or inputs."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def called(function):
        return [n.func for n in ast.walk(function) if isinstance(n, ast.Call)]

    for name in (name for name in functions if name.startswith("cmd_")):
        names = {f.id for f in called(functions[name]) if isinstance(f, ast.Name)}
        assert not names & {"_check_outputs", "write_manifest"}, name
        assert not any(isinstance(f, ast.Attribute) and f.attr == "time" for f in called(functions[name])), name
    names = [f.id for f in called(functions["main"]) if isinstance(f, ast.Name)]
    assert names.count("_check_outputs") == names.count("write_manifest") == 1


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


def test_version_process_imports_neither_traceback_nor_dataclasses():
    """`traceback` is imported only to report an internal error, `dataclasses` only by the modules
    a command runs."""
    code = "import sys\nfrom gavel.cli import main\nmain(['--version'])\n" \
           "print(sorted(m for m in ('traceback', 'dataclasses') if m in sys.modules))"
    assert run_fresh(code).splitlines()[-1] == "[]"


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


def _raw_tree(tmp_path, hearing_id, *edits):
    """A raw tree holding one fixture hearing whose transcript went through each (old, new, count) edit."""
    raw = tmp_path / "raw"
    shutil.copytree(FIXTURES / "hearings" / hearing_id, raw / hearing_id)
    transcript = raw / hearing_id / "transcript.txt"
    text = transcript.read_text(encoding="utf-8")
    for old, new, count in edits:
        assert text.count(old) >= count, old
        text = text.replace(old, new, count)
    transcript.write_text(text, encoding="utf-8")
    return raw


def _stage_direction_tree(tmp_path):
    # several directions in one utterance, one split over lines, one inside the preamble
    return _raw_tree(
        tmp_path, "synth-108-0000",
        ("presiding.\n", "presiding.\n    [Gavel sounds.]\n", 1),
        ("    [Laughter.]\n", "    [Laughter.] [Applause.]\n    [Crosstalk.]\n", 1),
        ("    [Pause.]\n    Dr. Hansen.", "    [Pause. Off\n    microphone.]\n    Dr. Hansen.", 1),
        ("That is a fair point. Roughly", "That is a fair point. [Nods.] Roughly", 1),
    )


def _anchorless_tree(tmp_path):
    # no start or end pattern of the default rules matches anywhere
    return _raw_tree(
        tmp_path, "synth-109-0001",
        ("The committee met, pursuant to notice,", "The committee gathered on notice,", 1),
        ("adjourned", "recessed", 2),
        ("[Whereupon,", "[Then,", 1),
    )


def _overlapping_rules(tmp_path):
    from gavel.corpus import to_record
    from test_segmenter_hostile import OVERLAPPING_RULES

    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(to_record(OVERLAPPING_RULES)))
    return ["--rules", str(rules)]


# Pinned before segments kept only their raw span and the segmenter compiled its rules
# once: the sha256 of every file `segment` writes but manifest.json, by raw tree.
SEGMENT_TREES = {
    "fixtures": lambda tmp_path: (FIXTURES / "hearings", []),
    "stage-directions": lambda tmp_path: (_stage_direction_tree(tmp_path), []),
    "no-anchors": lambda tmp_path: (_anchorless_tree(tmp_path), []),
    "overlapping-rules": lambda tmp_path: (_stage_direction_tree(tmp_path), _overlapping_rules(tmp_path)),
}
GOLDEN_SEGMENT_SHA256 = {
    "fixtures": {
        "segmentation_report.json": "8cba98db075e8ca5f2a5887593f1360451d716f161aadf22af6af67c10dd33f4",
        "synth-108-0000/meta.json": "1e5ee6bf75d7535a03aff8a98392522ea8f04e542562ddb71d012e54c6a4c3eb",
        "synth-108-0000/roster.json": "1d96d0a3cbbf1091e705ce44db1e2f42ad162274d54907a7abcf52baea59ca6d",
        "synth-108-0000/utterances.jsonl": "dd049329aa6aaec357a0b6660a09d0bebc800d695a55ccaafc062c3b527d6b32",
        "synth-109-0001/meta.json": "b868e742c67fd6acfade461e681028d1bff53ed3f31739442b7b8a960abc32e0",
        "synth-109-0001/roster.json": "f05eba24895a5e6066f1ba2dc2c6c6a584257bdc327234f5d7148548cc027d13",
        "synth-109-0001/utterances.jsonl": "f65f2c216455e7d2486ad1765c1047e9cb7b3874df7806f6b392b4dfcc464ae8",
        "synth-110-0002/meta.json": "ea718c949495a110ae1384421f0882c7e8cd11fb31f75f06055a9acd5752e34c",
        "synth-110-0002/roster.json": "d7be0581b116c937fdc089e4a7477f4a7587d4ff122daf948a70a6affa62f852",
        "synth-110-0002/utterances.jsonl": "bac6dacdac6f1a8769dca74ea7c9edb6d94772ca19777ecb7b26d699398e9c56",
    },
    "no-anchors": {
        "segmentation_report.json": "5c7c703e89a64060e3c3c76896b0bae66bf407a1f389e52e9d5c9b0f0bec35fe",
        "synth-109-0001/meta.json": "b868e742c67fd6acfade461e681028d1bff53ed3f31739442b7b8a960abc32e0",
        "synth-109-0001/roster.json": "f05eba24895a5e6066f1ba2dc2c6c6a584257bdc327234f5d7148548cc027d13",
        "synth-109-0001/utterances.jsonl": "ea31e14fc8a1cf3c7dffc878721b7da8cbc6e40a3348a729ab95a4b3458c65d9",
    },
    "overlapping-rules": {
        "segmentation_report.json": "34df36c1d850d3fa45c2dfbdef2e55a7b6fb1cbae8abda4bda9afdd93c49f22a",
        "synth-108-0000/meta.json": "1e5ee6bf75d7535a03aff8a98392522ea8f04e542562ddb71d012e54c6a4c3eb",
        "synth-108-0000/roster.json": "1d96d0a3cbbf1091e705ce44db1e2f42ad162274d54907a7abcf52baea59ca6d",
        "synth-108-0000/utterances.jsonl": "27a26c7857d90d10be9707f372e35deb6cc3c89e511bf3efe92ac7f5a1f88fda",
    },
    "stage-directions": {
        "segmentation_report.json": "8cf268ea9e69be9791eeef9f7933b71ceda84d03e1c5478e50790750ccca539e",
        "synth-108-0000/meta.json": "1e5ee6bf75d7535a03aff8a98392522ea8f04e542562ddb71d012e54c6a4c3eb",
        "synth-108-0000/roster.json": "1d96d0a3cbbf1091e705ce44db1e2f42ad162274d54907a7abcf52baea59ca6d",
        "synth-108-0000/utterances.jsonl": "b9420726a861188740a45b49b2c04a9da162b1584b7796e608f67b5d7e38c0bd",
    },
}


def _segment_outputs(tmp_path, case):
    raw, flags = SEGMENT_TREES[case](tmp_path)
    out = tmp_path / "store"
    assert run(["segment", "--input", str(raw), "--output", str(out), *flags]) == 0
    return {p.relative_to(out).as_posix(): _sha256(p)
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


@pytest.mark.parametrize("case", sorted(SEGMENT_TREES))
def test_segment_writes_the_golden_store(tmp_path, capsys, case):
    """The store has its pinned bytes, and each hearing's stderr line counts its utterances with an
    empty marker, when there are any (only the overlapping rules make some)."""
    assert _segment_outputs(tmp_path, case) == GOLDEN_SEGMENT_SHA256[case]
    printed = {m[1]: int(m[2]) for m in re.finditer(r"(?m)^(\S+): .*, (\d+) with an empty marker$",
                                                   capsys.readouterr().err)}
    stored = {}
    for path in sorted((tmp_path / "store").glob("*/utterances.jsonl")):
        empty = sum(json.loads(line)["raw_marker"] == "" for line in path.read_text().splitlines())
        if empty:
            stored[path.parent.name] = empty
    assert printed == stored
    assert bool(printed) == (case == "overlapping-rules")


@pytest.mark.parametrize("honorifics", [[], ["Mr", ""], ["Mr", " "]])
def test_rules_without_titles_for_the_default_markers_exit_one(tmp_path, capsys, honorifics):
    """An empty title, or none, would make any indented capitalized word and a period a marker."""
    from gavel.segmenter import SegmenterRules

    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"honorifics": honorifics}))
    argv = ["segment", "--input", str(FIXTURES / "hearings"), "--output", str(tmp_path / "s"), "--rules", str(rules)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "honorifics" in err and str(rules) in err
    assert not (tmp_path / "s").exists()
    # rules that bring their own marker patterns build none from the titles
    rules.write_text(json.dumps({"honorifics": honorifics, "marker_patterns": [r"^[ \t]*The CHAIRMAN\. "]}))
    assert SegmenterRules.from_file(rules).honorifics == tuple(honorifics)


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
    assert "unrecognized arguments: --layouts qa_sessions" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


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


def test_evaluate_checks_layouts_before_reading_input(tmp_path, capsys):
    """The split dimensions decide which tables a run writes: `--layouts` is an unknown flag and config key."""
    argv = ["evaluate", "--examples", str(tmp_path / "absent.tsv"), "--out-dir", str(tmp_path / "eval")]
    assert run(argv + ["--layouts", "committee"]) == 1
    assert "unrecognized arguments: --layouts committee" in capsys.readouterr().err
    assert run(argv + ["--config", _config(tmp_path, {"layouts": "committee"})]) == 1
    assert "unknown config key(s): layouts" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("layout, missing", [
    ("committee", "committee"),
    ("hearing_type_government", "hearing_type, government"),
])
def test_evaluate_refuses_a_layout_its_split_dims_cannot_fill(pipeline, tmp_path, layout, missing):
    """A run whose split dimensions lack a pivot's keys writes the split grid and no such pivot."""
    from gavel.harness import PIVOTS

    assert ", ".join(PIVOTS[layout][0]) == missing
    out = tmp_path / "eval"
    assert run(["evaluate", "--examples", str(pipeline / "examples.tsv"), "--split-dims", "session",
                "--min-rows", "4", "--out-dir", str(out)]) == 0
    assert (out / "split_grid.tsv").is_file()
    assert not (out / f"{layout}.tsv").exists()


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


# Pinned before Q/A scoring read per-token weight tables: the sha256 of each hearing's
# utterances.jsonl after `classify-qa apply` on the fixture store, by --other-band
GOLDEN_APPLY_SHA256 = {
    None: {
        "synth-108-0000": "ae1398a371d4f012fcde46c6ec44db52e82bbfc30d73bc560f9eaf47f6b69ff0",
        "synth-109-0001": "964ef99c1d5920b9015c9dadfdc873693cffef381229da1e2c1ddeeb3744b0fd",
        "synth-110-0002": "1516f8d7f97524af215bd3e30b0eae2d21266199a9b836a67f5b7a715826acfb",
    },
    "0.05": {
        "synth-108-0000": "2a70136c81d587530e867fb1f4063ee1d2c30cea09d1c4f91bf56fc3021f95d1",
        "synth-109-0001": "e48135971735b7f7ae5905b82a5726aef06f85b1cad844d3de095f376d4d95d5",
        "synth-110-0002": "f8f12cc043b01106ab7d9e26b89d159c6198489385299411aa40b6d05e9bcbcd",
    },
}
GOLDEN_EVAL_STDOUT = (
    '{"n": 800, "questions_true": 233, "questions_false": 112, "answers_true": 309, "answers_false": 146, '
    '"accuracy": 0.6775, "accuracy_2dp": "0.68"}\n'
)


@pytest.mark.parametrize("band", list(GOLDEN_APPLY_SHA256))
def test_apply_writes_the_golden_store(pipeline, tmp_path, band):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline / "corpus", corpus)
    argv = ["classify-qa", "apply", "--model", str(pipeline / "qa_model.json"), "--corpus", str(corpus)]
    assert run(argv + (["--other-band", band] if band else [])) == 0
    labeled = {p.parent.name: _sha256(p) for p in corpus.glob("*/utterances.jsonl")}
    assert labeled == GOLDEN_APPLY_SHA256[band]


def test_eval_prints_the_golden_counts(pipeline, capsys):
    argv = ["classify-qa", "apply", "--model", str(pipeline / "qa_model.json"),
            "--eval", f"{FIXTURES / 'qa' / 'hand_labeled_test.tsv'}:HandLabeled"]
    assert run(argv) == 0
    assert capsys.readouterr().out == GOLDEN_EVAL_STDOUT


@pytest.mark.parametrize("label", ["Other", "Unlabeled"])
def test_eval_of_a_row_labeled_neither_question_nor_answer_names_its_line(pipeline, tmp_path, capsys, label):
    hand = tmp_path / "hand.tsv"
    hand.write_text(f"Why?\tQuestion\nFine.\t{label}\n")
    argv = ["classify-qa", "apply", "--model", str(pipeline / "qa_model.json"), "--eval", f"{hand}:HandLabeled"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"{hand}:2 field 'label'" in err and repr(label) in err


@pytest.mark.parametrize("index", [-1, "past-the-end"])
def test_apply_refuses_a_model_whose_vocabulary_misindexes_its_weights(pipeline, tmp_path, capsys, index):
    record = json.loads((pipeline / "qa_model.json").read_text())
    vocab = record["vocabulary"]
    vocab[min(vocab, key=vocab.get)] = len(vocab) if index == "past-the-end" else index
    model = tmp_path / "model.json"
    model.write_text(json.dumps(record))
    argv = ["classify-qa", "apply", "--model", str(model),
            "--eval", f"{FIXTURES / 'qa' / 'hand_labeled_test.tsv'}:HandLabeled"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(model) in err and "vocabulary indices" in err


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("band", ["NaN", "-0.2", "0.6", "Infinity", "-0.0001"])
def test_other_band_outside_zero_to_half_exits_one_before_reading_input(tmp_path, capsys, band, given):
    argv = ["classify-qa", "apply", "--model", str(tmp_path / "absent.json"), "--corpus", str(tmp_path / "absent")]
    if given == "flag":
        argv.append(f"--other-band={band}")
    else:
        config = tmp_path / "config.json"
        config.write_text(f'{{"other_band": {band}}}')  # NaN and Infinity as Python's json reads them
        argv += ["--config", str(config)]
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()[0]
    assert ("--other-band" if given == "flag" else "'other_band'") in err and "[0, 0.5]" in err
    assert "absent" not in err


# (argv of a command, an option it takes, a value that option cannot use); ABSENT is an input never read
UNUSABLE_VALUES = {
    **{
        f"{flag[2:]}={value}": (["verify-sample", "--corpus", "ABSENT", "--output", "OUT/sample.tsv"], flag, value)
        for flag in ("--hearings-per-session", "--utterances-per-hearing")
        for value in (0, -1)
    },
    **{
        f"min-delay={value}": (["fetch", "--ids-file", "ABSENT", "--endpoint", "https://example.test/{hearing_id}",
                                "--cache-dir", "OUT"], "--min-delay", value)
        for value in (-0.5, float("inf"), float("nan"))
    },
    "retries=-1": (["fetch", "--ids-file", "ABSENT", "--endpoint", "https://example.test/{hearing_id}",
                    "--cache-dir", "OUT"], "--retries", -1),
    "epochs=-1": (["classify-qa", "train", "--train", "ABSENT:AMA", "--model-out", "OUT/model.json"], "--epochs", -1),
}


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("case", sorted(UNUSABLE_VALUES))
def test_a_count_or_delay_it_cannot_use_exits_one_before_reading_input(tmp_path, capsys, case, given):
    argv, flag, value = UNUSABLE_VALUES[case]
    argv = [a.replace("ABSENT", str(tmp_path / "absent")).replace("OUT", str(tmp_path / "out")) for a in argv]
    if given == "flag":
        argv += [flag, str(value)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag[2:].replace("-", "_"): value}))  # inf and nan as Infinity and NaN
        argv += ["--config", str(config)]
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()[0]
    assert err.startswith("error: ") and "must be in [" in err
    assert (flag if given == "flag" else repr(flag[2:].replace("-", "_"))) in err
    assert "absent" not in err and not (tmp_path / "out").exists()


def test_apply_relabels_the_store_without_touching_rosters(pipeline, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline / "corpus", corpus)
    stored = {p: p.read_bytes() for p in corpus.rglob("*") if p.is_file() and p.name != "manifest.json"}
    assert any(p.name == "roster.json" for p in stored)
    # apply rewrites each utterances.jsonl and nothing else of the store
    untouched = {p: p.stat().st_mtime_ns for p in stored if p.name in ("meta.json", "roster.json")}

    def no_rosters(root):
        raise AssertionError(f"apply read the rosters under {root}")

    monkeypatch.setattr("gavel.cli.load_rosters", no_rosters)
    assert run(["classify-qa", "apply", "--model", str(pipeline / "qa_model.json"), "--corpus", str(corpus)]) == 0
    assert {p: p.read_bytes() for p in stored} == stored
    assert {p: p.stat().st_mtime_ns for p in untouched} == untouched


def test_a_model_file_that_records_a_seed_still_loads(pipeline, tmp_path, capsys):
    """Models saved while `classify-qa train` took --seed carry `training_meta.seed`; it is ignored."""
    model = tmp_path / "model.json"
    record = json.loads((pipeline / "qa_model.json").read_text())
    record["training_meta"] = {"seed": 108, **record["training_meta"]}
    model.write_text(json.dumps(record))
    scores = []
    for path in (pipeline / "qa_model.json", model):
        assert run(["classify-qa", "apply", "--model", str(path),
                    "--eval", f"{FIXTURES / 'qa' / 'hand_labeled_test.tsv'}:HandLabeled"]) == 0
        scores.append(capsys.readouterr().out)
    assert scores[0] == scores[1]


def test_question_prompts_are_the_question_rows_of_the_example_table(pipeline, tmp_path):
    """A Question prompt is rendered for a member's question only, as `build_examples` takes one:
    not for a witness's utterance labeled Question, whose party a model could not guess."""
    out = tmp_path / "q" / "prompts.jsonl"
    assert run(["prompts", "--corpus", str(pipeline / "corpus"), "--kind", "Question", "--output", str(out)]) == 0
    prompted = [json.loads(line)["example_id"] for line in out.read_text().splitlines()]
    table = read_examples(pipeline / "examples.tsv")
    questions = [i for i, kind in zip(table.example_id, table.kind) if kind == "Question"]
    assert sorted(prompted) == sorted(questions) and len(prompted) == len(set(prompted))
    assert "synth-108-0000-u00002" not in prompted  # a witness: "I am happy to answer any questions ..."
    manifest = json.loads((out.parent / "manifest.json").read_text())
    assert list(manifest["input_checksums"]) == [str(pipeline / "corpus")]


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


def test_directory_checksum_ignores_upstream_manifest(pipeline, tmp_path):
    """A directory's checksum covers the files the run read under it: `pair` reads each
    hearing's meta, roster and utterances, not the store's manifest or segmentation report."""
    store = tmp_path / "corpus"
    shutil.copytree(pipeline / "corpus", store)

    def checksum():
        assert run(["pair", "--corpus", str(store), "--output", str(tmp_path / "pairs.jsonl")]) == 0
        return json.loads((tmp_path / "manifest.json").read_text())["input_checksums"][str(store)]

    before = checksum()
    _rewrite_json(store / "manifest.json", lambda r: r.update(started_at="1999-01-01T00:00:00Z"))
    (store / "segmentation_report.json").write_text("{}\n")
    assert checksum() == before
    _rewrite_json(next(store.glob("*/roster.json")), lambda r: r["people"][0].update(display_name="Someone Else"))
    assert checksum() != before


def _walk_checksum(root: Path) -> str:
    """A directory's checksum as it was taken before runs recorded what they read: every file
    under it but manifest.json, by relative path and sha256, in sorted path order."""
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "manifest.json"):
        h.update(str(f.relative_to(root)).encode())
        h.update(_sha256(f).encode())
    return h.hexdigest()


def test_segment_checksums_the_raw_tree_as_the_whole_tree_walk_did(tmp_path):
    """`segment` reads every file of a raw hearing tree, so its checksum has not changed."""
    raw = FIXTURES / "hearings"
    assert run(["segment", "--input", str(raw), "--output", str(tmp_path / "corpus")]) == 0
    manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
    assert manifest["input_checksums"] == {str(raw): _walk_checksum(raw)}


def test_each_run_opens_each_input_once_and_its_manifest_hashes_those_bytes(pipeline, tmp_path, monkeypatch):
    """corpus opens every input with `_HashingFile`; any other reader would call `open`. No run opens
    a file for reading twice. Each file a run opens for reading is at or under one of its manifest's
    input keys, but for the bundled lexicons (read when no --lexicons is given) and the store that
    `classify-qa apply` rewrites. Each manifest checksum is the sha256 of the bytes on disk: a file's
    own, or a directory's over the files the run read under it."""
    from gavel import corpus as corpus_module
    from gavel.lexicons import DEFAULT_DIR

    opened: list[Path] = []
    real_open, hashing_file = builtins.open, corpus_module._HashingFile

    def spy_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            opened.append(Path(file))
        return real_open(file, mode, *args, **kwargs)

    def spy_hashing_file(path):
        opened.append(Path(path))
        return hashing_file(path)

    corpus, pairs, examples = tmp_path / "corpus", tmp_path / "pairs" / "pairs.jsonl", tmp_path / "x" / "examples.tsv"
    model = pipeline / "qa_model.json"
    rules, lexicons, members = tmp_path / "rules.json", tmp_path / "lexicons", tmp_path / "members.txt"
    rules.write_text("{}")  # the default rules
    shutil.copytree(DEFAULT_DIR, lexicons)
    members.write_text("Smith\nJones\n")
    ids, cache = tmp_path / "ids.txt", tmp_path / "cache"
    ids.write_text("h-1\n")
    cache.mkdir()
    (cache / "h-1.txt").write_text("cached\n")  # so no request is made
    predictions = tmp_path / "predictions.tsv"
    steps = [  # (argv, the directory it writes its manifest in, or None)
        (["segment", "--input", str(FIXTURES / "hearings"), "--output", str(corpus)], corpus),
        (["segment", "--input", str(FIXTURES / "hearings"), "--rules", str(rules), "--output", str(tmp_path / "r")],
         tmp_path / "r"),
        (["classify-qa", "apply", "--model", str(model), "--corpus", str(corpus)], corpus),
        (["classify-qa", "apply", "--model", str(model),
          "--eval", f"{FIXTURES / 'qa' / 'hand_labeled_test.tsv'}:HandLabeled"], None),
        (["pair", "--corpus", str(corpus), "--output", str(pairs)], pairs.parent),
        (["features", "--corpus", str(corpus), "--pairs", str(pairs), "--government",
          str(FIXTURES / "government_context.json"), "--output", str(examples)], examples.parent),
        (["features", "--corpus", str(corpus), "--government", str(FIXTURES / "government_context.json"),
          "--lexicons", str(lexicons), "--member-directory", str(members), "--output", str(tmp_path / "l" / "e.tsv")],
         tmp_path / "l"),
        (["fetch", "--ids-file", str(ids), "--endpoint", "https://x.test/{hearing_id}", "--cache-dir", str(cache)],
         cache),
        (["kstest", "--examples", str(examples), "--out-matrix", str(tmp_path / "ks" / "m.tsv")], tmp_path / "ks"),
        (["evaluate", "--examples", str(examples), "--min-rows", "10", "--out-dir", str(tmp_path / "eval")],
         tmp_path / "eval"),
        (["evaluate", "--examples", str(examples), "--predictions", str(predictions),
          "--out-dir", str(tmp_path / "ext")], tmp_path / "ext"),
        (["train", "--examples", str(examples), "--min-rows", "4", "--model-out", str(tmp_path / "t" / "f.json"),
          "--importance-out", str(tmp_path / "t" / "importances.tsv")], tmp_path / "t"),
        (["prompts", "--corpus", str(corpus), "--pairs", str(pairs), "--kind", "Both",
          "--output", str(tmp_path / "prompts" / "p.jsonl")], tmp_path / "prompts"),
        (["verify-sample", "--corpus", str(corpus), "--hearings-per-session", "1", "--utterances-per-hearing", "4",
          "--output", str(tmp_path / "v" / "sample.tsv")], tmp_path / "v"),
    ]
    for argv, manifest_dir in steps:
        if "--predictions" in argv:  # each Question row predicted as its own party
            header, *rows = (cell.split("\t") for cell in examples.read_text().splitlines())
            kind, example_id, party = (header.index(c) for c in ("kind", "example_id", "party"))
            predictions.write_text("".join(f"{r[example_id]}\t{r[party]}\n" for r in rows if r[kind] == "Question"))
        opened.clear()
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", spy_open)
            patch.setattr(io, "open", spy_open)
            patch.setattr(corpus_module, "_HashingFile", spy_hashing_file)
            assert run(argv) == 0, argv
        assert opened, argv
        assert [p for p in set(opened) if opened.count(p) > 1] == [], argv
        if manifest_dir is None:
            continue
        checksums = json.loads((manifest_dir / "manifest.json").read_text())["input_checksums"]
        assert checksums, argv
        exempt = [DEFAULT_DIR] if "features" in argv and "--lexicons" not in argv else []
        exempt += [corpus] if "apply" in argv else []
        uncovered = [p for p in opened if not any(p.is_relative_to(root) for root in [*map(Path, checksums), *exempt])]
        assert uncovered == [], argv
        for name, digest in checksums.items():
            path = Path(name)
            if path.is_file():
                assert digest == _sha256(path), (argv, name)
                continue
            h = hashlib.sha256()
            for f in sorted(p for p in opened if p.is_relative_to(path)):
                h.update(str(f.relative_to(path)).encode())
                h.update(_sha256(f).encode())
            assert digest == h.hexdigest(), (argv, name)


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


def _segment_transcript_not_utf8(pipeline, tmp_path):
    raw, hdir = _raw_hearings(tmp_path)
    with open(hdir / "transcript.txt", "ab") as fh:
        fh.write(b"\xff")
    return ["segment", "--input", str(raw), "--output", str(tmp_path / "s")], hdir / "transcript.txt"


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


def _verdict_file(verdict):
    """Verdicts to score; a blank verdict is a row of the sample manifest not yet annotated."""
    def case(pipeline, tmp_path):
        verdicts = tmp_path / "verdicts.tsv"
        sample = (pipeline / "sample.tsv").read_text().splitlines()
        verdicts.write_text("\n".join([sample[0], sample[1] + "correct", sample[2] + verdict]) + "\n")
        where = (f"unknown verdict {verdict!r}; expected one of ('correct', 'clubbed', 'broken')"
                 f" ({verdicts}:3 field 'verdict')")
        return ["verify-sample", "--score", str(verdicts)], where
    return case


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


def _model_nan_weight(pipeline, tmp_path):
    model = tmp_path / "model.json"
    record = json.loads((pipeline / "qa_model.json").read_text())
    record["weights"][0] = float("nan")  # json writes NaN, and reads it back
    model.write_text(json.dumps(record))
    argv = ["classify-qa", "apply", "--model", str(model),
            "--eval", f"{FIXTURES / 'qa' / 'hand_labeled_test.tsv'}:HandLabeled"]
    return argv, f"{model} field 'weights'"


def _repeat_first_person_id(roster):
    """Give the roster's last person, a witness, the id of its first, a member."""
    _rewrite_json(roster, lambda record: record["people"][-1].update(person_id=record["people"][0]["person_id"]))


def _segment_repeated_person_id(pipeline, tmp_path):
    raw, hdir = _raw_hearings(tmp_path)
    _repeat_first_person_id(hdir / "roster.json")
    return ["segment", "--input", str(raw), "--output", str(tmp_path / "s")], hdir / "roster.json"


def _segment_roster_of_another_hearing(pipeline, tmp_path):
    raw, _ = _raw_hearings(tmp_path)
    roster = raw / "synth-110-0002" / "roster.json"
    _rewrite_json(roster, lambda record: record.update(hearing_id="synth-108-0000"))
    return ["segment", "--input", str(raw), "--output", str(tmp_path / "s")], f"{roster} field 'hearing_id'"


def _segment_duplicate_hearing_id(pipeline, tmp_path):
    raw, _ = _raw_hearings(tmp_path)
    meta = raw / "synth-110-0002" / "meta.json"
    _rewrite_json(meta, lambda record: record.update(hearing_id="synth-108-0000"))
    return ["segment", "--input", str(raw), "--output", str(tmp_path / "s")], f"{meta} field 'hearing_id'"


def _pair_roster_of_another_hearing(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline / "corpus", corpus)
    roster = corpus / "synth-110-0002" / "roster.json"
    _rewrite_json(roster, lambda record: record.update(hearing_id="synth-108-0000"))
    return ["pair", "--corpus", str(corpus), "--output", str(tmp_path / "pairs.jsonl")], f"{roster} field 'hearing_id'"


def _pair_repeated_person_id(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline / "corpus", corpus)
    roster = next(corpus.glob("*/roster.json"))
    _repeat_first_person_id(roster)
    return ["pair", "--corpus", str(corpus), "--output", str(tmp_path / "pairs.jsonl")], roster


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


def _store_dir_not_named_for_its_hearing(subcommand):
    def case(pipeline, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(pipeline / "corpus", corpus)
        (corpus / "synth-108-0000").rename(corpus / "renamed")
        argv = {
            "classify-qa": ["classify-qa", "apply", "--model", str(pipeline / "qa_model.json")],
            "pair": ["pair", "--output", str(tmp_path / "pairs.jsonl")],
            "features": ["features", "--government", str(FIXTURES / "government_context.json"),
                         "--output", str(tmp_path / "ex.tsv")],
        }[subcommand]
        meta = corpus / "renamed" / "meta.json"
        return argv + ["--corpus", str(corpus)], f"'synth-108-0000' stored under 'renamed' ({meta} field 'hearing_id')"
    return case


def _segment_matching_no_marker(pipeline, tmp_path):
    from gavel.corpus import to_record
    from gavel.segmenter import SegmenterRules

    raw = _raw_tree(tmp_path, "synth-108-0000")
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({**to_record(SegmenterRules()), "marker_patterns": ["^Q\\. "]}))
    argv = ["segment", "--input", str(raw), "--output", str(tmp_path / "s"), "--rules", str(rules)]
    transcript = raw / "synth-108-0000" / "transcript.txt"
    return argv, f"hearing synth-108-0000: no speaker marker matched; the hearing needs manual rules ({transcript})"


MALFORMED_INPUTS = {
    "roster-not-object": _segment_bad_roster,
    "meta-invalid-json": _segment_bad_meta,
    "transcript-not-utf8": _segment_transcript_not_utf8,
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
    "model-nan-weight": _model_nan_weight,
    "roster-repeated-person-id": _segment_repeated_person_id,
    "stored-roster-repeated-person-id": _pair_repeated_person_id,
    "roster-of-another-hearing": _segment_roster_of_another_hearing,
    "meta-duplicate-hearing-id": _segment_duplicate_hearing_id,
    "stored-roster-of-another-hearing": _pair_roster_of_another_hearing,
    "examples-bad-session": _kstest_bad_session,
    "utterances-sequence-gap": _pair_sequence_gap,
    "apply-store-dir-not-named-for-its-hearing": _store_dir_not_named_for_its_hearing("classify-qa"),
    "pair-store-dir-not-named-for-its-hearing": _store_dir_not_named_for_its_hearing("pair"),
    "features-store-dir-not-named-for-its-hearing": _store_dir_not_named_for_its_hearing("features"),
    "transcript-matching-no-marker": _segment_matching_no_marker,
    "verdict-blank": _verdict_file(""),
    "verdict-unknown": _verdict_file("mangled"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_one_and_names_the_file(pipeline, tmp_path, capsys, case):
    argv, where = MALFORMED_INPUTS[case](pipeline, tmp_path)
    before = {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")}
    assert run(argv) == 1
    assert str(where) in capsys.readouterr().err
    assert {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")} == before


def test_segment_checks_every_roster_before_it_segments_a_hearing(tmp_path, capsys, monkeypatch):
    from gavel import synth

    raw = tmp_path / "raw"
    synth.write_raw_tree(synth.synth_corpus(6, seed=11), raw)
    first, *_, last = sorted(p for p in raw.iterdir() if p.is_dir())
    roster = last / "roster.json"
    _rewrite_json(roster, lambda record: record.update(hearing_id=first.name))

    def segment_hearing(*args):
        raise AssertionError("a hearing was segmented before every roster was checked")

    monkeypatch.setattr(cli, "segment_hearing", segment_hearing)
    assert run(["segment", "--input", str(raw), "--output", str(tmp_path / "s")]) == 1
    assert f"{roster} field 'hearing_id'" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


NON_FINITE_READERS = {
    "kstest": lambda ex, out: ["kstest", "--examples", str(ex), "--out-matrix", str(out / "m.tsv")],
    "train": lambda ex, out: ["train", "--examples", str(ex), "--model-out", str(out / "model.json")],
    "evaluate": lambda ex, out: ["evaluate", "--examples", str(ex), "--out-dir", str(out)],
}


# What NaN, which means a null feature in memory, would hide if the reader let it in: each
# case edits the cells of the table's third line and names the column the refusal must name.
_FIRST_FEATURE = len(META_COLUMNS)
TABLE_FAULTS = {
    **{cell: (lambda cells, cell=cell: [*cells[:_FIRST_FEATURE], cell, *cells[_FIRST_FEATURE + 1:]], COLUMNS[_FIRST_FEATURE])
       for cell in ("nan", "NaN", "inf", "-inf", "Infinity")},
    "session-not-integer": (lambda cells: [*cells[:3], "110.5", *cells[4:]], "session"),
    "short-row": (lambda cells: cells[:-1], COLUMNS[-1]),
    "long-row": (lambda cells: [*cells, "0.0"], COLUMNS[-1]),
}


@pytest.mark.parametrize("command", sorted(NON_FINITE_READERS))
@pytest.mark.parametrize("cell", sorted(TABLE_FAULTS))
def test_non_finite_feature_cell_exits_one_and_names_the_line(pipeline, tmp_path, capsys, cell, command):
    """A non-finite feature, a session that is no integer and a row of the wrong width all exit 1,
    naming the file, the line and the column, before any output is written."""
    edit, column = TABLE_FAULTS[cell]
    examples = tmp_path / "examples.tsv"
    lines = (pipeline / "examples.tsv").read_text().splitlines()
    lines[2] = "\t".join(edit(lines[2].split("\t")))
    examples.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run(NON_FINITE_READERS[command](examples, out)) == 1
    err = capsys.readouterr().err
    assert f"{examples}:3 field '{column}'" in err
    assert cell not in ("nan", "NaN", "inf", "-inf", "Infinity") or "non-finite" in err
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
    "classify-qa-apply-corpus-is-a-file": lambda p, t, f, d: (  # the store it labels in place
        ["classify-qa", "apply", "--model", str(_bad_examples(t)), "--corpus", str(f)], "--corpus", f),
    "prompts-output-under-a-file-and-no-pairs": lambda p, t, f, d: (  # checked before the options are
        ["prompts", "--corpus", str(t / "absent-input"), "--kind", "Answer", "--output", str(f / "p.jsonl")],
        "--output", f),
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
    roster = load_roster(hearing / "roster.json", hearing.name)
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
IGNORED_DEFAULTS = {"model": "forest", "cv_folds": 5, "test_fraction": 0.2,
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
