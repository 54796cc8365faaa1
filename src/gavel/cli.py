"""Command-line pipeline wiring all modules together.

Subcommands: fetch, segment, classify-qa (train/apply), pair, features,
kstest, train, evaluate, prompts, verify-sample. Every run honors --seed
(default 108, never wall-clock) and --config (JSON file whose keys mirror
the flags; flags override), writes its artifacts only under the declared
output location, creating missing parent directories, and drops a manifest
with a config hash and input checksums so identical runs are identifiable.
Diagnostics go to stderr, data to stdout or files. Exit codes: 0 success,
1 validation error, 2 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .corpus import (
    CorpusError,
    HearingMeta,
    Party,
    QALabel,
    Standing,
    load_corpus,
    load_government_config,
    load_roster,
    load_rosters,
    store_corpus,
    write_lines,
    write_tsv,
)
from .features import SCHEMA
from .fetcher import FetchError, Fetcher
from .forest import ForestHyper, save_forest, train_forest
from .harness import (
    ExperimentConfig,
    SplitSpec,
    build_datasets,
    build_examples,
    emit_tables,
    read_examples,
    read_predictions_file,
    render_prompt,
    run_experiment,
    score_predictions,
    write_examples,
)
from .kstest import compare_groups, emit_comparison_details, emit_heatmap_matrix
from .lexicons import LexiconError, load_lexicons, verify_manifest
from .party_models import Task, column_medians, cross_validate_grid, feature_importance, impute
from .qa import (
    QAHyper,
    Source,
    classify_qa,
    load_model,
    load_pairs,
    load_training_corpus,
    pair_qa,
    save_model,
    save_pairs,
    score_confusion,
    train_qa,
)
from .segmenter import (
    SegmentationFailed,
    SegmenterRules,
    read_verdict_file,
    score_verdicts,
    segment_hearing,
    verify_sample,
)

DEFAULT_SEED = 108  # first session in the supported range; fixed, never wall-clock


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 1
        raise UsageError(message)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _checksum_input(path: Path) -> str:
    if path.is_file():
        return _sha256_file(path)
    if path.is_dir():
        h = hashlib.sha256()
        for f in sorted(p for p in path.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(path)).encode())
            h.update(_sha256_file(f).encode())
        return h.hexdigest()
    return "missing"


def write_manifest(
    out_dir: Path, subcommand: str, resolved: dict, inputs: Sequence[Path], started: float
) -> None:
    payload = {
        "subcommand": subcommand,
        "config": resolved,
        "input_checksums": {str(p): _checksum_input(p) for p in sorted(set(inputs), key=str)},
        "seed": resolved.get("seed"),
        "version": __version__,
    }
    config_hash = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    payload["config_hash"] = config_hash
    payload["started_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started))
    payload["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    write_lines(out_dir / "manifest.json", [json.dumps(payload, indent=1, sort_keys=True)])


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _resolve(args: argparse.Namespace, config: dict, defaults: dict) -> dict:
    """Flag > config-file key > default, per option name."""
    resolved = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            resolved[key] = config[key]
        else:
            resolved[key] = default
    return resolved


def _require(resolved: dict, *keys: str) -> None:
    missing = [k for k in keys if resolved.get(k) in (None, "")]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _raw_hearing_dirs(input_dir: Path) -> list[Path]:
    if not input_dir.is_dir():
        raise UsageError(f"input directory not found: {input_dir}")
    dirs = sorted(p for p in input_dir.iterdir() if p.is_dir() and (p / "transcript.txt").is_file())
    if not dirs:
        raise UsageError(f"no hearing directories (with transcript.txt) under {input_dir}")
    return dirs


# --- subcommand implementations ----------------------------------------------

def cmd_fetch(args, config) -> int:
    defaults = dict(
        ids="",
        ids_file=None,
        endpoint=None,
        cache_dir=os.environ.get("GAVEL_CACHE_DIR"),
        min_delay=1.0,
        retries=3,
        seed=DEFAULT_SEED,
    )
    r = _resolve(args, config, defaults)
    _require(r, "endpoint", "cache_dir")
    ids = [i for i in (r["ids"] or "").split(",") if i]
    if r["ids_file"]:
        ids.extend(l.strip() for l in Path(r["ids_file"]).read_text(encoding="utf-8").splitlines() if l.strip())
    if not ids:
        raise UsageError("no hearing ids given (--ids or --ids-file)")
    started = time.time()
    fetcher = Fetcher(r["endpoint"], r["cache_dir"], min_delay=float(r["min_delay"]), retries=int(r["retries"]))
    for hearing_id in ids:
        fetcher.fetch(hearing_id)
        _log(f"fetched {hearing_id}")
    write_manifest(Path(r["cache_dir"]), "fetch", r, [], started)
    return 0


def cmd_segment(args, config) -> int:
    defaults = dict(input=None, output=None, rules=None, seed=DEFAULT_SEED)
    r = _resolve(args, config, defaults)
    _require(r, "input", "output")
    started = time.time()
    rules = SegmenterRules.from_file(r["rules"]) if r["rules"] else SegmenterRules()
    results = []
    for hdir in _raw_hearing_dirs(Path(r["input"])):
        raw = (hdir / "transcript.txt").read_text(encoding="utf-8")
        meta = HearingMeta.from_record(
            json.loads((hdir / "meta.json").read_text(encoding="utf-8")), path=str(hdir / "meta.json")
        )
        roster = load_roster(hdir / "roster.json")
        utterances, report = segment_hearing(raw, rules, roster, meta)
        results.append((meta, utterances, roster, report))
    results.sort(key=lambda t: t[0].hearing_id)
    out = Path(r["output"])
    store_corpus(
        [(meta, utts) for meta, utts, _, _ in results],
        out,
        rosters={meta.hearing_id: roster for meta, _, roster, _ in results},
    )
    for meta, _, _, report in results:
        _log(
            f"{meta.hearing_id}: {report.n_utterances} utterances, "
            f"{report.n_unresolved_speakers} unresolved, {len(report.warnings)} warnings"
        )
    reports = {
        meta.hearing_id: {
            "n_utterances": rep.n_utterances,
            "n_unresolved_speakers": rep.n_unresolved_speakers,
            "trimmed_head_chars": rep.trimmed_head_chars,
            "trimmed_tail_chars": rep.trimmed_tail_chars,
            "warnings": [[line, msg] for line, msg in rep.warnings],
        }
        for meta, _, _, rep in results
    }
    write_lines(out / "segmentation_report.json", [json.dumps(reports, indent=1, sort_keys=True)])
    write_manifest(out, "segment", r, [Path(r["input"])], started)
    return 0


def _parse_train_specs(specs: Sequence[str]) -> list[tuple[Path, Source]]:
    out = []
    for spec in specs:
        if ":" not in spec:
            raise UsageError(f"training file must be PATH:FORMAT (AMA|UKParl|HandLabeled), got {spec!r}")
        path, _, fmt = spec.rpartition(":")
        try:
            out.append((Path(path), Source(fmt)))
        except ValueError:
            raise UsageError(f"unknown training format {fmt!r}")
    return out


def cmd_classify_qa(args, config) -> int:
    if args.mode == "train":
        defaults = dict(
            train=None, model_out=None, learning_rate=0.5, epochs=60, l2=1e-4, seed=DEFAULT_SEED
        )
        r = _resolve(args, config, defaults)
        _require(r, "train", "model_out")
        started = time.time()
        corpus = []
        inputs = []
        for path, fmt in _parse_train_specs(r["train"]):
            rows, report = load_training_corpus(path, fmt)
            corpus.extend(rows)
            inputs.append(path)
            _log(f"{path}: kept {report.n_kept} rows ({report.duplicates_removed} duplicates removed)")
        hyper = QAHyper(
            learning_rate=float(r["learning_rate"]), epochs=int(r["epochs"]), l2=float(r["l2"]), seed=int(r["seed"])
        )
        model, trace = train_qa(corpus, hyper)
        save_model(model, r["model_out"])
        _log(f"trained on {len(corpus)} rows; loss {trace[0]:.4f} -> {trace[-1]:.4f}")
        write_manifest(Path(r["model_out"]).parent, "classify-qa train", r, inputs, started)
        return 0
    # apply
    defaults = dict(model=None, corpus=None, eval=None, other_band=None, seed=DEFAULT_SEED)
    r = _resolve(args, config, defaults)
    _require(r, "model")
    model = load_model(r["model"])
    started = time.time()
    if r["eval"]:
        (path, fmt), = _parse_train_specs([r["eval"]])
        rows, _ = load_training_corpus(path, fmt)
        predictions = [classify_qa(model, row.text)[0] for row in rows]
        counts = score_confusion(predictions, [row.label for row in rows])
        print(
            json.dumps(
                {
                    "n": counts.total,
                    "questions_true": counts.q_true,
                    "questions_false": counts.q_false,
                    "answers_true": counts.a_true,
                    "answers_false": counts.a_false,
                    "accuracy": counts.accuracy,
                    "accuracy_2dp": counts.display_accuracy(),
                }
            )
        )
        return 0
    _require(r, "corpus")
    corpus_dir = Path(r["corpus"])
    corpus = load_corpus(corpus_dir)
    band = float(r["other_band"]) if r["other_band"] is not None else None
    labeled = []
    for meta, utterances in corpus:
        relabeled = [replace(u, qa_label=classify_qa(model, u.text, other_band=band)[0]) for u in utterances]
        labeled.append((meta, relabeled))
    store_corpus(labeled, corpus_dir, rosters=load_rosters(corpus_dir))
    n = sum(len(u) for _, u in labeled)
    _log(f"labeled {n} utterances in place under {corpus_dir}")
    write_manifest(corpus_dir, "classify-qa apply", r, [Path(r["model"])], started)
    return 0


def cmd_pair(args, config) -> int:
    defaults = dict(corpus=None, output=None, seed=DEFAULT_SEED)
    r = _resolve(args, config, defaults)
    _require(r, "corpus", "output")
    started = time.time()
    corpus_dir = Path(r["corpus"])
    corpus = load_corpus(corpus_dir)
    rosters = load_rosters(corpus_dir)
    pairs_by_hearing = {}
    n_pairs = n_unpaired = n_orphans = 0
    for meta, utterances in corpus:
        roster = rosters.get(meta.hearing_id)
        people = {p.person_id: p for p in roster.people} if roster else {}
        pairs, report = pair_qa(utterances, people)
        pairs_by_hearing[meta.hearing_id] = pairs
        n_pairs += len(pairs)
        n_unpaired += len(report.unpaired_questions)
        n_orphans += len(report.orphan_answers)
    save_pairs(pairs_by_hearing, r["output"])
    _log(f"{n_pairs} pairs, {n_unpaired} unpaired questions, {n_orphans} orphan answers")
    write_manifest(Path(r["output"]).parent, "pair", r, [corpus_dir], started)
    return 0


def cmd_features(args, config) -> int:
    defaults = dict(
        corpus=None,
        pairs=None,
        government=None,
        output=None,
        lexicons=None,
        member_directory=None,
        strip_names=True,
        seed=DEFAULT_SEED,
    )
    r = _resolve(args, config, defaults)
    _require(r, "corpus", "government", "output")
    started = time.time()
    problems = verify_manifest(r["lexicons"]) if r["lexicons"] else verify_manifest()
    for p in problems:
        _log(f"lexicon manifest: {p}")
    lexicons = load_lexicons(r["lexicons"])
    corpus_dir = Path(r["corpus"])
    corpus = load_corpus(corpus_dir)
    rosters = load_rosters(corpus_dir)
    gov = load_government_config(r["government"])
    pairs = load_pairs(r["pairs"]) if r["pairs"] else None
    directory = ()
    inputs = [corpus_dir, Path(r["government"])]
    if r["member_directory"]:
        directory = tuple(
            l.strip() for l in Path(r["member_directory"]).read_text(encoding="utf-8").splitlines() if l.strip()
        )
        inputs.append(Path(r["member_directory"]))
    if r["pairs"]:
        inputs.append(Path(r["pairs"]))
    rows, warnings = build_examples(
        corpus, rosters, gov, lexicons, pairs=pairs, member_directory=directory, strip_names=bool(r["strip_names"])
    )
    for w in warnings:
        _log(f"warning: {w}")
    write_examples(rows, r["output"])
    _log(f"wrote {len(rows)} example rows to {r['output']}")
    write_manifest(Path(r["output"]).parent, "features", r, inputs, started)
    return 0


def cmd_kstest(args, config) -> int:
    defaults = dict(examples=None, kind="Question", out_matrix=None, out_details=None, seed=DEFAULT_SEED)
    r = _resolve(args, config, defaults)
    _require(r, "examples", "out_matrix")
    started = time.time()
    rows = read_examples(r["examples"])
    selected = []
    for row in rows:
        if row.kind != r["kind"]:
            continue
        try:
            party = Party(row.party)
            standing = Standing(row.standing)
        except ValueError:
            continue
        selected.append((party, standing, row.features))
    if not selected:
        raise UsageError(f"no rows of kind {r['kind']!r} in {r['examples']}")
    comparisons, skips = compare_groups(selected)
    emit_heatmap_matrix(comparisons, r["out_matrix"])
    if r["out_details"]:
        emit_comparison_details(comparisons, skips, r["out_details"])
    _log(f"{len(comparisons)} comparisons, {len(skips)} skipped")
    write_manifest(Path(r["out_matrix"]).parent, "kstest", r, [Path(r["examples"])], started)
    return 0


def _grid_from_config(value) -> tuple[ForestHyper, ...]:
    if value is None:
        return (ForestHyper(n_estimators=30, max_depth=8),)
    cells = []
    for cell in value:
        cells.append(
            ForestHyper(
                n_estimators=int(cell.get("n_estimators", 30)),
                max_depth=cell.get("max_depth"),
                min_samples_split=int(cell.get("min_samples_split", 2)),
                max_features=cell.get("max_features"),
            )
        )
    return tuple(cells)


def cmd_train(args, config) -> int:
    defaults = dict(
        examples=None,
        task="Affiliation",
        kind="Question",
        model="forest",
        model_out=None,
        grid=None,
        cv_folds=5,
        min_rows=50,
        importance_out=None,
        seed=DEFAULT_SEED,
    )
    r = _resolve(args, config, defaults)
    _require(r, "examples", "model_out")
    started = time.time()
    rows = read_examples(r["examples"])
    spec = SplitSpec(dimensions=(), utterance_kind=r["kind"], task=Task(r["task"]), min_rows=int(r["min_rows"]))
    datasets, skips = build_datasets(rows, spec)
    if not datasets:
        raise UsageError(f"not enough rows to train: {[s.reason for s in skips]}")
    _, dataset = datasets[0]
    labels = dataset.labels
    present = sorted(set(labels), key=dataset.label_order.index)
    if len(present) < 2:
        raise UsageError("training data holds a single class")
    raw = [list(row.features) for row in dataset.rows]
    medians = column_medians(raw, len(SCHEMA))
    x = impute(raw, medians)
    grid = _grid_from_config(r["grid"] if r["grid"] is not None else config.get("grid"))
    if r["model"] == "forest":
        if len(grid) > 1:
            best, scores, warnings = cross_validate_grid(x, labels, present, grid, k=int(r["cv_folds"]), seed=int(r["seed"]))
            for w in warnings:
                _log(f"warning: {w}")
            _log(f"grid best: {best}")
        else:
            best = grid[0]
        model = train_forest(x, labels, present, replace(best, seed=int(r["seed"])))
        save_forest(model, r["model_out"])
        if r["importance_out"]:
            imp = feature_importance(model, schema=SCHEMA)
            ranked = sorted(imp.items(), key=lambda kv: (-kv[1], kv[0]))
            write_tsv(r["importance_out"], ["feature", "importance"], ([k, repr(v)] for k, v in ranked))
    else:
        raise UsageError(f"unsupported model for train: {r['model']!r}")
    _log(f"trained {r['model']} on {len(x)} rows, classes {present}")
    write_manifest(Path(r["model_out"]).parent, "train", r, [Path(r["examples"])], started)
    return 0


def cmd_evaluate(args, config) -> int:
    defaults = dict(
        examples=None,
        task="Affiliation",
        kind="Question",
        model="forest",
        split_dims="",
        min_rows=50,
        cv_folds=5,
        test_fraction=0.2,
        grid=None,
        out_dir=None,
        layouts="split_grid",
        predictions=None,
        seed=DEFAULT_SEED,
    )
    r = _resolve(args, config, defaults)
    _require(r, "examples", "out_dir")
    started = time.time()
    rows = read_examples(r["examples"])
    out_dir = Path(r["out_dir"])
    task = Task(r["task"])
    if r["predictions"]:
        report, warnings = score_predictions(read_predictions_file(r["predictions"]), rows, task)
        for w in warnings:
            _log(f"warning: {w}")
        emit_tables([report], "split_grid", out_dir / "external_predictions.tsv")
        _log(
            f"external predictions: accuracy {report.accuracy:.4f} vs baseline "
            f"{report.baseline_accuracy:.4f} ({report.baseline_class})"
        )
        write_manifest(out_dir, "evaluate", r, [Path(r["examples"]), Path(r["predictions"])], started)
        return 0
    dims = tuple(d for d in (r["split_dims"] or "").split(",") if d)
    spec = SplitSpec(dimensions=dims, utterance_kind=r["kind"], task=task, min_rows=int(r["min_rows"]))
    if spec.min_rows < 2 * int(r["cv_folds"]):
        raise UsageError(f"min_rows={spec.min_rows} must be at least 2*cv_folds={2 * int(r['cv_folds'])}")
    datasets, skips = build_datasets(rows, spec)
    for s in skips:
        _log(f"skipped split {dict(s.key)}: {s.reason} (n={s.n_rows})")
    if not datasets:
        raise UsageError("every split was skipped; lower --min-rows or change --split-dims")
    exp = ExperimentConfig(
        model=r["model"],
        grid=_grid_from_config(r["grid"] if r["grid"] is not None else config.get("grid")),
        cv_folds=int(r["cv_folds"]),
        test_fraction=float(r["test_fraction"]),
        seed=int(r["seed"]),
    )
    reports = run_experiment(datasets, exp)
    for layout in (l for l in (r["layouts"] or "").split(",") if l):
        emit_tables(reports, layout, out_dir / f"{layout}.tsv")
    write_tsv(
        out_dir / "skipped_splits.tsv",
        ["split", "n_rows", "reason"],
        (["|".join(f"{d}={v}" for d, v in s.key), str(s.n_rows), s.reason] for s in skips),
    )
    for rep in reports:
        flag = "*" if rep.beats_baseline else " "
        _log(
            f"{flag} {rep.split_label}: acc {rep.accuracy:.4f} base {rep.baseline_accuracy:.4f}"
            f" ({rep.baseline_class}){' DEGENERATE' if rep.degenerate else ''}{' ERROR ' + rep.error if rep.error else ''}"
        )
    write_manifest(out_dir, "evaluate", r, [Path(r["examples"])], started)
    return 0


def cmd_prompts(args, config) -> int:
    defaults = dict(corpus=None, pairs=None, kind="Question", output=None, seed=DEFAULT_SEED)
    r = _resolve(args, config, defaults)
    _require(r, "corpus", "output")
    if r["kind"] in ("Answer", "Both") and not r["pairs"]:
        raise UsageError(f"kind {r['kind']} needs --pairs")
    started = time.time()
    corpus_dir = Path(r["corpus"])
    corpus = load_corpus(corpus_dir)
    pairs = load_pairs(r["pairs"]) if r["pairs"] else {}
    out_lines = []
    for meta, utterances in corpus:
        by_id = {u.utterance_id: u for u in utterances}
        if r["kind"] == "Question":
            for u in utterances:
                if u.qa_label is QALabel.QUESTION:
                    out_lines.append(
                        json.dumps(
                            {"example_id": u.utterance_id, "prompt": render_prompt("Question", question_text=u.text)},
                            ensure_ascii=False,
                        )
                    )
        else:
            for pair in pairs.get(meta.hearing_id, []):
                q = by_id.get(pair.question_utterance_id)
                a = by_id.get(pair.answer_utterance_id)
                if q is None or a is None:
                    continue
                if r["kind"] == "Answer":
                    example_id, prompt = a.utterance_id, render_prompt("Answer", answer_text=a.text)
                else:
                    example_id, prompt = pair.pair_id, render_prompt("Both", question_text=q.text, answer_text=a.text)
                out_lines.append(json.dumps({"example_id": example_id, "prompt": prompt}, ensure_ascii=False))
    write_lines(r["output"], out_lines)
    _log(f"wrote {len(out_lines)} prompts")
    write_manifest(Path(r["output"]).parent, "prompts", r, [corpus_dir], started)
    return 0


def cmd_verify_sample(args, config) -> int:
    defaults = dict(
        corpus=None, hearings_per_session=50, utterances_per_hearing=10, output=None, score=None, seed=DEFAULT_SEED
    )
    r = _resolve(args, config, defaults)
    started = time.time()
    if r["score"]:
        rows = read_verdict_file(r["score"])
        summary = score_verdicts([v for _, v in rows])
        print(
            json.dumps(
                {
                    "n_total": summary.n_total,
                    "n_correct": summary.n_correct,
                    "n_clubbed": summary.n_clubbed,
                    "n_broken": summary.n_broken,
                    "n_incorrect": summary.n_incorrect,
                    "correctness_rate": summary.correctness_rate,
                    "correctness_pct_2dp": f"{100 * summary.correctness_rate:.2f}",
                }
            )
        )
        return 0
    _require(r, "corpus", "output")
    corpus = load_corpus(Path(r["corpus"]))
    manifest = verify_sample(
        corpus, int(r["hearings_per_session"]), int(r["utterances_per_hearing"]), int(r["seed"])
    )
    for w in manifest.warnings:
        _log(f"warning: {w}")
    manifest.write(r["output"])
    _log(f"wrote {len(manifest.rows)} manifest rows")
    write_manifest(Path(r["output"]).parent, "verify-sample", r, [Path(r["corpus"])], started)
    return 0


# --- parser wiring -------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="gavel", description="Hearing-transcript segmentation and Q&A analytics pipeline.")
    parser.add_argument("--version", action="version", version=f"gavel {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="JSON config file; keys mirror the flags, flags override")
        p.add_argument("--seed", type=int, help=f"random seed (default {DEFAULT_SEED})")
        return p

    p = add("fetch", cmd_fetch, help="download transcripts into the local cache")
    p.add_argument("--ids", help="comma-separated hearing ids")
    p.add_argument("--ids-file", dest="ids_file", help="file with one hearing id per line")
    p.add_argument("--endpoint", help="URL or URL template with {hearing_id}")
    p.add_argument("--cache-dir", dest="cache_dir", help="transcript cache directory (or set GAVEL_CACHE_DIR)")
    p.add_argument("--min-delay", dest="min_delay", type=float, help="minimum seconds between requests")
    p.add_argument("--retries", type=int)

    p = add("segment", cmd_segment, help="split raw transcripts into speaker-attributed utterances")
    p.add_argument("--input", help="directory of raw hearings (transcript.txt + meta.json + roster.json)")
    p.add_argument("--output", help="corpus store directory to create")
    p.add_argument("--rules", help="segmentation rules JSON file")

    p = add("classify-qa", cmd_classify_qa, help="train or apply the question/answer classifier")
    p.add_argument("mode", choices=("train", "apply"))
    p.add_argument("--train", action="append", help="training file as PATH:FORMAT (AMA|UKParl|HandLabeled); repeatable")
    p.add_argument("--model-out", dest="model_out", help="where to write the trained model")
    p.add_argument("--model", help="trained model file (apply mode)")
    p.add_argument("--corpus", help="corpus store to label in place (apply mode)")
    p.add_argument("--eval", help="labeled file PATH:FORMAT to score instead of labeling a corpus")
    p.add_argument("--other-band", dest="other_band", type=float, help="probability margin labeled Other")
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--l2", type=float)

    p = add("pair", cmd_pair, help="pair member questions with witness answers")
    p.add_argument("--corpus", help="labeled corpus store")
    p.add_argument("--output", help="pairs JSONL file to write")

    p = add("features", cmd_features, help="extract the per-utterance feature table")
    p.add_argument("--corpus", help="labeled corpus store")
    p.add_argument("--pairs", help="pairs JSONL (enables Answer/Both rows)")
    p.add_argument("--government", help="per-session government-control JSON config")
    p.add_argument("--output", help="examples TSV to write")
    p.add_argument("--lexicons", help="lexicon directory (defaults to the bundled lists)")
    p.add_argument("--member-directory", dest="member_directory", help="extra name list for name removal")
    p.add_argument("--no-strip-names", dest="strip_names", action="store_false", default=None,
                   help="keep speaker names in text before feature extraction")

    p = add("kstest", cmd_kstest, help="two-sample distribution tests across group pairs")
    p.add_argument("--examples", help="examples TSV from `features`")
    p.add_argument("--kind", choices=("Question", "Answer", "Both"))
    p.add_argument("--out-matrix", dest="out_matrix", help="heatmap matrix TSV to write")
    p.add_argument("--out-details", dest="out_details", help="long-format details TSV to write")

    p = add("train", cmd_train, help="train a party-prediction model on the full example table")
    p.add_argument("--examples")
    p.add_argument("--task", choices=("Affiliation", "Standing"))
    p.add_argument("--kind", choices=("Question", "Answer", "Both"))
    p.add_argument("--model", choices=("forest",))
    p.add_argument("--model-out", dest="model_out")
    p.add_argument("--cv-folds", dest="cv_folds", type=int)
    p.add_argument("--min-rows", dest="min_rows", type=int)
    p.add_argument("--importance-out", dest="importance_out")

    p = add("evaluate", cmd_evaluate, help="run the split-wise experiment grid with baselines")
    p.add_argument("--examples")
    p.add_argument("--task", choices=("Affiliation", "Standing"))
    p.add_argument("--kind", choices=("Question", "Answer", "Both"))
    p.add_argument("--model", choices=("forest", "logistic"))
    p.add_argument("--split-dims", dest="split_dims", help="comma list from: committee,session,hearing_type,government,presidency")
    p.add_argument("--min-rows", dest="min_rows", type=int)
    p.add_argument("--cv-folds", dest="cv_folds", type=int)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--layouts", help="comma list from: split_grid,committee,hearing_type_government")
    p.add_argument("--predictions", help="score an external predictions TSV instead of training")

    p = add("prompts", cmd_prompts, help="render zero-shot prompts for external models")
    p.add_argument("--corpus")
    p.add_argument("--pairs")
    p.add_argument("--kind", choices=("Question", "Answer", "Both"))
    p.add_argument("--output")

    p = add("verify-sample", cmd_verify_sample, help="draw or score the human-verification sample")
    p.add_argument("--corpus")
    p.add_argument("--hearings-per-session", dest="hearings_per_session", type=int)
    p.add_argument("--utterances-per-hearing", dest="utterances_per_hearing", type=int)
    p.add_argument("--output", help="annotation manifest TSV to write")
    p.add_argument("--score", help="verdict TSV (utterance_id, verdict) to summarize")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            parser.print_usage(sys.stderr)
            return 1
        config = _load_config_file(getattr(args, "config", None))
        return args.fn(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (CorpusError, FetchError, LexiconError, SegmentationFailed, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
