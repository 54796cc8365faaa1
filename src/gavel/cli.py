"""Command-line pipeline wiring all modules together.

Subcommands: fetch, segment, classify-qa (train/apply), pair, features,
kstest, train, evaluate, prompts, verify-sample. Every run honors --seed
(default 108, never wall-clock) and --config (JSON file whose keys mirror
the flags; flags override), writes its artifacts only under the declared
output location, creating missing parent directories, and drops a manifest
with a config hash and input checksums so identical runs are identifiable.
Each option, with its default, type and choices, is declared once, in
`build_parser`; config-file values pass the same checks as flags.
Diagnostics go to stderr, data to stdout or files. Exit codes: 0 success,
1 validation error, 2 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
import time
import traceback
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from . import KINDS, LAYOUTS, GavelError, __version__

# Every name the subcommands take from another gavel module, by the module that
# defines it. Each command binds the names of the modules it runs with `_use`, so a
# process imports only those; `--version` and the parser import none of them.
_IMPORTS = {
    "corpus": (
        "HearingMeta", "Party", "QALabel", "Standing", "Task", "from_record", "load_corpus",
        "load_government_config", "load_roster", "load_rosters", "read_json", "read_lines", "render_prompt",
        "store_corpus", "to_record", "write_lines", "write_tsv",
    ),
    "features": ("SCHEMA", "read_examples", "write_examples"),
    "fetcher": ("Fetcher",),
    "forest": ("ForestHyper", "save_forest"),
    "harness": (
        "DEFAULT_GRID", "ExperimentConfig", "SplitSpec", "build_datasets", "build_examples", "emit_tables",
        "fit_forest", "impute_with_medians", "read_predictions_file", "run_experiment", "score_predictions",
    ),
    "kstest": ("compare_groups", "emit_comparison_details", "emit_heatmap_matrix"),
    "lexicons": ("load_lexicons", "verify_manifest"),
    "party_models": ("feature_importance",),
    "qa": (
        "QAHyper", "Source", "classify_qa", "load_model", "load_pairs", "load_training_corpus", "pair_qa",
        "save_model", "save_pairs", "score_confusion", "train_qa",
    ),
    "segmenter": ("SegmenterRules", "read_verdict_file", "score_verdicts", "segment_hearing", "verify_sample"),
}
_HOME = {name: module for module, names in _IMPORTS.items() for name in names}


def _use(*modules: str) -> None:
    """Import `modules` and bind here the names this module takes from them.

    A name already bound stays bound, so a wrapper or test double set on this
    module before the command runs is what the command calls.
    """
    namespace = globals()
    for module in modules:
        home = importlib.import_module(f".{module}", __package__)
        for name in _IMPORTS[module]:
            namespace.setdefault(name, getattr(home, name))


def __getattr__(name: str):
    """Bind a name of `_IMPORTS` on first access from outside, as `gavel.cli.load_corpus` (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _use(_HOME[name])
    return globals()[name]


DEFAULT_SEED = 108  # first session in the supported range; fixed, never wall-clock

# Namespace entries that are parser wiring rather than settable values.
_WIRING = ("subcommand", "mode", "fn", "command_parser", "config", "given")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _Store)

    def error(self, message):  # argparse default exits 2; the contract is 1
        raise UsageError(message)


class _Store(argparse._StoreAction):
    """`store`, noting in `given` each option given, whatever its value.

    argparse counts an option as present only when its value is not the default
    object, so `--cv-folds 5` (5 is a cached int, the default's very object)
    would pass for absent in a mode group; `_apply_config` reads `given` instead.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        super().__call__(parser, namespace, values, option_string)
        namespace.given = (*namespace.given, self.dest)


class _AppendFlags(argparse.Action):
    """`append`, except that the first flag replaces a list from the config file."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        items = [] if items is None or items is self.default else list(items)
        setattr(namespace, self.dest, items + [values])


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
        # an upstream run's manifest.json holds timestamps, so it is not input content
        h = hashlib.sha256()
        for f in sorted(p for p in path.rglob("*") if p.is_file() and p.name != "manifest.json"):
            h.update(str(f.relative_to(path)).encode())
            h.update(_sha256_file(f).encode())
        return h.hexdigest()
    return "missing"


def _settings(args: argparse.Namespace) -> dict:
    """The subcommand's settable values: each of its options, plus `grid` where declared."""
    return {k: v for k, v in vars(args).items() if k not in _WIRING}


def write_manifest(
    out_dir: Path, subcommand: str, args: argparse.Namespace, inputs: Sequence[Path], started: float
) -> None:
    payload = {
        "subcommand": subcommand,
        "config": _settings(args),
        "input_checksums": {str(p): _checksum_input(p) for p in sorted(set(inputs), key=str)},
        "seed": args.seed,
        "version": __version__,
    }
    config_hash = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    payload["config_hash"] = config_hash
    payload["started_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started))
    payload["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    write_lines(out_dir / "manifest.json", [json.dumps(payload, indent=1, sort_keys=True)])


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_config_file(path: str) -> dict:
    if not Path(path).is_file():
        raise UsageError(f"config file not found: {path}")
    return read_json(path, dict, dict)


def _config_value(parser: argparse.ArgumentParser, action: Optional[argparse.Action], key: str, value):
    """A config-file value, converted and checked as the flag's text would be."""
    if action is None or (value is None and action.default is None):
        return value  # `grid`, or an optional value left unset
    if action.nargs == 0 and type(value) is bool:  # a switch such as --no-strip-names
        return value
    many = isinstance(action, _AppendFlags)
    items = value if many and isinstance(value, list) else [value]
    if action.nargs == 0 or any(type(v) not in (str, int, float) for v in items):
        raise UsageError(f"config key {key!r}: bad value {value!r}")
    try:
        checked = [parser._get_values(action, [str(v)]) for v in items]
    except argparse.ArgumentError as exc:
        raise UsageError(f"config key {key!r}: {exc.message}") from None
    return checked if many else checked[0]


def _apply_config(args: argparse.Namespace, config: dict) -> None:
    """Make each config-file value the default of its option in the chosen subcommand.

    A mutually exclusive group admits one member, given by flag or by config key,
    whatever its value.
    """
    unknown = sorted(set(config) - set(_settings(args)))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    parser = args.command_parser
    actions = {a.dest: a for a in parser._actions}
    values = {k: _config_value(parser, actions.get(k), k, v) for k, v in config.items()}
    for group in parser._mutually_exclusive_groups:
        members = {a.dest: a.option_strings[0] for a in group._group_actions}
        flags = [members[dest] for dest in dict.fromkeys(args.given) if dest in members]
        keys = [f"config key {dest!r}" for dest in members if dest in config and dest not in args.given]
        if len(flags) > 1:  # as argparse words it when the values differ from the defaults
            raise UsageError(f"argument {flags[1]}: not allowed with argument {flags[0]}")
        if len(flags + keys) > 1:
            raise UsageError(f"{' and '.join(flags + keys)} cannot be used together")
    parser.set_defaults(**values)


def _require(args: argparse.Namespace, *keys: str) -> None:
    missing = [k for k in keys if getattr(args, k) in (None, "")]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _check_outputs(
    args: argparse.Namespace, files: Sequence[str] = (), dirs: Sequence[str] = (), new_dirs: Sequence[str] = ()
) -> None:
    """Reject output locations that cannot be written, before any input is read.

    A file output must not be an existing directory; a directory output, and
    every parent of either kind, must not be an existing non-directory. A new
    directory output must also be absent or empty, so that nothing stale from
    an earlier run is read back with the new contents.
    """
    for dest in (*files, *dirs, *new_dirs):
        value = getattr(args, dest)
        if not value:
            continue
        path = Path(value)
        option = "--" + dest.replace("_", "-")
        if dest in files and path.is_dir():
            raise UsageError(f"{option} {value}: is a directory, expected a file")
        for p in path.parents if dest in files else (path, *path.parents):
            if p.exists() and not p.is_dir():
                raise UsageError(f"{option} {value}: {p} exists and is not a directory")
        if dest in new_dirs and path.is_dir() and any(path.iterdir()):
            raise UsageError(f"{option} {value}: directory exists and is not empty")


def _listed(path: str) -> list[str]:
    """The entries of a one-per-line list file, stripped; blank lines skipped."""
    return [entry for entry in (line.strip() for _, line in read_lines(path)) if entry]


def _raw_hearing_dirs(input_dir: Path) -> list[Path]:
    if not input_dir.is_dir():
        raise UsageError(f"input directory not found: {input_dir}")
    dirs = sorted(p for p in input_dir.iterdir() if p.is_dir() and (p / "transcript.txt").is_file())
    if not dirs:
        raise UsageError(f"no hearing directories (with transcript.txt) under {input_dir}")
    return dirs


# --- subcommand implementations ----------------------------------------------

def cmd_fetch(args) -> int:
    _use("fetcher")
    _require(args, "endpoint", "cache_dir")
    _check_outputs(args, dirs=("cache_dir",))
    ids = [i for i in args.ids.split(",") if i]
    if args.ids_file:
        ids.extend(_listed(args.ids_file))
    if not ids:
        raise UsageError("no hearing ids given (--ids or --ids-file)")
    started = time.time()
    fetcher = Fetcher(args.endpoint, args.cache_dir, min_delay=args.min_delay, retries=args.retries)
    for hearing_id in ids:
        fetcher.fetch(hearing_id)
        _log(f"fetched {hearing_id}")
    write_manifest(Path(args.cache_dir), "fetch", args, [], started)
    return 0


def cmd_segment(args) -> int:
    _use("segmenter")
    _require(args, "input", "output")
    _check_outputs(args, new_dirs=("output",))
    started = time.time()
    rules = SegmenterRules.from_file(args.rules) if args.rules else SegmenterRules()
    results = []
    for hdir in _raw_hearing_dirs(Path(args.input)):
        raw = (hdir / "transcript.txt").read_text(encoding="utf-8")
        meta = read_json(hdir / "meta.json", dict, partial(from_record, HearingMeta))
        roster = load_roster(hdir / "roster.json")
        utterances, report = segment_hearing(raw, rules, roster, meta)
        results.append((meta, utterances, roster, report))
    results.sort(key=lambda t: t[0].hearing_id)
    out = Path(args.output)
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
    reports = {meta.hearing_id: to_record(rep) for meta, _, _, rep in results}
    write_lines(out / "segmentation_report.json", [json.dumps(reports, indent=1, sort_keys=True)])
    write_manifest(out, "segment", args, [Path(args.input)], started)
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


def cmd_classify_qa_train(args) -> int:
    _use("qa")
    _require(args, "train", "model_out")
    _check_outputs(args, files=("model_out",))
    started = time.time()
    corpus = []
    inputs = []
    for path, fmt in _parse_train_specs(args.train):
        rows, report = load_training_corpus(path, fmt)
        corpus.extend(rows)
        inputs.append(path)
        _log(f"{path}: kept {report.n_kept} rows ({report.duplicates_removed} duplicates removed)")
    hyper = QAHyper(learning_rate=args.learning_rate, epochs=args.epochs, l2=args.l2, seed=args.seed)
    model, trace = train_qa(corpus, hyper)
    save_model(model, args.model_out)
    _log(f"trained on {len(corpus)} rows; loss {trace[0]:.4f} -> {trace[-1]:.4f}")
    write_manifest(Path(args.model_out).parent, "classify-qa train", args, inputs, started)
    return 0


def cmd_classify_qa_apply(args) -> int:
    _use("qa")
    _require(args, "model")
    if not (args.corpus or args.eval):
        raise UsageError("missing required option: --corpus (label a corpus) or --eval (score a labeled file)")
    model = load_model(args.model)
    started = time.time()
    if args.eval:
        (path, fmt), = _parse_train_specs([args.eval])
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
    corpus_dir = Path(args.corpus)
    corpus = load_corpus(corpus_dir)
    labeled = []
    for meta, utterances in corpus:
        relabeled = [replace(u, qa_label=classify_qa(model, u.text, other_band=args.other_band)[0]) for u in utterances]
        labeled.append((meta, relabeled))
    store_corpus(labeled, corpus_dir)
    n = sum(len(u) for _, u in labeled)
    _log(f"labeled {n} utterances in place under {corpus_dir}")
    write_manifest(corpus_dir, "classify-qa apply", args, [Path(args.model)], started)
    return 0


def cmd_pair(args) -> int:
    _use("qa")
    _require(args, "corpus", "output")
    _check_outputs(args, files=("output",))
    started = time.time()
    corpus_dir = Path(args.corpus)
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
    save_pairs(pairs_by_hearing, args.output)
    _log(f"{n_pairs} pairs, {n_unpaired} unpaired questions, {n_orphans} orphan answers")
    write_manifest(Path(args.output).parent, "pair", args, [corpus_dir], started)
    return 0


def cmd_features(args) -> int:
    _use("lexicons", "qa", "features", "harness")
    _require(args, "corpus", "government", "output")
    _check_outputs(args, files=("output",))
    started = time.time()
    problems = verify_manifest(args.lexicons)
    for p in problems:
        _log(f"lexicon manifest: {p}")
    lexicons = load_lexicons(args.lexicons)
    corpus_dir = Path(args.corpus)
    corpus = load_corpus(corpus_dir)
    rosters = load_rosters(corpus_dir)
    gov = load_government_config(args.government)
    pairs = load_pairs(args.pairs) if args.pairs else None
    directory = ()
    inputs = [corpus_dir, Path(args.government)]
    if args.member_directory:
        directory = tuple(_listed(args.member_directory))
        inputs.append(Path(args.member_directory))
    if args.pairs:
        inputs.append(Path(args.pairs))
    rows, warnings = build_examples(
        corpus, rosters, gov, lexicons, pairs=pairs, member_directory=directory, strip_names=args.strip_names
    )
    for w in warnings:
        _log(f"warning: {w}")
    write_examples(rows, args.output)
    _log(f"wrote {len(rows)} example rows to {args.output}")
    write_manifest(Path(args.output).parent, "features", args, inputs, started)
    return 0


def cmd_kstest(args) -> int:
    _use("features", "kstest")
    _require(args, "examples", "out_matrix")
    _check_outputs(args, files=("out_matrix", "out_details"))
    started = time.time()
    rows = read_examples(args.examples)
    selected = []
    for row in rows:
        if row.kind != args.kind:
            continue
        try:
            party = Party(row.party)
            standing = Standing(row.standing)
        except ValueError:
            continue
        selected.append((party, standing, row.features))
    if not selected:
        raise UsageError(f"no rows of kind {args.kind!r} in {args.examples}")
    comparisons, skips = compare_groups(selected)
    emit_heatmap_matrix(comparisons, args.out_matrix)
    if args.out_details:
        emit_comparison_details(comparisons, skips, args.out_details)
    _log(f"{len(comparisons)} comparisons, {len(skips)} skipped")
    write_manifest(Path(args.out_matrix).parent, "kstest", args, [Path(args.examples)], started)
    return 0


def _grid_from_config(value) -> tuple[ForestHyper, ...]:
    """The config-only `grid` key: a non-empty list of forest cells, each key a positive int."""
    if value is None:
        return DEFAULT_GRID
    optional = ("max_depth", "max_features")  # null: unlimited depth, sqrt(d) features
    if not (isinstance(value, list) and value and all(
        isinstance(cell, dict)
        and set(cell) <= {"n_estimators", "min_samples_split", *optional}
        and all((type(v) is int and v > 0) or (v is None and k in optional) for k, v in cell.items())
        for cell in value
    )):
        raise UsageError(f"config key 'grid': expected a non-empty list of forest cells, got {value!r}")
    return tuple(ForestHyper(**{"n_estimators": DEFAULT_GRID[0].n_estimators, **cell}) for cell in value)


def cmd_train(args) -> int:
    _use("harness", "forest", "features", "party_models")
    _require(args, "examples", "model_out")
    _check_outputs(args, files=("model_out", "importance_out"))
    grid = _grid_from_config(args.grid)
    started = time.time()
    rows = read_examples(args.examples)
    spec = SplitSpec(dimensions=(), utterance_kind=args.kind, task=Task(args.task), min_rows=args.min_rows)
    datasets, skips = build_datasets(rows, spec)
    if not datasets:
        raise UsageError(f"not enough rows to train: {[s.reason for s in skips]}")
    _, dataset = datasets[0]
    labels = dataset.labels
    present = sorted(set(labels), key=dataset.label_order.index)
    if len(present) < 2:
        raise UsageError("training data holds a single class")
    x, _ = impute_with_medians([row.features.values for row in dataset.rows])
    model, warnings = fit_forest(x, labels, present, grid, args.cv_folds, args.seed)
    for w in warnings:
        _log(f"warning: {w}")
    if len(grid) > 1:
        _log(f"grid best: {model.hyper}")
    save_forest(model, args.model_out)
    if args.importance_out:
        imp = feature_importance(model, schema=SCHEMA)
        ranked = sorted(imp.items(), key=lambda kv: (-kv[1], kv[0]))
        write_tsv(args.importance_out, ["feature", "importance"], ([k, repr(v)] for k, v in ranked))
    _log(f"trained forest on {len(x)} rows, classes {present}")
    write_manifest(Path(args.model_out).parent, "train", args, [Path(args.examples)], started)
    return 0


def cmd_evaluate(args) -> int:
    _use("features", "harness", "forest")
    _require(args, "examples", "out_dir")
    _check_outputs(args, dirs=("out_dir",))
    started = time.time()
    out_dir = Path(args.out_dir)
    task = Task(args.task)
    if args.predictions:
        report, warnings = score_predictions(read_predictions_file(args.predictions), read_examples(args.examples), task)
        for w in warnings:
            _log(f"warning: {w}")
        emit_tables([report], "split_grid", out_dir / "external_predictions.tsv")
        _log(
            f"external predictions: accuracy {report.accuracy:.4f} vs baseline "
            f"{report.baseline_accuracy:.4f} ({report.baseline_class})"
        )
        write_manifest(out_dir, "evaluate", args, [Path(args.examples), Path(args.predictions)], started)
        return 0
    dims = tuple(d for d in args.split_dims.split(",") if d)
    spec = SplitSpec(dimensions=dims, utterance_kind=args.kind, task=task, min_rows=args.min_rows)
    exp = ExperimentConfig(
        model=args.model,
        grid=_grid_from_config(args.grid),
        cv_folds=args.cv_folds,
        test_fraction=args.test_fraction,
        seed=args.seed,
    )
    if exp.model == "forest" and len(exp.grid) > 1 and spec.min_rows < 2 * exp.cv_folds:
        # only a grid search cross-validates
        raise UsageError(f"min_rows={spec.min_rows} must be at least 2*cv_folds={2 * exp.cv_folds} for a grid search")
    datasets, skips = build_datasets(read_examples(args.examples), spec)
    for s in skips:
        _log(f"skipped split {dict(s.key)}: {s.reason} (n={s.n_rows})")
    if not datasets:
        raise UsageError("every split was skipped; lower --min-rows or change --split-dims")
    reports = run_experiment(datasets, exp)
    for layout in (l for l in args.layouts.split(",") if l):
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
    write_manifest(out_dir, "evaluate", args, [Path(args.examples)], started)
    return 0


def cmd_prompts(args) -> int:
    _use("qa")
    _require(args, "corpus", "output")
    if args.kind in ("Answer", "Both") and not args.pairs:
        raise UsageError(f"kind {args.kind} needs --pairs")
    _check_outputs(args, files=("output",))
    started = time.time()
    corpus_dir = Path(args.corpus)
    corpus = load_corpus(corpus_dir)
    pairs = load_pairs(args.pairs) if args.pairs else {}
    out_lines = []
    for meta, utterances in corpus:
        by_id = {u.utterance_id: u for u in utterances}
        if args.kind == "Question":
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
                if args.kind == "Answer":
                    example_id, prompt = a.utterance_id, render_prompt("Answer", answer_text=a.text)
                else:
                    example_id, prompt = pair.pair_id, render_prompt("Both", question_text=q.text, answer_text=a.text)
                out_lines.append(json.dumps({"example_id": example_id, "prompt": prompt}, ensure_ascii=False))
    write_lines(args.output, out_lines)
    _log(f"wrote {len(out_lines)} prompts")
    inputs = [corpus_dir, Path(args.pairs)] if args.pairs else [corpus_dir]
    write_manifest(Path(args.output).parent, "prompts", args, inputs, started)
    return 0


def cmd_verify_sample(args) -> int:
    _use("segmenter")
    started = time.time()
    if args.score:
        rows = read_verdict_file(args.score)
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
    _require(args, "corpus", "output")
    _check_outputs(args, files=("output",))
    corpus = load_corpus(Path(args.corpus))
    manifest = verify_sample(corpus, args.hearings_per_session, args.utterances_per_hearing, args.seed)
    for w in manifest.warnings:
        _log(f"warning: {w}")
    manifest.write(args.output)
    _log(f"wrote {len(manifest.rows)} manifest rows")
    write_manifest(Path(args.output).parent, "verify-sample", args, [Path(args.corpus)], started)
    return 0


# --- parser wiring -------------------------------------------------------------

def _layouts(value: str) -> str:
    """--layouts: a comma list of LAYOUTS, checked before any input is read."""
    for layout in (l for l in value.split(",") if l):
        if layout not in LAYOUTS:
            raise argparse.ArgumentTypeError(f"unknown layout {layout!r}; valid: {', '.join(LAYOUTS)}")
    return value


def build_parser() -> _Parser:
    """The one declaration of every option: its default, type, choices and help."""
    parser = _Parser(prog="gavel", description="Hearing-transcript segmentation and Q&A analytics pipeline.")
    parser.add_argument("--version", action="version", version=f"gavel {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    def add(subparsers, name, fn, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        p.set_defaults(fn=fn, command_parser=p, given=())
        p.add_argument("--config", help="JSON config file; keys mirror the flags, flags override")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"random seed (default {DEFAULT_SEED})")
        return p

    def exclude(p, mode, *ignored):
        """`mode` selects a run that reads none of `ignored`: each of them is refused with it,
        by flag or by config key, as a two-member exclusive group. The ignored option goes
        first, so that usage lines do not bracket the pair (it never directly precedes `mode`)."""
        actions = {a.dest: a for a in p._actions}
        for dest in ignored:
            p.add_mutually_exclusive_group()._group_actions += (actions[dest], actions[mode])

    def add_table_options(p):
        p.add_argument("--examples", help="examples TSV from `features`")
        p.add_argument("--task", choices=("Affiliation", "Standing"), default="Affiliation")
        p.add_argument("--kind", choices=KINDS, default="Question")
        p.add_argument("--min-rows", dest="min_rows", type=int, default=50)
        p.add_argument("--cv-folds", dest="cv_folds", type=int, default=5)
        p.set_defaults(grid=None)  # forest grid: config file only

    p = add(sub, "fetch", cmd_fetch, help="download transcripts into the local cache")
    p.add_argument("--ids", default="", help="comma-separated hearing ids")
    p.add_argument("--ids-file", dest="ids_file", help="file with one hearing id per line")
    p.add_argument("--endpoint", help="URL or URL template with {hearing_id}")
    p.add_argument("--cache-dir", dest="cache_dir", default=os.environ.get("GAVEL_CACHE_DIR"),
                   help="transcript cache directory (or set GAVEL_CACHE_DIR)")
    p.add_argument("--min-delay", dest="min_delay", type=float, default=1.0, help="minimum seconds between requests")
    p.add_argument("--retries", type=int, default=3)

    p = add(sub, "segment", cmd_segment, help="split raw transcripts into speaker-attributed utterances")
    p.add_argument("--input", help="directory of raw hearings (transcript.txt + meta.json + roster.json)")
    p.add_argument("--output", help="corpus store directory to create")
    p.add_argument("--rules", help="segmentation rules JSON file")

    qa = sub.add_parser("classify-qa", help="train or apply the question/answer classifier")
    modes = qa.add_subparsers(dest="mode", required=True)
    p = add(modes, "train", cmd_classify_qa_train, help="train the classifier on labeled files")
    p.add_argument("--train", action=_AppendFlags, help="training file as PATH:FORMAT (AMA|UKParl|HandLabeled); repeatable")
    p.add_argument("--model-out", dest="model_out", help="where to write the trained model")
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--l2", type=float, default=1e-4)
    p = add(modes, "apply", cmd_classify_qa_apply, help="label a corpus in place, or score a labeled file")
    p.add_argument("--model", help="trained model file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--corpus", help="corpus store to label in place")
    mode.add_argument("--eval", help="labeled file PATH:FORMAT to score instead of labeling a corpus")
    p.add_argument("--other-band", dest="other_band", type=float, help="probability margin labeled Other")
    exclude(p, "eval", "other_band")

    p = add(sub, "pair", cmd_pair, help="pair member questions with witness answers")
    p.add_argument("--corpus", help="labeled corpus store")
    p.add_argument("--output", help="pairs JSONL file to write")

    p = add(sub, "features", cmd_features, help="extract the per-utterance feature table")
    p.add_argument("--corpus", help="labeled corpus store")
    p.add_argument("--pairs", help="pairs JSONL (enables Answer/Both rows)")
    p.add_argument("--government", help="per-session government-control JSON config")
    p.add_argument("--output", help="examples TSV to write")
    p.add_argument("--lexicons", help="lexicon directory (defaults to the bundled lists)")
    p.add_argument("--member-directory", dest="member_directory", help="extra name list for name removal")
    p.add_argument("--no-strip-names", dest="strip_names", action="store_false",
                   help="keep speaker names in text before feature extraction")

    p = add(sub, "kstest", cmd_kstest, help="two-sample distribution tests across group pairs")
    p.add_argument("--examples", help="examples TSV from `features`")
    p.add_argument("--kind", choices=KINDS, default="Question")
    p.add_argument("--out-matrix", dest="out_matrix", help="heatmap matrix TSV to write")
    p.add_argument("--out-details", dest="out_details", help="long-format details TSV to write")

    p = add(sub, "train", cmd_train, help="train a party-prediction model on the full example table")
    add_table_options(p)
    p.add_argument("--model-out", dest="model_out")
    p.add_argument("--importance-out", dest="importance_out")

    p = add(sub, "evaluate", cmd_evaluate, help="run the split-wise experiment grid with baselines")
    add_table_options(p)
    p.add_argument("--model", choices=("forest", "logistic"), default="forest")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--split-dims", dest="split_dims", default="",
                      help="comma list from: committee,session,hearing_type,government,presidency")
    mode.add_argument("--predictions", help="score an external predictions TSV instead of training")
    p.add_argument("--test-fraction", dest="test_fraction", type=float, default=0.2)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--layouts", type=_layouts, default="split_grid", help=f"comma list from: {','.join(LAYOUTS)}")
    exclude(p, "predictions", "model", "layouts", "cv_folds", "test_fraction", "min_rows", "kind")

    p = add(sub, "prompts", cmd_prompts, help="render zero-shot prompts for external models")
    p.add_argument("--corpus")
    p.add_argument("--pairs")
    p.add_argument("--kind", choices=KINDS, default="Question")
    p.add_argument("--output")

    p = add(sub, "verify-sample", cmd_verify_sample, help="draw or score the human-verification sample")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--corpus")
    mode.add_argument("--score", help="verdict TSV (utterance_id, verdict) to summarize")
    p.add_argument("--hearings-per-session", dest="hearings_per_session", type=int, default=50)
    p.add_argument("--utterances-per-hearing", dest="utterances_per_hearing", type=int, default=10)
    p.add_argument("--output", help="annotation manifest TSV to write")
    exclude(p, "score", "output", "hearings_per_session", "utterances_per_hearing")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()  # fresh per call: config defaults never carry over to the next call
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            parser.print_usage(sys.stderr)
            return 1
        _use("corpus")  # manifests, config and list files are read and written with it
        config = _load_config_file(args.config) if args.config else {}
        _apply_config(args, config)
        if config:
            args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except BrokenPipeError:
        return 1
    except (GavelError, OSError, ValueError) as exc:
        # OSError covers a missing file, a directory given as a file and the like; its message names the path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
