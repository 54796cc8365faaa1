"""Command-line pipeline wiring all modules together.

Subcommands: fetch, segment, classify-qa (train/apply), pair, features,
kstest, train, evaluate, prompts, verify-sample. Those that draw random
numbers (train, evaluate and verify-sample) take --seed (default 108, never
wall-clock). Every run honors --config (JSON file whose keys mirror the
flags; flags override) and writes its artifacts only under the declared output
location, creating missing parent directories.
Each option, with its default, type and choices, is declared once, in
`build_parser`; config-file values pass the same checks as flags. An option
that names a path is declared with its role: an input, an output file, an
output directory or a new output directory. From the roles, `main` checks
every output given before the command reads any input, and afterwards writes
a manifest beside the first output given. The manifest holds a config hash
and the checksums of the bytes the run read of each input given (through
`corpus`, the only reader of input files), so identical runs are identifiable.
Diagnostics go to stderr, data to stdout or files. Exit codes: 0 success,
1 validation error, 2 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from . import KINDS, GavelError, __version__, take

# Every name the subcommands take from another gavel module, by the module that
# defines it. Each command binds the names of the modules it runs with `_use`, so a
# process imports only those; `--version` and the parser import none of them.
_IMPORTS = {
    "corpus": (
        "HearingMeta", "Party", "QALabel", "RecordError", "Role", "Standing", "Task", "from_record",
        "input_checksum", "load_corpus", "load_government_config", "load_roster", "load_rosters", "read_json",
        "read_lines", "read_text", "recording_reads", "render_prompt", "store_corpus", "to_record", "write_lines",
        "write_tsv", "write_utterances",
    ),
    "features": ("SCHEMA", "read_examples", "write_examples"),
    "fetcher": ("Fetcher",),
    "forest": ("ForestHyper", "save_forest"),
    "harness": (
        "DEFAULT_GRID", "ExperimentConfig", "PIVOTS", "SplitSpec", "build_datasets", "build_examples",
        "emit_tables", "empty_blocks", "fit_forest", "read_predictions_file", "run_experiment", "score_predictions",
    ),
    "kstest": ("compare_groups", "emit_comparison_details", "emit_heatmap_matrix"),
    "lexicons": ("load_lexicons", "verify_manifest"),
    "party_models": ("feature_importance", "impute"),
    "qa": (
        "QAHyper", "Source", "classify_qa", "load_model", "load_pairs", "load_training_corpus", "pair_qa",
        "save_model", "save_pairs", "score_confusion", "train_qa",
    ),
    "segmenter": ("SegmentationFailed", "SegmenterRules", "read_verdict_file", "score_verdicts", "segment_hearing",
                  "verify_sample"),
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

# The role of an option that names a path, declared with it; a _SPEC is PATH:FORMAT, a _NEW_DIR absent or empty.
_INPUT, _SPEC, _FILE, _DIR, _NEW_DIR = "input", "input PATH:FORMAT", "file", "directory", "new directory"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _Store)

    def error(self, message):  # argparse default exits 2; the contract is 1
        raise UsageError(message)


class _Store(argparse._StoreAction):
    """`store`, noting in `given` each option given, whatever its value; `role` is a path option's.

    argparse counts an option as present only when its value is not the default
    object, so `--cv-folds 5` (5 is a cached int, the default's very object)
    would pass for absent in a mode group; `_apply_config` reads `given` instead.
    """

    def __init__(self, *args, role: Optional[str] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.role = role

    def __call__(self, parser, namespace, values, option_string=None):
        super().__call__(parser, namespace, values, option_string)
        namespace.given = (*namespace.given, self.dest)


class _AppendFlags(_Store):
    """`append`, except that the first flag replaces a list from the config file."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        items = [] if items is None or items is self.default else list(items)
        setattr(namespace, self.dest, items + [values])


def _settings(args: argparse.Namespace) -> dict:
    """The subcommand's settable values: each of its options, plus `grid` where declared."""
    return {k: v for k, v in vars(args).items() if k not in _WIRING}


def _given(args: argparse.Namespace, *roles: str) -> Iterator[tuple[argparse.Action, str]]:
    """(option, path) of each path given to an option of `roles`, in declaration order; of PATH:FORMAT, PATH."""
    for action in args.command_parser._actions:
        value = getattr(args, action.dest) if getattr(action, "role", None) in roles else None
        for path in [value] if isinstance(value, str) else value or []:
            if path:
                yield action, path.rpartition(":")[0] if action.role == _SPEC else path


def write_manifest(out_dir: Path, args: argparse.Namespace, started: float) -> None:
    """`manifest.json` in `out_dir`: the run's settings and the checksum of each input it was given."""
    inputs = {Path(path) for _, path in _given(args, _INPUT, _SPEC)}
    payload = {
        "subcommand": " ".join(filter(None, (args.subcommand, getattr(args, "mode", None)))),
        "config": _settings(args),
        "input_checksums": {str(p): input_checksum(p) for p in sorted(inputs, key=str)},
        "version": __version__,
    }
    if "seed" in vars(args):  # a run that draws random numbers
        payload["seed"] = args.seed
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


def _check_outputs(args: argparse.Namespace) -> Optional[Path]:
    """Reject output locations that cannot be written, before any input is read.

    A file output must not be an existing directory; a directory output, and
    every parent of either kind, must not be an existing non-directory. A new
    directory output must also be absent or empty, so that nothing stale from
    an earlier run is read back with the new contents. Returns where the run's
    manifest goes: beside the first output given, or None if none was.
    """
    beside = []
    for action, value in _given(args, _FILE, _DIR, _NEW_DIR):
        path, option = Path(value), action.option_strings[0]
        if action.role == _FILE and path.is_dir():
            raise UsageError(f"{option} {value}: is a directory, expected a file")
        for p in path.parents if action.role == _FILE else (path, *path.parents):
            if p.exists() and not p.is_dir():
                raise UsageError(f"{option} {value}: {p} exists and is not a directory")
        if action.role == _NEW_DIR and path.is_dir() and any(path.iterdir()):
            raise UsageError(f"{option} {value}: directory exists and is not empty")
        beside.append(path.parent if action.role == _FILE else path)
    return beside[0] if beside else None


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
    ids = [i for i in args.ids.split(",") if i]
    if args.ids_file:
        ids.extend(_listed(args.ids_file))
    if not ids:
        raise UsageError("no hearing ids given (--ids or --ids-file)")
    fetcher = Fetcher(args.endpoint, args.cache_dir, min_delay=args.min_delay, retries=args.retries)
    for hearing_id in ids:  # every id is checked before the first request
        fetcher.cache_path(hearing_id)
    for hearing_id in ids:
        fetcher.fetch(hearing_id)
        _log(f"fetched {hearing_id}")
    return 0


def cmd_segment(args) -> int:
    _use("segmenter")
    _require(args, "input", "output")
    rules = SegmenterRules.from_file(args.rules) if args.rules else SegmenterRules()
    # every hearing's meta and roster are checked before any hearing is segmented
    hearings = []
    meta_paths: dict[str, Path] = {}
    for hdir in _raw_hearing_dirs(Path(args.input)):
        meta_path = hdir / "meta.json"
        meta = read_json(meta_path, dict, partial(from_record, HearingMeta))
        if meta.hearing_id in meta_paths:
            raise RecordError(f"hearing_id {meta.hearing_id!r} is also the id in {meta_paths[meta.hearing_id]}",
                              path=str(meta_path), field_name="hearing_id")
        meta_paths[meta.hearing_id] = meta_path
        hearings.append((hdir, meta, load_roster(hdir / "roster.json", meta.hearing_id)))
    results = []
    for hdir, meta, roster in hearings:
        transcript = hdir / "transcript.txt"
        try:
            utterances, report = segment_hearing(read_text(transcript), rules, roster, meta)
        except SegmentationFailed as exc:
            raise SegmentationFailed(f"hearing {meta.hearing_id}: {exc} ({transcript})") from None
        results.append((meta, utterances, roster, report))
    results.sort(key=lambda t: t[0].hearing_id)
    out = Path(args.output)
    store_corpus(
        [(meta, utts) for meta, utts, _, _ in results],
        out,
        rosters={meta.hearing_id: roster for meta, _, roster, _ in results},
    )
    for meta, utterances, _, report in results:
        empty = sum(1 for u in utterances if not u.raw_marker)
        _log(
            f"{meta.hearing_id}: {report.n_utterances} utterances, "
            f"{report.n_unresolved_speakers} unresolved, {len(report.warnings)} warnings"
            + (f", {empty} with an empty marker" if empty else "")
        )
    reports = {meta.hearing_id: to_record(rep) for meta, _, _, rep in results}
    write_lines(out / "segmentation_report.json", [json.dumps(reports, indent=1, sort_keys=True)])
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
    corpus = []
    for path, fmt in _parse_train_specs(args.train):
        rows, duplicates = load_training_corpus(path, fmt)
        corpus.extend(rows)
        _log(f"{path}: kept {len(rows)} rows ({duplicates} duplicates removed)")
    hyper = QAHyper(learning_rate=args.learning_rate, epochs=args.epochs, l2=args.l2)
    model, trace = train_qa(corpus, hyper)
    save_model(model, args.model_out)
    _log(f"trained on {len(corpus)} rows; loss {trace[0]:.4f} -> {trace[-1]:.4f}")
    return 0


def cmd_classify_qa_apply(args) -> int:
    _use("qa")
    _require(args, "model")
    if not (args.corpus or args.eval):
        raise UsageError("missing required option: --corpus (label a corpus) or --eval (score a labeled file)")
    model = load_model(args.model)
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
    from dataclasses import replace  # only this command copies a record
    corpus_dir = Path(args.corpus)
    corpus = load_corpus(corpus_dir)
    labeled = []
    for meta, utterances in corpus:
        relabeled = [replace(u, qa_label=classify_qa(model, u.text, other_band=args.other_band)[0]) for u in utterances]
        labeled.append((meta, relabeled))
    for meta, relabeled in labeled:  # the labels are all that changes in the store
        write_utterances(corpus_dir / meta.hearing_id / "utterances.jsonl", relabeled)
    n = sum(len(u) for _, u in labeled)
    _log(f"labeled {n} utterances in place under {corpus_dir}")
    return 0


def cmd_pair(args) -> int:
    _use("qa")
    _require(args, "corpus", "output")
    corpus = load_corpus(args.corpus)
    rosters = load_rosters(args.corpus)
    pairs_by_hearing = {}
    n_pairs = n_unpaired = n_orphans = 0
    for meta, utterances in corpus:
        roster = rosters.get(meta.hearing_id)
        pairs, report = pair_qa(utterances, roster.people_by_id if roster else {})
        pairs_by_hearing[meta.hearing_id] = pairs
        n_pairs += len(pairs)
        n_unpaired += len(report.unpaired_questions)
        n_orphans += len(report.orphan_answers)
    save_pairs(pairs_by_hearing, args.output)
    _log(f"{n_pairs} pairs, {n_unpaired} unpaired questions, {n_orphans} orphan answers")
    return 0


def cmd_features(args) -> int:
    _use("lexicons", "qa", "features", "harness")
    _require(args, "corpus", "government", "output")
    lexicons = load_lexicons(args.lexicons)
    for p in verify_manifest(args.lexicons):  # checks the digests of the files just read
        _log(f"lexicon manifest: {p}")
    corpus = load_corpus(args.corpus)
    rosters = load_rosters(args.corpus)
    gov = load_government_config(args.government)
    pairs = load_pairs(args.pairs) if args.pairs else None
    directory = tuple(_listed(args.member_directory)) if args.member_directory else ()
    rows, warnings = build_examples(
        corpus, rosters, gov, lexicons, pairs=pairs, member_directory=directory, strip_names=args.strip_names
    )
    for w in warnings:
        _log(f"warning: {w}")
    write_examples(rows, args.output)
    _log(f"wrote {len(rows)} example rows to {args.output}")
    return 0


def cmd_kstest(args) -> int:
    _use("features", "kstest")
    _require(args, "examples", "out_matrix")
    table = read_examples(args.examples)
    parties, standings = {p.value for p in Party}, {s.value for s in Standing}
    rows = [i for i, (kind, party, standing) in enumerate(zip(table.kind, table.party, table.standing))
            if kind == args.kind and party in parties and standing in standings]
    if not rows:
        raise UsageError(f"no rows of kind {args.kind!r} in {args.examples}")
    comparisons, skips = compare_groups(table.party, table.standing, table.features, rows)
    emit_heatmap_matrix(comparisons, args.out_matrix)
    if args.out_details:
        emit_comparison_details(comparisons, skips, args.out_details)
    _log(f"{len(comparisons)} comparisons, {len(skips)} skipped")
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
    grid = _grid_from_config(args.grid)
    table = read_examples(args.examples)
    spec = SplitSpec(dimensions=(), utterance_kind=args.kind, task=Task(args.task), min_rows=args.min_rows)
    datasets, skips = build_datasets(table, spec)
    if not datasets:
        raise UsageError(f"not enough rows to train: {[s.reason for s in skips]}")
    _, dataset = datasets[0]
    labels = dataset.labels
    present = sorted(set(labels), key=dataset.label_order.index)
    if len(present) < 2:
        raise UsageError("training data holds a single class")
    x, _ = impute(take(dataset.table.features, dataset.rows))
    model, warnings = fit_forest(x, labels, present, grid, args.cv_folds, args.seed)
    for w in warnings:
        _log(f"warning: {w}")
    if len(grid) > 1:
        _log(f"grid best: {model.hyper}")
    save_forest(model, args.model_out)
    if args.importance_out:
        imp = feature_importance(model, schema=SCHEMA)
        ranked = sorted(imp.items(), key=lambda kv: (-kv[1], kv[0]))
        write_tsv(args.importance_out, ["feature", "importance"], ranked)
    _log(f"trained forest on {len(labels)} rows, classes {present}")
    return 0


def cmd_evaluate(args) -> int:
    _use("features", "harness", "forest")
    _require(args, "examples", "out_dir")
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
    pivots = [pivot for pivot, keys in PIVOTS.items() if spec.dimensions in keys]
    for layout in ("split_grid", *pivots):
        emit_tables(reports, layout, out_dir / f"{layout}.tsv")
    if "hearing_type_government" in pivots:
        for block, reason in empty_blocks(reports, skips, spec):
            _log(f"hearing_type_government.tsv: the {block} block is empty: {reason}")
    write_tsv(
        out_dir / "skipped_splits.tsv",
        ["split", "n_rows", "reason"],
        (("|".join(f"{d}={v}" for d, v in s.key), s.n_rows, s.reason) for s in skips),
    )
    for rep in reports:
        for w in rep.warnings:
            _log(f"warning: {rep.split_label}: {w}")
        flag = "*" if rep.beats_baseline else " "
        _log(
            f"{flag} {rep.split_label}: acc {rep.accuracy:.4f} base {rep.baseline_accuracy:.4f}"
            f" ({rep.baseline_class}){' DEGENERATE' if rep.degenerate else ''}{' ERROR ' + rep.error if rep.error else ''}"
        )
    return 0


def cmd_prompts(args) -> int:
    _use("qa")
    _require(args, "corpus", "output")
    if args.kind in ("Answer", "Both") and not args.pairs:
        raise UsageError(f"kind {args.kind} needs --pairs")
    corpus = load_corpus(args.corpus)
    pairs = load_pairs(args.pairs) if args.pairs else {}
    rosters = load_rosters(args.corpus) if args.kind == "Question" else {}
    prompts = []  # (example_id, prompt)
    for meta, utterances in corpus:
        if args.kind == "Question":  # a member's question, the one kind of Question example
            roster = rosters.get(meta.hearing_id)
            people = roster.people_by_id if roster else {}
            for u in utterances:
                person = people.get(u.speaker)
                if u.qa_label is QALabel.QUESTION and person is not None and person.role is Role.MEMBER:
                    prompts.append((u.utterance_id, render_prompt("Question", question_text=u.text)))
            continue
        by_id = {u.utterance_id: u for u in utterances}
        for pair in pairs.get(meta.hearing_id, []):
            q = by_id.get(pair.question_utterance_id)
            a = by_id.get(pair.answer_utterance_id)
            if q is None or a is None:
                continue
            if args.kind == "Answer":
                prompts.append((a.utterance_id, render_prompt("Answer", answer_text=a.text)))
            else:
                prompts.append((pair.pair_id, render_prompt("Both", question_text=q.text, answer_text=a.text)))
    write_lines(args.output, [json.dumps({"example_id": i, "prompt": p}, ensure_ascii=False) for i, p in prompts])
    _log(f"wrote {len(prompts)} prompts")
    return 0


def cmd_verify_sample(args) -> int:
    _use("segmenter")
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
    corpus = load_corpus(Path(args.corpus))
    manifest = verify_sample(corpus, args.hearings_per_session, args.utterances_per_hearing, args.seed)
    for w in manifest.warnings:
        _log(f"warning: {w}")
    manifest.write(args.output)
    _log(f"wrote {len(manifest.rows)} manifest rows")
    return 0


# --- parser wiring -------------------------------------------------------------

def _bounded(kind: type, low: float, high: float = math.inf) -> Callable[[str], float]:
    """An argparse type: the text as a finite `kind` (int or float) in [low, high], so that a
    count or delay no run can use is refused before any input is read."""
    span = f"[{low}, {high}]" if high < math.inf else f"[{low}, inf)"

    def value_of(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {'a whole' if kind is int else 'a'} number: {text!r}") from None
        if not low <= value <= high or value == math.inf:  # NaN fails both comparisons
            raise argparse.ArgumentTypeError(f"must be in {span}, got {text}")
        return value

    return value_of


def build_parser() -> _Parser:
    """The one declaration of every option: its default, type, choices and help."""
    parser = _Parser(prog="gavel", description="Hearing-transcript segmentation and Q&A analytics pipeline.")
    parser.add_argument("--version", action="version", version=f"gavel {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    def add(subparsers, name, fn, seeded=False, **kwargs):
        """A subcommand; `seeded` ones draw random numbers and take --seed."""
        p = subparsers.add_parser(name, **kwargs)
        p.set_defaults(fn=fn, command_parser=p, given=())
        p.add_argument("--config", help="JSON config file; keys mirror the flags, flags override")
        if seeded:
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
        p.add_argument("--examples", role=_INPUT, help="examples TSV from `features`")
        p.add_argument("--task", choices=("Affiliation", "Standing"), default="Affiliation")
        p.add_argument("--kind", choices=KINDS, default="Question")
        p.add_argument("--min-rows", dest="min_rows", type=int, default=50)
        p.add_argument("--cv-folds", dest="cv_folds", type=int, default=5)
        p.set_defaults(grid=None)  # forest grid: config file only

    p = add(sub, "fetch", cmd_fetch, help="download transcripts into the local cache")
    p.add_argument("--ids", default="", help="comma-separated hearing ids")
    p.add_argument("--ids-file", dest="ids_file", role=_INPUT, help="file with one hearing id per line")
    p.add_argument("--endpoint", help="URL or URL template with {hearing_id}")
    p.add_argument("--cache-dir", dest="cache_dir", role=_DIR, default=os.environ.get("GAVEL_CACHE_DIR"),
                   help="transcript cache directory (or set GAVEL_CACHE_DIR)")
    p.add_argument("--min-delay", dest="min_delay", type=_bounded(float, 0), default=1.0,
                   help="minimum seconds between requests")
    p.add_argument("--retries", type=_bounded(int, 0), default=3)

    p = add(sub, "segment", cmd_segment, help="split raw transcripts into speaker-attributed utterances")
    p.add_argument("--input", role=_INPUT, help="directory of raw hearings (transcript.txt + meta.json + roster.json)")
    p.add_argument("--output", role=_NEW_DIR, help="corpus store directory to create")
    p.add_argument("--rules", role=_INPUT, help="segmentation rules JSON file")

    qa = sub.add_parser("classify-qa", help="train or apply the question/answer classifier")
    modes = qa.add_subparsers(dest="mode", required=True)
    p = add(modes, "train", cmd_classify_qa_train, help="train the classifier on labeled files")
    p.add_argument("--train", action=_AppendFlags, role=_SPEC,
                   help="training file as PATH:FORMAT (AMA|UKParl|HandLabeled); repeatable")
    p.add_argument("--model-out", dest="model_out", role=_FILE, help="where to write the trained model")
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=0.5)
    p.add_argument("--epochs", type=_bounded(int, 0), default=60)
    p.add_argument("--l2", type=float, default=1e-4)
    p = add(modes, "apply", cmd_classify_qa_apply, help="label a corpus in place, or score a labeled file")
    p.add_argument("--model", role=_INPUT, help="trained model file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--corpus", role=_DIR, help="corpus store to label in place")
    mode.add_argument("--eval", role=_SPEC, help="labeled file PATH:FORMAT to score instead of labeling a corpus")
    p.add_argument("--other-band", dest="other_band", type=_bounded(float, 0, 0.5),
                   help="probability margin around 0.5, in [0, 0.5], labeled Other")
    exclude(p, "eval", "other_band")

    p = add(sub, "pair", cmd_pair, help="pair member questions with witness answers")
    p.add_argument("--corpus", role=_INPUT, help="labeled corpus store")
    p.add_argument("--output", role=_FILE, help="pairs JSONL file to write")

    p = add(sub, "features", cmd_features, help="extract the per-utterance feature table")
    p.add_argument("--corpus", role=_INPUT, help="labeled corpus store")
    p.add_argument("--pairs", role=_INPUT, help="pairs JSONL (enables Answer/Both rows)")
    p.add_argument("--government", role=_INPUT, help="per-session government-control JSON config")
    p.add_argument("--output", role=_FILE, help="examples TSV to write")
    p.add_argument("--lexicons", role=_INPUT, help="lexicon directory (defaults to the bundled lists)")
    p.add_argument("--member-directory", dest="member_directory", role=_INPUT, help="extra name list for name removal")
    p.add_argument("--no-strip-names", dest="strip_names", action="store_false",
                   help="keep speaker names in text before feature extraction")

    p = add(sub, "kstest", cmd_kstest, help="two-sample distribution tests across group pairs")
    p.add_argument("--examples", role=_INPUT, help="examples TSV from `features`")
    p.add_argument("--kind", choices=KINDS, default="Question")
    p.add_argument("--out-matrix", dest="out_matrix", role=_FILE, help="heatmap matrix TSV to write")
    p.add_argument("--out-details", dest="out_details", role=_FILE, help="long-format details TSV to write")

    p = add(sub, "train", cmd_train, seeded=True, help="train a party-prediction model on the full example table")
    add_table_options(p)
    p.add_argument("--model-out", dest="model_out", role=_FILE)
    p.add_argument("--importance-out", dest="importance_out", role=_FILE)

    p = add(sub, "evaluate", cmd_evaluate, seeded=True, help="run the split-wise experiment grid with baselines")
    add_table_options(p)
    p.add_argument("--model", choices=("forest", "logistic"), default="forest")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--split-dims", dest="split_dims", default="",
                      help="comma list from: committee,session,hearing_type,government,presidency")
    mode.add_argument("--predictions", role=_INPUT, help="score an external predictions TSV instead of training")
    p.add_argument("--test-fraction", dest="test_fraction", type=float, default=0.2)
    p.add_argument("--out-dir", dest="out_dir", role=_DIR)
    exclude(p, "predictions", "seed", "model", "cv_folds", "test_fraction", "min_rows", "kind")

    p = add(sub, "prompts", cmd_prompts, help="render zero-shot prompts for external models")
    p.add_argument("--corpus", role=_INPUT)
    p.add_argument("--pairs", role=_INPUT)
    p.add_argument("--kind", choices=KINDS, default="Question")
    p.add_argument("--output", role=_FILE)

    p = add(sub, "verify-sample", cmd_verify_sample, seeded=True, help="draw or score the human-verification sample")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--corpus", role=_INPUT)
    mode.add_argument("--score", role=_INPUT, help="verdict TSV (utterance_id, verdict) to summarize")
    p.add_argument("--hearings-per-session", dest="hearings_per_session", type=_bounded(int, 1), default=50)
    p.add_argument("--utterances-per-hearing", dest="utterances_per_hearing", type=_bounded(int, 1), default=10)
    p.add_argument("--output", role=_FILE, help="annotation manifest TSV to write")
    exclude(p, "score", "seed", "output", "hearings_per_session", "utterances_per_hearing")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()  # fresh per call: config defaults never carry over to the next call
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            parser.print_usage(sys.stderr)
            return 1
        _use("corpus")  # manifests, config and list files are read and written with it
        with recording_reads():  # a manifest covers what this call reads
            config = _load_config_file(args.config) if args.config else {}
            _apply_config(args, config)
            if config:
                args = parser.parse_args(argv)
            manifest_dir = _check_outputs(args)
            started = time.time()
            code = args.fn(args)
            if manifest_dir is not None:
                write_manifest(manifest_dir, args, started)
            return code
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
        import traceback  # only a failure of the program itself prints one
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
