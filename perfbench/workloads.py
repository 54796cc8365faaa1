"""Seed-generated workloads for the gavel CLI benchmark, and their output checks.

Each workload is a closed loop with one client: the commands of a sequence run
one after another, each a fresh `gavel` process that starts after the previous
one exits. Inputs come from `gavel.synth` and depend only on the seed and the
size; the program under test sees only the generated files.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from gavel import synth
from gavel.forest import derive_seed

# Metric keys of the commands, in pipeline order (cli.<name>_s per-module metrics).
COMMAND_NAMES = ("segment", "classify_qa_train", "classify_qa_apply", "classify_qa_eval", "pair", "features",
                 "prompts", "kstest", "evaluate")

# Input sizes, as keyword arguments of synth.synth_corpus. "full" is what the
# benchmark measures; "tiny" only feeds the self-test, so it keeps every split
# at or above the CLI's default --min-rows (hence two sessions for many-hearings).
SIZES = {
    "full": {
        "many-hearings": dict(n_hearings=200, n_exchanges=None),
        "long-hearings": dict(n_hearings=2, n_exchanges=2000),
        "grid-search": dict(n_hearings=60, n_exchanges=20),
        "qa_train_pairs": (300, 700),  # (AMA pairs, UKParl pairs) for classify-qa train
    },
    "tiny": {
        "many-hearings": dict(n_hearings=40, n_exchanges=None, sessions=(110, 111)),
        "long-hearings": dict(n_hearings=2, n_exchanges=120),
        "grid-search": dict(n_hearings=16, n_exchanges=20),
        "qa_train_pairs": (100, 200),
    },
}
# (questions, answers) in the generated hand-labeled file: the fixture's 379/421
# split at 25x, so that `classify-qa apply --eval` is mostly classifying work
# rather than interpreter start-up, whose time varies more between runs.
HAND_LABELED = (9475, 10525)

# Forest grid for grid-search: 4 cells x 5 folds, passed as a --config file
# because `evaluate` has no grid flag.
FOREST_GRID = [
    {"n_estimators": 10, "max_depth": 6},
    {"n_estimators": 10, "max_depth": 10},
    {"n_estimators": 15, "max_depth": 8},
    {"n_estimators": 20, "max_depth": 6},
]

BOUNDARY_FLOOR = 0.99  # acceptance criterion 4 of the test suite
QA_FLOOR_MARGIN = 0.10  # acceptance criterion 5: accuracy >= majority share + margin

_BRACKETED = re.compile(r"\[[^\]\n]*\]")  # synth writes stage directions in brackets


@dataclass
class Inputs:
    """Generated input files plus the ground truth synth recorded for them."""

    workload: str
    raw: Path
    government: Path
    qa_train: tuple[str, ...]  # PATH:FORMAT specs for classify-qa train
    hand: str  # PATH:HandLabeled spec for classify-qa apply --eval
    grid_config: Path
    truth: dict[str, list[tuple[str, str]]] = field(default_factory=dict)  # hearing -> [(marker, clean text)]
    n_chars: int = 0


@dataclass(frozen=True)
class Command:
    name: str  # metric key, e.g. "classify_qa_apply"
    label: str  # trace id, e.g. "kstest --kind Answer"
    argv: tuple[str, ...]  # arguments after `gavel`
    phase: str  # "prep", "analysis" or "setup"
    outputs: tuple[tuple[str, Path], ...] = ()  # (fingerprint key, file or directory)


@dataclass(frozen=True)
class Check:
    command: str  # label of the command whose output failed or passed
    name: str
    ok: bool
    detail: str


def generate(workload: str, seed: int, size: str, root: Path) -> Inputs:
    """Write the workload's input files under `root`; same seed, same bytes."""
    spec = SIZES[size][workload]
    hearings = synth.synth_corpus(seed=seed, **spec)
    raw = root / "raw"
    synth.write_raw_tree(hearings, raw)
    government = root / "government_context.json"
    synth.write_government_config(government)
    qa = root / "qa"
    qa.mkdir(parents=True, exist_ok=True)
    n_ama, n_uk = SIZES[size]["qa_train_pairs"]
    synth.synth_ama_file(qa / "ama_train.tsv", n_pairs=n_ama, seed=derive_seed(seed, 1))
    synth.synth_ukparl_file(qa / "ukparl_train.tsv", n_pairs=n_uk, seed=derive_seed(seed, 2))
    synth.synth_hand_labeled_file(qa / "hand_labeled.tsv", *HAND_LABELED, seed=derive_seed(seed, 3))
    grid_config = root / "grid.json"
    grid_config.write_text(json.dumps({"grid": FOREST_GRID}) + "\n", encoding="utf-8")
    truth = {
        h.meta.hearing_id: [(s.marker_raw, " ".join(_BRACKETED.sub(" ", s.text_raw).split())) for s in h.segments]
        for h in hearings
    }
    return Inputs(
        workload=workload,
        raw=raw,
        government=government,
        qa_train=(f"{qa / 'ama_train.tsv'}:AMA", f"{qa / 'ukparl_train.tsv'}:UKParl"),
        hand=f"{qa / 'hand_labeled.tsv'}:HandLabeled",
        grid_config=grid_config,
        truth=truth,
        n_chars=sum(len(h.raw_text) for h in hearings),
    )


# --- command sequences -----------------------------------------------------------


def setup_command(inputs: Inputs, d: Path) -> Command:
    argv = ["classify-qa", "train"]
    for spec in inputs.qa_train:
        argv += ["--train", spec]
    model = d / "qa_model.json"
    return Command("classify_qa_train", "classify-qa train", tuple(argv + ["--model-out", str(model)]), "setup",
                   (("qa_model", model),))


def prep_commands(inputs: Inputs, model: Path, d: Path, last: str) -> list[Command]:
    """segment -> classify-qa apply -> pair -> `last` ("features" or "prompts")."""
    corpus, pairs = d / "corpus", d / "pairs" / "pairs.jsonl"
    cmds = [
        Command("segment", "segment", ("segment", "--input", str(inputs.raw), "--output", str(corpus)), "prep",
                (("segmentation_report", corpus / "segmentation_report.json"),)),
        Command("classify_qa_apply", "classify-qa apply",
                ("classify-qa", "apply", "--model", str(model), "--corpus", str(corpus)), "prep",
                (("corpus", corpus),)),
        Command("pair", "pair", ("pair", "--corpus", str(corpus), "--output", str(pairs)), "prep",
                (("pairs", pairs),)),
    ]
    if last == "features":
        examples = table_path(d)
        cmds.append(Command(
            "features", "features",
            ("features", "--corpus", str(corpus), "--pairs", str(pairs), "--government", str(inputs.government),
             "--output", str(examples)),
            "prep", (("examples", examples),)))
    else:
        prompts = d / "prompts" / "prompts.jsonl"
        cmds.append(Command(
            "prompts", "prompts --kind Both",
            ("prompts", "--corpus", str(corpus), "--pairs", str(pairs), "--kind", "Both", "--output", str(prompts)),
            "prep", (("prompts", prompts),)))
    return cmds


def _eval_qa(inputs: Inputs, model: Path) -> Command:
    return Command("classify_qa_eval", "classify-qa apply --eval",
                   ("classify-qa", "apply", "--model", str(model), "--eval", inputs.hand), "analysis")


def _kstest(examples: Path, kind: str, d: Path) -> Command:
    out = d / f"ks-{kind}"
    return Command(
        "kstest", f"kstest --kind {kind}",
        ("kstest", "--examples", str(examples), "--kind", kind, "--out-matrix", str(out / "matrix.tsv"),
         "--out-details", str(out / "details.tsv")),
        "analysis", ((f"ks_matrix_{kind}", out / "matrix.tsv"), (f"ks_details_{kind}", out / "details.tsv")))


def _evaluate(examples: Path, d: Path, tag: str, extra: tuple[str, ...]) -> Command:
    out = d / f"eval-{tag}"
    return Command(
        "evaluate", f"evaluate {tag}", ("evaluate", "--examples", str(examples), "--out-dir", str(out)) + extra,
        "analysis", ((f"eval_{tag}_split_grid", out / "split_grid.tsv"),
                     (f"eval_{tag}_skipped_splits", out / "skipped_splits.tsv")))


def table_path(d: Path) -> Path:
    return d / "table" / "examples.tsv"


def sequence(inputs: Inputs, model: Path, d: Path, table: Path | None = None) -> list[Command]:
    """The timed command sequence; grid-search reads `table` built beforehand."""
    if inputs.workload == "many-hearings":
        return prep_commands(inputs, model, d, "features") + [
            _kstest(table_path(d), "Question", d),
            _evaluate(table_path(d), d, "by-session", ("--split-dims", "session")),
        ]
    if inputs.workload == "long-hearings":
        return prep_commands(inputs, model, d, "prompts") + [_eval_qa(inputs, model)]
    if table is None:
        raise ValueError("grid-search times its analysis on a table built beforehand")
    return [
        _eval_qa(inputs, model),
        *(_kstest(table, kind, d) for kind in ("Question", "Answer", "Both")),
        _evaluate(table, d, "affiliation-grid", ("--task", "Affiliation", "--config", str(inputs.grid_config))),
        _evaluate(table, d, "standing-logistic",
                  ("--task", "Standing", "--model", "logistic", "--split-dims", "government")),
    ]


def make_output_dirs(cmds: list[Command]) -> None:
    """The CLI does not create parent directories of its outputs; do it untimed."""
    for cmd in cmds:
        for flag, value in zip(cmd.argv, cmd.argv[1:]):
            if flag in ("--output", "--model-out", "--out-matrix", "--out-details"):
                Path(value).parent.mkdir(parents=True, exist_ok=True)


# --- fingerprints ------------------------------------------------------------------

# manifest.json holds timestamps; segmentation_report.json has a fingerprint of its own
_UNFINGERPRINTED = {"manifest.json", "segmentation_report.json"}


def _sha256_bytes(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(path: Path) -> str:
    """sha256 of a file, or of a directory's files (relative names and contents)."""
    if path.is_file():
        return _sha256_bytes(path)
    if not path.is_dir():
        return "missing"
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file() and p.name not in _UNFINGERPRINTED):
        h.update(str(f.relative_to(path)).encode())
        h.update(_sha256_bytes(f).encode())
    return h.hexdigest()


def fingerprints(cmds: list[Command]) -> dict[str, str]:
    return {key: fingerprint(path) for cmd in cmds for key, path in cmd.outputs}


# --- output checks -------------------------------------------------------------------


def _read_corpus(corpus: Path) -> dict[str, list[dict]]:
    out = {}
    for hdir in sorted(p for p in corpus.iterdir() if p.is_dir()):
        path = hdir / "utterances.jsonl"
        if path.is_file():
            recs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
            out[hdir.name] = sorted(recs, key=lambda r: r["sequence_no"])
    return out


def boundary_accuracy(truth: dict[str, list[tuple[str, str]]], corpus: Path) -> tuple[float, int]:
    """Share of true utterances whose marker and text the store reproduces exactly,
    counted as in acceptance criterion 4: a hearing with a different utterance
    count scores zero."""
    got = _read_corpus(corpus)
    total = matched = 0
    for hearing_id, segments in truth.items():
        total += len(segments)
        recs = got.get(hearing_id, [])
        if len(recs) == len(segments):
            matched += sum(
                1 for (marker, text), r in zip(segments, recs)
                if r["raw_marker"] == marker and " ".join(r["text"].split()) == text
            )
    return (matched / total if total else 0.0), total


def _member_questions(corpus: Path) -> int:
    n = 0
    for hdir in sorted(p for p in corpus.iterdir() if p.is_dir()):
        roster_path = hdir / "roster.json"
        if not roster_path.is_file():
            continue
        roster = json.loads(roster_path.read_text(encoding="utf-8"))
        members = {p["person_id"] for p in roster["people"] if p["role"] == "Member"}
        for line in (hdir / "utterances.jsonl").read_text(encoding="utf-8").splitlines():
            if line.strip():
                rec = json.loads(line)
                n += rec["qa_label"] == "Question" and rec["speaker"] in members
    return n


def _count_lines(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def _read_tsv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:] if line]


def _check_rows(cmd: Command, corpus: Path, pairs: Path) -> list[Check]:
    examples = dict(cmd.outputs)["examples"]
    kinds: dict[str, int] = {}
    for row in _read_tsv(examples):
        kinds[row["kind"]] = kinds.get(row["kind"], 0) + 1
    n_pairs = _count_lines(pairs)
    n_questions = _member_questions(corpus)
    q, a, b = kinds.get("Question", 0), kinds.get("Answer", 0), kinds.get("Both", 0)
    ok = q == n_questions and a == b == n_pairs and n_pairs > 0
    return [Check(cmd.label, "rows_match_pairs", ok,
                  f"Question {q} (member questions {n_questions}), Answer {a}, Both {b}, pairs {n_pairs}")]


def _check_prompts(cmd: Command, pairs: Path) -> list[Check]:
    prompts = dict(cmd.outputs)["prompts"]
    records = [json.loads(line) for line in prompts.read_text(encoding="utf-8").splitlines() if line.strip()]
    n_pairs = _count_lines(pairs)
    ok = len(records) == n_pairs > 0 and all(r.get("prompt") and r.get("example_id") for r in records)
    return [Check(cmd.label, "one_prompt_per_pair", ok, f"{len(records)} prompts, {n_pairs} pairs")]


def _check_eval_qa(cmd: Command, stdout: str) -> list[Check]:
    n_q, n_a = HAND_LABELED
    floor = max(n_q, n_a) / (n_q + n_a) + QA_FLOOR_MARGIN
    result = json.loads(stdout.strip().splitlines()[-1])
    ok = result["n"] == n_q + n_a and result["accuracy"] >= floor
    return [Check(cmd.label, "qa_accuracy_floor", ok,
                  f"n {result['n']}, accuracy {result['accuracy']:.4f} (floor {floor:.4f})")]


def _check_kstest(cmd: Command) -> list[Check]:
    files = [path for _, path in cmd.outputs]
    rows = [len(_read_tsv(p)) if p.is_file() else 0 for p in files]
    return [Check(cmd.label, "ks_tables_written", all(rows), f"rows per table {rows}")]


def _check_evaluate(cmd: Command, examples: Path) -> list[Check]:
    args = dict(zip(cmd.argv, cmd.argv[1:]))
    kind = args.get("--kind", "Question")
    label_col = "standing" if args.get("--task") == "Standing" else "party"
    valid = {"Majority", "Minority"} if label_col == "standing" else {"Democrat", "Republican", "Independent"}
    dims = [d for d in args.get("--split-dims", "").split(",") if d]
    expected = {
        "|".join(f"{d}={row[d]}" for d in dims) or "all"
        for row in _read_tsv(examples)
        if row["kind"] == kind and row[label_col] in valid
    }
    out = dict(cmd.outputs)
    grid_key = next(k for k in out if k.endswith("_split_grid"))
    skip_key = next(k for k in out if k.endswith("_skipped_splits"))
    reports = _read_tsv(out[grid_key])
    skipped = {row["split"] or "all" for row in _read_tsv(out[skip_key])}
    present = {row["split"] for row in reports} | skipped
    errors = [row["split"] for row in reports if row.get("error")]
    return [
        Check(cmd.label, "every_split_present", present == expected and bool(reports),
              f"{len(reports)} evaluated, {len(skipped)} skipped, {len(expected)} expected"),
        Check(cmd.label, "no_split_errors", not errors, f"errors in {errors}" if errors else "0 errors"),
    ]


def _boundaries(cmd: Command, truth: dict[str, list[tuple[str, str]]]) -> list[Check]:
    accuracy, total = boundary_accuracy(truth, dict(cmd.outputs)["corpus"])
    return [Check("segment", "utterance_boundaries", accuracy >= BOUNDARY_FLOOR,
                  f"{accuracy:.4f} of {total} utterances (floor {BOUNDARY_FLOOR})")]


def check_sequence(inputs: Inputs, cmds: list[Command], stdout: dict[str, str], table: Path | None) -> list[Check]:
    """Output checks for one finished sequence (grid-search prep counts as one).
    An output that cannot be read fails its command's check."""
    checks: list[Check] = []
    outputs = {key: path for cmd in cmds for key, path in cmd.outputs}
    corpus, pairs, examples = outputs.get("corpus"), outputs.get("pairs"), outputs.get("examples", table)
    for cmd in cmds:
        check = {
            "classify_qa_apply": lambda: _boundaries(cmd, inputs.truth),
            "features": lambda: _check_rows(cmd, corpus, pairs),
            "prompts": lambda: _check_prompts(cmd, pairs),
            "classify_qa_eval": lambda: _check_eval_qa(cmd, stdout.get(cmd.label, "")),
            "kstest": lambda: _check_kstest(cmd),
            "evaluate": lambda: _check_evaluate(cmd, examples),
        }.get(cmd.name)
        if check is None:
            continue
        try:
            checks += check()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            checks.append(Check(cmd.label, "outputs_readable", False, f"{type(exc).__name__}: {exc}"))
    return checks
