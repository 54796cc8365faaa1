"""In-process tracing of the gavel CLI from outside the program.

The traced run calls `gavel.cli.main(argv)` for each command. Before it does,
`Tracer.install` rebinds the names through which one gavel module calls a
public function of another (for example `gavel.harness.extract_features`) to
timing wrappers. Each call then records a span: name, start, end, parent span
and the command it ran under (the trace id). Spans stay in memory and are
written once, at the end. Calls inside a module are not seen.

A wrapper may also record counts taken from the call's arguments or result.
The time spent taking them is kept on the span (`hook_s`) and treated as
covered by a child, so it never lands in the caller's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import math
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

# --- counts taken at the wrapped boundaries ------------------------------------------


def _segment_counts(args, kwargs, result):
    _, report = result
    return {"chars": len(args[0]), "utterances": report.n_utterances, "unresolved": report.n_unresolved_speakers}


def _store_counts(args, kwargs, result):
    transcripts, root = args[0], Path(args[1])
    rosters = kwargs.get("rosters") or {}
    files = written = 0
    for meta, _ in transcripts:
        names = ["meta.json", "utterances.jsonl"] + (["roster.json"] if meta.hearing_id in rosters else [])
        for name in names:
            files += 1
            written += (root / meta.hearing_id / name).stat().st_size
    return {"files": files, "bytes": written}


def _pair_counts(args, kwargs, result):
    pairs, report = result
    return {"pairs": len(pairs), "unpaired": len(report.unpaired_questions), "orphans": len(report.orphan_answers)}


def _epoch_counts(args, kwargs, result):
    return {"epochs": len(result[1]) - 1}  # the loss trace starts with the initial loss


def _feature_counts(args, kwargs, result):
    tokens_of = getattr(importlib.import_module("gavel.features"), "tokens_of", str.split)
    return {"tokens": len(tokens_of(args[0])), "null_cells": sum(v is None for v in result.values)}


def _count_nodes(node) -> int:
    n, stack = 0, [node]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(child for child in (node.left, node.right) if child is not None)
    return n


def _forest_counts(args, kwargs, result):
    return {"trees": len(result.trees), "nodes": sum(_count_nodes(t) for t in result.trees)}


def _ks_counts(args, kwargs, result):
    comparisons, skips = result
    return {"comparisons": len(comparisons), "skipped": len(skips)}


def _experiment_counts(args, kwargs, result):
    return {"splits": len(result), "split_errors": sum(1 for r in result if r.error)}


# (module, attribute, span name, counts) for every cross-module call worth a span.
WRAPS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("gavel.cli", "write_manifest", "cli.write_manifest", None),
    ("gavel.cli", "store_corpus", "corpus.store_corpus", _store_counts),
    ("gavel.cli", "load_corpus", "corpus.load_corpus", None),
    ("gavel.cli", "load_rosters", "corpus.load_rosters", None),
    ("gavel.cli", "load_roster", "corpus.load_roster", None),
    ("gavel.cli", "load_government_config", "corpus.load_government_config", None),
    ("gavel.cli", "segment_hearing", "segmenter.segment_hearing", _segment_counts),
    ("gavel.cli", "load_training_corpus", "qa.load_training_corpus", None),
    ("gavel.cli", "train_qa", "qa.train_qa", None),
    ("gavel.cli", "save_model", "qa.save_model", None),
    ("gavel.cli", "load_model", "qa.load_model", None),
    ("gavel.cli", "classify_qa", "qa.classify_qa", None),
    ("gavel.cli", "score_confusion", "qa.score_confusion", None),
    ("gavel.cli", "pair_qa", "qa.pair_qa", _pair_counts),
    ("gavel.cli", "save_pairs", "qa.save_pairs", None),
    ("gavel.cli", "load_pairs", "qa.load_pairs", None),
    ("gavel.qa", "train_binary_logistic", "linear.train_binary_logistic", _epoch_counts),
    ("gavel.cli", "verify_manifest", "lexicons.verify_manifest", None),
    ("gavel.cli", "load_lexicons", "lexicons.load_lexicons", None),
    ("gavel.cli", "build_examples", "harness.build_examples", None),
    ("gavel.cli", "write_examples", "harness.write_examples", None),
    ("gavel.cli", "read_examples", "harness.read_examples", None),
    ("gavel.cli", "build_datasets", "harness.build_datasets", None),
    ("gavel.cli", "run_experiment", "harness.run_experiment", _experiment_counts),
    ("gavel.cli", "emit_tables", "harness.emit_tables", None),
    ("gavel.cli", "render_prompt", "harness.render_prompt", None),
    ("gavel.harness", "extract_features", "features.extract_features", _feature_counts),
    ("gavel.harness", "strip_speaker_names", "party_models.strip_speaker_names", None),
    ("gavel.harness", "cross_validate_grid", "party_models.cross_validate_grid", None),
    ("gavel.harness", "train_logistic", "party_models.train_logistic", None),
    ("gavel.harness", "feature_importance", "party_models.feature_importance", None),
    ("gavel.harness", "train_forest", "forest.train_forest", _forest_counts),
    ("gavel.harness", "predict_forest", "forest.predict_forest", None),
    ("gavel.party_models", "train_forest", "forest.train_forest", _forest_counts),
    ("gavel.party_models", "forest_accuracy", "forest.forest_accuracy", None),
    ("gavel.party_models", "train_binary_logistic", "linear.train_binary_logistic", _epoch_counts),
    ("gavel.cli", "compare_groups", "kstest.compare_groups", _ks_counts),
    ("gavel.cli", "emit_heatmap_matrix", "kstest.emit_heatmap_matrix", None),
    ("gavel.cli", "emit_comparison_details", "kstest.emit_comparison_details", None),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "trace", "hook_s", "counts")

    def __init__(self, span_id: int, name: str, parent: Optional[int], trace: str):
        self.id, self.name, self.parent, self.trace = span_id, name, parent, trace
        self.start = self.end = self.hook_s = 0.0
        self.counts: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self, origin: float) -> dict:
        rec = {"id": self.id, "name": self.name, "start": self.start - origin, "end": self.end - origin,
               "parent": self.parent, "trace": self.trace}
        if self.hook_s:
            rec["hook_s"] = self.hook_s
        if self.counts:
            rec.update(self.counts)
        return rec


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # wrap targets the program no longer has
        self.count_errors: list[str] = []  # counts a changed result shape no longer yields
        self._stack: list[int] = []
        self._trace = ""
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None, self._trace)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counts is not None:
                try:
                    span.counts = counts(args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError, KeyError, OSError) as exc:
                    self.count_errors.append(f"{name}: {type(exc).__name__}: {exc}")
                span.hook_s = perf_counter() - span.end
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counts in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, original, counts))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def command(self, name: str, label: str):
        """Root span of one CLI command; the command label is the trace id."""
        self._trace = label
        span = self._open(f"cli.{name}")
        span.start = perf_counter()
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()


# --- per-layer metrics from spans ----------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration + span.hook_s
    return [span.duration - covered[span.id] for span in spans]


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    while span.parent is not None:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str, int]]:
    """Per-module metrics as name -> (value, unit, sample count)."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    own = self_times(spans)

    def group(*names: str) -> list[Span]:
        return [s for n in names for s in by_name.get(n, [])]

    def total(*names: str) -> tuple[float, str, int]:
        g = group(*names)
        return sum(s.duration for s in g), "s", len(g)

    def self_total(name: str) -> tuple[float, str, int]:
        g = group(name)
        return sum(own[s.id] for s in g), "s", len(g)

    def count(name: str, key: str, unit: str = "count") -> tuple[float, str, int]:
        g = group(name)
        return sum(s.counts[key] for s in g if s.counts), unit, len(g)

    def calls(name: str, prefix: str, high: float, high_tag: str) -> dict[str, tuple[float, str, int]]:
        durations = [s.duration for s in group(name)]
        n = len(durations)
        return {
            f"{prefix}_calls": (n, "count", n),
            f"{prefix}_total_s": (sum(durations), "s", n),
            f"{prefix}_p50_s": (percentile(durations, 0.5), "s", n),
            f"{prefix}_{high_tag}_s": (percentile(durations, high), "s", n),
        }

    def rate(name: str, key: str, unit: str) -> tuple[float, str, int]:
        g = group(name)
        busy = sum(s.duration for s in g)
        return (sum(s.counts[key] for s in g if s.counts) / busy if busy else 0.0), unit, len(g)

    seg = group("segmenter.segment_hearing")
    n_utt = sum(s.counts["utterances"] for s in seg if s.counts)
    n_unres = sum(s.counts["unresolved"] for s in seg if s.counts)
    forest = group("forest.train_forest")
    return {
        "cli.manifest_s": total("cli.write_manifest"),
        "corpus.store_s": total("corpus.store_corpus"),
        "corpus.load_s": total("corpus.load_corpus", "corpus.load_rosters", "corpus.load_roster",
                               "corpus.load_government_config"),
        "corpus.files_written": count("corpus.store_corpus", "files"),
        "corpus.bytes_written": count("corpus.store_corpus", "bytes", "bytes"),
        **calls("segmenter.segment_hearing", "segmenter.hearing", 1.0, "max"),
        "segmenter.chars_per_s": rate("segmenter.segment_hearing", "chars", "chars/s"),
        "segmenter.utterances": (n_utt, "count", len(seg)),
        "segmenter.unresolved_share": (n_unres / n_utt if n_utt else 0.0, "share", len(seg)),
        "qa.train_s": total("qa.train_qa"),
        **calls("qa.classify_qa", "qa.classify", 0.99, "p99"),
        "qa.pair_s": total("qa.pair_qa"),
        "qa.pairs": count("qa.pair_qa", "pairs"),
        "qa.unpaired": count("qa.pair_qa", "unpaired"),
        "qa.orphans": count("qa.pair_qa", "orphans"),
        "linear.train_s": total("linear.train_binary_logistic"),
        "linear.epochs": count("linear.train_binary_logistic", "epochs"),
        "lexicons.load_s": total("lexicons.verify_manifest", "lexicons.load_lexicons"),
        **calls("features.extract_features", "features.extract", 0.99, "p99"),
        "features.tokens_per_s": rate("features.extract_features", "tokens", "tokens/s"),
        "features.null_cells": count("features.extract_features", "null_cells"),
        "party_models.strip_names_s": total("party_models.strip_speaker_names"),
        "party_models.cv_grid_s": total("party_models.cross_validate_grid"),
        "party_models.cv_fits": (sum(1 for s in forest if _has_ancestor(spans, s, "party_models.cross_validate_grid")),
                                 "count", len(forest)),
        "party_models.train_logistic_s": total("party_models.train_logistic"),
        "forest.train_calls": (len(forest), "count", len(forest)),
        "forest.train_total_s": total("forest.train_forest"),
        "forest.trees": count("forest.train_forest", "trees"),
        "forest.nodes": count("forest.train_forest", "nodes"),
        "forest.predict_s": total("forest.predict_forest", "forest.forest_accuracy"),
        "kstest.compare_s": total("kstest.compare_groups"),
        "kstest.comparisons": count("kstest.compare_groups", "comparisons"),
        "kstest.skipped": count("kstest.compare_groups", "skipped"),
        "harness.build_examples_self_s": self_total("harness.build_examples"),
        "harness.write_examples_s": total("harness.write_examples"),
        "harness.read_examples_s": total("harness.read_examples"),
        "harness.run_experiment_self_s": self_total("harness.run_experiment"),
        "harness.render_prompt_s": total("harness.render_prompt"),
        "harness.splits": count("harness.run_experiment", "splits"),
        "harness.split_errors": count("harness.run_experiment", "split_errors"),
    }
