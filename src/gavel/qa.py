"""Question/answer utterance classification and Q-A pairing.

The classifier is regularized logistic regression over lexical features:
lowercased unigram and bigram counts plus three structural cues (terminal
question mark, interrogative leading token, token-count bucket). Bigrams
are capped at the most frequent 50k, ties broken lexicographically so the
vocabulary is reproducible. Ties at probability 0.5 resolve to Question,
the rarer, pairing-triggering class.

Training corpora come from three delimiter-separated layouts (see
docs/formats.md): AMA-style threads, written parliamentary Q&A, and plain
hand-labeled rows.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import (
    Person,
    QALabel,
    QAPair,
    RecordError,
    Role,
    Utterance,
    from_record,
    read_json,
    read_records,
    read_tsv,
    to_record,
    write_lines,
)
from .linear import PackedRows, sigmoid, train_binary_logistic

MODEL_FORMAT_VERSION = 1
BIGRAM_CAP = 50_000

TOKEN_RE = re.compile(r"[a-z0-9']+")

INTERROGATIVE_LEADS = frozenset(
    (
        "who what when where why how which whom whose "
        "is are was were am do does did can could will would should shall may might "
        "has have had isn't aren't don't doesn't didn't won't wouldn't couldn't shouldn't can't"
    ).split()
)

_UNIGRAM_PREFIX = "u:"
_BIGRAM_PREFIX = "b:"
QMARK_FEATURE = "__qmark__"
INTERROGATIVE_FEATURE = "__interrogative__"
LEN_BUCKET_PREFIX = "__len"
_N_LEN_BUCKETS = 8
_LEN_BUCKET_FEATURES = tuple(f"{LEN_BUCKET_PREFIX}{b}__" for b in range(_N_LEN_BUCKETS))
_STRUCTURAL_FEATURES = frozenset((QMARK_FEATURE, INTERROGATIVE_FEATURE, *_LEN_BUCKET_FEATURES))

# the only two labels a training or evaluation row may carry
_TRAINING_LABELS = {"Question": QALabel.QUESTION, "Answer": QALabel.ANSWER}


class Source(str, Enum):
    AMA = "AMA"
    UKPARL = "UKParl"
    HAND_LABELED = "HandLabeled"


@dataclass(frozen=True)
class LabeledText:
    text: str
    label: QALabel

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("labeled text must be non-empty")
        if self.label not in (QALabel.QUESTION, QALabel.ANSWER):
            raise ValueError("training labels are Question or Answer")


def load_training_corpus(path: Path | str, fmt: Source) -> tuple[list[LabeledText], int]:
    """Read one training file: (rows kept, duplicates of normalized text dropped)."""
    rows: list[LabeledText] = []
    seen: set[str] = set()
    duplicates = 0
    for line_no, cols in read_tsv(path):
        text, label = _parse_row(cols, fmt, str(path), line_no)
        if not text.strip():
            raise RecordError("empty text", path=str(path), line_no=line_no, field_name="text")
        key = " ".join(text.split()).lower()
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        rows.append(LabeledText(text=text, label=label))
    return rows, duplicates


def _parse_row(cols: list[str], fmt: Source, path: str, line_no: int) -> tuple[str, QALabel]:
    if fmt is Source.HAND_LABELED:
        if len(cols) != 2:
            raise RecordError("expected 2 tab-separated columns (text, label)", path=path, line_no=line_no)
        text, label_raw = cols
        label = _TRAINING_LABELS.get(label_raw)
        if label is None:
            raise RecordError(
                f"label must be Question or Answer, got {label_raw!r}", path=path, line_no=line_no, field_name="label"
            )
        return text, label
    if fmt is Source.AMA:
        # thread_id, comment_level, text; level 1 comments are the questions,
        # the poster's level 2 replies are the answers
        if len(cols) != 3:
            raise RecordError(
                "expected 3 tab-separated columns (thread_id, level, text)", path=path, line_no=line_no
            )
        _, level, text = cols
        if level == "1":
            return text, QALabel.QUESTION
        if level == "2":
            return text, QALabel.ANSWER
        raise RecordError(f"comment level must be 1 or 2, got {level!r}", path=path, line_no=line_no, field_name="level")
    if fmt is Source.UKPARL:
        # record_id, kind, text; written questions and their ministerial answers
        if len(cols) != 3:
            raise RecordError(
                "expected 3 tab-separated columns (record_id, kind, text)", path=path, line_no=line_no
            )
        _, kind, text = cols
        kind = kind.lower()
        if kind == "question":
            return text, QALabel.QUESTION
        if kind == "answer":
            return text, QALabel.ANSWER
        raise RecordError(f"kind must be question or answer, got {kind!r}", path=path, line_no=line_no, field_name="kind")
    raise RecordError(f"unknown corpus format {fmt!r}", path=path, line_no=line_no)


def _structural_features(text: str, tokens: Sequence[str]) -> list[str]:
    """The structural cues of a text, by feature name: terminal question mark,
    interrogative leading token, token-count bucket."""
    names = [QMARK_FEATURE] if text.rstrip().endswith("?") else []
    if tokens and tokens[0] in INTERROGATIVE_LEADS:
        names.append(INTERROGATIVE_FEATURE)
    names.append(_LEN_BUCKET_FEATURES[min(len(tokens) // 8, _N_LEN_BUCKETS - 1)])
    return names


def featurize_text(text: str) -> dict[str, float]:
    """Sparse token-count features; deterministic in the input string.

    These names are the model's vocabulary. Scoring does not build them: it
    reads the per-token tables `LexicalModel` derives from the vocabulary.
    """
    tokens = TOKEN_RE.findall(text.lower())
    feats: dict[str, float] = {}
    for t in tokens:
        key = _UNIGRAM_PREFIX + t
        feats[key] = feats.get(key, 0.0) + 1.0
    for t1, t2 in zip(tokens, tokens[1:]):
        key = f"{_BIGRAM_PREFIX}{t1} {t2}"
        feats[key] = feats.get(key, 0.0) + 1.0
    for name in _structural_features(text, tokens):
        feats[name] = 1.0
    return feats


@dataclass(frozen=True)
class LexicalModel:
    """Vocabulary (feature name -> weight index), weights and bias of the classifier.

    Building one derives the scoring tables from `vocabulary` and `weights`:
    the weight of each vocabulary token, of each token pair, and of each
    structural cue feature.
    """

    vocabulary: Mapping[str, int]
    weights: tuple[float, ...]
    bias: float
    training_meta: dict  # epochs, learning_rate, l2, n_examples; saved in this key order
    _unigram_weights: dict[str, float] = field(init=False, repr=False, compare=False)
    _bigram_weights: dict[tuple[str, str], float] = field(init=False, repr=False, compare=False)
    _structural_weights: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.weights)
        if len(self.vocabulary) != n:
            raise ValueError("weight vector length must equal vocabulary size")
        indices = self.vocabulary.values()
        # one weight per name: an index past the end would crash, and -1 would silently read the last weight
        if any(type(i) is not int for i in indices) or set(indices) != set(range(n)):
            raise ValueError(f"vocabulary indices must be the ints 0..{n - 1}, each once")
        unigrams: dict[str, float] = {}
        bigrams: dict[tuple[str, str], float] = {}
        structural: dict[str, float] = {}
        tokens: dict[str, str] = {}  # one str per token, shared by the unigram keys and the pairs
        for name, i in self.vocabulary.items():
            if name.startswith(_UNIGRAM_PREFIX):
                token = name[len(_UNIGRAM_PREFIX):]
                unigrams[tokens.setdefault(token, token)] = self.weights[i]
            elif name.startswith(_BIGRAM_PREFIX):
                t1, space, t2 = name[len(_BIGRAM_PREFIX):].partition(" ")
                if space:
                    bigrams[tokens.setdefault(t1, t1), tokens.setdefault(t2, t2)] = self.weights[i]
            elif name in _STRUCTURAL_FEATURES:
                structural[name] = self.weights[i]
        object.__setattr__(self, "_unigram_weights", unigrams)
        object.__setattr__(self, "_bigram_weights", bigrams)
        object.__setattr__(self, "_structural_weights", structural)


@dataclass(frozen=True)
class QAHyper:
    learning_rate: float = 0.5
    epochs: int = 60
    l2: float = 1e-4


def build_vocabulary(featurized: Iterable[Mapping[str, float]]) -> dict[str, int]:
    counts: dict[str, float] = {}
    for feats in featurized:
        for name, value in feats.items():
            counts[name] = counts.get(name, 0.0) + value
    bigrams = [n for n in counts if n.startswith(_BIGRAM_PREFIX)]
    # most frequent first; lexicographic tie-break keeps the cut reproducible
    bigrams.sort(key=lambda n: (-counts[n], n))
    kept = set(bigrams[:BIGRAM_CAP])
    names = sorted(n for n in counts if not n.startswith(_BIGRAM_PREFIX) or n in kept)
    return {name: i for i, name in enumerate(names)}


def train_qa(corpus: Sequence[LabeledText], hyper: QAHyper = QAHyper()) -> tuple[LexicalModel, list[float]]:
    """Train the lexical classifier; returns the model and the loss trace."""
    labels_present = {r.label for r in corpus}
    if labels_present != {QALabel.QUESTION, QALabel.ANSWER}:
        raise ValueError("training corpus must contain both Question and Answer rows")
    featurized = [featurize_text(r.text) for r in corpus]
    vocab = build_vocabulary(featurized)
    matrix = PackedRows(
        ({vocab[name]: value for name, value in feats.items() if name in vocab} for feats in featurized), len(vocab)
    )
    del featurized  # training and the scoring tables need only the packed rows
    y = [1 if r.label is QALabel.QUESTION else 0 for r in corpus]
    (weights, bias), trace = train_binary_logistic(
        matrix, y, learning_rate=hyper.learning_rate, epochs=hyper.epochs, l2=hyper.l2
    )
    meta = {
        "epochs": hyper.epochs,
        "learning_rate": hyper.learning_rate,
        "l2": hyper.l2,
        "n_examples": len(y),
    }
    return LexicalModel(vocabulary=vocab, weights=weights, bias=bias, training_meta=meta), trace


def classify_qa(
    model: LexicalModel, text: str, other_band: Optional[float] = None
) -> tuple[QALabel, float]:
    """Label an utterance; confidence is the winning-class probability.

    With `other_band` set, predictions within that margin of 0.5 come back
    as Other (calibration is left to the caller).

    The logit adds the weights of the text's features in the order and with
    the counts of `featurize_text`, so it has the bits of the dot product
    with the text's feature vector: unigrams, then bigrams, each in order of
    first occurrence, then the structural cues.
    """
    tokens = TOKEN_RE.findall(text.lower())
    z = model.bias
    for table, keys in ((model._unigram_weights, tokens), (model._bigram_weights, zip(tokens, tokens[1:]))):
        hits = {}
        for key in keys:
            if key in table:
                hits[key] = hits.get(key, 0) + 1
        for key, count in hits.items():
            z += table[key] * count
    for name in _structural_features(text, tokens):
        if name in model._structural_weights:
            z += model._structural_weights[name]
    p_question = sigmoid(z)
    if other_band is not None and abs(p_question - 0.5) < other_band:
        return QALabel.OTHER, max(p_question, 1.0 - p_question)
    if p_question >= 0.5:
        return QALabel.QUESTION, p_question
    return QALabel.ANSWER, 1.0 - p_question


@dataclass(frozen=True)
class ConfusionCounts:
    """Q/A confusion counts: *_true = correctly labeled, *_false = mislabeled."""

    q_true: int
    q_false: int
    a_true: int
    a_false: int

    @property
    def total(self) -> int:
        return self.q_true + self.q_false + self.a_true + self.a_false

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            raise ValueError("empty confusion matrix")
        return (self.q_true + self.a_true) / self.total

    def display_accuracy(self) -> str:
        return f"{self.accuracy:.2f}"

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.q_true + other.q_true,
            self.q_false + other.q_false,
            self.a_true + other.a_true,
            self.a_false + other.a_false,
        )


def score_confusion(predictions: Sequence[QALabel], truths: Sequence[QALabel]) -> ConfusionCounts:
    if len(predictions) != len(truths):
        raise ValueError(f"length mismatch: {len(predictions)} predictions vs {len(truths)} truths")
    q_true = q_false = a_true = a_false = 0
    for pred, truth in zip(predictions, truths):
        if pred is QALabel.QUESTION:
            if truth is QALabel.QUESTION:
                q_true += 1
            else:
                q_false += 1
        elif pred is QALabel.ANSWER:
            if truth is QALabel.ANSWER:
                a_true += 1
            else:
                a_false += 1
        else:
            raise ValueError(f"predictions must be Question or Answer, got {pred}")
    return ConfusionCounts(q_true, q_false, a_true, a_false)


@dataclass(frozen=True)
class PairingReport:
    unpaired_questions: tuple[str, ...]
    orphan_answers: tuple[str, ...]


def pair_qa(
    utterances: Sequence[Utterance], people: Mapping[str, Person]
) -> tuple[list[QAPair], PairingReport]:
    """Pair each member question with the next witness answer.

    A later member question supersedes an unanswered earlier one (the earlier
    question is reported, never silently dropped); witness answers with no
    pending question are reported as orphans. Member-to-member and
    witness-initiated exchanges do not pair.
    """
    pairs: list[QAPair] = []
    unpaired: list[str] = []
    orphans: list[str] = []
    pending: Optional[Utterance] = None
    for utt in sorted(utterances, key=lambda u: u.sequence_no):
        person = people.get(utt.speaker)
        role = person.role if person else Role.UNKNOWN
        if utt.qa_label is QALabel.QUESTION and role is Role.MEMBER:
            if pending is not None:
                unpaired.append(pending.utterance_id)
            pending = utt
        elif utt.qa_label is QALabel.ANSWER and role is Role.WITNESS:
            if pending is None:
                orphans.append(utt.utterance_id)
            else:
                pairs.append(
                    QAPair(
                        pair_id=f"{utt.hearing_id}-p{len(pairs):05d}",
                        question_utterance_id=pending.utterance_id,
                        answer_utterance_id=utt.utterance_id,
                        questioner=pending.speaker,
                        answerer=utt.speaker,
                    )
                )
                pending = None
    if pending is not None:
        unpaired.append(pending.utterance_id)
    return pairs, PairingReport(tuple(unpaired), tuple(orphans))


def save_pairs(pairs_by_hearing: Mapping[str, Sequence[QAPair]], path: Path | str) -> None:
    write_lines(
        path,
        (
            json.dumps({**to_record(pair), "hearing_id": hearing_id}, ensure_ascii=False)
            for hearing_id in sorted(pairs_by_hearing)
            for pair in pairs_by_hearing[hearing_id]
        ),
    )


def load_pairs(path: Path | str) -> dict[str, list[QAPair]]:
    out: dict[str, list[QAPair]] = {}
    for hearing_id, pair in read_records(path, lambda rec: (rec["hearing_id"], from_record(QAPair, rec))):
        out.setdefault(hearing_id, []).append(pair)
    return out


def save_model(model: LexicalModel, path: Path | str) -> None:
    write_lines(path, [json.dumps({"format_version": MODEL_FORMAT_VERSION, **to_record(model)})])


def load_model(path: Path | str) -> LexicalModel:
    return read_json(path, dict, _model_from_record)


def _model_from_record(record: dict) -> LexicalModel:
    version = record.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise RecordError(f"unsupported model format_version {version!r}")
    meta = record["training_meta"]
    weights, bias = tuple(record["weights"]), record["bias"]
    # JSON admits NaN, and a weight of any other type would fail only at the first scored text
    for name, values in (("weights", weights), ("bias", (bias,))):
        if not all(type(v) in (int, float) and math.isfinite(v) for v in values):
            raise RecordError("not a finite number", field_name=name)
    return LexicalModel(
        vocabulary=record["vocabulary"],
        weights=weights,
        bias=bias,
        training_meta={key: meta[key] for key in ("epochs", "learning_rate", "l2", "n_examples")},
    )
