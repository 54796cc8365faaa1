"""Per-utterance linguistic feature suite.

Five groups share one fixed schema:

  complexity  ttr, avgWlen, wCount, FKGLvl, SmgIn, CLIn, lix
  affect      vneg, vneu, vpos (valence shares), wneg..sneu (lexicon hits)
  bias        bias, assert, facts, hedges, implctv, repVerb, poWords, noWords
  style       punct_count, symbol_count, quote_count, allcaps_count
  event       date_mentions, location_mentions

`extract_features` computes all of them in one pass: a text's words are
found once, and their lowercased forms (its tokens) feed the readability
counts, the valence sums and one scan that counts the hits of all fifteen
word lists (`count_lexicon_hits`). Per-word syllable counts are memoized, and
sentence and character-class counts run at C speed, so the cost is linear in
the text with small constants.

Degenerate inputs (no words or no sentences) null-flag the ratio features
(value None) instead of reporting 0, so distribution tests can exclude them.

The sentiment shares are computed from a transparent valence lexicon: every
covered token contributes max(-v,0) negative, max(v,0) positive and 1-|v|
neutral mass, so vneg+vneu+vpos is exactly 1 (a text with no covered tokens
is all neutral). The syllable counter is rule-based: vowel-group counting
with a silent final 'e' rule that spares consonant+'le' endings.

The example table has one row per question, answer or pair: its split
dimensions, its questioner's party and standing, and its features.
`write_examples` writes row tuples; `read_examples` reads the columns of an
`ExampleTable`, which the KS tests, splits and learners take. The codec lives
here so that a command that only reads the table need not load the learners.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count, islice
from operator import attrgetter
from pathlib import Path
from sys import intern
from typing import Iterable, Optional, Sequence

from .corpus import RecordError, Task, read_tsv, write_tsv
from .lexicons import LIST_FILES, Lexicons

SCHEMA: tuple[str, ...] = (
    "ttr",
    "avgWlen",
    "wCount",
    "FKGLvl",
    "SmgIn",
    "CLIn",
    "lix",
    "vneg",
    "vneu",
    "vpos",
    "wneg",
    "wpos",
    "wneu",
    "sneg",
    "spos",
    "sneu",
    "bias",
    "assert",
    "facts",
    "hedges",
    "implctv",
    "repVerb",
    "poWords",
    "noWords",
    "punct_count",
    "symbol_count",
    "quote_count",
    "allcaps_count",
    "date_mentions",
    "location_mentions",
)

# Words: alphanumeric runs, apostrophes join ("don't" is one word).
WORD_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z0-9]+)*")

# A terminator does not end a sentence after these (case-insensitive).
ABBREVIATIONS = frozenset(
    "mr mrs ms dr hon rev gen sen rep gov sgt col capt lt st no vs etc al inc corp dept".split()
)

VOWELS = "aeiouy"
_VOWEL_RUN_RE = re.compile(f"[{VOWELS}]+")
_TERMINATOR_RUN_RE = re.compile(r"[.!?]+")
_ALNUM_RE = re.compile(r"[^\W_]")  # exactly the characters for which str.isalnum() holds

PUNCT_CHARS = set("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")
SYMBOL_CHARS = set("$%&@#^~*+=<>|\\")
QUOTE_CHARS = set("\"'“”‘’`")

_MONTHS = (
    "january|february|march|april|may|june|july|august|september|october|november|december|"
    "jan|feb|mar|apr|jun|jul|aug|sep|sept|oct|nov|dec"
)
DATE_RE = re.compile(
    rf"\b\d{{1,2}}/\d{{1,2}}/\d{{2,4}}\b"
    rf"|\b(?:{_MONTHS})\b\.?(?:\s+\d{{1,2}}(?:st|nd|rd|th)?)?(?:,?\s+(?:19|20)\d{{2}})?"
    rf"|\b(?:19|20)\d{{2}}\b",
    re.IGNORECASE,
)


class FeatureError(Exception):
    pass


@dataclass(frozen=True)
class TextStats:
    n_words: int = 0
    n_sentences: int = 0
    n_characters_in_words: int = 0
    n_syllables: int = 0
    n_polysyllables: int = 0
    n_long_words: int = 0
    n_unique_words: int = 0

    def __post_init__(self):
        for f in (
            self.n_words,
            self.n_sentences,
            self.n_characters_in_words,
            self.n_syllables,
            self.n_polysyllables,
            self.n_long_words,
            self.n_unique_words,
        ):
            if f < 0:
                raise FeatureError("text statistics must be non-negative")
        if self.n_unique_words > self.n_words or self.n_polysyllables > self.n_words:
            raise FeatureError("word-derived counts cannot exceed the word count")
        if self.n_words >= 1 and self.n_sentences < 1:
            raise FeatureError("a text with words has at least one sentence")


class FeatureVector:
    """Feature values in fixed schema order; missing values are None."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[Optional[float]]):
        if len(values) != len(SCHEMA):
            raise FeatureError(f"expected {len(SCHEMA)} values, got {len(values)}")
        self.values = tuple(values)


def tokens_of(text: str) -> list[str]:
    """Lowercased word tokens, the unit for all lexicon matching."""
    return [w.lower() for w in WORD_RE.findall(text)]


@lru_cache(maxsize=1 << 14)
def count_syllables(word: str) -> int:
    """Deterministic rule-based syllable count, memoized per distinct word.

    Counts vowel-group runs (a e i o u y); a final 'e' after a consonant is
    silent ("cake") unless the word ends in consonant+'le' ("table").
    """
    w = "".join(filter(str.isalpha, word.lower()))
    if not w:
        return 0
    groups = len(_VOWEL_RUN_RE.findall(w))
    if groups > 1 and w.endswith("e") and w[-2] not in VOWELS:
        if not (w.endswith("le") and len(w) >= 3 and w[-3] not in VOWELS):
            groups -= 1
    return max(groups, 1)


def count_sentences(text: str) -> int:
    """Sentences end at . ! or ? except after known abbreviations or initials.

    A run of terminators ends at most one sentence, and only a sentence that
    holds an alphanumeric character; a trailing fragment counts as one. Only
    the terminator runs are visited, so the scan runs at regex speed.
    """
    n = 0
    open_sentence = False
    pos = 0
    for run in _TERMINATOR_RUN_RE.finditer(text):
        start = run.start()
        if open_sentence or _ALNUM_RE.search(text, pos, start):
            if text[start] == "." and _is_abbreviation(text, start):
                open_sentence = True
            else:
                n += 1
                open_sentence = False
        pos = run.end()
    if open_sentence or _ALNUM_RE.search(text, pos):
        n += 1
    return n


def _is_abbreviation(text: str, dot_index: int) -> bool:
    j = dot_index
    start = j
    while start > 0 and (text[start - 1].isalpha()):
        start -= 1
    word = text[start:j].lower()
    if not word:
        return False
    return word in ABBREVIATIONS or len(word) == 1


def compute_stats(text: str, words: Sequence[str], tokens: Sequence[str]) -> TextStats:
    """Readability counts of `text`, given its words (WORD_RE matches) and their lowercased tokens."""
    if not words:
        return TextStats()
    syllables = list(map(count_syllables, tokens))
    letters = [len(w) - w.count("'") for w in words]  # a word is ASCII alphanumerics and apostrophes
    return TextStats(
        n_words=len(words),
        n_sentences=max(count_sentences(text), 1),
        n_characters_in_words=sum(letters),
        n_syllables=sum(syllables),
        n_polysyllables=sum(s >= 3 for s in syllables),
        n_long_words=sum(c > 6 for c in letters),
        n_unique_words=len(set(tokens)),
    )


def complexity_features(stats: TextStats) -> dict[str, Optional[float]]:
    """Readability formulas over precomputed text statistics.

    FKGL = 0.39*(words/sentences) + 11.8*(syllables/words) - 15.59
    SMOG = 1.0430*sqrt(polysyllables*30/sentences) + 3.1291
    CLI  = 0.0588*L - 0.296*S - 15.8   (L, S = letters resp. sentences per 100 words)
    LIX  = words/sentences + 100*long_words/words
    """
    out: dict[str, Optional[float]] = {"wCount": float(stats.n_words)}
    if stats.n_words < 1 or stats.n_sentences < 1:
        out.update(
            {"ttr": None, "avgWlen": None, "FKGLvl": None, "SmgIn": None, "CLIn": None, "lix": None}
        )
        return out
    words = float(stats.n_words)
    sents = float(stats.n_sentences)
    letters = float(stats.n_characters_in_words)
    out["ttr"] = stats.n_unique_words / words
    out["avgWlen"] = letters / words
    out["FKGLvl"] = 0.39 * (words / sents) + 11.8 * (stats.n_syllables / words) - 15.59
    out["SmgIn"] = 1.0430 * math.sqrt(stats.n_polysyllables * 30.0 / sents) + 3.1291
    big_l = letters / words * 100.0
    big_s = sents / words * 100.0
    out["CLIn"] = 0.0588 * big_l - 0.296 * big_s - 15.8
    out["lix"] = words / sents + 100.0 * stats.n_long_words / words
    return out


# The fifteen word lists, in schema order: wneg .. noWords, then location_mentions.
_lexicon_lists = attrgetter(*LIST_FILES)


@lru_cache(maxsize=8)
def _lexicon_index(lists: tuple[frozenset[str], ...]) -> dict[str, list[tuple[int, tuple[str, ...]]]]:
    index: dict[str, list[tuple[int, tuple[str, ...]]]] = {}
    for slot, entries in enumerate(lists):
        for entry in entries:
            parts = tuple(tokens_of(entry))
            if parts:
                index.setdefault(parts[0], []).append((slot, parts))
    return index


def count_lexicon_hits(tokens: Sequence[str], lists: tuple[frozenset[str], ...]) -> list[int]:
    """Occurrences of each list's entries as contiguous token sequences, one count per list.

    Entries are tokenized with the same rule as text, so hyphenated or
    multiword entries ("so-called", "find out") match across separators.
    Every start position is counted, so overlapping hits of distinct
    entries all count.

    Every entry of every list is filed, with its list's slot, under its first
    token in one index (entries that tokenize to nothing are dropped), so one
    scan of the tokens serves all the lists, and it compares entries only at
    tokens that start one: linear in the text, not in text x lexicon. Entries
    that tokenize alike ("so-called", "so called") keep one place each, and
    each counts. The index is built once per tuple of lists and cached.
    """
    index = _lexicon_index(lists)
    counts = [0] * len(lists)
    for i in compress(count(), map(index.__contains__, tokens)):
        for slot, parts in index[tokens[i]]:
            if len(parts) == 1 or tuple(tokens[i : i + len(parts)]) == parts:
                counts[slot] += 1
    return counts


def extract_features(text: str, lexicons: Lexicons) -> FeatureVector:
    """Full schema-ordered vector; a pure function of (text, lexicons)."""
    words = WORD_RE.findall(text)
    tokens = [w.lower() for w in words]
    complexity = complexity_features(compute_stats(text, words, tokens))
    neg = pos = neu = 0.0
    valence = lexicons.sentiment_valence
    for v in [v for v in map(valence.get, tokens) if v is not None]:
        neg += max(-v, 0.0)
        pos += max(v, 0.0)
        neu += 1.0 - abs(v)
    total = neg + pos + neu
    if total == 0.0:
        shares = (0.0, 1.0, 0.0)  # no covered token: all neutral
    else:
        shares = (neg / total, neu / total, pos / total)
    hits = count_lexicon_hits(tokens, _lexicon_lists(lexicons))
    return FeatureVector(
        (
            *(complexity[name] for name in SCHEMA[:7]),
            *shares,
            *map(float, hits[:14]),
            float(sum(map(text.count, PUNCT_CHARS))),
            float(sum(map(text.count, SYMBOL_CHARS))),
            float(sum(map(text.count, QUOTE_CHARS))),
            float(sum(1 for w in filter(str.isupper, words) if len(w) >= 2 and w.isalpha())),
            float(len(DATE_RE.findall(text))),
            float(hits[14]),
        )
    )


# --- the example table --------------------------------------------------------

META_COLUMNS = (
    "example_id",
    "kind",
    "hearing_id",
    "session",
    "committee",
    "chamber",
    "hearing_type",
    "government",
    "presidency",
    "party",
    "standing",
)
COLUMNS = META_COLUMNS + SCHEMA
_SESSION = META_COLUMNS.index("session")

_BLOCK_LINES = 256  # lines turned into columns at once: bounds the cells held while reading


@dataclass(frozen=True)
class ExampleTable:
    """The example table in memory: one column per field of the file.

    Each metadata column is a list of str, equal cells sharing one interned
    str, and `session` holds its integer's canonical text. `features[j]` is
    SCHEMA[j]'s column, an `array('d')` with NaN for an empty (null) cell:
    the file admits no non-finite value, so NaN means null and nothing else.
    """

    example_id: list[str]
    kind: list[str]
    hearing_id: list[str]
    session: list[str]
    committee: list[str]
    chamber: list[str]
    hearing_type: list[str]
    government: list[str]
    presidency: list[str]
    party: list[str]
    standing: list[str]
    features: tuple[array, ...]

    def labels(self, task: Task) -> list[str]:
        """The column `task` predicts: party or standing."""
        return self.party if task is Task.AFFILIATION else self.standing


def write_examples(rows: Iterable[Sequence], path: Path | str) -> None:
    """Write rows given as tuples in `COLUMNS` order, a null feature as None."""
    write_tsv(path, COLUMNS, rows)


def read_examples(path: Path | str) -> ExampleTable:
    """Read an examples file into columns, a block of lines at a time.

    A row of the wrong width, a session that is not an integer, or a feature
    neither empty nor a finite float is a `RecordError` naming line and column.
    """
    lines = read_tsv(path)
    line_no, header = next(lines, (0, None))
    if header is None:
        raise RecordError("empty examples file", path=str(path))
    if header != list(COLUMNS):
        raise RecordError(
            f"unexpected header (schema version mismatch?): {header[:4]}...", path=str(path), line_no=line_no
        )
    columns = [[] for _ in META_COLUMNS] + [array("d") for _ in SCHEMA]
    while block := list(islice(lines, _BLOCK_LINES)):
        _add_block(path, block, columns)
    return ExampleTable(*columns[: len(META_COLUMNS)], features=tuple(columns[len(META_COLUMNS) :]))


def _add_block(path, block: Sequence[tuple[int, list[str]]], columns: list) -> None:
    """Append a block of (line_no, cells) rows to the columns.

    A block with a faulty line is added again a line at a time, so that the
    error names the first such line and, in it, the first faulty column.
    """
    for i, (line_no, cells) in enumerate(block):
        if len(cells) != len(COLUMNS):
            _add_block(path, block[:i], columns)  # a fault on an earlier line is reported first
            raise RecordError(f"expected {len(COLUMNS)} columns, got {len(cells)}", path=str(path),
                              line_no=line_no, field_name=COLUMNS[min(len(cells), len(COLUMNS) - 1)])
    for j, cells in enumerate(zip(*(cells for _, cells in block))):
        try:
            if j >= len(META_COLUMNS):
                columns[j].extend(_floats(cells))
            elif j == _SESSION:
                columns[j].extend(map(intern, map(str, map(int, cells))))  # the integer's canonical text
            else:
                columns[j].extend(cells if j == 0 else map(intern, cells))  # example ids are distinct
        except ValueError:
            if len(block) > 1:
                for line in block:
                    _add_block(path, [line], columns)
            what = "not an integer" if j == _SESSION else "non-finite or not a number"
            raise RecordError(f"{cells[0]!r} is {what}", path=str(path), line_no=block[0][0],
                              field_name=COLUMNS[j]) from None


def _floats(cells: Sequence[str]) -> array:
    """Feature cells as doubles, an empty cell as NaN; ValueError for any other cell that is not a finite float."""
    values = array("d", [float(c) if c else math.nan for c in cells])
    if not all(map(math.isfinite, compress(values, cells))):
        raise ValueError("non-finite value")
    return values

