"""Per-utterance linguistic feature suite.

Five groups share one fixed schema:

  complexity  ttr, avgWlen, wCount, FKGLvl, SmgIn, CLIn, lix
  affect      vneg, vneu, vpos (valence shares), wneg..sneu (lexicon hits)
  bias        bias, assert, facts, hedges, implctv, repVerb, poWords, noWords
  style       punct_count, symbol_count, quote_count, allcaps_count
  event       date_mentions, location_mentions

Degenerate inputs (no words or no sentences) null-flag the ratio features
(value None) instead of reporting 0, so distribution tests can exclude them.

The sentiment shares are computed from a transparent valence lexicon: every
covered token contributes max(-v,0) negative, max(v,0) positive and 1-|v|
neutral mass, so vneg+vneu+vpos is exactly 1 (a text with no covered tokens
is all neutral). The syllable counter is rule-based: vowel-group counting
with a silent final 'e' rule that spares consonant+'le' endings.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from .lexicons import Lexicons

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

_SCHEMA_POS = {name: i for i, name in enumerate(SCHEMA)}

# Words: alphanumeric runs, apostrophes join ("don't" is one word).
WORD_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z0-9]+)*")

# A terminator does not end a sentence after these (case-insensitive).
ABBREVIATIONS = frozenset(
    "mr mrs ms dr hon rev gen sen rep gov sgt col capt lt st no vs etc al inc corp dept".split()
)

VOWELS = "aeiouy"

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

    def __getitem__(self, name: str) -> Optional[float]:
        return self.values[_SCHEMA_POS[name]]

    def __eq__(self, other):
        return isinstance(other, FeatureVector) and self.values == other.values

    def __repr__(self):
        return f"FeatureVector({dict(zip(SCHEMA, self.values))!r})"

    @classmethod
    def from_parts(cls, *parts: Mapping[str, Optional[float]]) -> "FeatureVector":
        merged: dict[str, Optional[float]] = {}
        for part in parts:
            merged.update(part)
        missing = [n for n in SCHEMA if n not in merged]
        if missing:
            raise FeatureError(f"incomplete feature set, missing {missing}")
        return cls([merged[n] for n in SCHEMA])


def words_of(text: str) -> list[str]:
    return WORD_RE.findall(text)


def tokens_of(text: str) -> list[str]:
    """Lowercased word tokens, the unit for all lexicon matching."""
    return [w.lower() for w in WORD_RE.findall(text)]


def count_syllables(word: str) -> int:
    """Deterministic rule-based syllable count.

    Counts vowel-group runs (a e i o u y); a final 'e' after a consonant is
    silent ("cake") unless the word ends in consonant+'le' ("table").
    """
    w = "".join(c for c in word.lower() if c.isalpha())
    if not w:
        return 0
    groups = 0
    prev_vowel = False
    for c in w:
        is_vowel = c in VOWELS
        if is_vowel and not prev_vowel:
            groups += 1
        prev_vowel = is_vowel
    if groups > 1 and w.endswith("e") and len(w) >= 2 and w[-2] not in VOWELS:
        if not (w.endswith("le") and len(w) >= 3 and w[-3] not in VOWELS):
            groups -= 1
    return max(groups, 1)


def count_sentences(text: str) -> int:
    """Sentences end at . ! or ? except after known abbreviations or initials."""
    n = 0
    open_sentence = False
    i = 0
    length = len(text)
    while i < length:
        c = text[i]
        if c.isalnum():
            open_sentence = True
        if c in ".!?":
            j = i
            while j + 1 < length and text[j + 1] in ".!?":
                j += 1
            if open_sentence and not (c == "." and _is_abbreviation(text, i)):
                n += 1
                open_sentence = False
            i = j + 1
            continue
        i += 1
    if open_sentence:
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


def compute_stats(text: str) -> TextStats:
    wlist = words_of(text)
    if not wlist:
        return TextStats()
    syllables = [count_syllables(w) for w in wlist]
    chars = [sum(1 for c in w if c.isalnum()) for w in wlist]
    return TextStats(
        n_words=len(wlist),
        n_sentences=max(count_sentences(text), 1),
        n_characters_in_words=sum(chars),
        n_syllables=sum(syllables),
        n_polysyllables=sum(1 for s in syllables if s >= 3),
        n_long_words=sum(1 for c in chars if c > 6),
        n_unique_words=len({w.lower() for w in wlist}),
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


def _build_entry_index(entries: Iterable[str]) -> dict[str, list[tuple[str, ...]]]:
    index: dict[str, list[tuple[str, ...]]] = {}
    for entry in entries:
        parts = tuple(tokens_of(entry))
        if parts:
            index.setdefault(parts[0], []).append(parts)
    return index


# Lexicons hold frozensets, so each one's index is built once per process.
_entry_index = lru_cache(maxsize=64)(_build_entry_index)


def count_lexicon_hits(tokens: Sequence[str], entries: Iterable[str]) -> int:
    """Total occurrences of any entry as a contiguous token sequence.

    Entries are tokenized with the same rule as text, so hyphenated or
    multiword entries ("so-called", "find out") match across separators.
    Every start position is counted, so overlapping hits of distinct
    entries all count.

    Each entry is filed under its first token (entries that tokenize to
    nothing are dropped), so the scan looks each text token up once and
    compares only the entries that start with it: linear in the text, not
    in text x lexicon. Entries that tokenize alike ("so-called", "so
    called") keep one slot each, and each counts. A frozenset's index is
    built once and cached; any other iterable is indexed per call.
    """
    index = _entry_index(entries) if isinstance(entries, frozenset) else _build_entry_index(entries)
    toks = list(tokens)
    total = 0
    for i, tok in enumerate(toks):
        for parts in index.get(tok, ()):
            k = len(parts)
            if k == 1 or tuple(toks[i : i + k]) == parts:
                total += 1
    return total


def affect_features(
    text: str, lexicons: Lexicons, tokens: Optional[Sequence[str]] = None
) -> dict[str, Optional[float]]:
    """Valence shares and sentiment lexicon hits; `tokens` defaults to tokens_of(text)."""
    if tokens is None:
        tokens = tokens_of(text)
    neg = pos = neu = 0.0
    for t in tokens:
        v = lexicons.sentiment_valence.get(t)
        if v is None:
            continue
        neg += max(-v, 0.0)
        pos += max(v, 0.0)
        neu += 1.0 - abs(v)
    total = neg + pos + neu
    if total == 0.0:
        vneg, vneu, vpos = 0.0, 1.0, 0.0
    else:
        vneg, vneu, vpos = neg / total, neu / total, pos / total
    return {
        "vneg": vneg,
        "vneu": vneu,
        "vpos": vpos,
        "wneg": float(count_lexicon_hits(tokens, lexicons.weak_negative)),
        "wpos": float(count_lexicon_hits(tokens, lexicons.weak_positive)),
        "wneu": float(count_lexicon_hits(tokens, lexicons.weak_neutral)),
        "sneg": float(count_lexicon_hits(tokens, lexicons.strong_negative)),
        "spos": float(count_lexicon_hits(tokens, lexicons.strong_positive)),
        "sneu": float(count_lexicon_hits(tokens, lexicons.strong_neutral)),
    }


def bias_features(
    text: str, lexicons: Lexicons, tokens: Optional[Sequence[str]] = None
) -> dict[str, Optional[float]]:
    """Bias-lexicon hits; `tokens` defaults to tokens_of(text)."""
    if tokens is None:
        tokens = tokens_of(text)
    return {
        "bias": float(count_lexicon_hits(tokens, lexicons.bias_words)),
        "assert": float(count_lexicon_hits(tokens, lexicons.assertives)),
        "facts": float(count_lexicon_hits(tokens, lexicons.factives)),
        "hedges": float(count_lexicon_hits(tokens, lexicons.hedges)),
        "implctv": float(count_lexicon_hits(tokens, lexicons.implicatives)),
        "repVerb": float(count_lexicon_hits(tokens, lexicons.report_verbs)),
        "poWords": float(count_lexicon_hits(tokens, lexicons.positive_opinion)),
        "noWords": float(count_lexicon_hits(tokens, lexicons.negative_opinion)),
    }


def style_event_features(
    text: str, lexicons: Lexicons, tokens: Optional[Sequence[str]] = None
) -> dict[str, Optional[float]]:
    """Character-class, all-caps, date and location counts; `tokens` defaults to tokens_of(text)."""
    if tokens is None:
        tokens = tokens_of(text)
    raw_words = words_of(text)
    allcaps = sum(1 for w in raw_words if len(w) >= 2 and w.isalpha() and w.isupper())
    return {
        "punct_count": float(sum(1 for c in text if c in PUNCT_CHARS)),
        "symbol_count": float(sum(1 for c in text if c in SYMBOL_CHARS)),
        "quote_count": float(sum(1 for c in text if c in QUOTE_CHARS)),
        "allcaps_count": float(allcaps),
        "date_mentions": float(len(DATE_RE.findall(text))),
        "location_mentions": float(count_lexicon_hits(tokens, lexicons.gazetteer)),
    }


def extract_features(text: str, lexicons: Lexicons) -> FeatureVector:
    """Full schema-ordered vector; a pure function of (text, lexicons).

    The text is tokenized once; the affect, bias and style/event parts share
    the tokens.
    """
    tokens = tokens_of(text)
    return FeatureVector.from_parts(
        complexity_features(compute_stats(text)),
        affect_features(text, lexicons, tokens),
        bias_features(text, lexicons, tokens),
        style_event_features(text, lexicons, tokens),
    )


def format_value(v: Optional[float]) -> str:
    return "" if v is None else repr(v)


def parse_value(s: str) -> Optional[float]:
    return None if s == "" else float(s)
