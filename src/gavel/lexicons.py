"""Lexicon loading for the affect/bias/event feature extractors.

Lexicons are plain word-list files, one entry per line, `#` comments
allowed. Multiword entries are legal and matched as contiguous token
sequences. `sentiment_valence.txt` uses `word<TAB>value` lines with values
in [-1, 1]. The bundled defaults live in `gavel/data/lexicons/` next to a
MANIFEST of sha256 checksums; drop-in replacement with other lists (for
example the original news-analysis ones) is supported by pointing the
loader at another directory.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from . import GavelError
from .corpus import input_checksum, read_lines

DEFAULT_DIR = Path(__file__).parent / "data" / "lexicons"


class LexiconError(GavelError):
    pass


@dataclass(frozen=True)
class Lexicons:
    """The fifteen word lists in schema order (wneg .. noWords, then location_mentions), then the valences."""

    weak_negative: frozenset[str]
    weak_positive: frozenset[str]
    weak_neutral: frozenset[str]
    strong_negative: frozenset[str]
    strong_positive: frozenset[str]
    strong_neutral: frozenset[str]
    bias_words: frozenset[str]
    assertives: frozenset[str]
    factives: frozenset[str]
    hedges: frozenset[str]
    implicatives: frozenset[str]
    report_verbs: frozenset[str]
    positive_opinion: frozenset[str]
    negative_opinion: frozenset[str]
    gazetteer: frozenset[str]
    sentiment_valence: Mapping[str, float]


# the word lists, each read from `<name>.txt`
LIST_FILES = tuple(f.name for f in fields(Lexicons) if f.name != "sentiment_valence")


def _read_list(path: Path) -> frozenset[str]:
    entries = (" ".join(line.split("#", 1)[0].lower().split()) for _, line in read_lines(path))
    return frozenset(entry for entry in entries if entry)


def _read_valence(path: Path) -> dict[str, float]:
    out: dict[str, float] = {}
    for line_no, line in read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t") if "\t" in line else line.rsplit(None, 1)
        if len(parts) != 2:
            raise LexiconError(f"{path}:{line_no}: expected 'word<TAB>value'")
        word = parts[0].strip().lower()
        try:
            value = float(parts[1])
        except ValueError:
            raise LexiconError(f"{path}:{line_no}: bad valence value {parts[1]!r}")
        if value != value or value in (float("inf"), float("-inf")):
            raise LexiconError(f"{path}:{line_no}: valence must be finite")
        # the affect extractor treats valences as shares of a unit mass
        out[word] = max(-1.0, min(1.0, value))
    return out


def load_lexicons(directory: Path | str | None = None) -> Lexicons:
    d = Path(directory) if directory else DEFAULT_DIR
    lists = {name: _read_list(d / f"{name}.txt") for name in LIST_FILES}
    return Lexicons(sentiment_valence=_read_valence(d / "sentiment_valence.txt"), **lists)


def verify_manifest(directory: Path | str | None = None) -> list[str]:
    """Compare lexicon files against the MANIFEST; return mismatch descriptions."""
    d = Path(directory) if directory else DEFAULT_DIR
    manifest = d / "MANIFEST"
    if not manifest.is_file():
        return [f"no MANIFEST in {d}"]
    problems = []
    for line_no, line in read_lines(manifest):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise LexiconError(f"{manifest}:{line_no}: expected '<sha256>  <file name>'")
        digest, name = parts
        f = d / name
        if not f.is_file():
            problems.append(f"{name}: missing")
            continue
        if input_checksum(f) != digest:
            problems.append(f"{name}: checksum mismatch")
    return problems
