"""Transcript trimming, utterance segmentation and speaker resolution.

Hearing transcripts are one unstructured text file: boilerplate, then
proceedings in which each utterance opens with a speaker marker such as
"Mr. Smith." or "Chairwoman MALONEY." on a new line. Formatting varies by
committee and era (honorifics, capitalization, "of <State>" suffixes), so
markers are matched by an ordered, editable list of line-anchored regexes.

Segmentation is span-exact: each segment keeps its marker and the exact
body span up to the next marker, so every character of the trimmed body
lands in the preamble, a marker or a segment's raw span, and `reconstruct`
reassembles the body byte-for-byte. Bracketed stage directions
("[Laughter.]") are transcriber annotations, not speech: a segment's `text`
leaves them out, and each one is reported only as a warning with its line.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left, insort
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import GavelError
from .corpus import (
    HONORIFICS,
    Chamber,
    HearingMeta,
    QALabel,
    RecordError,
    Role,
    Roster,
    UNKNOWN_SPEAKER,
    Utterance,
    is_title,
    normalize_surname,
    read_json,
    read_tsv,
    write_tsv,
)

DEFAULT_START_PATTERNS = (
    r"(?im)^[ \t]*the committees? met\b",
    r"(?i)met, pursuant to",
    r"(?i)will come to order",
)

DEFAULT_END_PATTERNS = (
    r"(?im)^[ \t]*\[whereupon",
    r"(?i)\badjourned\b",
)

STAGE_DIRECTION_RE = re.compile(r"\[[^\[\]]*\]")

# Titles, lowercased, that cue which of several people sharing a surname a marker names
FEMALE_HONORIFICS = frozenset({"mrs", "ms", "miss", "chairwoman"})
MALE_HONORIFICS = frozenset({"mr", "chairman"})
ROLE_CUES = {
    "senator": lambda p: p.role is Role.MEMBER and p.chamber is Chamber.SENATE,
    **dict.fromkeys(("chairman", "chairwoman", "chairperson", "chair"), lambda p: p.role is Role.MEMBER),
    "dr": lambda p: p.role is Role.WITNESS,
}


class SegmentationFailed(GavelError):
    """No speaker marker matched anywhere in the body."""


def default_marker_patterns(honorifics: Sequence[str] = HONORIFICS) -> tuple[str, ...]:
    """Line-anchored marker regexes built over the honorific list.

    The whole match is the marker span: leading indentation, the marker
    itself, its terminating period and one space. Speaker resolution
    normalizes the whole marker; named groups only document the parts.
    """
    hon = "|".join(re.escape(h) for h in honorifics)
    # [ \t] only: a marker never spans a line break
    name = r"[A-Z][A-Za-z'\-]*(?:[ \t]+[A-Z][A-Za-z'\-]*)?"
    state = r"[A-Z][a-z]+(?:[ \t]+[A-Z][a-z]+)?"
    return (
        # "Mr. Smith." / "Chairwoman MALONEY." / "Ms. Jones of Ohio."
        rf"^[ \t]*(?P<honorific>{hon})\.?[ \t]+(?P<name>{name})(?:[ \t]+of[ \t]+{state})?\.[ \t]?",
        # "The CHAIRMAN." / "The Chairwoman."
        r"^[ \t]*(?P<name>The[ \t]+(?:Acting[ \t]+)?C(?:hairman|hairwoman|HAIRMAN|HAIRWOMAN|lerk|LERK))\.[ \t]?",
    )


@dataclass(frozen=True)
class SegmenterRules:
    start_patterns: tuple[str, ...] = DEFAULT_START_PATTERNS
    end_patterns: tuple[str, ...] = DEFAULT_END_PATTERNS
    marker_patterns: tuple[str, ...] = ()
    honorifics: tuple[str, ...] = HONORIFICS
    # each pattern list above, compiled once under its field name
    compiled: dict[str, list[re.Pattern]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.marker_patterns:
            if not self.honorifics or not all(h.strip() for h in self.honorifics):  # "" would admit any "Word."
                raise ValueError(f"honorifics must be titles to build the default markers, got {list(self.honorifics)}")
            object.__setattr__(self, "marker_patterns", default_marker_patterns(self.honorifics))
        object.__setattr__(self, "compiled", {})
        for key in ("start_patterns", "end_patterns", "marker_patterns"):
            patterns = getattr(self, key)
            if not patterns:
                raise ValueError(f"{key} must be non-empty")
            self.compiled[key] = []
            for p in patterns:
                try:
                    self.compiled[key].append(re.compile(p, re.MULTILINE))
                except re.error as exc:
                    raise ValueError(f"{key} pattern does not compile: {p!r} ({exc})")

    @classmethod
    def from_file(cls, path: Path | str) -> "SegmenterRules":
        """Rules from a JSON object of pattern lists; keys left out keep their defaults."""
        return read_json(path, dict, cls._from_record)

    @classmethod
    def _from_record(cls, rec: dict) -> "SegmenterRules":
        keys = [f.name for f in fields(cls) if f.init]
        unknown = sorted(set(rec) - set(keys))
        if unknown:
            raise RecordError(f"unknown rules key(s): {', '.join(unknown)}; valid: {', '.join(keys)}")
        for key, value in rec.items():
            if not isinstance(value, list):
                raise RecordError(f"expected a list, got {type(value).__name__}", field_name=key)
        return cls(**{key: tuple(value) for key, value in rec.items()})


@dataclass(frozen=True)
class TrimResult:
    body: str
    trimmed_head_chars: int
    trimmed_tail_chars: int
    warnings: tuple[tuple[int, str], ...]


def _line_start(text: str, pos: int) -> int:
    return text.rfind("\n", 0, pos) + 1


def _line_end(text: str, pos: int) -> int:
    nl = text.find("\n", pos)
    return len(text) if nl == -1 else nl + 1


def _line_numbers(text: str) -> Callable[[int], int]:
    """pos -> 1-based line number in `text`: one table of newlines, then a bisect per position."""
    newlines = [m.start() for m in re.finditer("\n", text)]
    return lambda pos: bisect_left(newlines, pos) + 1


def trim_proceedings(raw: str, rules: SegmenterRules) -> TrimResult:
    """Cut boilerplate before the first start anchor and after the last end anchor.

    Trimming is line-aligned: the body begins at the start of the line with
    the first start-pattern match and ends after the line with the last
    end-pattern match. Missing anchors warn, never fail.
    """
    if not raw:
        raise ValueError("empty transcript")
    warnings: list[tuple[int, str]] = []
    starts = []
    for pattern in rules.compiled["start_patterns"]:
        m = pattern.search(raw)
        if m:
            starts.append(m.start())
    if starts:
        begin = _line_start(raw, min(starts))
    else:
        begin = 0
        warnings.append((1, "no start anchor matched; keeping the head"))
    ends = []
    for pattern in rules.compiled["end_patterns"]:
        for m in pattern.finditer(raw, begin):
            ends.append(m.start())
    if ends:
        end = _line_end(raw, max(ends))
    else:
        end = len(raw)
        warnings.append((_line_numbers(raw)(len(raw) - 1), "no end anchor matched; keeping the tail"))
    return TrimResult(
        body=raw[begin:end],
        trimmed_head_chars=begin,
        trimmed_tail_chars=len(raw) - end,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class Segment:
    marker_raw: str  # exact characters consumed by the marker match
    start: int  # offset of the marker in the body
    text_raw: str  # the exact body span from the marker's end to the next marker

    @property
    def text(self) -> str:
        """The utterance text: the raw span without its stage directions."""
        return STAGE_DIRECTION_RE.sub("", self.text_raw)


@dataclass(frozen=True)
class SegmentationResult:
    preamble: str  # body text before the first marker
    segments: tuple[Segment, ...]
    warnings: tuple[tuple[int, str], ...]


def _overlaps_taken(taken: list[tuple[int, int]], s: int, e: int) -> bool:
    """Whether [s, e) overlaps a span of `taken`, by the test `a < e and s < b`.

    `taken` is sorted and its spans pass that test against each other, so the
    only span starting before s that can reach past s is the last one, and
    every span starting in (s, e) overlaps. Spans starting at s overlap unless
    empty; the empty ones sort first, and there is one per pattern at most.
    """
    i = bisect_left(taken, (s,))
    if i and s < taken[i - 1][1]:
        return True
    while i < len(taken) and taken[i][0] < e:
        if s < taken[i][1]:
            return True
        i += 1
    return False


def segment_utterances(body: str, rules: SegmenterRules) -> SegmentationResult:
    """Split the body at speaker markers; zero markers is a hard failure.

    Each segment is a marker and the raw span up to the next one. Stage
    directions stay in that span; each is reported as a warning at its line.
    """
    taken: list[tuple[int, int]] = []  # marker spans kept so far, sorted
    for pattern in rules.compiled["marker_patterns"]:
        for m in pattern.finditer(body):
            span = m.span()
            if _overlaps_taken(taken, *span):
                continue  # an earlier (higher-priority) pattern owns this span
            insort(taken, span)
    if not taken:
        raise SegmentationFailed("no speaker marker matched; the hearing needs manual rules")
    line_no = _line_numbers(body)
    warnings: list[tuple[int, str]] = []
    segments: list[Segment] = []
    preamble = body[: taken[0][0]]
    if preamble.strip():
        warnings.append((1, f"{len(preamble)} chars of pre-marker content kept as preamble"))
    for i, (start, end) in enumerate(taken):
        next_start = taken[i + 1][0] if i + 1 < len(taken) else len(body)
        for m in STAGE_DIRECTION_RE.finditer(body, end, next_start):
            warnings.append((line_no(m.start()), f"stripped stage direction {m.group()!r}"))
        segments.append(Segment(marker_raw=body[start:end], start=start, text_raw=body[end:next_start]))
    return SegmentationResult(preamble=preamble, segments=tuple(segments), warnings=tuple(warnings))


def reconstruct(result: SegmentationResult) -> str:
    """Reassemble the exact body from a segmentation (losslessness check)."""
    parts = [result.preamble]
    for seg in result.segments:
        parts.append(seg.marker_raw)
        parts.append(seg.text_raw)
    return "".join(parts)


def resolve_speaker(
    raw_marker: str,
    roster: Roster,
    prefer_role: Optional[Role] = None,
    honorifics: tuple[str, ...] = HONORIFICS,
) -> tuple[str, Optional[str]]:
    """Look up a marker in the roster; returns (person_id or Unknown, warning).

    The marker's leading `honorifics` are stripped before the lookup.
    Ambiguous surnames try the honorific as a cue: gendered titles match the
    surname-sharing person whose honorific history fits, "Senator" filters
    to Senate members, a chair title to members, "Dr" to witnesses. A
    remaining tie resolves to `prefer_role` if exactly one candidate has it,
    else Unknown.
    """
    # "Smith of Ohio" carries a state suffix, not part of the surname
    marker_norm = normalize_surname(raw_marker, honorifics).partition(" of ")[0]
    # officer markers like "The Chairman": the article hides the honorific
    if marker_norm.startswith("the "):
        marker_norm = normalize_surname(marker_norm[4:], honorifics)
    # try full normalized form first, then the last token (bare surname)
    honorific = _first_word(raw_marker)
    for key in dict.fromkeys([marker_norm, marker_norm.split()[-1]] if marker_norm else ()):
        if key in roster.name_index:
            return roster.name_index[key], None
        if key in roster.ambiguous:
            ids = roster.ambiguous[key]
            resolved = _disambiguate(ids, roster, honorific, prefer_role)
            if resolved:
                return resolved, None
            return UNKNOWN_SPEAKER, f"surname {key!r} is ambiguous among {list(ids)}"
    # a title no name follows ("Mr.", "The Chairman.") names no one
    if not marker_norm or is_title(marker_norm, honorifics):
        return UNKNOWN_SPEAKER, f"marker {raw_marker.strip()!r} carries no resolvable name"
    return UNKNOWN_SPEAKER, f"surname {marker_norm!r} not on the roster"


def _first_word(text: str) -> str:
    """The first word of `text`, lowercased, without a trailing period: a marker's or a name's title."""
    words = text.split()
    return words[0].rstrip(".").lower() if words else ""


def _disambiguate(
    ids: Sequence[str], roster: Roster, honorific: str, prefer_role: Optional[Role]
) -> Optional[str]:
    """The person of `ids` picked by the first cue that picks exactly one, else None."""
    people = [roster.person(pid) for pid in ids]
    cues = [ROLE_CUES.get(honorific)]
    if honorific in FEMALE_HONORIFICS or honorific in MALE_HONORIFICS:
        # honorific/gender cue: match against how the roster lists the person
        same = FEMALE_HONORIFICS if honorific in FEMALE_HONORIFICS else MALE_HONORIFICS
        cues.append(lambda p: _first_word(p.display_name) in same)
    if prefer_role is not None:
        cues.append(lambda p: p.role is prefer_role)
    for cue in filter(None, cues):
        hits = [p for p in people if cue(p)]
        if len(hits) == 1:
            return hits[0].person_id
    return None


@dataclass(frozen=True)
class SegmentationReport:
    n_utterances: int
    n_unresolved_speakers: int
    trimmed_head_chars: int
    trimmed_tail_chars: int
    warnings: tuple[tuple[int, str], ...]

    def __post_init__(self):
        if min(self.n_utterances, self.n_unresolved_speakers, self.trimmed_head_chars, self.trimmed_tail_chars) < 0:
            raise ValueError("report counts must be non-negative")
        if self.n_unresolved_speakers > self.n_utterances:
            raise ValueError("cannot have more unresolved speakers than utterances")


def segment_hearing(
    raw: str,
    rules: SegmenterRules,
    roster: Roster,
    meta: HearingMeta,
) -> tuple[list[Utterance], SegmentationReport]:
    """Full Task-1 pipeline for one hearing: trim, segment, resolve."""
    trim = trim_proceedings(raw, rules)
    result = segment_utterances(trim.body, rules)
    warnings = list(trim.warnings)
    # segmentation warnings are body-relative; shift to raw-transcript lines
    head_lines = raw.count("\n", 0, trim.trimmed_head_chars)
    warnings.extend((line + head_lines, msg) for line, msg in result.warnings)
    utterances: list[Utterance] = []
    unresolved = 0
    prev_person_role: Optional[Role] = None
    line_no = _line_numbers(trim.body)
    for i, seg in enumerate(result.segments):
        prefer = Role.MEMBER if prev_person_role is Role.WITNESS else None
        person_id, warning = resolve_speaker(seg.marker_raw, roster, prefer, rules.honorifics)
        if warning:
            warnings.append((line_no(seg.start) + head_lines, warning))
        if person_id == UNKNOWN_SPEAKER:
            unresolved += 1
            prev_person_role = None
        else:
            prev_person_role = roster.person(person_id).role
        utterances.append(
            Utterance(
                utterance_id=f"{meta.hearing_id}-u{i:05d}",
                hearing_id=meta.hearing_id,
                sequence_no=i,
                speaker=person_id,
                raw_marker=seg.marker_raw,
                text=seg.text,
                qa_label=QALabel.UNLABELED,
            )
        )
    report = SegmentationReport(
        n_utterances=len(utterances),
        n_unresolved_speakers=unresolved,
        trimmed_head_chars=trim.trimmed_head_chars,
        trimmed_tail_chars=trim.trimmed_tail_chars,
        warnings=tuple(warnings),
    )
    return utterances, report


@dataclass(frozen=True)
class SampleManifest:
    rows: tuple[tuple[str, str, int], ...]  # (utterance_id, hearing_id, session)
    warnings: tuple[str, ...]

    def write(self, path: Path | str) -> None:
        header = ["utterance_id", "hearing_id", "session", "verdict"]
        write_tsv(path, header, ((*row, "") for row in self.rows))


def verify_sample(
    corpus: Sequence[tuple[HearingMeta, Sequence[Utterance]]],
    hearings_per_session: int,
    utterances_per_hearing: int,
    seed: int,
) -> SampleManifest:
    """Draw the human-verification sample: per session, a uniform draw of
    hearings, and per hearing a uniform contiguous run of utterances.

    Verdict slots are filled in by annotators with one of: correct, clubbed
    (several true utterances merged), broken (one true utterance split).
    """
    rng = random.Random(seed)
    by_session: dict[int, list[tuple[HearingMeta, Sequence[Utterance]]]] = {}
    for meta, utts in corpus:
        by_session.setdefault(meta.session, []).append((meta, utts))
    rows: list[tuple[str, str, int]] = []
    warnings: list[str] = []
    for session in sorted(by_session):
        hearings = sorted(by_session[session], key=lambda x: x[0].hearing_id)
        if len(hearings) < hearings_per_session:
            warnings.append(
                f"session {session}: only {len(hearings)} hearings available, sampling all"
            )
            chosen = hearings
        else:
            chosen = [hearings[i] for i in sorted(rng.sample(range(len(hearings)), hearings_per_session))]
        for meta, utts in chosen:
            n = len(utts)
            if n == 0:
                warnings.append(f"hearing {meta.hearing_id}: no utterances to sample")
                continue
            if n <= utterances_per_hearing:
                if n < utterances_per_hearing:
                    warnings.append(
                        f"hearing {meta.hearing_id}: only {n} utterances available, sampling all"
                    )
                window = utts
            else:
                start = rng.randrange(n - utterances_per_hearing + 1)
                window = utts[start : start + utterances_per_hearing]
            rows.extend((u.utterance_id, meta.hearing_id, session) for u in window)
    return SampleManifest(rows=tuple(rows), warnings=tuple(warnings))


VERDICTS = ("correct", "clubbed", "broken")


@dataclass(frozen=True)
class VerdictSummary:
    n_total: int
    n_correct: int
    n_clubbed: int
    n_broken: int

    @property
    def n_incorrect(self) -> int:
        return self.n_clubbed + self.n_broken

    @property
    def correctness_rate(self) -> float:
        if self.n_total == 0:
            raise ValueError("no verdicts")
        return self.n_correct / self.n_total


def score_verdicts(verdicts: Sequence[str]) -> VerdictSummary:
    counts = {v: 0 for v in VERDICTS}
    for v in verdicts:
        key = v.strip().lower()
        if key not in counts:
            raise ValueError(f"unknown verdict {v!r}; expected one of {VERDICTS}")
        counts[key] += 1
    return VerdictSummary(
        n_total=len(verdicts),
        n_correct=counts["correct"],
        n_clubbed=counts["clubbed"],
        n_broken=counts["broken"],
    )


def read_verdict_file(path: Path | str) -> list[tuple[str, str]]:
    """Rows of (utterance_id, verdict); tab-separated, header allowed."""
    out = []
    for line_no, cols in read_tsv(path):
        if line_no == 1 and cols[0] == "utterance_id":
            continue
        if len(cols) < 2:
            raise RecordError("expected (utterance_id, verdict)", path=str(path), line_no=line_no)
        if cols[-1].strip().lower() not in VERDICTS:  # blank in a manifest row not yet annotated
            raise RecordError(f"unknown verdict {cols[-1]!r}; expected one of {VERDICTS}", path=str(path),
                              line_no=line_no, field_name="verdict")
        out.append((cols[0], cols[-1]))
    return out
