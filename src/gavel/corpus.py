"""Domain types and the on-disk corpus store.

A corpus lives under a root directory with one subdirectory per hearing:

    <root>/<hearing_id>/meta.json        hearing metadata, single JSON object
    <root>/<hearing_id>/utterances.jsonl one utterance record per line
    <root>/<hearing_id>/roster.json      people present at the hearing (optional)

All types are immutable after construction and safe to share across threads.

Every file gavel writes, the store and the fetch cache included, goes through
`write_lines` (text, and `write_tsv` on it) or `write_raw` (bytes) to `_write`,
which replaces the file whole (docs/formats.md, "Writing files"). `store_corpus`
leaves alone any hearing directory it is not given. `write_tsv` takes rows of
values, not text, and turns each value into a cell by one rule (docs/formats.md,
"Tables"), so no other module formats a cell.

A stored JSON record is `to_record` of its dataclass and is read back by
`from_record`, one rule for every type (docs/formats.md, "JSON records").

Every input file is read through `read_text`, `read_json`, `read_records`
(JSONL), `read_tsv` or `read_lines`, and nothing else in gavel opens one. A
file that does not decode, or holds a value of the wrong shape, raises
`RecordError` with its path, and with the line number for the line-based
formats. Each reader hashes the bytes it reads: within `recording_reads` (one
run) the digest of each file read to its end is kept, `write_lines` drops
that of a file it writes, and `input_checksum` answers from what is kept.

`hearing_dirs` alone decides what is a hearing directory, `hearing_examples`
which utterances and pairs are examples, and `render_prompt` turns an
example into the zero-shot prompt that `gavel prompts` writes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache, partial
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO, TypeVar
from typing import get_args, get_origin, get_type_hints

from . import GavelError


class Chamber(str, Enum):
    HOUSE = "House"
    SENATE = "Senate"
    JOINT = "Joint"


class HearingType(str, Enum):
    GENERAL = "General"
    FIELD = "Field"
    OVERSIGHT = "Oversight"
    AUTHORIZATION = "Authorization"
    NOMINATION = "Nomination"
    TREATY = "Treaty"
    MARKUP = "Markup"


class Role(str, Enum):
    MEMBER = "Member"
    WITNESS = "Witness"
    UNKNOWN = "Unknown"


class Party(str, Enum):
    DEMOCRAT = "Democrat"
    REPUBLICAN = "Republican"
    INDEPENDENT = "Independent"
    NONE = "None"


class Standing(str, Enum):
    MAJORITY = "Majority"
    MINORITY = "Minority"
    NOT_APPLICABLE = "NotApplicable"


class QALabel(str, Enum):
    QUESTION = "Question"
    ANSWER = "Answer"
    OTHER = "Other"
    UNLABELED = "Unlabeled"


class Task(str, Enum):
    """What a party model predicts of a questioner: party or majority/minority standing."""

    AFFILIATION = "Affiliation"
    STANDING = "Standing"


UNKNOWN_SPEAKER = "Unknown"

# Speaker titles. A marker opens with one of these before the name (see
# segmenter.SegmenterRules), and `normalize_surname` strips them from it.
HONORIFICS = (
    "Mr", "Mrs", "Ms", "Miss", "Dr", "Senator", "Chairman", "Chairwoman", "Chairperson", "Chair", "Secretary",
    "General", "Admiral", "Governor", "Judge", "The Honorable",
)

HEARING_ID_RE = re.compile(r"^[A-Za-z0-9._\-]+$")

T = TypeVar("T")


class CorpusError(GavelError):
    """Base class for corpus-store failures."""


class InvariantError(CorpusError):
    """A domain-type invariant does not hold."""


class RecordError(CorpusError):
    """A stored record could not be parsed.

    Carries enough context to locate the offending record by hand.
    """

    def __init__(self, message: str, *, path: str = "", line_no: int = 0, field_name: str = ""):
        self.message = message
        self.path = path
        self.line_no = line_no
        self.field_name = field_name
        where = path
        if line_no:
            where += f":{line_no}"
        if field_name:
            where += f" field '{field_name}'"
        super().__init__(f"{message} ({where})" if where else message)


def _squash(name: str) -> str:
    """`name` lowercased, with periods and commas as spaces and single spaces between words."""
    return " ".join(name.lower().replace(".", " ").replace(",", " ").split())


@cache
def _title_run(honorifics: tuple[str, ...]) -> re.Pattern:
    """One or more of `honorifics` at the start of a squashed name, each followed by a space."""
    return re.compile("(?:(?:%s) )+" % "|".join(re.escape(_squash(h)) for h in honorifics))


def is_title(name: str, honorifics: tuple[str, ...]) -> bool:
    """Whether `name` holds titles of `honorifics` and nothing else, up to case and punctuation."""
    return _title_run(honorifics).fullmatch(_squash(name) + " ") is not None


def normalize_surname(name: str, honorifics: tuple[str, ...] = HONORIFICS) -> str:
    """Lowercase a speaker name and strip punctuation and the leading titles of `honorifics`.

    Titles match as whole words, and one is stripped only while a name still
    follows it: "Mr. Judge" gives "judge", and so does "Judge". Idempotent:
    normalizing a normalized name is a no-op.
    """
    s = _squash(name)
    titles = _title_run(honorifics).match(s)  # never all of s: it holds no trailing space
    return s[titles.end() :] if titles else s


@dataclass(frozen=True)
class HearingMeta:
    hearing_id: str
    session: int
    chamber: Chamber
    committee: str
    hearing_type: HearingType = HearingType.GENERAL
    date: Optional[str] = None  # ISO-8601 date

    def __post_init__(self):
        if not self.hearing_id or not HEARING_ID_RE.match(self.hearing_id):
            raise InvariantError(f"hearing_id must be a non-empty identifier, got {self.hearing_id!r}")


@dataclass(frozen=True)
class Person:
    person_id: str
    display_name: str
    surname: str
    role: Role
    party: Party = Party.NONE
    chamber: Optional[Chamber] = None
    standing: Standing = Standing.NOT_APPLICABLE

    def __post_init__(self):
        if self.role is Role.WITNESS:
            if self.party is not Party.NONE or self.standing is not Standing.NOT_APPLICABLE:
                raise InvariantError(f"witness {self.person_id} must have party=None and standing=NotApplicable")
        if self.role is Role.MEMBER and self.party not in (
            Party.DEMOCRAT,
            Party.REPUBLICAN,
            Party.INDEPENDENT,
        ):
            raise InvariantError(f"member {self.person_id} must have a party affiliation")


@dataclass(frozen=True)
class Roster:
    """People present at one hearing, indexed by person_id and by normalized surname.

    Each person_id names one person: `people_by_id` maps it to that person, and
    a repeated id raises InvariantError. `name_index` maps each surname that
    identifies exactly one person to that person_id; surnames shared by several
    people go to `ambiguous` and need a context cue to resolve (see
    segmenter.resolve_speaker).
    """

    hearing_id: str = ""
    people: tuple[Person, ...] = ()
    people_by_id: Mapping[str, Person] = field(init=False, repr=False)
    name_index: Mapping[str, str] = field(init=False)
    ambiguous: Mapping[str, tuple[str, ...]] = field(init=False)

    def __post_init__(self):
        by_id: dict[str, Person] = {}
        by_surname: dict[str, list[str]] = {}
        for p in self.people:
            if p.person_id in by_id:
                raise InvariantError(f"person_id {p.person_id!r} is listed twice")
            by_id[p.person_id] = p
            key = normalize_surname(p.surname)
            if key:
                by_surname.setdefault(key, []).append(p.person_id)
        unique = {k: v[0] for k, v in by_surname.items() if len(v) == 1}
        dupes = {k: tuple(v) for k, v in by_surname.items() if len(v) > 1}
        object.__setattr__(self, "people_by_id", by_id)
        object.__setattr__(self, "name_index", unique)
        object.__setattr__(self, "ambiguous", dupes)

    def person(self, person_id: str) -> Person:
        return self.people_by_id[person_id]


@dataclass(frozen=True)
class Utterance:
    utterance_id: str
    hearing_id: str
    sequence_no: int
    speaker: str  # person_id or "Unknown"
    raw_marker: str
    text: str
    qa_label: QALabel = QALabel.UNLABELED

    def __post_init__(self):
        if self.sequence_no < 0:
            raise InvariantError(f"utterance {self.utterance_id}: sequence_no must be >= 0")


@dataclass(frozen=True)
class QAPair:
    pair_id: str
    question_utterance_id: str
    answer_utterance_id: str
    questioner: str
    answerer: str


@dataclass(frozen=True)
class GovernmentContext:
    """Who controlled the presidency and each chamber during one session."""

    session: int
    president_party: Party
    house_majority: Party
    senate_majority: Party
    unified: bool = None  # type: ignore[assignment]  # derived when omitted

    def __post_init__(self):
        derived = self.president_party == self.house_majority == self.senate_majority
        if self.unified is None:
            object.__setattr__(self, "unified", derived)
        elif self.unified != derived:
            raise InvariantError(
                f"session {self.session}: unified={self.unified} contradicts party control "
                f"(president={self.president_party.value}, house={self.house_majority.value}, "
                f"senate={self.senate_majority.value})"
            )

    def majority_of(self, chamber: Chamber) -> Party:
        if chamber is Chamber.HOUSE:
            return self.house_majority
        if chamber is Chamber.SENATE:
            return self.senate_majority
        raise ValueError("Joint hearings have no single majority party; resolve the member's own chamber")


_PLAIN_TYPES = (str, int, float, bool)


def _plain(value: Any) -> Any:
    """`value` as JSON data: an enum by its value, a tuple as a list, a dataclass as its record."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [v if type(v) in _PLAIN_TYPES else _plain(v) for v in value]
    if is_dataclass(value):
        return to_record(value)
    return value


def _enum_member(name: str, kind: type[Enum], value: Any) -> Enum:
    try:
        return kind(value)
    except ValueError:
        raise RecordError(f"unknown {name} {value!r}", field_name=name) from None


def _decoder(name: str, hint: Any) -> Optional[Callable[[Any], Any]]:
    """How a stored value becomes field `name`: an enum from its value, an int, or a tuple of records."""
    if type(None) in get_args(hint):  # Optional[X] decodes as X; null takes the default
        (hint,) = set(get_args(hint)) - {type(None)}
    if hint is int:
        return int
    if isinstance(hint, type) and issubclass(hint, Enum):
        return partial(_enum_member, name, hint)
    if get_origin(hint) is tuple and is_dataclass(item := get_args(hint)[0]):
        return lambda records: tuple(from_record(item, rec) for rec in records)
    return None


@cache
def _field_plan(cls: type) -> tuple[tuple[str, bool, bool, Optional[Callable[[Any], Any]]], ...]:
    """(name, required, needs `_plain` to write, decoder to read) for each constructor field of `cls`."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, f.default is MISSING and f.default_factory is MISSING, hints[f.name] not in _PLAIN_TYPES,
         _decoder(f.name, hints[f.name]))
        for f in fields(cls)
        if f.init
    )


def to_record(obj: Any) -> dict:
    """The stored record of a dataclass: each constructor field by name, in declaration order."""
    plan = _field_plan(type(obj))
    return {name: _plain(getattr(obj, name)) if plain else getattr(obj, name) for name, _, plain, _ in plan}


def from_record(cls: type[T], rec: Mapping) -> T:
    """Build `cls` from a stored record, reading each constructor field by name.

    A missing required field raises KeyError; a missing or null field with a
    default takes the default; an unknown enum value raises RecordError naming
    the field. Keys that are not fields are ignored.
    """
    kwargs = {}
    for name, required, _, decode in _field_plan(cls):
        if required:
            value = rec[name]
        else:
            value = rec.get(name)
            if value is None:
                continue
        kwargs[name] = value if decode is None else decode(value)
    return cls(**kwargs)


def load_government_config(path: Path | str) -> dict[int, GovernmentContext]:
    """Load the per-session government-control config (a JSON array)."""
    return read_json(
        path, list, lambda records: {ctx.session: ctx for ctx in (from_record(GovernmentContext, r) for r in records)}
    )


def derive_standing(
    person: Person,
    meta: HearingMeta,
    ctx: GovernmentContext,
) -> Standing:
    """Majority/minority standing of a member at a given hearing.

    A member is Majority when their party holds the chamber's majority, so
    Independents always count as Minority. Joint hearings fall back to the
    member's own chamber; without one the standing is undecidable.
    """
    if person.role is not Role.MEMBER:
        raise InvariantError(f"standing is defined for members only, got role={person.role.value}")
    if ctx.session != meta.session:
        raise InvariantError(f"context session {ctx.session} does not match hearing session {meta.session}")
    chamber = meta.chamber
    if chamber is Chamber.JOINT:
        if person.chamber is None or person.chamber is Chamber.JOINT:
            raise InvariantError(f"cannot derive standing for {person.person_id} in a Joint hearing without a chamber")
        chamber = person.chamber
    return Standing.MAJORITY if person.party == ctx.majority_of(chamber) else Standing.MINORITY


def _write(path: Path | str, chunks: Iterable[bytes]) -> None:
    """Replace `path` whole by `chunks`, creating the parent directory (docs/formats.md, "Writing files")."""
    path = Path(path)
    if _digests:
        _digests.pop(path, None)  # what this run read there is gone
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")  # beside it, so that the rename stays in one file system
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:  # gone after the replace; after any failure, an interrupt too, `path` keeps its previous bytes
        tmp.unlink(missing_ok=True)


def write_lines(path: Path | str, lines: Iterable[str]) -> None:
    """Write each line followed by a newline as UTF-8."""
    _write(path, ((line + "\n").encode() for line in lines))


def write_raw(path: Path | str, data: bytes) -> None:
    """Write `data` as the whole file, byte for byte."""
    _write(path, [data])


def _cell(value: Any) -> str:
    """The one rule for a table cell (docs/formats.md, "Tables").

    Text as is; an int or float by `repr`, so a float keeps every bit; None as
    empty; a bool as true/false; an enum by its value. Numbers and text, most
    of the example table, are tested first.
    """
    kind = type(value)
    if kind is float or kind is int:
        return repr(value)
    if kind is str:
        return value
    if value is None:
        return ""
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, Enum):
        return _cell(value.value)
    raise TypeError(f"no table cell for a {kind.__name__}: {value!r}")


def write_tsv(path: Path | str, header: Sequence[str], rows: Iterable[Iterable[Any]]) -> None:
    """Tab-separated table: the header line, then one line per row of values, each made a cell by `_cell`."""
    write_lines(path, chain(["\t".join(header)], ("\t".join(map(_cell, row)) for row in rows)))


_JSON_TYPE_NAMES = {dict: "object", list: "array"}


def _decoded(decode: Callable[[Any], T], value: Any, path: Path | str, line_no: int = 0) -> T:
    """`decode(value)`, with a value of the wrong shape reported against its file and line."""
    try:
        return decode(value)
    except RecordError as exc:
        if exc.path:
            raise
        raise RecordError(exc.message, path=str(path), line_no=line_no, field_name=exc.field_name) from None
    except KeyError as exc:
        raise RecordError("missing field", path=str(path), line_no=line_no, field_name=str(exc.args[0])) from None
    except (TypeError, AttributeError, ValueError, InvariantError) as exc:
        raise RecordError(f"malformed record: {exc}", path=str(path), line_no=line_no) from None


# sha256 of each file read to its end in this run, by the path it was opened under; None between runs
_digests: Optional[dict[Path, str]] = None


class _HashingFile(io.FileIO):
    """A file open for reading, unbuffered and in binary, that hashes every byte read from it."""

    def __init__(self, path: Path | str):
        super().__init__(os.fspath(path))  # an OSError names the path as `open` does
        self.sha256 = hashlib.sha256()

    def read(self, size: int = -1) -> bytes:
        data = super().read(size)
        self.sha256.update(data)
        return data


@contextmanager
def _opened(path: Path | str) -> Iterator[TextIO]:
    """`path` as `open(path, encoding="utf-8")` reads it; its digest is kept once the caller has read it all."""
    raw = _HashingFile(path)
    try:
        with io.TextIOWrapper(raw, encoding="utf-8") as fh:  # it reads in chunks; a buffer between would copy them
            yield fh
    except UnicodeDecodeError as exc:
        raise RecordError(f"not UTF-8 text: {exc}", path=str(path)) from None
    if _digests is not None:
        _digests[Path(path)] = raw.sha256.hexdigest()


@contextmanager
def recording_reads() -> Iterator[None]:
    """One run: the sha256 of each file read to its end is recorded until it ends."""
    global _digests
    _digests = {}
    try:
        yield
    finally:
        _digests = None


def input_checksum(path: Path | str) -> str:
    """sha256 of an input as this run read it (docs/formats.md, "Run manifests").

    A file gives the digest of its bytes, read for it only if the run has not
    read them. A directory gives the sha256 over each file the run read under
    it, in sorted path order, of its path relative to the directory and then
    its digest.
    """
    path = Path(path)
    digests = {} if _digests is None else _digests
    if path not in digests and not path.is_dir():
        with _HashingFile(path) as fh:
            fh.read()
        digests[path] = fh.sha256.hexdigest()
    if path in digests:
        return digests[path]
    h = hashlib.sha256()
    for f in sorted(f for f in digests if f.is_relative_to(path)):
        h.update(str(f.relative_to(path)).encode())
        h.update(digests[f].encode())
    return h.hexdigest()


def read_text(path: Path | str) -> str:
    """The whole of a UTF-8 text file, with newlines translated as `open` does."""
    with _opened(path) as fh:
        return fh.read()


def read_json(path: Path | str, kind: type, decode: Callable[[Any], T]) -> T:
    """Decode a whole-file JSON value of type `kind` (dict or list)."""
    try:
        value = json.loads(read_text(path))
    except ValueError as exc:  # a file not UTF-8 raises RecordError
        raise RecordError(f"invalid JSON: {exc}", path=str(path)) from None
    if not isinstance(value, kind):
        raise RecordError(f"expected a JSON {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}", path=str(path))
    return _decoded(decode, value, path)


def read_lines(path: Path | str) -> Iterator[tuple[int, str]]:
    """(line_no, line) for each non-empty line of a UTF-8 text file, newline removed."""
    with _opened(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line:
                yield line_no, line


def read_tsv(path: Path | str) -> Iterator[tuple[int, list[str]]]:
    """(line_no, cells) for each non-empty line of a tab-separated file."""
    for line_no, line in read_lines(path):
        yield line_no, line.split("\t")


def read_records(path: Path | str, decode: Callable[[dict], T]) -> Iterator[T]:
    """`decode(record)` for each JSON object of a JSONL file; blank lines are skipped."""
    for line_no, line in read_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise RecordError(f"malformed record: {exc}", path=str(path), line_no=line_no) from None
        if not isinstance(rec, dict):
            raise RecordError(f"expected a JSON object, got {type(rec).__name__}", path=str(path), line_no=line_no)
        yield _decoded(decode, rec, path, line_no)


def _check_sequence(hearing_id: str, utterances: Sequence[Utterance]) -> None:
    for i, utt in enumerate(utterances):
        if utt.hearing_id != hearing_id:
            raise InvariantError(f"utterance {utt.utterance_id} belongs to {utt.hearing_id}, not {hearing_id}")
        if utt.sequence_no != i:
            raise InvariantError(
                f"utterance {utt.utterance_id}: sequence_no {utt.sequence_no} breaks the 0..n-1 order at position {i}"
            )


def store_corpus(
    transcripts: Iterable[tuple[HearingMeta, Sequence[Utterance]]],
    path: Path | str,
    rosters: Mapping[str, Roster] | None = None,
) -> None:
    """Write hearings to the store layout, validating invariants first."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    seen: set[str] = set()
    for meta, utterances in transcripts:
        if meta.hearing_id in seen:
            raise InvariantError(f"duplicate hearing_id {meta.hearing_id}")
        seen.add(meta.hearing_id)
        _check_sequence(meta.hearing_id, utterances)
        hdir = root / meta.hearing_id
        write_lines(hdir / "meta.json", [json.dumps(to_record(meta), indent=1)])
        write_utterances(hdir / "utterances.jsonl", utterances)
        if rosters and meta.hearing_id in rosters:
            roster = rosters[meta.hearing_id]
            write_lines(hdir / "roster.json", [json.dumps(to_record(roster), ensure_ascii=False, indent=1)])


def write_utterances(path: Path | str, utterances: Iterable[Utterance]) -> None:
    """One hearing's utterances as JSONL, one record per line."""
    write_lines(path, (json.dumps(to_record(u), ensure_ascii=False) for u in utterances))


def _subdirs(root: Path) -> list[Path]:
    """The subdirectories of `root`, in name order."""
    if not root.is_dir():
        raise CorpusError(f"{root} is not a directory")
    return sorted(p for p in root.iterdir() if p.is_dir())


def hearing_dirs(root: Path | str, holding: str) -> Iterator[tuple[Path, HearingMeta]]:
    """(directory, meta) for each subdirectory of `root` holding the file `holding`, in name order
    (docs/formats.md, "Hearing directories"); a `meta.json` not naming its directory raises RecordError."""
    for hdir in _subdirs(Path(root)):
        if not (hdir / holding).is_file():
            continue
        meta_path = hdir / "meta.json"
        meta = read_json(meta_path, dict, partial(from_record, HearingMeta))
        if meta.hearing_id != hdir.name:
            raise RecordError(f"hearing {meta.hearing_id!r} stored under {hdir.name!r}", path=str(meta_path),
                              field_name="hearing_id")
        yield hdir, meta


def load_corpus(path: Path | str) -> list[tuple[HearingMeta, list[Utterance]]]:
    """Read back every hearing under `path`, ordered by hearing_id then sequence_no."""
    out: list[tuple[HearingMeta, list[Utterance]]] = []
    for hdir, meta in hearing_dirs(path, "meta.json"):
        utterances_path = hdir / "utterances.jsonl"
        utterances = sorted(read_records(utterances_path, partial(from_record, Utterance)), key=lambda u: u.sequence_no)
        try:
            _check_sequence(meta.hearing_id, utterances)
        except InvariantError as exc:
            raise RecordError(str(exc), path=str(utterances_path)) from None
        out.append((meta, utterances))
    return out


def load_roster(path: Path | str, hearing_id: str) -> Roster:
    """The roster at `path`, which must name `hearing_id` or no hearing."""
    roster = read_json(path, dict, partial(from_record, Roster))
    if roster.hearing_id and roster.hearing_id != hearing_id:
        raise RecordError(f"roster of hearing {roster.hearing_id!r} filed under {hearing_id!r}",
                          path=str(path), field_name="hearing_id")
    return roster


def load_rosters(corpus_root: Path | str) -> dict[str, Roster]:
    """Each stored roster by the hearing directory it sits in; one naming another hearing is an error."""
    return {hdir.name: load_roster(hdir / "roster.json", hdir.name)
            for hdir in _subdirs(Path(corpus_root)) if (hdir / "roster.json").is_file()}


# --- examples ----------------------------------------------------------------

def role_of(people: Mapping[str, Person], person_id: str) -> Role:
    """The role `people` (a roster's `people_by_id`) gives `person_id`; Unknown for one it does not list."""
    person = people.get(person_id)
    return person.role if person is not None else Role.UNKNOWN


def is_member_question(utterance: Utterance, people: Mapping[str, Person]) -> bool:
    """A member's question: labeled Question, and spoken by someone `people` lists as a Member.

    Pairs and examples are taken from a labeled store, so an unlabeled utterance is a `CorpusError`.
    """
    if utterance.qa_label is QALabel.UNLABELED:
        raise CorpusError(f"hearing {utterance.hearing_id}: utterance {utterance.utterance_id} is Unlabeled;"
                          " run `classify-qa apply` on the store first")
    return utterance.qa_label is QALabel.QUESTION and role_of(people, utterance.speaker) is Role.MEMBER


def hearing_examples(
    hearing_id: str, utterances: Sequence[Utterance], people: Mapping[str, Person], pairs: Sequence[QAPair],
    warnings: list[str],
) -> Iterator[tuple[str, str, str, str, Optional[str]]]:
    """(example_id, kind, questioner, question text, answer text) of each example of one hearing
    (docs/formats.md, "Examples"): a Question example for each member's question, in utterance order;
    then an Answer and a Both example for each pair a Member asked, in pair order. A pair naming an
    utterance the hearing lacks gives none, and a line in `warnings`."""
    for u in utterances:
        if is_member_question(u, people):
            yield u.utterance_id, "Question", u.speaker, u.text, None
    by_id = {u.utterance_id: u for u in utterances} if pairs else {}
    for pair in pairs:
        if role_of(people, pair.questioner) is not Role.MEMBER:
            continue
        question, answer = by_id.get(pair.question_utterance_id), by_id.get(pair.answer_utterance_id)
        if question is None or answer is None:
            warnings.append(f"{hearing_id}/{pair.pair_id}: pair references unknown utterances")
            continue
        yield answer.utterance_id, "Answer", pair.questioner, question.text, answer.text
        yield pair.pair_id, "Both", pair.questioner, question.text, answer.text


# --- zero-shot prompt rendering ----------------------------------------------

PROMPT_TEMPLATE = (
    "What follows is a {type_text} in a congressional hearing: {utterance_text} "
    "The question was asked by a person who is a member of a congressional committee, "
    "and whose party affiliation is either Democrat, Independent, or Republican. "
    "Based on the {type_text_2} above, what is the party affiliation of the person "
    "who asked the question? Answer with either D for Democrat, I for Independent, "
    "or R for Republican. Do not explain."
)

PROMPT_SUBSTITUTIONS: dict[str, tuple[str, str]] = {
    # kind -> (type_text, type_text_2)
    "Question": ("question that has been asked", "question"),
    "Answer": ("response to a question asked", "answer"),
    "Both": ("question and its answer", "question and answer"),
}


def render_prompt(kind: str, question_text: Optional[str] = None, answer_text: Optional[str] = None) -> str:
    if kind not in PROMPT_SUBSTITUTIONS:
        raise ValueError(f"kind must be one of {sorted(PROMPT_SUBSTITUTIONS)}")
    if kind in ("Question", "Both") and not question_text:
        raise ValueError(f"kind {kind} requires question_text")
    if kind in ("Answer", "Both") and not answer_text:
        raise ValueError(f"kind {kind} requires answer_text")
    type_text, type_text_2 = PROMPT_SUBSTITUTIONS[kind]
    if kind == "Question":
        utterance_text = f"Question: {question_text}"
    elif kind == "Answer":
        utterance_text = f"Answer: {answer_text}"
    else:
        utterance_text = f"Question: {question_text} Answer: {answer_text}"
    return PROMPT_TEMPLATE.format(
        type_text=type_text, utterance_text=utterance_text, type_text_2=type_text_2
    )
