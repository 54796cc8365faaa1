"""Hand-built hostile transcript: edge cases the synthetic corpus never emits."""

import random
import re

import pytest

from gavel.corpus import Chamber, HearingMeta, Party, Person, Role, Roster
from gavel.segmenter import (
    STAGE_DIRECTION_RE,
    SegmenterRules,
    reconstruct,
    segment_hearing,
    segment_utterances,
    trim_proceedings,
)
from gavel.synth import synth_hearing

RULES = SegmenterRules()

HOSTILE = """\

                      OVERSIGHT OF EVERYTHING AT ONCE

                               HEARING
    Mentions like Mr. Chairman, appear in the head and must be trimmed.

    The committee met, pursuant to call, at 9:58 a.m., Hon. Ada Quorum
presiding.

    STATEMENT OF DR. IBRAHIM, DIRECTOR, OFFICE OF EXAMPLES

    Chairwoman QUORUM. The committee will come to order. Without
objection, the chair is authorized to declare a recess at any time. I
now recognize myself for five minutes. As Dr. Ibrahim said in 2019,
the backlog kept growing.
    [The statement of Chairwoman Quorum follows:]
    [Laughter.]
    Mr. Byte of Ohio. Thank you, Madam Chair. My constituents ask me
about this every week, and Mrs. Vector knows it.
Will the program be reauthorized before 12/31/2024?
    Dr. IBRAHIM. Senator, we believe so. We committed $4 million to
Texas and Ohio. [Pause.] The plan is on file.
    Senator Vector. I want to follow up.
    Is that commitment in writing anywhere at all?
    Dr Ibrahim. It is. I will provide it for the record.
    The CHAIRMAN. Seeing no further questions, we stand adjourned.
    [Whereupon, at 11:03 a.m., the committee was adjourned.]

                             A P P E N D I X

    Mr. Byte. This marker is in the appendix and must not be parsed.
"""


def hostile_roster():
    return Roster(
        hearing_id="hostile-1",
        people=(
            Person(person_id="chair", display_name="Ada Quorum", surname="Quorum", role=Role.MEMBER,
                   party=Party.DEMOCRAT, chamber=Chamber.HOUSE),
            Person(person_id="byte", display_name="Bo Byte", surname="Byte", role=Role.MEMBER,
                   party=Party.REPUBLICAN, chamber=Chamber.HOUSE),
            Person(person_id="vector", display_name="Mrs. Ivy Vector", surname="Vector", role=Role.MEMBER,
                   party=Party.DEMOCRAT, chamber=Chamber.SENATE),
            Person(person_id="ibrahim", display_name="Dr. Sam Ibrahim", surname="Ibrahim", role=Role.WITNESS),
        ),
    )


def test_hostile_trim_boundaries():
    result = trim_proceedings(HOSTILE, RULES)
    assert result.body.startswith("    The committee met, pursuant to call")
    assert result.body.rstrip().endswith("the committee was adjourned.]")
    # the appendix marker never reaches the segmenter
    assert "appendix and must not be parsed" not in result.body


def test_hostile_segmentation_markers():
    body = trim_proceedings(HOSTILE, RULES).body
    result = segment_utterances(body, RULES)
    markers = [s.marker_raw.strip() for s in result.segments]
    assert markers == ["Chairwoman QUORUM.", "Mr. Byte of Ohio.", "Dr. IBRAHIM.", "Senator Vector.", "Dr Ibrahim.",
                       "The CHAIRMAN."]
    # the anchor line and the all-caps statement header stay in the preamble
    assert "STATEMENT OF DR. IBRAHIM" in result.preamble
    assert reconstruct(result) == body


def test_hostile_markers_not_opened_midline():
    body = trim_proceedings(HOSTILE, RULES).body
    result = segment_utterances(body, RULES)
    quorum = result.segments[0]
    # "Dr. Ibrahim said" (mid-sentence, line-wrapped) must not split
    assert "Dr. Ibrahim said in 2019" in quorum.text
    byte = result.segments[1]
    # "Mrs. Vector knows it." ends a line but is not at a line start
    assert "Mrs. Vector knows it." in byte.text
    # the wrapped question line stays inside the same utterance
    assert "reauthorized before 12/31/2024?" in byte.text


def test_hostile_multiline_direction_and_sequence():
    body = trim_proceedings(HOSTILE, RULES).body
    result = segment_utterances(body, RULES)
    quorum = result.segments[0]
    stripped = STAGE_DIRECTION_RE.findall(quorum.text_raw)
    assert "[The statement of Chairwoman Quorum follows:]" in stripped
    assert "[Laughter.]" in stripped
    ibrahim = result.segments[2]
    assert "[Pause.]" in STAGE_DIRECTION_RE.findall(ibrahim.text_raw)
    assert "[Pause.]" not in ibrahim.text


def test_hostile_speaker_resolution():
    meta = HearingMeta(hearing_id="hostile-1", session=116, chamber=Chamber.HOUSE, committee="Oversight")
    utterances, report = segment_hearing(HOSTILE, RULES, hostile_roster(), meta)
    speakers = [u.speaker for u in utterances]
    # "The CHAIRMAN." carries no surname: Unknown, counted and warned
    assert speakers == ["chair", "byte", "ibrahim", "vector", "ibrahim", "Unknown"]
    assert report.n_unresolved_speakers == 1
    assert any("no resolvable name" in msg for _, msg in report.warnings)
    assert [u.sequence_no for u in utterances] == list(range(6))


def test_hostile_honorific_without_period():
    # "Dr Ibrahim." (no period after the honorific) still matches
    body = trim_proceedings(HOSTILE, RULES).body
    result = segment_utterances(body, RULES)
    assert result.segments[4].marker_raw.strip() == "Dr Ibrahim."


# Marker patterns whose matches overlap: nested ("Ann Lee" holds "Ann"),
# adjacent (an empty match right after a period ends where "Bob." ends) and
# empty matches everywhere (`x*`).
OVERLAPPING_RULES = SegmenterRules(
    marker_patterns=(
        r"^[ \t]*(?P<name>[A-Z][a-z]+)\.[ \t]?",
        r"(?P<honorific>Mr|Dr)\. (?P<name>[A-Z][a-z]+ [A-Z][a-z]+)",
        r"(?P<name>[A-Z][a-z]+ [A-Z][a-z]+)",
        r"(?P<name>[A-Z]{2,})",
        r"(?<=\.)(?P<name>)",
        r"(?P<name>x*)",
    )
)
OVERLAP_PIECES = ("Mr. Ann Lee", "Ann Lee", "Bob.", "Dr. Jo Day", "ABC", "x", "xx", ".", " ", "\n", "\n  ",
                  "said", "[Pause.]", "Cy. ", "NASA", "the")


def _markers_by_full_scan(body, rules):
    """Kept marker spans as an `any(...)` scan over every earlier span decides them."""
    taken = []
    for p in rules.marker_patterns:
        for m in re.compile(p, re.MULTILINE).finditer(body):
            span = (m.start(), m.end())
            if not any(s < span[1] and span[0] < e for s, e in taken):
                taken.append(span)
    return sorted(taken)


def test_overlap_resolution_matches_full_scan():
    rng = random.Random(17)
    for _ in range(300):
        body = "".join(rng.choice(OVERLAP_PIECES) for _ in range(rng.randrange(1, 40)))
        result = segment_utterances(body, OVERLAPPING_RULES)
        got = [(seg.start, seg.start + len(seg.marker_raw)) for seg in result.segments]
        assert got == _markers_by_full_scan(body, OVERLAPPING_RULES), body
        assert reconstruct(result) == body


def test_overlap_resolution_matches_full_scan_on_hostile_body():
    body = trim_proceedings(HOSTILE, RULES).body
    for rules in (RULES, OVERLAPPING_RULES):
        result = segment_utterances(body, rules)
        got = [(seg.start, seg.start + len(seg.marker_raw)) for seg in result.segments]
        assert got == _markers_by_full_scan(body, rules)


def _direction_positions(result):
    """Body offsets of every stripped stage direction, found again in each segment's raw text."""
    return [
        seg.start + len(seg.marker_raw) + m.start()
        for seg in result.segments
        for m in STAGE_DIRECTION_RE.finditer(seg.text_raw)
    ]


def _hearing_with_directions():
    h = synth_hearing("lines-1", 113, random.Random(8), n_exchanges=60)
    return HOSTILE.replace("[Pause.]", "[Pause.]\n[Crosstalk.] [Off\nmicrophone.]") + h.raw_text


def test_stage_direction_warning_lines_count_newlines():
    body = trim_proceedings(_hearing_with_directions(), RULES).body
    result = segment_utterances(body, RULES)
    lines = [line for line, msg in result.warnings if msg.startswith("stripped stage direction")]
    positions = _direction_positions(result)
    assert len(positions) >= 5
    assert lines == [body.count("\n", 0, pos) + 1 for pos in positions]


def test_hearing_warning_lines_count_newlines_in_the_raw_transcript():
    raw = _hearing_with_directions()
    trim = trim_proceedings(raw, RULES)
    assert trim.trimmed_head_chars > 0 and raw[: trim.trimmed_head_chars].count("\n") > 0
    meta = HearingMeta(hearing_id="lines-1", session=113, chamber=Chamber.HOUSE, committee="Oversight")
    # an empty roster leaves every marker unresolved, so each one gets a resolver warning
    _, report = segment_hearing(raw, RULES, Roster(hearing_id="lines-1", people=()), meta)
    result = segment_utterances(trim.body, RULES)

    def raw_line(body_pos):
        return raw.count("\n", 0, trim.trimmed_head_chars + body_pos) + 1

    resolver_lines = [line for line, msg in report.warnings if msg.startswith(("surname ", "marker "))]
    assert resolver_lines == [raw_line(seg.start) for seg in result.segments]
    direction_lines = [line for line, msg in report.warnings if msg.startswith("stripped stage direction")]
    assert direction_lines == [raw_line(pos) for pos in _direction_positions(result)]


def test_large_transcript_round_trips():
    h = synth_hearing("large-1", 112, random.Random(4000), n_exchanges=4000)
    trim = trim_proceedings(h.raw_text, RULES)
    assert len(trim.body) > 500_000
    result = segment_utterances(trim.body, RULES)
    assert len(result.segments) >= 0.99 * len(h.segments)
    assert reconstruct(result) == trim.body
