import itertools
import json
import random
import re
from functools import partial
from pathlib import Path

import pytest

from gavel.corpus import (
    HONORIFICS,
    Chamber,
    HearingMeta,
    Party,
    Person,
    Role,
    Roster,
    from_record,
    load_roster,
    read_json,
    to_record,
)
from gavel.segmenter import (
    FEMALE_HONORIFICS,
    MALE_HONORIFICS,
    ROLE_CUES,
    STAGE_DIRECTION_RE,
    SegmentationFailed,
    SegmenterRules,
    reconstruct,
    resolve_speaker,
    score_verdicts,
    segment_hearing,
    segment_utterances,
    trim_proceedings,
    verify_sample,
)
from gavel.synth import synth_corpus, synth_hearing

RULES = SegmenterRules()


def test_trim_removes_head_before_anchor():
    raw = "TITLE PAGE\nboilerplate\n    The committee met, pursuant to notice.\n    Mr. Smith. Hello.\n"
    result = trim_proceedings(raw, RULES)
    assert result.body.startswith("    The committee met")
    assert result.trimmed_head_chars == len("TITLE PAGE\nboilerplate\n")
    assert result.trimmed_tail_chars == 0


def test_trim_no_anchors_warns_keeps_all():
    raw = "    Mr. Smith. Hello there.\n"
    result = trim_proceedings(raw, RULES)
    assert result.body == raw
    assert len(result.warnings) == 2


def test_trim_end_anchor_removes_tail_after_line():
    raw = (
        "    The committee met now.\n"
        "    Mr. Smith. Hello.\n"
        "    [Whereupon, the hearing was adjourned.]\n"
        "APPENDIX\nextra material\n"
    )
    result = trim_proceedings(raw, RULES)
    assert result.body.endswith("adjourned.]\n")
    assert result.trimmed_tail_chars == len("APPENDIX\nextra material\n")


def test_trim_rejects_empty():
    with pytest.raises(ValueError):
        trim_proceedings("", RULES)


def test_segment_two_markers():
    body = "Mr. Smith. Hello.\n Ms. Jones. Hi."
    result = segment_utterances(body, RULES)
    assert [s.marker_raw for s in result.segments] == ["Mr. Smith. ", " Ms. Jones. "]
    assert [s.text for s in result.segments] == ["Hello.\n", "Hi."]
    assert reconstruct(result) == body


def test_segment_marker_at_position_zero_spans_whole_body():
    body = "Mr. Smith. Everything he said today.\nAnd a second line."
    result = segment_utterances(body, RULES)
    assert len(result.segments) == 1
    assert result.preamble == ""
    assert reconstruct(result) == body


def test_segment_no_markers_fails_loudly():
    with pytest.raises(SegmentationFailed):
        segment_utterances("no markers anywhere in this text\n", RULES)


def test_stage_directions_stripped_and_logged():
    body = "Mr. Smith. Before.\n    [Laughter.]\nAfter.\n"
    result = segment_utterances(body, RULES)
    (seg,) = result.segments
    assert "[Laughter.]" not in seg.text
    assert STAGE_DIRECTION_RE.findall(seg.text_raw) == ["[Laughter.]"]
    assert any("Laughter" in msg for _, msg in result.warnings)
    assert reconstruct(result) == body


def test_rules_validation():
    with pytest.raises(ValueError):
        SegmenterRules(start_patterns=())
    with pytest.raises(ValueError, match="does not compile"):
        SegmenterRules(marker_patterns=("^(unclosed",))
    # named groups are ignored: a marker pattern needs none
    assert segment_utterances("Smith. Hi.", SegmenterRules(marker_patterns=("^[A-Z][a-z]+\\. ",))).segments


def test_rules_compile_once_not_per_hearing(monkeypatch):
    rules = SegmenterRules()
    calls = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *a, **kw: calls.append(a) or compile_(*a, **kw))
    for hdir in sorted((Path(__file__).parent.parent / "fixtures" / "hearings").iterdir()):
        meta = read_json(hdir / "meta.json", dict, partial(from_record, HearingMeta))
        utterances, _ = segment_hearing((hdir / "transcript.txt").read_text(encoding="utf-8"), rules,
                                        load_roster(hdir / "roster.json", hdir.name), meta)
        assert utterances
    assert calls == []


def test_rules_file_round_trip(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(to_record(RULES)))
    assert SegmenterRules.from_file(path) == RULES


def roster_fixture():
    return Roster(
        hearing_id="h-1",
        people=(
            Person(person_id="m1", display_name="Jane Tierney", surname="Tierney", role=Role.MEMBER,
                   party=Party.DEMOCRAT, chamber=Chamber.HOUSE),
            Person(person_id="m2", display_name="Carolyn Maloney", surname="Maloney", role=Role.MEMBER,
                   party=Party.DEMOCRAT, chamber=Chamber.HOUSE),
            Person(person_id="w1", display_name="Alex Okafor", surname="Okafor", role=Role.WITNESS),
        ),
    )


def test_resolve_speaker_basic_lookup():
    person_id, warning = resolve_speaker("Mr. Tierney", roster_fixture())
    assert person_id == "m1" and warning is None


def test_resolve_speaker_all_caps_and_honorific():
    person_id, warning = resolve_speaker("Chairwoman MALONEY.", roster_fixture())
    assert person_id == "m2" and warning is None


def test_resolve_speaker_unknown_warns():
    person_id, warning = resolve_speaker("Mr. Quimby.", roster_fixture())
    assert person_id == "Unknown"
    assert "quimby" in warning


def test_resolve_speaker_state_suffix():
    person_id, _ = resolve_speaker("Ms. Tierney of Ohio.", roster_fixture())
    assert person_id == "m1"


def test_resolve_ambiguous_surname_uses_cues():
    roster = Roster(
        hearing_id="h-2",
        people=(
            Person(person_id="sen", display_name="Ann Brown", surname="Brown", role=Role.MEMBER,
                   party=Party.DEMOCRAT, chamber=Chamber.SENATE),
            Person(person_id="wit", display_name="Bo Brown", surname="Brown", role=Role.WITNESS),
        ),
    )
    assert resolve_speaker("Senator Brown.", roster)[0] == "sen"
    assert resolve_speaker("Dr. Brown.", roster)[0] == "wit"
    person_id, warning = resolve_speaker("Brown.", roster)
    assert person_id == "Unknown" and "ambiguous" in warning
    assert resolve_speaker("Brown.", roster, prefer_role=Role.MEMBER)[0] == "sen"


def test_resolve_ambiguous_surname_by_gender_after_role():
    def lee(person_id, display_name, role):
        party = Party.DEMOCRAT if role is Role.MEMBER else Party.NONE
        return Person(person_id=person_id, display_name=display_name, surname="Lee", role=role, party=party,
                      chamber=Chamber.HOUSE if role is Role.MEMBER else None)

    roster = Roster(hearing_id="h-3", people=(
        lee("ann", "Mrs. Ann Lee", Role.MEMBER), lee("bo", "Mr. Bo Lee", Role.MEMBER), lee("cy", "Cy Lee", Role.WITNESS),
    ))
    # a chair title leaves two members, so the gender cue decides
    assert resolve_speaker("Chairwoman Lee.", roster)[0] == "ann"
    assert resolve_speaker("Chairman LEE.", roster)[0] == "bo"
    assert resolve_speaker("Miss Lee.", roster)[0] == "ann"
    assert resolve_speaker("Dr. Lee.", roster)[0] == "cy"
    assert resolve_speaker("Chair Lee.", roster)[0] == "Unknown"
    assert resolve_speaker("Chair Lee.", roster, prefer_role=Role.WITNESS)[0] == "cy"


def test_cue_titles_are_honorifics():
    titles = {h.lower() for h in HONORIFICS}
    assert FEMALE_HONORIFICS <= titles and MALE_HONORIFICS <= titles and set(ROLE_CUES) <= titles


def one_member_hearing(marker: str, surname: str) -> tuple[str, Roster, HearingMeta]:
    """A transcript in which a witness speaks, then `marker` opens a member's utterance, with its roster."""
    raw = (
        "    The committee met, pursuant to notice.\n"
        "    Dr. Okafor. Thank you for having me.\n"
        f"    {marker} Is the program on schedule?\n"
        "    [Whereupon, the hearing was adjourned.]\n"
    )
    roster = Roster(
        hearing_id="h-1",
        people=(
            Person(person_id="m", display_name=f"Pat {surname}", surname=surname, role=Role.MEMBER,
                   party=Party.DEMOCRAT, chamber=Chamber.HOUSE),
            Person(person_id="w", display_name="Alex Okafor", surname="Okafor", role=Role.WITNESS),
        ),
    )
    meta = HearingMeta(hearing_id="h-1", session=116, chamber=Chamber.HOUSE, committee="Oversight")
    return raw, roster, meta


def speakers(raw: str, roster: Roster, meta: HearingMeta, rules: SegmenterRules = RULES) -> list[str]:
    utterances, _ = segment_hearing(raw, rules, roster, meta)
    return [u.speaker for u in utterances]


@pytest.mark.parametrize(
    "title,surname,caps,state",
    itertools.product(HONORIFICS, ("Maloney", "Van Hollen"), (False, True), ("", " of Ohio")),
)
def test_every_title_opens_a_marker_that_resolves(title, surname, caps, state):
    dot = "." if len(title) <= 3 else ""
    marker = f"{title}{dot} {surname.upper() if caps else surname}{state}."
    raw, roster, meta = one_member_hearing(marker, surname)
    segments = segment_utterances(trim_proceedings(raw, RULES).body, RULES).segments
    assert [s.marker_raw.strip() for s in segments] == ["Dr. Okafor.", marker]
    assert speakers(raw, roster, meta) == ["w", "m"]


def test_chair_marker_opens_its_own_utterance():
    raw, roster, meta = one_member_hearing("Chair Maloney.", "Maloney")
    utterances, _ = segment_hearing(raw, RULES, roster, meta)
    assert [u.speaker for u in utterances] == ["w", "m"]
    assert utterances[0].text.strip() == "Thank you for having me."


def test_a_rules_files_honorifics_are_matched_and_stripped(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"honorifics": ["Ambassador", "Dr"]}))  # Dr for the witness's marker
    rules = SegmenterRules.from_file(path)
    raw, roster, meta = one_member_hearing("Ambassador Van Hollen.", "Van Hollen")
    assert speakers(raw, roster, meta, rules) == ["w", "m"]


def test_a_title_is_stripped_only_when_a_name_follows():
    raw, roster, meta = one_member_hearing("Mr. Judge.", "Judge")
    assert speakers(raw, roster, meta) == ["w", "m"]
    for marker in ("The CHAIRMAN.", "Mr."):
        person_id, warning = resolve_speaker(marker, roster)
        assert person_id == "Unknown" and "carries no resolvable name" in warning


GOLDEN = synth_corpus(50, seed=7)


def test_golden_corpus_reconstruction_and_boundaries():
    """Character-exact losslessness plus >= 99% exact-boundary accuracy on the
    adversarial 50-hearing corpus (inconsistent honorifics and casing)."""
    total = matched = 0
    for h in GOLDEN:
        trim = trim_proceedings(h.raw_text, RULES)
        assert trim.trimmed_head_chars == len(h.head)
        assert trim.trimmed_tail_chars == len(h.tail)
        assert trim.body == h.body
        result = segment_utterances(trim.body, RULES)
        assert reconstruct(result) == trim.body
        truth = [(s.marker_raw, s.text_raw) for s in h.segments]
        got = [(s.marker_raw, s.text_raw) for s in result.segments]
        total += len(truth)
        if len(truth) == len(got):
            matched += sum(1 for t, g in zip(truth, got) if t == g)
    assert total >= 500
    assert matched / total >= 0.99


def test_golden_corpus_speaker_resolution():
    wrong = 0
    total = 0
    for h in GOLDEN:
        utterances, report = segment_hearing(h.raw_text, RULES, h.roster, h.meta)
        assert report.n_utterances == len(utterances)
        assert report.n_unresolved_speakers <= report.n_utterances
        for utt, truth in zip(utterances, h.segments):
            total += 1
            wrong += utt.speaker != truth.speaker_id
    assert wrong / total < 0.01


def test_segmentation_insensitive_to_trailing_whitespace():
    h = synth_hearing("ws-test", 115, random.Random(3))
    trimmed_ws = "\n".join(line.rstrip() for line in h.raw_text.splitlines()) + "\n"
    r1 = segment_utterances(trim_proceedings(h.raw_text, RULES).body, RULES)
    r2 = segment_utterances(trim_proceedings(trimmed_ws, RULES).body, RULES)
    assert [s.marker_raw.strip() for s in r1.segments] == [s.marker_raw.strip() for s in r2.segments]
    assert [s.text.strip() for s in r1.segments] == [s.text.strip() for s in r2.segments]


def corpus_for_sampling(n_per_session=4, sessions=(114, 115), n_utts=12):
    corpus = []
    i = 0
    for s in sessions:
        for _ in range(n_per_session):
            rng = random.Random(1000 + i)
            h = synth_hearing(f"s{s}-h{i:03d}", s, rng, n_exchanges=max(1, (n_utts - 6) // 2))
            utterances, _ = segment_hearing(h.raw_text, RULES, h.roster, h.meta)
            corpus.append((h.meta, utterances))
            i += 1
    return corpus


def test_verify_sample_counts_and_determinism():
    corpus = corpus_for_sampling()
    m1 = verify_sample(corpus, hearings_per_session=2, utterances_per_hearing=5, seed=9)
    m2 = verify_sample(corpus, hearings_per_session=2, utterances_per_hearing=5, seed=9)
    assert m1 == m2
    assert len(m1.rows) == 2 * 2 * 5
    m3 = verify_sample(corpus, hearings_per_session=2, utterances_per_hearing=5, seed=10)
    assert m1 != m3  # different seed draws a different sample


def test_verify_sample_full_scale_row_count():
    """(50 hearings/session, 10 utterances/hearing) over 10 sessions -> 5000 rows."""
    from gavel.corpus import Chamber, HearingMeta, QALabel, Utterance

    corpus = []
    for session in range(108, 118):
        for h in range(50):
            hid = f"s{session}-h{h:03d}"
            meta = HearingMeta(hearing_id=hid, session=session, chamber=Chamber.HOUSE, committee="X")
            utts = [
                Utterance(
                    utterance_id=f"{hid}-u{i:05d}", hearing_id=hid, sequence_no=i,
                    speaker="Unknown", raw_marker="M. ", text="t", qa_label=QALabel.UNLABELED,
                )
                for i in range(12)
            ]
            corpus.append((meta, utts))
    manifest = verify_sample(corpus, hearings_per_session=50, utterances_per_hearing=10, seed=0)
    assert len(manifest.rows) == 5000
    assert not manifest.warnings


def test_verify_sample_short_session_warns():
    corpus = corpus_for_sampling(n_per_session=1)
    manifest = verify_sample(corpus, hearings_per_session=3, utterances_per_hearing=4, seed=1)
    assert any("sampling all" in w for w in manifest.warnings)


def test_verify_sample_rows_are_contiguous_runs():
    corpus = corpus_for_sampling()
    manifest = verify_sample(corpus, hearings_per_session=2, utterances_per_hearing=5, seed=3)
    by_hearing = {}
    for utterance_id, hearing_id, _ in manifest.rows:
        by_hearing.setdefault(hearing_id, []).append(utterance_id)
    utts_by_hearing = {meta.hearing_id: [u.utterance_id for u in utts] for meta, utts in corpus}
    for hearing_id, sampled in by_hearing.items():
        all_ids = utts_by_hearing[hearing_id]
        start = all_ids.index(sampled[0])
        assert all_ids[start : start + len(sampled)] == sampled


def test_manifest_file_shape(tmp_path):
    corpus = corpus_for_sampling()
    manifest = verify_sample(corpus, 1, 3, seed=0)
    out = tmp_path / "sample.tsv"
    manifest.write(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "utterance_id\thearing_id\tsession\tverdict"
    assert len(lines) == 1 + len(manifest.rows)


def test_verdict_scoring_identity_and_rate():
    # 5000 verdicts with 302 incorrect: the reference verification
    # arithmetic (93.96% correct; clubbed + broken = incorrect)
    verdicts = ["correct"] * 4698 + ["clubbed"] * 226 + ["broken"] * 76
    summary = score_verdicts(verdicts)
    assert summary.n_total == 5000
    assert summary.n_incorrect == 302
    assert summary.n_clubbed + summary.n_broken == summary.n_incorrect
    assert summary.correctness_rate == pytest.approx(0.9396, abs=1e-12)
    assert f"{100 * summary.correctness_rate:.2f}" == "93.96"


def test_verdict_identity_random_property():
    rng = random.Random(44)
    for _ in range(50):
        verdicts = [rng.choice(["correct", "clubbed", "broken"]) for _ in range(rng.randrange(1, 200))]
        s = score_verdicts(verdicts)
        assert s.n_clubbed + s.n_broken == s.n_incorrect
        assert s.n_correct + s.n_incorrect == s.n_total


def test_unknown_verdict_rejected():
    with pytest.raises(ValueError):
        score_verdicts(["correct", "mangled"])
