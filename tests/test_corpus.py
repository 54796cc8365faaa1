import ast
import json
import random
from pathlib import Path

import pytest

import gavel
from gavel.corpus import (
    Chamber,
    CorpusError,
    GovernmentContext,
    HearingMeta,
    HearingType,
    InvariantError,
    Party,
    Person,
    QALabel,
    RecordError,
    Role,
    Roster,
    Standing,
    Utterance,
    derive_standing,
    from_record,
    load_corpus,
    load_government_config,
    load_roster,
    normalize_surname,
    read_json,
    read_records,
    read_tsv,
    store_corpus,
    to_record,
    write_lines,
    write_raw,
    write_tsv,
)


def make_utterance(hearing_id, seq, text="Hello.", speaker="p1"):
    return Utterance(
        utterance_id=f"{hearing_id}-u{seq:05d}",
        hearing_id=hearing_id,
        sequence_no=seq,
        speaker=speaker,
        raw_marker="Mr. Smith. ",
        text=text,
        qa_label=QALabel.UNLABELED,
    )


def make_meta(hearing_id="h-1", session=116, chamber=Chamber.HOUSE):
    return HearingMeta(
        hearing_id=hearing_id,
        session=session,
        chamber=chamber,
        committee="Oversight and Government Reform",
        hearing_type=HearingType.OVERSIGHT,
        date="2020-01-02",
    )


def test_empty_corpus_round_trip(tmp_path):
    store_corpus([], tmp_path / "store")
    assert load_corpus(tmp_path / "store") == []


def test_round_trip_identity(tmp_path):
    meta = make_meta()
    utts = [make_utterance("h-1", 0), make_utterance("h-1", 1, text="Second, with ⟨NAME⟩.\n")]
    store_corpus([(meta, utts)], tmp_path / "store")
    loaded = load_corpus(tmp_path / "store")
    assert loaded == [(meta, utts)]


def test_round_trip_property_random_corpora(tmp_path):
    rng = random.Random(2024)
    for trial in range(20):
        corpus = []
        for h in range(rng.randrange(0, 4)):
            hid = f"h-{trial}-{h}"
            meta = HearingMeta(
                hearing_id=hid,
                session=rng.randrange(108, 118),
                chamber=rng.choice(list(Chamber)),
                committee=rng.choice(["A", "B and C", "D, E"]),
                hearing_type=rng.choice(list(HearingType)),
                date=None if rng.random() < 0.5 else "2019-07-01",
            )
            utts = [
                Utterance(
                    utterance_id=f"{hid}-u{i:05d}",
                    hearing_id=hid,
                    sequence_no=i,
                    speaker=rng.choice(["p1", "p2", "Unknown"]),
                    raw_marker=rng.choice(["Mr. X. ", "    Chairwoman Y. ", "Dr. Z."]),
                    text=rng.choice(["Hi.\n", "A \t tabbed\nline", "unicode — dash", ""]),
                    qa_label=rng.choice(list(QALabel)),
                )
                for i in range(rng.randrange(0, 6))
            ]
            corpus.append((meta, utts))
        root = tmp_path / f"store{trial}"
        store_corpus(corpus, root)
        loaded = load_corpus(root)
        assert loaded == sorted(corpus, key=lambda t: t[0].hearing_id)


def test_sequence_gap_rejected(tmp_path):
    meta = make_meta()
    utts = [make_utterance("h-1", 0), make_utterance("h-1", 2)]
    with pytest.raises(InvariantError) as err:
        store_corpus([(meta, utts)], tmp_path / "store")
    assert "h-1-u00002" in str(err.value)


def test_duplicate_hearing_id_rejected(tmp_path):
    meta = make_meta()
    with pytest.raises(InvariantError):
        store_corpus([(meta, []), (meta, [])], tmp_path / "store")


def test_unknown_hearing_type_parse_error(tmp_path):
    meta = make_meta()
    store_corpus([(meta, [])], tmp_path / "store")
    meta_path = tmp_path / "store" / "h-1" / "meta.json"
    rec = json.loads(meta_path.read_text())
    rec["hearing_type"] = "Plenary"
    meta_path.write_text(json.dumps(rec))
    with pytest.raises(RecordError) as err:
        load_corpus(tmp_path / "store")
    assert err.value.field_name == "hearing_type"


def test_hearing_type_defaults_to_general(tmp_path):
    meta = make_meta()
    store_corpus([(meta, [])], tmp_path / "store")
    meta_path = tmp_path / "store" / "h-1" / "meta.json"
    rec = json.loads(meta_path.read_text())
    del rec["hearing_type"]
    meta_path.write_text(json.dumps(rec))
    [(loaded, _)] = load_corpus(tmp_path / "store")
    assert loaded.hearing_type is HearingType.GENERAL


def test_truncated_final_line_reports_line_number(tmp_path):
    meta = make_meta()
    utts = [make_utterance("h-1", 0), make_utterance("h-1", 1)]
    store_corpus([(meta, utts)], tmp_path / "store")
    upath = tmp_path / "store" / "h-1" / "utterances.jsonl"
    content = upath.read_text().splitlines()
    content[-1] = content[-1][: len(content[-1]) // 2]
    upath.write_text("\n".join(content))
    with pytest.raises(RecordError) as err:
        load_corpus(tmp_path / "store")
    assert err.value.line_no == 2


def test_person_invariants():
    with pytest.raises(InvariantError):
        Person(person_id="w", display_name="X", surname="X", role=Role.WITNESS, party=Party.DEMOCRAT)
    with pytest.raises(InvariantError):
        Person(person_id="m", display_name="X", surname="X", role=Role.MEMBER, party=Party.NONE)
    # witnesses default to no party / no standing
    Person(person_id="w", display_name="X", surname="X", role=Role.WITNESS)


def test_normalize_surname_idempotent_and_strips_honorifics():
    cases = [
        ("Mr. Tierney", "tierney"),
        ("Chairwoman MALONEY", "maloney"),
        ("The Honorable Jane Doe", "jane doe"),
        ("Dr. Smith,", "smith"),
        ("  SENATOR   BROWN  ", "brown"),
        ("Secretary Van Hollen", "van hollen"),
        ("Mr. Judge", "judge"),  # a title is stripped only while a name follows it
        ("Judge", "judge"),
        ("Drake Bell", "drake bell"),  # titles match whole words
    ]
    for raw, expected in cases:
        norm = normalize_surname(raw)
        assert norm == expected
        assert normalize_surname(norm) == norm
    # only the titles given are stripped
    assert normalize_surname("Ambassador Van Hollen", ("Ambassador",)) == "van hollen"
    assert normalize_surname("Mr. Van Hollen", ("Ambassador",)) == "mr van hollen"


def test_roster_indexes_unique_and_ambiguous():
    people = (
        Person(person_id="a", display_name="Ann Brown", surname="Brown", role=Role.MEMBER, party=Party.DEMOCRAT),
        Person(person_id="b", display_name="Bob Brown", surname="Brown", role=Role.WITNESS),
        Person(person_id="c", display_name="Cy Green", surname="Green", role=Role.MEMBER, party=Party.REPUBLICAN),
    )
    roster = Roster(hearing_id="h-1", people=people)
    assert roster.name_index == {"green": "c"}
    assert roster.ambiguous == {"brown": ("a", "b")}
    assert roster.people_by_id == {p.person_id: p for p in people}
    for pid in ("a", "b", "c"):
        assert roster.person(pid).person_id == pid


def test_roster_refuses_a_repeated_person_id():
    member = Person(person_id="x", display_name="Sam Smith", surname="Smith", role=Role.MEMBER, party=Party.DEMOCRAT)
    witness = Person(person_id="x", display_name="Jo Jones", surname="Jones", role=Role.WITNESS)
    with pytest.raises(InvariantError, match="person_id 'x'"):
        Roster(hearing_id="h-1", people=(member, witness))


def test_roster_round_trip(tmp_path):
    people = (
        Person(person_id="a", display_name="Ann Brown", surname="Brown", role=Role.MEMBER,
               party=Party.DEMOCRAT, chamber=Chamber.HOUSE, standing=Standing.MAJORITY),
        Person(person_id="w", display_name="Walt Gray", surname="Gray", role=Role.WITNESS),
    )
    roster = Roster(hearing_id="h-1", people=people)
    path = tmp_path / "roster.json"
    assert list(to_record(roster)) == ["hearing_id", "people"]  # the derived indexes are not stored
    path.write_text(json.dumps(to_record(roster)))
    assert load_roster(path, "h-1") == roster


def test_meta_round_trip_keeps_date(tmp_path):
    for date in ("2019-03-14", None):
        meta = HearingMeta(hearing_id="h-1", session=116, chamber=Chamber.SENATE, committee="X",
                           hearing_type=HearingType.OVERSIGHT, date=date)
        store_corpus([(meta, [])], tmp_path / "store")
        assert json.loads((tmp_path / "store" / "h-1" / "meta.json").read_text())["date"] == date
        [(loaded, _)] = load_corpus(tmp_path / "store")
        assert loaded.date == date
        assert loaded == meta


def test_record_holds_each_field_in_order_with_enum_values():
    witness = Person(person_id="w", display_name="Walt Gray", surname="Gray", role=Role.WITNESS)
    assert json.dumps(to_record(witness)) == (
        '{"person_id": "w", "display_name": "Walt Gray", "surname": "Gray", "role": "Witness", '
        '"party": "None", "chamber": null, "standing": "NotApplicable"}'
    )
    roster = Roster(hearing_id="h-1", people=(witness,))
    assert to_record(roster) == {"hearing_id": "h-1", "people": [to_record(witness)]}
    assert to_record(make_utterance("h-1", 3)) == {
        "utterance_id": "h-1-u00003", "hearing_id": "h-1", "sequence_no": 3, "speaker": "p1",
        "raw_marker": "Mr. Smith. ", "text": "Hello.", "qa_label": "Unlabeled",
    }


META_RECORD = {"hearing_id": "h-1", "session": 116, "chamber": "House", "committee": "X"}
GOVERNMENT_RECORD = {"session": 116, "president_party": "Democrat", "house_majority": "Democrat",
                     "senate_majority": "Democrat"}


def test_from_record_gives_missing_or_null_fields_their_default():
    for optional in ({}, {"hearing_type": None, "date": None}):
        meta = from_record(HearingMeta, {**META_RECORD, **optional})
        assert (meta.hearing_type, meta.date) == (HearingType.GENERAL, None)
    witness = from_record(Person, {"person_id": "w", "display_name": "W", "surname": "W", "role": "Witness",
                                   "party": None, "chamber": None})
    assert (witness.party, witness.chamber, witness.standing) == (Party.NONE, None, Standing.NOT_APPLICABLE)
    assert from_record(Roster, {}) == Roster(hearing_id="", people=())
    assert from_record(GovernmentContext, {**GOVERNMENT_RECORD, "unified": None}).unified is True
    # keys that are not fields are ignored; int fields are read as ints
    meta = from_record(HearingMeta, {**META_RECORD, "session": "116", "pages": 40})
    assert meta == HearingMeta(hearing_id="h-1", session=116, chamber=Chamber.HOUSE, committee="X")


@pytest.mark.parametrize("cls, record, field, value", [
    (HearingMeta, {**META_RECORD, "hearing_type": "Plenary"}, "hearing_type", "Plenary"),
    (Person, {"person_id": "w", "display_name": "W", "surname": "W", "role": "Senator"}, "role", "Senator"),
    (Roster, {"people": [{"person_id": "m", "display_name": "M", "surname": "M", "role": "Member",
                          "party": "Whig"}]}, "party", "Whig"),
    (Utterance, {**to_record(make_utterance("h-1", 0)), "qa_label": "Maybe"}, "qa_label", "Maybe"),
    (GovernmentContext, {**GOVERNMENT_RECORD, "house_majority": "Whig"}, "house_majority", "Whig"),
])
def test_from_record_names_the_field_of_an_unknown_enum_value(cls, record, field, value):
    with pytest.raises(RecordError) as err:
        from_record(cls, record)
    assert (err.value.message, err.value.field_name) == (f"unknown {field} {value!r}", field)


def test_from_record_names_a_missing_required_field(tmp_path):
    record = dict(META_RECORD)
    del record["committee"]
    with pytest.raises(KeyError, match="committee"):
        from_record(HearingMeta, record)
    path = tmp_path / "meta.json"
    path.write_text(json.dumps(record))
    with pytest.raises(RecordError) as err:
        read_json(path, dict, lambda rec: from_record(HearingMeta, rec))
    assert (err.value.message, err.value.path, err.value.field_name) == ("missing field", str(path), "committee")


def ctx(session=116, president="Republican", house="Democrat", senate="Republican"):
    return GovernmentContext(
        session=session,
        president_party=Party(president),
        house_majority=Party(house),
        senate_majority=Party(senate),
    )


def test_unified_flag_derivation_and_validation():
    unified = GovernmentContext(116, Party.DEMOCRAT, Party.DEMOCRAT, Party.DEMOCRAT)
    assert unified.unified is True
    divided = ctx()
    assert divided.unified is False
    with pytest.raises(InvariantError):
        GovernmentContext(116, Party.DEMOCRAT, Party.DEMOCRAT, Party.DEMOCRAT, unified=False)


def test_unified_equals_three_way_equality_property():
    rng = random.Random(8)
    parties = [Party.DEMOCRAT, Party.REPUBLICAN]
    for _ in range(50):
        p, h, s = (rng.choice(parties) for _ in range(3))
        g = GovernmentContext(110, p, h, s)
        assert g.unified == (p == h == s)


def member(party, chamber=Chamber.HOUSE):
    return Person(
        person_id="m1", display_name="Pat Doe", surname="Doe", role=Role.MEMBER, party=party, chamber=chamber
    )


def test_derive_standing_definitions():
    house_meta = make_meta(chamber=Chamber.HOUSE)
    senate_meta = make_meta(chamber=Chamber.SENATE)
    g = ctx(house="Democrat", senate="Democrat")
    assert derive_standing(member(Party.DEMOCRAT), house_meta, g) is Standing.MAJORITY
    assert derive_standing(member(Party.REPUBLICAN, Chamber.SENATE), senate_meta, g) is Standing.MINORITY
    # Independents are always Minority
    assert derive_standing(member(Party.INDEPENDENT, Chamber.SENATE), senate_meta, g) is Standing.MINORITY


def test_derive_standing_requires_member_and_matching_session():
    g = ctx(session=115)
    witness = Person(person_id="w", display_name="W X", surname="X", role=Role.WITNESS)
    with pytest.raises(InvariantError):
        derive_standing(witness, make_meta(session=115), g)
    with pytest.raises(InvariantError):
        derive_standing(member(Party.DEMOCRAT), make_meta(session=116), g)


def test_derive_standing_joint_uses_member_chamber():
    joint_meta = make_meta(chamber=Chamber.JOINT)
    g = ctx(house="Democrat", senate="Republican")
    assert derive_standing(member(Party.DEMOCRAT, Chamber.HOUSE), joint_meta, g) is Standing.MAJORITY
    assert derive_standing(member(Party.DEMOCRAT, Chamber.SENATE), joint_meta, g) is Standing.MINORITY
    chamberless = Person(person_id="m2", display_name="Q R", surname="R", role=Role.MEMBER, party=Party.DEMOCRAT)
    with pytest.raises(InvariantError):
        derive_standing(chamberless, joint_meta, g)


def test_derive_standing_pure():
    g = ctx()
    m = member(Party.DEMOCRAT)
    meta = make_meta()
    assert derive_standing(m, meta, g) == derive_standing(m, meta, g)


def test_government_config_file(tmp_path):
    path = tmp_path / "gov.json"
    path.write_text(
        json.dumps(
            [
                {"session": 116, "president_party": "Republican", "house_majority": "Democrat",
                 "senate_majority": "Republican"},
                {"session": 117, "president_party": "Democrat", "house_majority": "Democrat",
                 "senate_majority": "Democrat", "unified": True},
            ]
        )
    )
    cfg = load_government_config(path)
    assert cfg[116].unified is False
    assert cfg[117].unified is True
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(RecordError):
        load_government_config(bad)


def test_load_corpus_missing_root(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "nope")


def test_writers_create_parent_and_end_every_line(tmp_path):
    target = tmp_path / "new" / "dir" / "t.tsv"
    write_tsv(target, ["a", "b"], (row for row in [["1", "é"], ["", "3"]]))
    assert target.read_bytes() == "a\tb\n1\té\n\t3\n".encode("utf-8")
    write_lines(target, ['{"k": 1}'])
    assert target.read_bytes() == b'{"k": 1}\n'
    write_raw(target, b"bytes as given\xff")
    assert target.read_bytes() == b"bytes as given\xff"


def test_write_tsv_makes_each_value_a_cell_by_one_rule(tmp_path):
    target = tmp_path / "t.tsv"
    rows = [["a b", 0.1 + 0.2, 108, None, True, Standing.MAJORITY], ["", 1e-300, 0, None, False, Party.NONE]]
    write_tsv(target, ["text", "float", "int", "none", "bool", "enum"], rows)
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[1:] == ["a b\t0.30000000000000004\t108\t\ttrue\tMajority", "\t1e-300\t0\t\tfalse\tNone"]
    assert [float(line.split("\t")[1]) for line in lines[1:]] == [0.1 + 0.2, 1e-300]
    with pytest.raises(TypeError):
        write_tsv(target, ["pair"], [[(1, 2)]])


def _file_writes(source: str) -> list[tuple[int, str]]:
    """(line, call) for each write_text/write_bytes call, each open() not in a read mode and each
    os.replace, os.rename and shutil.move, which would put a file in place without the corpus writer."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        receiver = getattr(getattr(func, "value", None), "id", "")
        if name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif (receiver, name) in (("os", "replace"), ("os", "rename"), ("shutil", "move")):
            found.append((node.lineno, f"{receiver}.{name}"))
        elif name == "open":
            # builtin open(path, mode) versus Path.open(mode)
            pos = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            mode = next((k.value for k in node.keywords if k.arg == "mode"), pos[0] if pos else None)
            if mode is not None and not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
                found.append((node.lineno, "open"))
    return found


def test_file_writes_go_through_corpus_writers():
    offenders = [
        f"{path.name}:{line} {call}"
        for path in sorted(Path(gavel.__file__).parent.rglob("*.py"))
        if path.name != "corpus.py"
        for line, call in _file_writes(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    writer = Path(gavel.__file__).parent / "corpus.py"
    assert sorted(call for _, call in _file_writes(writer.read_text(encoding="utf-8"))) == ["open", "os.replace"]


def _cell_formatting(source: str) -> list[tuple[int, str]]:
    """(line, expression) for each repr() call and each conditional choosing between "true" and "false"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "repr":
            found.append((node.lineno, "repr"))
        elif isinstance(node, ast.IfExp):
            if {getattr(node.body, "value", None), getattr(node.orelse, "value", None)} == {"true", "false"}:
                found.append((node.lineno, "true/false"))
    return found


def test_table_cells_are_formatted_only_by_write_tsv():
    offenders = [
        f"{path.name}:{line} {expr}"
        for path in sorted(Path(gavel.__file__).parent.rglob("*.py"))
        if path.name != "corpus.py"
        for line, expr in _cell_formatting(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def _record_reads(source: str) -> list[tuple[int, str]]:
    """(line, call) for each json.load(s), each open() in a text read mode and each read_text().splitlines()."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        receiver = getattr(func, "value", None)
        if name in ("load", "loads") and getattr(receiver, "id", "") == "json":
            found.append((node.lineno, f"json.{name}"))
        elif name == "splitlines" and getattr(getattr(receiver, "func", None), "attr", "") == "read_text":
            found.append((node.lineno, "read_text().splitlines"))
        elif name == "open":
            pos = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            mode = next((k.value for k in node.keywords if k.arg == "mode"), pos[0] if pos else None)
            if mode is None or (isinstance(mode, ast.Constant) and set(mode.value) <= set("rt")):
                found.append((node.lineno, "open"))
    return found


def test_file_reads_go_through_corpus_readers():
    offenders = [
        f"{path.name}:{line} {call}"
        for path in sorted(Path(gavel.__file__).parent.rglob("*.py"))
        if path.name != "corpus.py"
        for line, call in _record_reads(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_read_json_reports_shape_and_decode_errors(tmp_path):
    path = tmp_path / "v.json"
    path.write_text('{"a": 1}')
    assert read_json(path, dict, lambda rec: rec["a"]) == 1
    with pytest.raises(RecordError) as err:
        read_json(path, list, list)
    assert err.value.path == str(path) and "expected a JSON array" in str(err.value)
    with pytest.raises(RecordError) as err:
        read_json(path, dict, lambda rec: rec["b"])
    assert (err.value.path, err.value.field_name) == (str(path), "b")
    with pytest.raises(RecordError) as err:
        read_json(path, dict, lambda rec: rec["a"].upper())
    assert err.value.path == str(path)
    path.write_text("{")
    with pytest.raises(RecordError) as err:
        read_json(path, dict, dict)
    assert err.value.path == str(path)


def test_read_records_locates_each_bad_line(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"a": 1}\n\n  \n[1]\n')
    records = read_records(path, lambda rec: rec["a"])
    assert next(records) == 1
    with pytest.raises(RecordError) as err:
        next(records)
    assert (err.value.path, err.value.line_no) == (str(path), 4)
    path.write_text('{"a": 1}\n{"b": 2}\n')
    with pytest.raises(RecordError) as err:
        list(read_records(path, lambda rec: rec["a"]))
    assert (err.value.line_no, err.value.field_name) == (2, "a")
    # a RecordError raised by decode without a location gets the file's
    path.write_text('{"a": 1}\n')
    with pytest.raises(RecordError) as err:
        list(read_records(path, lambda rec: from_record(HearingMeta, {**to_record(make_meta()), "chamber": "Moon"})))
    assert (err.value.path, err.value.line_no, err.value.field_name) == (str(path), 1, "chamber")


def test_read_tsv_numbers_lines_and_skips_empty_ones(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes("a\tb\n\n\tc\n".encode("utf-8"))
    assert list(read_tsv(path)) == [(1, ["a", "b"]), (3, ["", "c"])]
    path.write_bytes(b"ok\n\xff\n")
    with pytest.raises(RecordError) as err:
        list(read_tsv(path))
    assert err.value.path == str(path)
