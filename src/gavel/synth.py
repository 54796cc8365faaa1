"""Synthetic hearing and Q/A corpus generator with recorded ground truth.

Built for fixtures and golden tests: every generated transcript comes with
the exact marker/text spans it was assembled from, the true speaker of each
utterance, and the true question/answer label, so segmentation accuracy and
losslessness can be checked character-for-character. Marker formatting is
deliberately inconsistent (honorific choice, ALL-CAPS surnames, "of State"
suffixes, markers at line ends) to mirror real transcripts.

The Q/A generators emit three disjoint template families in the AMA,
parliamentary and hand-labeled file layouts, so a classifier trained on the
first two is evaluated on genuinely unseen phrasings.
"""

from __future__ import annotations

import json
import random
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .corpus import (
    Chamber,
    GovernmentContext,
    HearingMeta,
    HearingType,
    Party,
    Person,
    QALabel,
    Role,
    Roster,
    Standing,
    to_record,
    write_lines,
)
from .forest import derive_seed

# (president, house majority, senate majority) per congressional session
GOVERNMENT_BY_SESSION: dict[int, tuple[str, str, str]] = {
    108: ("Republican", "Republican", "Republican"),
    109: ("Republican", "Republican", "Republican"),
    110: ("Republican", "Democrat", "Democrat"),
    111: ("Democrat", "Democrat", "Democrat"),
    112: ("Democrat", "Republican", "Democrat"),
    113: ("Democrat", "Republican", "Democrat"),
    114: ("Democrat", "Republican", "Republican"),
    115: ("Republican", "Republican", "Republican"),
    116: ("Republican", "Democrat", "Republican"),
    117: ("Democrat", "Democrat", "Democrat"),
}

COMMITTEES = (
    ("Energy and Commerce", Chamber.HOUSE),
    ("Financial Services", Chamber.HOUSE),
    ("Oversight and Government Reform", Chamber.HOUSE),
    ("Armed Services", Chamber.HOUSE),
    ("Homeland Security and Governmental Affairs", Chamber.SENATE),
    ("Commerce, Science, and Transportation", Chamber.SENATE),
    ("Veterans' Affairs", Chamber.JOINT),
)

MEMBER_SURNAMES = (
    "Maloney Tierney Waters Jordan Connolly Lynch Foxx Comer Khanna Porter Gibbs Sessions "
    "Norton Raskin Pressley Gomez Sarbanes Welch Speier Lawrence Plaskett Rouda Hill Garcia "
    "Higgins Cloud Steube Palmer Armstrong Fallon Franklin Mace Donalds Biggs Grothman McClain "
    "Wexton Trone Levin Stansbury Bush Frost Casar Goldman Crockett Burlison Edwards Luna Moskowitz"
).split()

WITNESS_SURNAMES = (
    "Chen Patel Okafor Reyes Novak Hansen Berg Fontaine Walsh Quincy Ibrahim Castillo Moreau "
    "Lindqvist Okonkwo Tanaka Varga Petrov Silva Aldrin Beckett Calloway Dietrich Eastman"
).split()

MALE_FIRST = "John Robert Michael James David William Richard Thomas Mark Paul Steven Kevin Brian Eric Daniel".split()
FEMALE_FIRST = "Mary Patricia Carolyn Jane Linda Barbara Susan Jessica Sarah Karen Nancy Lisa Betty Sandra Ashley".split()

SHARED_TOPICS = (
    "the backlog of claims",
    "the procurement process",
    "the budget request",
    "staffing shortfalls",
    "the audit findings",
    "cybersecurity readiness",
    "aging infrastructure",
    "the modernization program",
    "contract oversight",
    "the inspector general report",
)

DEM_TOPICS = (
    "working families",
    "health care access",
    "climate resilience",
    "consumer protections",
    "housing affordability",
    "community investment",
    "clean water programs",
)

REP_TOPICS = (
    "taxpayer dollars",
    "the regulatory burden",
    "border security",
    "wasteful spending",
    "small business relief",
    "energy independence",
    "government overreach",
)

AGENCIES = (
    "the Department",
    "the agency",
    "your office",
    "the administration",
    "the program office",
    "the bureau",
)

QUESTION_CORES = (
    "can you explain how {agency} plans to address {topic}",
    "what steps has {agency} taken on {topic}",
    "do you believe the current approach to {topic} is working",
    "how many field offices reported problems with {topic} in {year}",
    "why did {agency} fail to act on {topic}",
    "when will {agency} deliver the corrective plan for {topic}",
    "who approved the spending related to {topic}",
    "would you commit to a full review of {topic}",
)

INDIRECT_QUESTIONS = (
    "I would like you to explain for the record how {agency} handled {topic}.",
    "Please walk this committee through the timeline on {topic}.",
    "I want to know what {agency} is doing about {topic}.",
)

QUESTION_PREFACES = (
    "Thank you, and I will be brief.",
    "Let me turn to a different issue.",
    "I want to follow up on that point.",
    "My constituents in Ohio keep raising this.",
    "The numbers we have seen are troubling.",
    "I believe the record should be clear here.",
    "Perhaps we can get a straight answer today.",
    "The report said the problem began in 2019.",
)

ANSWER_CORES = (
    "we have taken several steps to improve {topic} since {year}",
    "the team is reviewing that matter and will report back within sixty days",
    "I will have to get back to you with the precise figures",
    "our assessment suggests the program is largely on track",
    "we acknowledge the concerns and are working with stakeholders in Texas and Virginia",
    "the data we collected in {year} tells a more encouraging story",
    "that characterization is not quite accurate, and let me explain why",
    "roughly forty percent of the backlog has been cleared",
)

ANSWER_LEADS = (
    "Thank you for the question.",
    "That is a fair point.",
    "Let me answer directly.",
    "I appreciate the chance to clarify.",
)

STATEMENT_SENTENCES = (
    "Good morning, and welcome to today's hearing.",
    "This hearing will examine {topic} and related oversight questions.",
    "We have asked our witnesses to keep opening remarks to five minutes.",
    "The full statements will be entered into the record.",
    "I want to thank the ranking member for working with us on this agenda.",
    "Our witnesses today bring deep experience on {topic}.",
    "Members will be recognized for five minutes each in order of seniority.",
    "I look forward to a productive discussion.",
)

WITNESS_STATEMENT_SENTENCES = (
    "Thank you for the opportunity to testify today.",
    "My testimony focuses on {topic} and the steps we have taken since {year}.",
    "We submitted a detailed written statement for the record.",
    "I am happy to answer any questions the committee may have.",
    "Our organization has studied {topic} for more than a decade.",
)

STAGE_DIRECTIONS = (
    "[Laughter.]",
    "[Pause.]",
    "[The prepared statement follows:]",
    "[Discussion off the record.]",
)

HEARING_TITLES = (
    "EXAMINING THE STATE OF {TOPIC}",
    "OVERSIGHT OF {TOPIC}",
    "THE FUTURE OF {TOPIC}",
    "ACCOUNTABILITY AND {TOPIC}",
)


@dataclass(frozen=True)
class TrueSegment:
    marker_raw: str
    speaker_id: str
    text_raw: str
    qa_label: QALabel


@dataclass(frozen=True)
class SynthHearing:
    meta: HearingMeta
    roster: Roster
    raw_text: str
    head: str
    preamble: str
    tail: str
    segments: tuple[TrueSegment, ...]

    @property
    def body(self) -> str:
        out = [self.preamble]
        for seg in self.segments:
            out.append(seg.marker_raw)
            out.append(seg.text_raw)
        return "".join(out)


def government_context(session: int) -> GovernmentContext:
    pres, house, senate = GOVERNMENT_BY_SESSION[session]
    return GovernmentContext(
        session=session,
        president_party=Party(pres),
        house_majority=Party(house),
        senate_majority=Party(senate),
    )


def _member_chamber(meta_chamber: Chamber, rng: random.Random) -> Chamber:
    if meta_chamber is Chamber.JOINT:
        return rng.choice((Chamber.HOUSE, Chamber.SENATE))
    return meta_chamber


def _make_roster(
    hearing_id: str,
    session: int,
    meta_chamber: Chamber,
    rng: random.Random,
    n_members: int,
    n_witnesses: int,
) -> tuple[Roster, dict[str, bool]]:
    ctx = government_context(session)
    member_names = rng.sample(MEMBER_SURNAMES, n_members)
    witness_names = rng.sample(WITNESS_SURNAMES, n_witnesses)
    people = []
    female: dict[str, bool] = {}
    for i, surname in enumerate(member_names):
        party = Party.INDEPENDENT if rng.random() < 0.05 else (Party.DEMOCRAT if i % 2 == 0 else Party.REPUBLICAN)
        chamber = _member_chamber(meta_chamber, rng)
        majority = ctx.majority_of(chamber)
        standing = Standing.MAJORITY if party == majority else Standing.MINORITY
        is_female = rng.random() < 0.5
        first = rng.choice(FEMALE_FIRST if is_female else MALE_FIRST)
        pid = f"{hearing_id}-m{i}"
        female[pid] = is_female
        people.append(
            Person(
                person_id=pid,
                display_name=f"{first} {surname}",
                surname=surname,
                role=Role.MEMBER,
                party=party,
                chamber=chamber,
                standing=standing,
            )
        )
    for i, surname in enumerate(witness_names):
        is_female = rng.random() < 0.5
        first = rng.choice(FEMALE_FIRST if is_female else MALE_FIRST)
        pid = f"{hearing_id}-w{i}"
        female[pid] = is_female
        people.append(
            Person(
                person_id=pid,
                display_name=f"{first} {surname}",
                surname=surname,
                role=Role.WITNESS,
            )
        )
    return Roster(hearing_id=hearing_id, people=tuple(people)), female


def _marker_for(person: Person, is_female: bool, rng: random.Random, is_chair: bool) -> str:
    """One inconsistent-but-parseable marker, without indentation."""
    surname = person.surname
    if rng.random() < 0.35:
        surname = surname.upper()
    if person.role is Role.WITNESS:
        honorific = rng.choice(("Dr", "Dr", "Ms" if is_female else "Mr"))
    elif is_chair:
        honorific = rng.choice(("Chairwoman" if is_female else "Chairman", "Ms" if is_female else "Mr"))
    elif person.chamber is Chamber.SENATE and rng.random() < 0.4:
        honorific = "Senator"
    else:
        honorific = rng.choice(("Ms", "Mrs")) if is_female else "Mr"
    dot = "" if rng.random() < 0.1 else "."
    state = ""
    if person.role is Role.MEMBER and person.chamber is Chamber.HOUSE and rng.random() < 0.1:
        state = f" of {rng.choice(('Ohio', 'Texas', 'California', 'New York'))}"
    return f"{honorific}{dot} {surname}{state}."


def _topic(party: Optional[Party], rng: random.Random) -> str:
    pools: list[str] = list(SHARED_TOPICS)
    if party is Party.DEMOCRAT:
        pools += list(DEM_TOPICS) * 2
    elif party is Party.REPUBLICAN:
        pools += list(REP_TOPICS) * 2
    else:
        pools += list(DEM_TOPICS) + list(REP_TOPICS)
    return rng.choice(pools)


def _fill(template: str, rng: random.Random, party: Optional[Party]) -> str:
    return template.format(
        agency=rng.choice(AGENCIES),
        topic=_topic(party, rng),
        year=rng.choice(("2017", "2019", "2020", "2021")),
    )


def _question_text(member: Person, rng: random.Random) -> str:
    parts = []
    if rng.random() < 0.7:
        parts.append(rng.choice(QUESTION_PREFACES))
    if rng.random() < 0.15:
        parts.append(_fill(rng.choice(INDIRECT_QUESTIONS), rng, member.party))
    else:
        core = _fill(rng.choice(QUESTION_CORES), rng, member.party)
        parts.append(core[0].upper() + core[1:] + "?")
    return " ".join(parts)


def _answer_text(rng: random.Random) -> str:
    lead = rng.choice(ANSWER_LEADS)
    core = _fill(rng.choice(ANSWER_CORES), rng, None)
    return f"{lead} {core[0].upper() + core[1:]}."


def _statement_text(pool: Sequence[str], rng: random.Random, n: int) -> str:
    return " ".join(_fill(rng.choice(pool), rng, None) for _ in range(n))


def _wrap(text: str, rng: random.Random) -> str:
    return textwrap.fill(text, width=rng.choice((64, 68, 72)))


def synth_hearing(
    hearing_id: str,
    session: int,
    rng: random.Random,
    n_exchanges: Optional[int] = None,
) -> SynthHearing:
    committee, chamber = rng.choice(COMMITTEES)
    hearing_type = rng.choice(
        (HearingType.GENERAL,) * 5 + (HearingType.OVERSIGHT, HearingType.AUTHORIZATION, HearingType.FIELD)
    )
    meta = HearingMeta(
        hearing_id=hearing_id,
        session=session,
        chamber=chamber,
        committee=committee,
        hearing_type=hearing_type,
        date=f"20{session - 100 + 2:02d}-0{rng.randrange(1, 10)}-1{rng.randrange(0, 10)}",
    )
    n_members = rng.randrange(4, 8)
    n_witnesses = rng.randrange(2, 4)
    roster, female = _make_roster(hearing_id, session, chamber, rng, n_members, n_witnesses)
    members = [p for p in roster.people if p.role is Role.MEMBER]
    witnesses = [p for p in roster.people if p.role is Role.WITNESS]
    chair = members[0]

    title = rng.choice(HEARING_TITLES).format(TOPIC=_topic(None, rng).upper())
    head_lines = [
        "",
        f"                     {title}",
        "",
        "                              HEARING",
        "                             BEFORE THE",
        f"                   COMMITTEE ON {committee.upper()}",
        "                        HOUSE OF REPRESENTATIVES"
        if chamber is Chamber.HOUSE
        else "                          UNITED STATES SENATE",
        f"                      {session}TH CONGRESS",
        "",
        "                            Serial No. "
        + f"{session}-{rng.randrange(10, 99)}",
        "",
        "",
    ]
    head = "\n".join(head_lines) + "\n"
    anchor = (
        f"    The committee met, pursuant to notice, at 10:0{rng.randrange(0, 10)} a.m., "
        f"in room {rng.randrange(2100, 2400)}, Hon. {chair.display_name} presiding.\n"
    )
    preamble = anchor + "\n"

    segments: list[TrueSegment] = []

    def add(person: Person, text: str, label: QALabel):
        is_chair = person.person_id == chair.person_id
        marker_core = _marker_for(person, female[person.person_id], rng, is_chair)
        indent = "    "
        wrapped = _wrap(text, rng)
        if rng.random() < 0.12:
            # marker alone at the end of a line; utterance starts on the next
            marker_raw = f"{indent}{marker_core}"
            text_raw = "\n" + wrapped + "\n"
        else:
            marker_raw = f"{indent}{marker_core} "
            text_raw = wrapped + "\n"
        if rng.random() < 0.15:
            text_raw += f"    {rng.choice(STAGE_DIRECTIONS)}\n"
        segments.append(TrueSegment(marker_raw, person.person_id, text_raw, label))

    add(chair, _statement_text(STATEMENT_SENTENCES, rng, rng.randrange(3, 6)), QALabel.OTHER)
    ranking = next((m for m in members if m.party != chair.party), members[-1])
    add(ranking, _statement_text(STATEMENT_SENTENCES, rng, rng.randrange(2, 4)), QALabel.OTHER)
    for w in witnesses:
        add(w, _statement_text(WITNESS_STATEMENT_SENTENCES, rng, rng.randrange(2, 5)), QALabel.OTHER)

    if n_exchanges is None:
        n_exchanges = rng.randrange(3, 7)
    for _ in range(n_exchanges):
        member = rng.choice(members)
        witness = rng.choice(witnesses)
        add(member, _question_text(member, rng), QALabel.QUESTION)
        add(witness, _answer_text(rng), QALabel.ANSWER)

    closing = "I want to thank our witnesses for their testimony today. The committee stands adjourned."
    add(chair, closing, QALabel.OTHER)
    whereupon = f"    [Whereupon, at 12:{rng.randrange(10, 59)} p.m., the committee was adjourned.]\n"
    last = segments[-1]
    segments[-1] = TrueSegment(last.marker_raw, last.speaker_id, last.text_raw + whereupon, last.qa_label)

    tail = "\n" + "                            A P P E N D I X\n\n" + "      Material submitted for the record follows.\n"
    body = preamble + "".join(s.marker_raw + s.text_raw for s in segments)
    raw_text = head + body + tail
    return SynthHearing(
        meta=meta,
        roster=roster,
        raw_text=raw_text,
        head=head,
        preamble=preamble,
        tail=tail,
        segments=tuple(segments),
    )


def synth_corpus(
    n_hearings: int,
    seed: int,
    sessions: Sequence[int] = tuple(range(108, 118)),
    n_exchanges: Optional[int] = None,
) -> list[SynthHearing]:
    out = []
    for i in range(n_hearings):
        rng = random.Random(derive_seed(seed, i))
        session = sessions[i % len(sessions)]
        out.append(synth_hearing(f"synth-{session}-{i:04d}", session, rng, n_exchanges=n_exchanges))
    return out


def write_raw_tree(hearings: Sequence[SynthHearing], root: Path | str) -> None:
    """Raw-input layout consumed by `gavel segment`: one directory per hearing
    with transcript.txt, meta.json and roster.json."""
    root = Path(root)
    for h in hearings:
        hdir = root / h.meta.hearing_id
        write_lines(hdir / "transcript.txt", [h.raw_text.removesuffix("\n")])  # the raw text ends in a newline
        write_lines(hdir / "meta.json", [json.dumps(to_record(h.meta), indent=1)])
        write_lines(hdir / "roster.json", [json.dumps(to_record(h.roster), ensure_ascii=False, indent=1)])


def write_government_config(path: Path | str) -> None:
    records = [to_record(government_context(s)) for s in sorted(GOVERNMENT_BY_SESSION)]
    write_lines(path, [json.dumps(records, indent=1)])


# --- Q/A corpus generators (three disjoint template families) ---------------

AMA_SUBJECTS = (
    "restoring old furniture",
    "running a food truck",
    "translating novels",
    "wildlife photography",
    "air traffic control",
    "competitive baking",
    "deep sea welding",
    "writing crossword puzzles",
    "driving a zamboni",
    "beekeeping",
)

AMA_Q_TEMPLATES = (
    "What is the hardest part about {subject}?",
    "How did you get started with {subject}?",
    "Do you ever regret choosing {subject}?",
    "What does a typical day of {subject} look like?",
    "Any advice for someone who wants to try {subject}?",
    "What is the biggest misconception about {subject}?",
    "How much can you actually earn from {subject}?",
    "Tell us about the strangest thing that happened while {subject}.",
)

AMA_A_TEMPLATES = (
    "I started about {n} years ago and never looked back.",
    "Honestly, the hardest part is the paperwork.",
    "Great question. For me it comes down to patience and practice.",
    "Not really, though some days are rougher than others.",
    "A typical day starts before sunrise and ends whenever the work is done.",
    "Most people think it is glamorous, but it is mostly routine.",
    "Enough to pay the bills, not enough to retire early.",
    "Once a customer paid me entirely in coins. That was a long afternoon.",
)

UKPARL_DEPTS = (
    "Health and Social Care",
    "Transport",
    "Education",
    "Work and Pensions",
    "Environment, Food and Rural Affairs",
    "Defence",
)

UKPARL_Q_TEMPLATES = (
    "To ask the Secretary of State for {dept}, what steps the Department is taking to reduce waiting times in {area}.",
    "To ask the Secretary of State for {dept}, how many staff were employed in {area} in each of the last three years.",
    "To ask the Secretary of State for {dept}, what assessment has been made of the adequacy of funding for {area}.",
    "To ask the Secretary of State for {dept}, whether the Department plans to review its policy on {area}.",
    "To ask the Secretary of State for {dept}, what recent discussions officials have had on {area}.",
)

UKPARL_A_TEMPLATES = (
    "The Department is committed to improving services in {area} and will publish further details in due course.",
    "The information requested is not held centrally and could be obtained only at disproportionate cost.",
    "My Department has allocated {n} million pounds to {area} since 2019.",
    "The Department keeps all such policies under review and has no current plans to change its approach.",
    "Officials meet regularly with stakeholders to discuss {area}, most recently last month.",
)

UKPARL_AREAS = (
    "rural bus routes",
    "primary care",
    "apprenticeship schemes",
    "flood defences",
    "pension credit processing",
    "coastal communities",
    "school maintenance",
)

HAND_Q_TEMPLATES = (
    "Can you tell this committee why the agency has not implemented the recommendations?",
    "Isn't it true that the program missed every milestone last year?",
    "How much of the emergency fund remains unspent as of today?",
    "Would you support an independent review of these contracts?",
    "I want to know who signed off on that purchase.",
    "What happens to the families who are still waiting for a decision?",
    "Did your office brief the White House before or after the announcement?",
    "Walk me through the decision to close the regional office.",
)

HAND_A_TEMPLATES = (
    "Senator, we are reviewing that decision and expect results this quarter.",
    "Congressman, the figure is roughly {n} percent of the total.",
    "I do not have that number with me, but we will provide it to the committee.",
    "That characterization is not accurate, and let me explain why.",
    "The briefing occurred after the announcement, to the best of my knowledge.",
    "We take full responsibility and have already changed the process.",
    "The fund retains about {n} million dollars in unobligated balances.",
    "Our office followed the standard procedure at every step.",
)


def synth_ama_file(path: Path | str, n_pairs: int, seed: int) -> None:
    rng = random.Random(seed)

    def fill(t, r, i):
        return t.format(subject=r.choice(AMA_SUBJECTS), n=r.randrange(2, 30))

    lines = []
    for i in range(n_pairs):
        thread = f"t{i:05d}"
        q = fill(rng.choice(AMA_Q_TEMPLATES), rng, i) + f" (thread {i})"
        a = fill(rng.choice(AMA_A_TEMPLATES), rng, i) + f" (thread {i})"
        lines.append(f"{thread}\t1\t{q}")
        lines.append(f"{thread}\t2\t{a}")
    write_lines(path, lines)


def synth_ukparl_file(path: Path | str, n_pairs: int, seed: int) -> None:
    rng = random.Random(seed)

    def fill(t, r):
        return t.format(dept=r.choice(UKPARL_DEPTS), area=r.choice(UKPARL_AREAS), n=r.randrange(2, 400))

    lines = []
    for i in range(n_pairs):
        rid = f"uk{i:05d}"
        q = fill(rng.choice(UKPARL_Q_TEMPLATES), rng) + f" [ref {i}]"
        a = fill(rng.choice(UKPARL_A_TEMPLATES), rng) + f" [ref {i}]"
        lines.append(f"{rid}\tquestion\t{q}")
        lines.append(f"{rid}\tanswer\t{a}")
    write_lines(path, lines)


def synth_hand_labeled_file(path: Path | str, n_questions: int, n_answers: int, seed: int) -> None:
    rng = random.Random(seed)

    def fill(t, r, i):
        return t.format(n=r.randrange(3, 95)) + f" (item {i})"

    lines = []
    for i in range(n_questions):
        lines.append(fill(rng.choice(HAND_Q_TEMPLATES), rng, i) + "\tQuestion")
    for i in range(n_answers):
        lines.append(fill(rng.choice(HAND_A_TEMPLATES), rng, n_questions + i) + "\tAnswer")
    rng.shuffle(lines)
    write_lines(path, lines)


def write_fixture_set(root: Path | str, n_hearings: int = 3, seed: int = 108) -> None:
    """The bundled end-to-end fixture: raw hearings, government config, Q/A files."""
    root = Path(root)
    hearings = synth_corpus(n_hearings, seed=seed)
    write_raw_tree(hearings, root / "hearings")
    write_government_config(root / "government_context.json")
    qa_dir = root / "qa"
    synth_ama_file(qa_dir / "ama_train.tsv", n_pairs=600, seed=derive_seed(seed, 1))
    synth_ukparl_file(qa_dir / "ukparl_train.tsv", n_pairs=2344, seed=derive_seed(seed, 2))
    synth_hand_labeled_file(qa_dir / "hand_labeled_test.tsv", 379, 421, seed=derive_seed(seed, 3))


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    write_fixture_set(target)
    print(f"wrote fixture set under {target}")
