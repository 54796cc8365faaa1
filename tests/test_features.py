import functools
import random
import re
import shutil
import tracemalloc
from pathlib import Path

import pytest

from gavel import features as features_module
from gavel.features import (
    DATE_RE,
    PUNCT_CHARS,
    QUOTE_CHARS,
    SCHEMA,
    SYMBOL_CHARS,
    WORD_RE,
    FeatureVector,
    TextStats,
    complexity_features,
    compute_stats,
    count_lexicon_hits,
    count_sentences,
    count_syllables,
    extract_features,
    tokens_of,
)
from gavel.lexicons import Lexicons, load_lexicons
from gavel.segmenter import SegmenterRules, segment_utterances, trim_proceedings

FIXTURES = Path(__file__).parent.parent / "fixtures"

# Independently evaluated formula values for randomized statistics:
# (words, sentences, letters, syllables, polysyllables, long_words, unique,
#  FKGL, SMOG, CLI, LIX). Regenerate by evaluating the four formulas directly
# over the same inputs; tolerance for the library is 1e-9.
READABILITY_FIXTURES = (
    (328, 70, 2179, 1000, 28, 192, 90, 22.21303832752613, 6.742157984588678, 16.945487804878052, 63.222299651567944),
    (220, 20, 1441, 670, 218, 186, 213, 24.636363636363637, 21.989816396786203, 20.023090909090907, 95.54545454545455),
    (325, 103, 2004, 995, 69, 180, 99, 21.766736370425694, 7.804845545660819, 11.076061538461541, 58.53995519044063),
    (131, 22, 778, 391, 6, 51, 120, 21.952120055517003, 6.112484441749459, 14.149923664122138, 44.885843164469115),
    (4, 1, 39, 14, 1, 4, 4, 27.270000000000007, 8.841846274778883, 34.129999999999995, 104.0),
    (61, 5, 376, 184, 21, 53, 5, 24.76144262295082, 14.836745963215662, 18.017704918032788, 99.08524590163935),
    (383, 21, 2497, 1177, 19, 378, 186, 27.785520328235737, 8.563005593585519, 20.91216710182768, 116.93261220937461),
    (345, 60, 2147, 1022, 179, 63, 178, 21.607862318840578, 12.996343054673378, 15.644521739130436, 24.01086956521739),
    (161, 7, 1125, 487, 63, 6, 81, 29.07316770186336, 20.267338824336647, 24.000000000000004, 26.726708074534162),
    (214, 22, 1431, 620, 197, 201, 127, 22.390552251486834, 20.224005660618737, 20.47607476635513, 103.65250637213254),
    (33, 3, 209, 85, 20, 28, 5, 19.093939393939397, 17.879347455551382, 18.749090909090906, 95.84848484848484),
    (54, 16, 384, 147, 13, 20, 27, 17.84847222222223, 8.278499904357787, 17.24296296296296, 40.41203703703704),
    (385, 66, 2530, 1145, 54, 278, 263, 21.778506493506494, 8.296473431620573, 17.765714285714278, 78.04112554112554),
    (6, 1, 33, 19, 3, 3, 6, 24.116666666666664, 13.023866798666859, 11.606666666666662, 56.0),
    (8, 2, 57, 29, 1, 7, 8, 28.745000000000008, 7.168621630094336, 18.694999999999997, 91.5),
    (168, 2, 1123, 514, 94, 30, 151, 53.272380952380956, 42.29371527961177, 23.152619047619044, 101.85714285714286),
    (297, 77, 1983, 882, 282, 66, 288, 20.95670995670996, 14.061716837202834, 15.785319865319863, 26.07936507936508),
    (321, 25, 2030, 984, 119, 89, 299, 25.589562616822437, 15.59284089910409, 19.0797507788162, 40.565856697819314),
    (308, 49, 2090, 895, 39, 71, 181, 21.150389610389613, 8.225684150193146, 19.390909090909087, 29.337662337662337),
    (24, 2, 126, 79, 15, 22, 10, 27.93166666666667, 18.7741, 12.603333333333332, 103.66666666666667),
    (38, 6, 225, 124, 36, 10, 32, 25.385263157894737, 17.122413403193683, 14.342105263157897, 32.64912280701754),
    (284, 88, 2030, 835, 246, 154, 156, 20.362298335467347, 12.680590614273012, 17.057746478873238, 57.45262483994878),
    (386, 30, 2572, 1174, 5, 93, 17, 25.31711917098446, 5.46131890053228, 21.079170984455953, 36.95993091537133),
    (17, 1, 110, 40, 2, 8, 10, 18.804705882352945, 11.20814326018867, 20.505882352941175, 64.05882352941177),
    (240, 71, 1642, 711, 4, 67, 43, 20.685809859154933, 4.4850564993645685, 15.67233333333333, 31.296948356807512),
    (310, 32, 2052, 924, 92, 293, 257, 23.35973790322581, 12.815532586354998, 20.06632258064516, 104.20362903225806),
    (325, 3, 2021, 994, 258, 111, 152, 62.74984615384615, 56.106929513863626, 20.49132307692307, 142.48717948717947),
    (357, 23, 2309, 1119, 334, 319, 255, 27.450032882718308, 24.89889057637281, 20.32358543417367, 104.87748142735354),
    (65, 4, 420, 193, 21, 57, 58, 25.78442307692308, 16.218646115125612, 20.372307692307697, 103.9423076923077),
    (299, 31, 1843, 936, 191, 116, 6, 25.110743338008422, 17.309248288500758, 17.37471571906354, 48.44114791239616),
    (149, 18, 997, 446, 144, 111, 145, 22.95913870246085, 19.287186520377343, 19.968859060402682, 82.77442207307979),
    (297, 88, 1944, 858, 218, 170, 226, 19.815138888888885, 12.120593745353286, 13.916902356902362, 60.61405723905724),
    (190, 28, 1145, 561, 181, 159, 5, 21.89748120300752, 17.653734332746556, 15.272631578947372, 90.46992481203009),
    (33, 9, 191, 113, 17, 30, 32, 26.246060606060606, 10.980518767755715, 10.16, 94.57575757575758),
    (349, 94, 2284, 1038, 60, 337, 66, 20.953680729134913, 7.6932155839691205, 14.708653295128943, 100.27437054197402),
    (137, 43, 910, 393, 56, 128, 98, 19.502193176031238, 9.648456367147027, 13.96642335766423, 96.61670344593448),
    (312, 85, 1962, 893, 80, 36, 73, 19.61524736048266, 8.671277953709914, 13.11205128205128, 15.209049773755655),
    (383, 67, 2571, 1173, 12, 30, 45, 22.778828572541993, 5.546776323656694, 18.4931592689295, 13.549316082771522),
    (253, 57, 1610, 783, 119, 37, 60, 22.660420220511757, 11.383414055469164, 14.949407114624503, 19.063102420081826),
    (87, 19, 523, 275, 12, 24, 57, 23.494640048396857, 7.669130373188453, 13.083218390804596, 32.16515426497278),
    (154, 32, 1007, 454, 114, 82, 91, 21.073887987012984, 13.911672136322576, 16.498441558441552, 58.059253246753244),
    (34, 7, 201, 107, 29, 20, 2, 23.43957983193278, 14.756829357015494, 12.867058823529415, 63.68067226890756),
    (388, 81, 2476, 1172, 306, 388, 115, 21.92144711722032, 14.232682905230785, 15.543505154639178, 104.79012345679013),
    (116, 18, 758, 340, 0, 22, 115, 21.509540229885058, 3.1291, 18.029655172413793, 25.409961685823752),
    (212, 11, 1321, 605, 52, 159, 118, 25.60089193825043, 15.549919911452193, 19.30320754716981, 94.27272727272728),
    (124, 25, 858, 380, 100, 40, 113, 22.50569032258065, 14.554592549557764, 18.918064516129025, 37.21806451612903),
    (298, 3, 2003, 900, 236, 208, 11, 58.78758389261745, 53.79786394782094, 23.424295302013423, 169.13199105145412),
    (264, 47, 1699, 844, 175, 212, 18, 24.324880722114766, 14.152486406741826, 16.771666666666658, 85.92005157962605),
    (156, 9, 948, 481, 21, 51, 63, 27.553333333333338, 11.855464076750408, 18.22461538461538, 50.02564102564102),
    (334, 83, 2212, 1013, 22, 174, 83, 21.76802034485247, 6.070250377347047, 15.786107784431127, 56.1199047687757),
)


@pytest.fixture(scope="module")
def lexicons() -> Lexicons:
    return load_lexicons()


def stats_from_row(row) -> TextStats:
    words, sentences, letters, syllables, poly, longw, uniq = row[:7]
    return TextStats(
        n_words=words,
        n_sentences=sentences,
        n_characters_in_words=letters,
        n_syllables=syllables,
        n_polysyllables=poly,
        n_long_words=longw,
        n_unique_words=uniq,
    )


@pytest.mark.parametrize("row", READABILITY_FIXTURES)
def test_readability_formulas_match_independent_evaluation(row):
    feats = complexity_features(stats_from_row(row))
    fkgl, smog, cli, lix = row[7:]
    assert feats["FKGLvl"] == pytest.approx(fkgl, abs=1e-9)
    assert feats["SmgIn"] == pytest.approx(smog, abs=1e-9)
    assert feats["CLIn"] == pytest.approx(cli, abs=1e-9)
    assert feats["lix"] == pytest.approx(lix, abs=1e-9)


def test_fkgl_hand_value():
    stats = TextStats(n_words=3, n_sentences=1, n_characters_in_words=9, n_syllables=3,
                      n_polysyllables=0, n_long_words=0, n_unique_words=3)
    feats = complexity_features(stats)
    # 0.39*3 + 11.8*1 - 15.59
    assert feats["FKGLvl"] == pytest.approx(-2.62, abs=1e-9)


def test_smog_hand_value():
    stats = TextStats(n_words=60, n_sentences=30, n_characters_in_words=300, n_syllables=100,
                      n_polysyllables=30, n_long_words=0, n_unique_words=40)
    feats = complexity_features(stats)
    assert feats["SmgIn"] == pytest.approx(1.0430 * 30**0.5 + 3.1291, abs=1e-9)
    assert feats["SmgIn"] == pytest.approx(8.84190, abs=1e-4)


def test_cli_and_lix_hand_values():
    # L=500 letters per 100 words, S=5 sentences per 100 words
    stats = TextStats(n_words=100, n_sentences=5, n_characters_in_words=500, n_syllables=120,
                      n_polysyllables=0, n_long_words=0, n_unique_words=80)
    assert complexity_features(stats)["CLIn"] == pytest.approx(12.12, abs=1e-9)
    stats = TextStats(n_words=10, n_sentences=2, n_characters_in_words=40, n_syllables=12,
                      n_polysyllables=0, n_long_words=4, n_unique_words=9)
    assert complexity_features(stats)["lix"] == pytest.approx(45.0, abs=1e-9)


def stats_of(text: str) -> TextStats:
    words = WORD_RE.findall(text)
    return compute_stats(text, words, [w.lower() for w in words])


def test_compute_stats_hand_count():
    stats = stats_of("The cat sat.")
    assert stats.n_words == 3
    assert stats.n_sentences == 1
    assert stats.n_characters_in_words == 9
    assert stats.n_syllables == 3


def test_compute_stats_empty():
    assert stats_of("") == TextStats()


def test_compute_stats_repeated_word():
    stats = stats_of("a a a a")
    assert stats.n_words == 4
    assert stats.n_unique_words == 1
    assert stats.n_sentences == 1  # trailing fragment counts


def test_stats_abbreviations_do_not_split():
    stats = stats_of("Mr. Smith met Dr. Jones. They spoke.")
    assert stats.n_sentences == 2


@pytest.mark.parametrize(
    "word,syllables",
    [
        ("the", 1),
        ("cat", 1),
        ("cake", 1),
        ("table", 2),
        ("apple", 2),
        ("see", 1),
        ("committee", 3),
        ("oversight", 3),
        ("people", 2),
        ("congressional", 4),
        ("why", 1),
        ("queue", 1),
        ("x", 1),
    ],
)
def test_syllable_rules(word, syllables):
    assert count_syllables(word) == syllables


def test_complexity_null_flags_degenerate_input():
    feats = complexity_features(TextStats())
    for name in ("ttr", "avgWlen", "FKGLvl", "SmgIn", "CLIn", "lix"):
        assert feats[name] is None
    assert feats["wCount"] == 0.0


def test_ttr_bounds_random_texts():
    rng = random.Random(3)
    vocab = ["alpha", "beta", "gamma", "delta", "run", "walk"]
    for _ in range(100):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 40))) + "."
        stats = stats_of(text)
        feats = complexity_features(stats)
        assert 0.0 < feats["ttr"] <= 1.0
        if stats.n_unique_words == stats.n_words:
            assert feats["ttr"] == 1.0


def features_by_name(text: str, lexicons) -> dict:
    """`extract_features` of `text` as {feature name: value}."""
    return dict(zip(SCHEMA, extract_features(text, lexicons).values))


def test_affect_zero_hits_is_all_neutral(lexicons):
    feats = features_by_name("zxqv flibber jabberwock", lexicons)
    assert feats["vneu"] == 1.0
    assert feats["vpos"] == 0.0 and feats["vneg"] == 0.0
    assert feats["wneg"] == feats["spos"] == 0.0


def test_affect_single_strong_positive_word(lexicons):
    feats = features_by_name("excellent", lexicons)
    assert feats["spos"] == 1.0
    assert feats["sneg"] == feats["wpos"] == feats["wneu"] == 0.0


def test_affect_shares_sum_to_one(lexicons):
    rng = random.Random(11)
    words = list(lexicons.sentiment_valence) + ["committee", "hearing", "zxqv", "terrible", "great"]
    for _ in range(200):
        text = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 30)))
        feats = features_by_name(text, lexicons)
        assert feats["vneg"] + feats["vneu"] + feats["vpos"] == pytest.approx(1.0, abs=1e-12)
        assert min(feats["vneg"], feats["vneu"], feats["vpos"]) >= 0.0


def test_bias_counts_rule_forced(lexicons):
    feats = features_by_name("I assert and claim this", lexicons)
    assert feats["assert"] == 2.0


def test_bias_empty_text(lexicons):
    feats = features_by_name("", lexicons)
    assert all(feats[name] == 0.0 for name in SCHEMA[16:24])


def _naive_scan_count(text: str, entries) -> int:
    """Independent oracle: regex scan over the raw lowercased string with
    non-word boundaries, entry token gaps as any non-token run."""
    low = text.lower()
    total = 0
    for entry in entries:
        parts = [re.escape(p) for p in re.findall(r"[a-z0-9]+(?:'[a-z0-9]+)*", entry.lower())]
        pattern = r"(?<![a-z0-9'])" + r"[^a-z0-9']+".join(parts) + r"(?![a-z0-9'])"
        total += len(re.findall(pattern, low))
    return total


def test_lexicon_counter_matches_naive_scan_oracle(lexicons):
    rng = random.Random(99)
    pieces = (
        list(lexicons.assertives)
        + list(lexicons.hedges)
        + ["sort", "of", "kind", "committee,", "urgent!", "so-called", "find", "out", "zzz"]
    )
    lists = (lexicons.assertives, lexicons.hedges, lexicons.factives, lexicons.bias_words)
    for _ in range(400):
        n = rng.randrange(0, 25)
        sep = rng.choice([" ", "  ", ", ", " -- ", "\n"])
        text = sep.join(rng.choice(pieces) for _ in range(n))
        tokens = tokens_of(text)
        assert count_lexicon_hits(tokens, lists) == [_naive_scan_count(text, entries) for entries in lists]


def test_entries_that_tokenize_alike_each_count():
    tokens = tokens_of("a so-called fix, so called by whom")
    assert count_lexicon_hits(tokens, (frozenset({"so-called", "so called"}),)) == [4]
    # an entry in two lists counts once in each
    assert count_lexicon_hits(tokens, (frozenset({"so called"}), frozenset({"so called", "fix"}))) == [2, 3]


def test_entry_without_tokens_is_skipped():
    tokens = tokens_of("x -- y")
    assert count_lexicon_hits(tokens, (frozenset({"--", "x"}), frozenset({"--"}))) == [1, 0]


def test_overlapping_entries_all_count_at_each_start():
    entries = frozenset({"find", "find out", "find out more", "out", "out more", "more"})
    assert count_lexicon_hits(tokens_of("Find out more. Find out."), (entries,)) == [6 + 3]


def test_lexicon_counter_accepts_any_token_sequence(lexicons):
    tokens = tokens_of("We believe it may perhaps be true, and we claim it.")
    expected = count_lexicon_hits(tokens, (lexicons.hedges, lexicons.assertives))
    assert expected[0] > 0 and expected[1] > 0
    assert count_lexicon_hits(tuple(tokens), (lexicons.hedges, lexicons.assertives)) == expected


# --- the feature code before the one-pass scan, kept as the oracle for extract_features ---


def _old_count_syllables(word: str) -> int:
    w = "".join(c for c in word.lower() if c.isalpha())
    if not w:
        return 0
    groups = 0
    prev_vowel = False
    for c in w:
        is_vowel = c in "aeiouy"
        if is_vowel and not prev_vowel:
            groups += 1
        prev_vowel = is_vowel
    if groups > 1 and w.endswith("e") and len(w) >= 2 and w[-2] not in "aeiouy":
        if not (w.endswith("le") and len(w) >= 3 and w[-3] not in "aeiouy"):
            groups -= 1
    return max(groups, 1)


ABBREVIATIONS_ORACLE = frozenset(
    "mr mrs ms dr hon rev gen sen rep gov sgt col capt lt st no vs etc al inc corp dept".split()
)


def _old_is_abbreviation(text: str, dot_index: int) -> bool:
    start = dot_index
    while start > 0 and text[start - 1].isalpha():
        start -= 1
    word = text[start:dot_index].lower()
    return bool(word) and (word in ABBREVIATIONS_ORACLE or len(word) == 1)


def _old_count_sentences(text: str) -> int:
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
            if open_sentence and not (c == "." and _old_is_abbreviation(text, i)):
                n += 1
                open_sentence = False
            i = j + 1
            continue
        i += 1
    if open_sentence:
        n += 1
    return n


def _old_compute_stats(text: str) -> TextStats:
    wlist = WORD_RE.findall(text)
    if not wlist:
        return TextStats()
    syllables = [_old_count_syllables(w) for w in wlist]
    chars = [sum(1 for c in w if c.isalnum()) for w in wlist]
    return TextStats(
        n_words=len(wlist),
        n_sentences=max(_old_count_sentences(text), 1),
        n_characters_in_words=sum(chars),
        n_syllables=sum(syllables),
        n_polysyllables=sum(1 for s in syllables if s >= 3),
        n_long_words=sum(1 for c in chars if c > 6),
        n_unique_words=len({w.lower() for w in wlist}),
    )


@functools.lru_cache(maxsize=None)
def _entry_index(entries: frozenset) -> dict:
    index = {}
    for entry in entries:
        parts = tuple(tokens_of(entry))
        if parts:
            index.setdefault(parts[0], []).append(parts)
    return index


def _per_lexicon_hits(tokens, entries) -> int:
    """The counter with one first-token index per lexicon, scanned once per lexicon."""
    index = _entry_index(entries)
    total = 0
    for i, tok in enumerate(tokens):
        for parts in index.get(tok, ()):
            if len(parts) == 1 or tuple(tokens[i : i + len(parts)]) == parts:
                total += 1
    return total


def _per_entry_scan(tokens, entries) -> int:
    """The counter as it was before the first-token index: every entry scanned against every token."""
    total = 0
    toks = list(tokens)
    for entry in entries:
        parts = tokens_of(entry)
        k = len(parts)
        if k == 0:
            continue
        if k == 1:
            total += sum(1 for t in toks if t == parts[0])
        else:
            for i in range(len(toks) - k + 1):
                if toks[i : i + k] == parts:
                    total += 1
    return total


def _old_features(text: str, lexicons: Lexicons, count_hits=_per_lexicon_hits) -> dict:
    """The affect, bias and style/event groups as separate passes, merged by name."""
    tokens = tokens_of(text)
    merged = dict(complexity_features(_old_compute_stats(text)))
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
        merged.update(vneg=0.0, vneu=1.0, vpos=0.0)
    else:
        merged.update(vneg=neg / total, vneu=neu / total, vpos=pos / total)
    lists = {
        "wneg": lexicons.weak_negative, "wpos": lexicons.weak_positive, "wneu": lexicons.weak_neutral,
        "sneg": lexicons.strong_negative, "spos": lexicons.strong_positive, "sneu": lexicons.strong_neutral,
        "bias": lexicons.bias_words, "assert": lexicons.assertives, "facts": lexicons.factives,
        "hedges": lexicons.hedges, "implctv": lexicons.implicatives, "repVerb": lexicons.report_verbs,
        "poWords": lexicons.positive_opinion, "noWords": lexicons.negative_opinion,
        "location_mentions": lexicons.gazetteer,
    }
    merged.update({name: float(count_hits(tokens, entries)) for name, entries in lists.items()})
    raw_words = WORD_RE.findall(text)
    merged.update(
        punct_count=float(sum(1 for c in text if c in PUNCT_CHARS)),
        symbol_count=float(sum(1 for c in text if c in SYMBOL_CHARS)),
        quote_count=float(sum(1 for c in text if c in QUOTE_CHARS)),
        allcaps_count=float(sum(1 for w in raw_words if len(w) >= 2 and w.isalpha() and w.isupper())),
        date_mentions=float(len(DATE_RE.findall(text))),
    )
    assert set(merged) == set(SCHEMA)
    return merged


def _same_bytes(vector: FeatureVector, expected: dict) -> bool:
    """Equal as the table writes them: repr per value, so 0.0 and -0.0 differ."""
    return [repr(v) for v in vector.values] == [repr(expected[name]) for name in SCHEMA]


def _fixture_utterance_texts() -> list[str]:
    rules = SegmenterRules()
    texts = []
    for transcript in sorted(FIXTURES.glob("hearings/*/transcript.txt")):
        body = trim_proceedings(transcript.read_text(encoding="utf-8"), rules).body
        texts.extend(seg.text for seg in segment_utterances(body, rules).segments)
    return texts


def test_extract_features_matches_per_entry_scan_on_fixture_texts(lexicons):
    texts = _fixture_utterance_texts()
    assert len(texts) > 40
    vectors = [extract_features(text, lexicons) for text in texts]
    named = [dict(zip(SCHEMA, v.values)) for v in vectors]
    assert sum(v["location_mentions"] + v["hedges"] + v["repVerb"] for v in named) > 0
    for text, vector in zip(texts, vectors):
        assert _same_bytes(vector, _old_features(text, lexicons, _per_entry_scan)), text


HOSTILE_PIECES = (
    "Mr.", "Dr.", "mrs.", "St.", "e.g.", "U.S.", "J.", "No.", "etc.", "Inc.", "...", "?!", "!", "?", ".", "..?",
    "don't", "rock'n'roll", "'", "''", "o'", "USA", "FBI's", "A", "I", "OK", "x", "2020", "1999.", "01/02/2020",
    "March 5, 2021", "sept.", "May", "\u00e9t\u00e9", "Stra\u00dfe", "\u00c9COLE", "\u0663", "\u00b2",
    "\u2167", "_", "__init__", "a_b", "\u0130stanbul", "\u212aelvin", "\u0131", "\u017f", "table", "cake",
    "queue", "rhythm", "ye", "be", "the", "people", "committee", "congressional", "find out", "find", "out",
    "so-called", "so called", "sort of", "perhaps", "claim", "Ohio", "texas", "excellent", "terrible", "great",
    "\u201cquoted\u201d", "\u2018single\u2019", "`tick`", "$5", "100%", "a&b", "x@y", "#1", "^", "~", "*",
    "+", "=", "<", ">", "|", "\\", "(", ")", "[", "]", "{", "}", ";", ":", ",", "-", "/",
)
HOSTILE_SEPARATORS = ("", " ", " ", "  ", ". ", "! ", "? ", "\n", ", ", "-", "_", "'", "\u00a0", "\u2014")


def hostile_text(rng: random.Random) -> str:
    out = []
    for _ in range(rng.randrange(0, 16)):
        out += (rng.choice(HOSTILE_PIECES), rng.choice(HOSTILE_SEPARATORS))
    return "".join(out)


def test_extract_features_matches_old_passes_on_hostile_texts(lexicons):
    rng = random.Random(7)
    for _ in range(10000):
        text = hostile_text(rng)
        assert _same_bytes(extract_features(text, lexicons), _old_features(text, lexicons)), text


def test_sentence_and_syllable_counts_match_character_walk():
    rng = random.Random(8)
    for _ in range(20000):
        text = hostile_text(rng)
        assert count_sentences(text) == _old_count_sentences(text), text
    letters = "aeiouybcdlkteAEY\u00e9\u00df'\u0130\u212a1_"
    words = [p for p in HOSTILE_PIECES] + ["".join(rng.choice(letters) for _ in range(rng.randrange(0, 9)))
                                            for _ in range(20000)]
    for word in words:
        assert count_syllables(word) == _old_count_syllables(word), word


def test_alnum_class_is_exactly_isalnum():
    every = "".join(map(chr, range(0x110000)))
    matched = [m.start() for m in features_module._ALNUM_RE.finditer(every)]
    assert matched == [i for i, c in enumerate(every) if c.isalnum()]


def test_style_event_rule_forced(lexicons):
    feats = features_by_name("On 01/02/2020 in Ohio!", lexicons)
    assert feats["date_mentions"] == 1.0
    assert feats["location_mentions"] == 1.0
    assert feats["punct_count"] >= 1.0


def test_style_event_empty(lexicons):
    feats = features_by_name("", lexicons)
    assert all(feats[name] == 0.0 for name in SCHEMA[24:])


def test_allcaps_tokens(lexicons):
    assert features_by_name("HELLO WORLD", lexicons)["allcaps_count"] == 2.0
    assert features_by_name("hello world", lexicons)["allcaps_count"] == 0.0


def test_date_patterns(lexicons):
    assert features_by_name("It happened in 1999.", lexicons)["date_mentions"] == 1.0
    assert features_by_name("March 15, 2021 was the deadline", lexicons)["date_mentions"] == 1.0
    assert features_by_name("room 2154 holds 300 people", lexicons)["date_mentions"] == 0.0


def test_extract_features_deterministic_and_composed(lexicons):
    text = "Thank you, Chairman. We believe the program failed in Ohio in 2020. Why?"
    v1 = extract_features(text, lexicons)
    v2 = extract_features(text, lexicons)
    assert v1.values == v2.values
    assert len(v1.values) == len(SCHEMA)
    for name, value in complexity_features(stats_of(text)).items():
        assert dict(zip(SCHEMA, v1.values))[name] == value
    assert _same_bytes(v1, _old_features(text, lexicons))


def test_count_features_case_invariant(lexicons):
    # holds for every lexicon-driven count; allcaps_count is definitionally
    # case-sensitive and excluded
    rng = random.Random(5)
    words = ["Assert", "PERHAPS", "ohio", "Texas", "claim", "outrageous", "MANAGE", "say", "zzz"]
    case_free = ("wneg", "wpos", "wneu", "sneg", "spos", "sneu", "bias", "assert", "facts",
                 "hedges", "implctv", "repVerb", "poWords", "noWords", "date_mentions",
                 "location_mentions", "punct_count", "symbol_count", "quote_count")
    for _ in range(50):
        text = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 20)))
        upper = features_by_name(text.upper(), lexicons)
        lower = features_by_name(text.lower(), lexicons)
        for name in case_free:
            assert upper[name] == lower[name], name


def test_schema_header_stable(lexicons):
    assert len(SCHEMA) == 30
    assert SCHEMA[0] == "ttr" and SCHEMA[-1] == "location_mentions"


def test_feature_vector_requires_full_schema():
    with pytest.raises(Exception):
        FeatureVector([1.0, 2.0])


def test_lexicon_manifest_checksums(tmp_path):
    from gavel.lexicons import DEFAULT_DIR, verify_manifest

    assert verify_manifest() == []  # bundled lists match their MANIFEST
    work = tmp_path / "lex"
    shutil.copytree(DEFAULT_DIR, work)
    assert verify_manifest(work) == []
    (work / "hedges.txt").write_text("tampered\n")
    problems = verify_manifest(work)
    assert problems and "hedges.txt" in problems[0]


def test_read_examples_peak_is_no_higher_for_hashing_what_it_reads(tmp_path, monkeypatch):
    """corpus hashes a file as it streams it, holding no more of it than `open(path, encoding="utf-8")`,
    the reader before: `read_examples`' tracemalloc peak on a 13,464-row table is no higher."""
    from test_party_models import synth_rows

    from gavel import corpus
    from gavel.features import read_examples, write_examples

    path = tmp_path / "examples.tsv"
    write_examples(synth_rows(1000, seed=7), path)

    def peak():
        read_examples(path)  # once untraced, so that both runs start warm
        tracemalloc.start()
        try:
            read_examples(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    hashing = peak()
    monkeypatch.setattr(corpus, "_opened", lambda p: open(p, encoding="utf-8"))
    assert hashing <= peak()


def test_read_examples_holds_at_most_600_bytes_per_row(tmp_path):
    """The table is read into columns: a list per metadata column, its equal cells sharing one str,
    and an array of doubles per feature. Row objects held about 1.8 KB per row."""
    from test_party_models import synth_rows

    from gavel.features import read_examples, write_examples

    path = tmp_path / "examples.tsv"
    write_examples(synth_rows(100, seed=7), path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = read_examples(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_rows = len(table.example_id)
    assert n_rows >= 1000
    assert held / n_rows <= 600, f"{held / n_rows:.0f} bytes per row"


def test_read_examples_refuses_a_repeated_example_id_on_the_line_that_repeats_it(tmp_path):
    """Across blocks, and after any fault on an earlier line."""
    from test_party_models import synth_rows

    from gavel.corpus import RecordError
    from gavel.features import _BLOCK_LINES, _SESSION, read_examples, write_examples

    rows = synth_rows(20, seed=7)
    assert len(rows) > _BLOCK_LINES + 3
    path = tmp_path / "examples.tsv"
    write_examples([*rows, rows[3]], path)
    with pytest.raises(RecordError) as info:
        read_examples(path)
    assert (info.value.line_no, info.value.field_name) == (len(rows) + 2, "example_id")
    assert info.value.message == f"example {rows[3][0]!r} is also on line 5"
    bad = [*rows[:10], rows[3]]
    bad[6] = (*bad[6][:_SESSION], "abc", *bad[6][_SESSION + 1 :])
    write_examples(bad, path)
    with pytest.raises(RecordError) as info:
        read_examples(path)
    assert (info.value.line_no, info.value.field_name) == (8, "session")
