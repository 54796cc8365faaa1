import math
import random
from array import array

import pytest

from gavel.corpus import Party, Standing
from gavel.features import SCHEMA
from gavel.kstest import (
    GROUP_PAIRS,
    KSResult,
    Stars,
    compare_groups,
    emit_comparison_details,
    emit_heatmap_matrix,
    ks_series_p,
    ks_statistic,
    ks_two_sample,
    star_level,
)


def brute_force_d(a, b):
    """Oracle: evaluate both right-continuous ECDFs at every pooled point."""
    def ecdf(sample, t):
        return sum(1 for x in sample if x <= t) / len(sample)

    return max(abs(ecdf(a, t) - ecdf(b, t)) for t in list(a) + list(b))


def series_reference(lam, terms=100000):
    if lam <= 0:
        return 1.0
    vals = []
    for k in range(1, terms + 1):
        t = math.exp(-2.0 * (k * lam) ** 2)
        vals.append(t if k % 2 == 1 else -t)
        if t < 1e-18:
            break
    return min(1.0, max(0.0, 2.0 * math.fsum(vals)))


def test_identical_samples():
    r = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r.statistic_d == 0.0
    assert r.p_value == 1.0
    assert r.stars is Stars.NONE and not r.significant


def test_disjoint_supports():
    r = ks_two_sample([0.0, 0.0], [1.0, 1.0])
    assert r.statistic_d == 1.0


def test_interleaved_half_overlap():
    r = ks_two_sample([1.0, 2.0], [1.5, 2.5])
    assert r.statistic_d == brute_force_d([1.0, 2.0], [1.5, 2.5]) == 0.5


def test_oracle_equivalence_random_pairs():
    rng = random.Random(42)
    for _ in range(1000):
        na, nb = rng.randrange(1, 51), rng.randrange(1, 51)
        # mix continuous values and heavy ties
        pool = [rng.choice([0.0, 0.5, 1.0, 2.0]) for _ in range(8)]
        a = [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(-2, 2) for _ in range(na)]
        b = [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(-2, 2) for _ in range(nb)]
        assert ks_statistic(a, b) == brute_force_d(a, b)


def test_series_p_matches_high_precision_reference():
    rng = random.Random(7)
    lams = [rng.uniform(0.01, 4.0) for _ in range(200)] + [0.0, 0.05, 0.3, 0.5, 1.0, 2.5]
    for lam in lams:
        assert ks_series_p(lam) == pytest.approx(series_reference(lam), abs=1e-6)


def test_series_p_monotone_in_lambda():
    grid = [i / 100 for i in range(0, 500)]
    values = [ks_series_p(l) for l in grid]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-12


def test_symmetry():
    rng = random.Random(13)
    for _ in range(50):
        a = [rng.uniform(0, 1) for _ in range(rng.randrange(1, 20))]
        b = [rng.uniform(0, 1) for _ in range(rng.randrange(1, 20))]
        r1 = ks_two_sample(a, b)
        r2 = ks_two_sample(b, a)
        assert r1.statistic_d == r2.statistic_d
        assert r1.p_value == r2.p_value
        assert (r1.mean_a - r1.mean_b) == pytest.approx(-(r2.mean_a - r2.mean_b))


def test_rank_invariance_under_monotone_transform():
    rng = random.Random(29)
    for transform in (lambda x: 3 * x + 2, math.exp, lambda x: x**3):
        a = [rng.uniform(-1, 1) for _ in range(15)]
        b = [rng.uniform(-1, 1) for _ in range(10)]
        d0 = ks_statistic(a, b)
        d1 = ks_statistic([transform(x) for x in a], [transform(x) for x in b])
        assert d0 == pytest.approx(d1, abs=1e-15)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])
    with pytest.raises(ValueError):
        ks_two_sample([1.0], [float("nan")])


def test_star_levels():
    assert star_level(0.0005) is Stars.THREE
    assert star_level(0.001) is Stars.TWO
    assert star_level(0.009) is Stars.TWO
    assert star_level(0.01) is Stars.ONE
    assert star_level(0.049) is Stars.ONE
    assert star_level(0.05) is Stars.NONE
    assert star_level(0.5) is Stars.NONE
    assert Stars.THREE.glyph == "***"


@pytest.mark.parametrize("p, stars, significant", [
    (math.nextafter(0.001, 0.0), Stars.THREE, True),
    (0.001, Stars.TWO, True),
    (math.nextafter(0.01, 0.0), Stars.TWO, True),
    (0.01, Stars.ONE, True),
    (math.nextafter(0.05, 0.0), Stars.ONE, True),
    (0.05, Stars.NONE, False),
])
def test_a_results_stars_and_significance_are_read_off_its_p_value(p, stars, significant):
    result = KSResult(statistic_d=0.5, p_value=p, n_a=10, n_b=10, lam=1.0, mean_a=1.0, mean_b=2.0)
    assert (result.stars, result.significant) == (stars, significant)


def _fv(value: float) -> list:
    return [value] * len(SCHEMA)


def _fv_null_except(value: float, keep: str) -> list:
    return [value if name == keep else math.nan for name in SCHEMA]


def columns(rows):
    """`rows` of (party, standing, feature values) as the columns and row indices `compare_groups` takes."""
    parties, standings, values = zip(*rows)
    party, standing = [p.value for p in parties], [s.value for s in standings]
    return party, standing, [array("d", c) for c in zip(*values)], range(len(rows))


def make_rows(n_per_group, value_fn):
    rows = []
    specs = [
        (Party.REPUBLICAN, Standing.MAJORITY),
        (Party.DEMOCRAT, Standing.MINORITY),
        (Party.INDEPENDENT, Standing.MINORITY),
    ]
    for party, standing in specs:
        for i in range(n_per_group):
            rows.append((party, standing, _fv(value_fn(party, i))))
    return rows


def _only(items, features, pairs=GROUP_PAIRS):
    """The comparisons or skips of `compare_groups` for the given features and group pairs."""
    return [c for c in items if c.feature_name in features and (c.left_group, c.right_group) in pairs]


def test_compare_groups_reads_only_the_rows_it_is_given():
    rows = make_rows(20, lambda party, i: float(i % 7) + (party is Party.DEMOCRAT))
    others = make_rows(20, lambda party, i: 100.0 - i)
    mixed = [row for pair in zip(rows, others) for row in pair]
    *mixed_columns, _ = columns(mixed)
    assert compare_groups(*mixed_columns, range(0, len(mixed), 2)) == compare_groups(*columns(rows))


def test_compare_groups_identical_distributions():
    rows = make_rows(30, lambda party, i: float(i % 5))
    comparisons, _ = compare_groups(*columns(rows))
    comparisons = _only(comparisons, ("ttr", "wCount"))
    assert comparisons
    for c in comparisons:
        assert c.result.statistic_d == 0.0
        assert c.result.stars is Stars.NONE


def test_compare_groups_shifted_direction():
    def value(party, i):
        base = float(i % 7)
        return base + 10.0 if party is Party.REPUBLICAN else base

    comparisons, _ = compare_groups(*columns(make_rows(25, value)))
    (rd,) = _only(comparisons, ("ttr",), (("R", "D"),))
    assert rd.direction > 0


def test_compare_groups_strong_separation_three_stars():
    rng = random.Random(17)
    rows = []
    for i in range(500):
        rows.append((Party.REPUBLICAN, Standing.MAJORITY, _fv(rng.uniform(0.0, 1.0))))
        rows.append((Party.DEMOCRAT, Standing.MINORITY, _fv(rng.uniform(0.5, 1.5))))
    comparisons, _ = compare_groups(*columns(rows))
    (c,) = _only(comparisons, ("ttr",), (("R", "D"),))
    assert c.result.stars is Stars.THREE
    assert c.result.p_value < 0.001


def test_compare_groups_skips_small_and_null_flagged():
    rows = [
        (Party.REPUBLICAN, Standing.MAJORITY, _fv_null_except(1.0, "wCount")),
        (Party.REPUBLICAN, Standing.MAJORITY, _fv_null_except(2.0, "wCount")),
        (Party.DEMOCRAT, Standing.MINORITY, _fv_null_except(3.0, "wCount")),
        (Party.DEMOCRAT, Standing.MINORITY, _fv_null_except(4.0, "wCount")),
    ]
    comparisons, skips = compare_groups(*columns(rows))
    assert [c.feature_name for c in _only(comparisons, ("ttr", "wCount"), (("R", "D"),))] == ["wCount"]
    # ttr is all null on both sides
    assert any("usable" in s.reason for s in _only(skips, ("ttr",), (("R", "D"),)))


def test_emit_heatmap_matrix(tmp_path):
    rows = make_rows(20, lambda party, i: float(i) + (5.0 if party is Party.REPUBLICAN else 0.0))
    comparisons, skips = compare_groups(*columns(rows))
    out = tmp_path / "matrix.tsv"
    emit_heatmap_matrix(_only(comparisons, ("ttr",)), out)
    lines = out.read_text().splitlines()
    header = lines[0].split("\t")
    assert header[0] == "feature"
    assert len(header) == 1 + 5 * len(GROUP_PAIRS)
    assert len(lines) == 2  # one feature row
    cells = lines[1].split("\t")
    assert cells[0] == "ttr"
    # hatched column is true exactly when stars empty
    for pair_index in range(len(GROUP_PAIRS)):
        stars = cells[1 + pair_index * 5 + 1]
        hatched = cells[1 + pair_index * 5 + 4]
        if stars == "" and cells[1 + pair_index * 5] != "":
            assert hatched == "true"
        elif stars:
            assert hatched == "false"


def test_emit_heatmap_empty(tmp_path):
    out = tmp_path / "empty.tsv"
    emit_heatmap_matrix([], out)
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("feature\t")


def test_emit_details_carries_both_means(tmp_path):
    rows = make_rows(10, lambda party, i: float(i))
    comparisons, skips = compare_groups(*columns(rows))
    out = tmp_path / "details.tsv"
    emit_comparison_details(_only(comparisons, ("ttr",), (("R", "D"),)), _only(skips, ("ttr",), (("R", "D"),)), out)
    header = out.read_text().splitlines()[0].split("\t")
    assert "mean_a" in header and "mean_b" in header and "direction" in header
