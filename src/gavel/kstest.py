"""Two-sample Kolmogorov-Smirnov testing across feature distributions.

The statistic D is the supremum gap between the two right-continuous
empirical CDFs, computed by a streaming merge of the sorted samples. The
p-value uses the asymptotic series

    p = 2 * sum_{k>=1} (-1)^(k-1) * exp(-2 k^2 lambda^2)

with the small-sample correction lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D
and ne = na*nb/(na+nb); the series is truncated once terms drop below 1e-12.

Group comparisons cover the pairs R-D, R-I, D-I, M-m and R.M.-D.M., where
R/D/I select by party, M/m by standing, and R.M./D.M. by both, over the
example table's columns (NaN for a null feature value). Star levels:
*** for p < 0.001, ** for p in [0.001, 0.01), * for p in [0.01, 0.05).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from . import sum_floats
from .corpus import Party, Standing, write_tsv
from .features import SCHEMA

SERIES_TERM_CUTOFF = 1e-12
_MAX_SERIES_TERMS = 200_000


class Stars(str, Enum):
    NONE = "None"
    ONE = "One"
    TWO = "Two"
    THREE = "Three"

    @property
    def glyph(self) -> str:
        return {"None": "", "One": "*", "Two": "**", "Three": "***"}[self.value]


@dataclass(frozen=True)
class KSResult:
    statistic_d: float
    p_value: float
    n_a: int
    n_b: int
    lam: float
    mean_a: float
    mean_b: float
    stars: Stars
    significant: bool


def star_level(p: float) -> Stars:
    """Map a p-value to a star level; boundaries belong to the weaker bucket."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p-value out of range: {p}")
    if p < 0.001:
        return Stars.THREE
    if p < 0.01:
        return Stars.TWO
    if p < 0.05:
        return Stars.ONE
    return Stars.NONE


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """Supremum ECDF gap via a two-pointer merge over the sorted samples.

    Ties are handled by evaluating the gap just after each distinct value,
    which is where right-continuous ECDFs realize their difference.
    """
    xa, xb = sorted(a), sorted(b)
    na, nb = len(xa), len(xb)
    i = j = 0
    d = 0.0
    while i < na or j < nb:
        if j >= nb or (i < na and xa[i] <= xb[j]):
            v = xa[i]
        else:
            v = xb[j]
        while i < na and xa[i] <= v:
            i += 1
        while j < nb and xb[j] <= v:
            j += 1
        gap = abs(i / na - j / nb)
        if gap > d:
            d = gap
    return d


def ks_series_p(lam: float) -> float:
    """Asymptotic tail probability, clamped to [0, 1]."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, _MAX_SERIES_TERMS + 1):
        term = math.exp(-2.0 * (k * lam) ** 2)
        total += sign * term
        if term < SERIES_TERM_CUTOFF:
            break
        sign = -sign
    else:
        # lambda so small the terms never decay; the tail probability is 1
        return 1.0
    return min(1.0, max(0.0, 2.0 * total))


def _check_sample(name: str, xs: Sequence[float]) -> None:
    if len(xs) < 1:
        raise ValueError(f"sample {name} is empty")
    for v in xs:
        if not math.isfinite(v):
            raise ValueError(f"sample {name} contains a non-finite value")


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KSResult:
    _check_sample("a", a)
    _check_sample("b", b)
    na, nb = len(a), len(b)
    d = ks_statistic(a, b)
    ne = na * nb / (na + nb)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    p = ks_series_p(lam)
    stars = star_level(p)
    return KSResult(
        statistic_d=d,
        p_value=p,
        n_a=na,
        n_b=nb,
        lam=lam,
        mean_a=sum_floats(a) / na,
        mean_b=sum_floats(b) / nb,
        stars=stars,
        significant=stars is not Stars.NONE,
    )


# Group pairs in canonical order; left group listed first.
GROUP_PAIRS: tuple[tuple[str, str], ...] = (
    ("R", "D"),
    ("R", "I"),
    ("D", "I"),
    ("M", "m"),
    ("R.M.", "D.M."),
)


# group -> (party, standing) of its rows; None selects any value
GROUPS: dict[str, tuple[Optional[Party], Optional[Standing]]] = {
    "R": (Party.REPUBLICAN, None), "D": (Party.DEMOCRAT, None), "I": (Party.INDEPENDENT, None),
    "M": (None, Standing.MAJORITY), "m": (None, Standing.MINORITY),
    "R.M.": (Party.REPUBLICAN, Standing.MAJORITY), "D.M.": (Party.DEMOCRAT, Standing.MAJORITY),
}


@dataclass(frozen=True)
class GroupComparison:
    left_group: str
    right_group: str
    feature_name: str
    result: KSResult
    direction: float  # mean_left - mean_right; positive = left larger


@dataclass(frozen=True)
class ComparisonSkip:
    left_group: str
    right_group: str
    feature_name: str
    reason: str


def compare_groups(
    party: Sequence[str], standing: Sequence[str], features: Sequence[Sequence[float]], rows: Sequence[int]
) -> tuple[list[GroupComparison], list[ComparisonSkip]]:
    """One KS comparison per (feature, group pair) over `rows` of the columns: party, standing and
    one column per SCHEMA feature, in schema order; null (NaN) values excluded."""
    comparisons: list[GroupComparison] = []
    skips: list[ComparisonSkip] = []
    members = {
        group: [i for i in rows if want_p in (None, party[i]) and want_s in (None, standing[i])]
        for group, (want_p, want_s) in GROUPS.items()
    }
    for left, right in GROUP_PAIRS:
        rows_l, rows_r = members[left], members[right]
        for name, column in zip(SCHEMA, features):
            a = [v for v in map(column.__getitem__, rows_l) if v == v]
            b = [v for v in map(column.__getitem__, rows_r) if v == v]
            if len(a) < 2 or len(b) < 2:
                skips.append(
                    ComparisonSkip(left, right, name, f"need >= 2 usable values per group, got {len(a)}/{len(b)}")
                )
                continue
            result = ks_two_sample(a, b)
            comparisons.append(
                GroupComparison(left, right, name, result, direction=result.mean_a - result.mean_b)
            )
    return comparisons, skips


_CELL_FIELDS = ("direction", "stars", "D", "p", "hatched")


def emit_heatmap_matrix(comparisons: Sequence[GroupComparison], path: Path | str) -> None:
    """Wide matrix: one row per feature, five cell fields per group pair.

    `hatched` is true exactly when the difference is not significant, the
    cue external plotting uses for the cross-hatch pattern.
    """
    by_key = {(c.feature_name, c.left_group, c.right_group): c for c in comparisons}
    feature_order = [n for n in SCHEMA if any(k[0] == n for k in by_key)]
    header = ["feature", *(f"{left}|{right}:{f}" for left, right in GROUP_PAIRS for f in _CELL_FIELDS)]
    rows = []
    for name in feature_order:
        cells = [name]
        for left, right in GROUP_PAIRS:
            c = by_key.get((name, left, right))
            if c is None:
                cells += [None] * len(_CELL_FIELDS)
            else:
                r = c.result
                cells += [c.direction, r.stars.glyph, r.statistic_d, r.p_value, not r.significant]
        rows.append(cells)
    write_tsv(path, header, rows)


def emit_comparison_details(
    comparisons: Sequence[GroupComparison],
    skips: Sequence[ComparisonSkip],
    path: Path | str,
) -> None:
    """Long-format dump carrying both means, for either hue convention."""
    header = ("feature", "left", "right", "n_a", "n_b", "mean_a", "mean_b", "direction", "D", "p", "lambda", "stars",
              "significant", "skip_reason")
    rows = []
    for c in comparisons:
        r = c.result
        rows.append((c.feature_name, c.left_group, c.right_group, r.n_a, r.n_b, r.mean_a, r.mean_b, c.direction,
                     r.statistic_d, r.p_value, r.lam, r.stars, r.significant, None))
    rows += [(s.feature_name, s.left_group, s.right_group, *[None] * 10, s.reason) for s in skips]
    write_tsv(path, header, rows)
