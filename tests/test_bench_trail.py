"""The committed benchmark reports under bench/ are whole, passing and documented.

Each perf change adds `BENCH_<workload>.json` files: `pairs` of reports that
`perfbench/run.py` wrote for the parent commit and for the change. A pair
compares only when both sides ran the same workload, seed and run length,
and counts only when both sides passed every check with no failed command.
"""

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).parent.parent / "bench"
REPORTS = sorted(BENCH.glob("**/BENCH_*.json"))


def test_the_trail_is_not_empty():
    assert REPORTS


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: str(p.relative_to(BENCH)))
def test_every_pair_is_whole_and_passing(path):
    trail = json.loads(path.read_text(encoding="utf-8"))
    assert trail["pairs"], path
    for pair in trail["pairs"]:
        sides = [pair["parent"], pair["change"]]
        assert pair["first"] in ("parent", "change")
        for report in sides:
            assert (report["correct"], report["failed"], report["error"]) == (True, 0, None)
        assert len({(r["workload"], r["seed"], r["seconds"], r["trace"]) for r in sides}) == 1
        assert path.name.startswith(f"BENCH_{report['workload']}")


def test_the_readme_names_every_report():
    readme = (BENCH / "README.md").read_text(encoding="utf-8")
    assert [str(p.relative_to(BENCH)) for p in REPORTS if str(p.relative_to(BENCH)) not in readme] == []
