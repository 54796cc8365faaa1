"""Self-test of the benchmark at a tiny size. It asserts on schema, output
checks, fingerprints and spans, never on timings.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3

# Modules each workload must show spans for in the traced run.
ALL_MODULES = {"cli", "corpus", "segmenter", "qa", "linear", "lexicons", "features", "party_models", "forest",
               "kstest", "harness"}
TRACED_MODULES = {
    "many-hearings": ALL_MODULES,
    "long-hearings": {"cli", "corpus", "segmenter", "qa", "linear", "harness"},
    "grid-search": ALL_MODULES,
}


def _run(script: Path, workload: str, trace: int, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_schema_checks_and_fingerprints(workload, tmp_path):
    plain = _result(_run(HERE / "run.py", workload, 0, tmp_path))
    traced = _result(_run(HERE / "run.py", workload, 1, tmp_path))

    for result in (plain, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    # Same seed, same outputs: the untraced run, its repeats and the traced
    # in-process run (recorded in the second report) all agree.
    report0 = json.loads((tmp_path / f"{workload}-seed{SEED}-trace0.json").read_text())
    report1 = json.loads((tmp_path / f"{workload}-seed{SEED}-trace1.json").read_text())
    assert report0["fingerprints"] and report0["fingerprints"] == report1["fingerprints"]
    assert all(len(digests) == 1 for digests in report0["fingerprints"].values())

    spans = json.loads((tmp_path / f"{workload}-seed{SEED}-spans.json").read_text())
    assert spans["missing_wraps"] == [] and spans["count_errors"] == []
    assert {s["name"].split(".")[0] for s in spans["spans"]} >= TRACED_MODULES[workload]
    for s in spans["spans"]:
        assert s["end"] >= s["start"]
        assert s["parent"] is None or s["parent"] < s["id"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "perfbench" / "run.py", "long-hearings", 0, tmp_path / "out")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
