#!/usr/bin/env python3
"""Benchmark of the gavel CLI pipeline, end to end and per module.

    python3 perfbench/run.py --workload long-hearings --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout of the repository; the program is run
from `src/` of that checkout, with no install step. One run:

1. generates the workload's inputs from the seed (untimed; reported as gen_s);
2. times interpreter start-up (`gavel --version`) and the one-time set-up,
   `classify-qa train`, several times (setup_s is their median);
3. repeats the workload's command sequence, each command a fresh process and
   each sequence in a fresh directory, until --seconds are used up; on
   grid-search each round first builds the example table with the text
   commands (prep_s) and then times the analysis on it; every sequence is
   checked and fingerprinted;
   between commands, untimed, it times a fixed piece of reference work, and
   scales the run's wall times to the speed the machine had in the run (see
   REF_S);
4. with --trace 1, also runs the set-up and one sequence in-process with spans
   around each module boundary (see tracing.py) and writes the spans to JSON.

It prints every metric by name with unit and sample count, the output checks
and the machine facts, then, as the last line, one JSON object: with
--trace 0 it holds the end-to-end metrics, with --trace 1 the per-module ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
STARTUP_REPEATS = 3
DEADLINE_S = 170.0  # a run must end within 180 s; no new sequence starts past this
END_TO_END = ("setup_s", "pipeline_s", "prep_s", "analysis_s", "peak_rss_mb")
TIMED = END_TO_END[:-1]
# The machine's speed drifts by up to +-20% over minutes (contention on a
# shared host; it shows in CPU time too, so it is not waiting), and one run
# sees only part of that drift. Every timed metric is therefore the median
# wall time scaled by REF_S / the median time the reference work took in the
# same run: seconds on a machine that does the reference work in REF_S. Faster
# swings, within a run, average out over its rounds. The raw medians are the
# wall.* metrics.
REF_S = 0.04
_REF_TEXT = " ".join(f"Mr. Word{i % 97} asked, on page {i}: the answer." for i in range(4000))
_REF_TOKEN = re.compile(r"[A-Za-z]+|\d+")
_REF_SPANS = [(i, i + 3) for i in range(0, 1500, 5)]


def reference_work() -> float:
    """Fixed stdlib work in the mix the pipeline does: regex scans, dict
    counts, sorting, overlap tests over tuples, float loops. It never calls
    gavel, so a change to the program leaves it unchanged."""
    counts: dict[str, int] = {}
    for tok in _REF_TOKEN.findall(_REF_TEXT):
        key = tok.lower()
        counts[key] = counts.get(key, 0) + 1
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    overlaps = sum(1 for a, b in _REF_SPANS if any(s < b and a < e for s, e in _REF_SPANS[:200]))
    return overlaps + sum(v ** 0.5 / (len(k) + 1) for k, v in rows * 40)


class Aborted(Exception):
    """A command failed in a way that leaves nothing later to run."""


@dataclass
class Result:
    name: str
    phase: str
    wall: float
    cpu: float
    rss_kb: int
    rc: int


def _log_stem(d: Path, cmd) -> Path:
    return d / "logs" / "_".join(cmd.label.replace("-", "").split())


def median(values):
    return statistics.median(values) if values else 0.0


def machine_facts() -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class Bench:
    def __init__(self, args, wl):
        self.args, self.wl = args, wl
        self.t0 = time.monotonic()
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.results: list[Result] = []
        self.checks = []
        self.prints: dict[str, set] = {}  # fingerprint key -> distinct digests seen
        self.samples: dict[str, list[float]] = {}
        self.traced: dict = {}
        self.inputs = self.gen_s = self.model = None

    # --- running commands ---------------------------------------------------------

    def _spawn(self, argv: list[str], log: Path) -> tuple[int, float, float, int]:
        """Run one child to completion; (exit code, wall, cpu, max rss in KiB)."""
        remaining = self.time_left()
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(remaining, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def run(self, cmd, d: Path) -> Result:
        log = _log_stem(d, cmd)
        log.parent.mkdir(parents=True, exist_ok=True)
        rc, wall, cpu, rss = self._spawn([sys.executable, "-m", "gavel.cli", *cmd.argv], log)
        result = Result(cmd.name, cmd.phase, wall, cpu, rss, rc)
        self.results.append(result)
        if rc != 0:
            err = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace").strip().splitlines()
            raise Aborted(f"{cmd.label} exited {rc}: {err[-1] if err else ''}")
        return result

    def reference(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.sample("machine.ref_s", time.perf_counter() - start)

    def run_sequence(self, cmds, d: Path, table=None) -> list[Result]:
        """Run cmds one after another, with the reference work before the
        first and after each (untimed), and sample each command's wall and
        CPU time; check and fingerprint the outputs afterwards, untimed."""
        self.wl.make_output_dirs(cmds)
        results = []
        self.reference()
        for cmd in cmds:
            results.append(self.run(cmd, d))
            self.reference()
        for name in dict.fromkeys(r.name for r in results):
            self.sample(f"cli.{name}_s", sum(r.wall for r in results if r.name == name))
            self.sample(f"cli.{name}_cpu_s", sum(r.cpu for r in results if r.name == name))
        stdout = {cmd.label: _log_stem(d, cmd).with_suffix(".out").read_text(encoding="utf-8") for cmd in cmds}
        self.record_outputs(cmds, self.wl.check_sequence(self.inputs, cmds, stdout, table))
        return results

    def sample_time(self, name: str, results: list[Result]) -> None:
        """One sample of a timed metric: the commands' summed wall time."""
        self.sample(f"wall.{name}", sum(r.wall for r in results))

    def record_outputs(self, cmds, checks) -> None:
        self.checks += checks
        for key, digest in self.wl.fingerprints(cmds).items():
            self.prints.setdefault(key, set()).add(digest)
            if digest == "missing":
                self.checks.append(self.wl.Check(key, "artifact_written", False, "missing"))

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def time_left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t0)

    # --- the run ----------------------------------------------------------------------

    def measure(self) -> None:
        a, wl = self.args, self.wl
        t = time.perf_counter()
        self.inputs = wl.generate(a.workload, a.seed, a.size, self.work / "inputs")
        self.gen_s = time.perf_counter() - t

        for i in range(STARTUP_REPEATS):  # also warms the byte-code cache before any timing
            rc, wall, _, _ = self._spawn([sys.executable, "-m", "gavel.cli", "--version"], self.work / f"startup-{i}")
            self.results.append(Result("startup", "startup", wall, 0.0, 0, rc))
            if rc != 0:
                raise Aborted("gavel --version failed")
            self.sample("cli.startup_s", wall)

        for i in range(SETUP_REPEATS):
            d = self.work / f"setup-{i}"
            cmd = wl.setup_command(self.inputs, d)
            self.sample_time("setup_s", self.run_sequence([cmd], d))
            self.model = dict(cmd.outputs)["qa_model"]

        loop_start = time.perf_counter()
        rounds: list[float] = []
        while True:
            start = time.perf_counter()
            d = self.work / f"seq-{len(rounds)}"
            table = None
            if a.workload == "grid-search":  # a fresh table each round, built before the timed sequence
                self.sample_time("prep_s", self.run_sequence(
                    wl.prep_commands(self.inputs, self.model, d, "features"), d))
                table = wl.table_path(d)
            results = self.run_sequence(wl.sequence(self.inputs, self.model, d, table), d, table)
            shutil.rmtree(d)
            self.sample_time("pipeline_s", results)
            for phase in ("prep", "analysis"):
                if any(r.phase == phase for r in results):
                    self.sample_time(f"{phase}_s", [r for r in results if r.phase == phase])
            rounds.append(time.perf_counter() - start)
            est = median(rounds)
            if time.perf_counter() - loop_start + est > a.seconds or self.time_left() < est + 5.0:
                break

        if a.trace:
            self.trace_run()

    def trace_run(self) -> None:
        """Set-up, grid-search prep and one sequence in-process, with spans."""
        import tracing
        from gavel import cli

        wl, d = self.wl, self.work / "traced"
        tracer = tracing.Tracer()
        origin = time.perf_counter()

        def run_inprocess(cmds, table=None) -> float:
            wl.make_output_dirs(cmds)
            stdout = {}
            start = time.perf_counter()
            for cmd in cmds:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), tracer.command(cmd.name, cmd.label):
                    rc = cli.main(list(cmd.argv))
                self.results.append(Result(cmd.name, "traced", 0.0, 0.0, 0, rc))
                if rc != 0:
                    lines = err.getvalue().strip().splitlines()
                    raise Aborted(f"traced {cmd.label} exited {rc}: {lines[-1] if lines else ''}")
                stdout[cmd.label] = out.getvalue()
            elapsed = time.perf_counter() - start
            self.record_outputs(cmds, wl.check_sequence(self.inputs, cmds, stdout, table))
            return elapsed

        tracer.install()
        try:
            setup = wl.setup_command(self.inputs, d / "setup")
            run_inprocess([setup])
            model = dict(setup.outputs)["qa_model"]
            table = None
            if self.args.workload == "grid-search":
                run_inprocess(wl.prep_commands(self.inputs, model, d / "prep", "features"))
                table = wl.table_path(d / "prep")
            pipeline = run_inprocess(wl.sequence(self.inputs, model, d / "seq", table), table)
        finally:
            tracer.uninstall()
        self.traced = {
            "pipeline_s": pipeline,
            "layers": tracing.layer_metrics(tracer.spans),
            "spans": [s.record(origin) for s in tracer.spans],
            "missing": tracer.missing,
            "count_errors": tracer.count_errors,
        }

    # --- results ------------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str, int]]:
        """All metrics as name -> (value, unit, sample count)."""
        m = {}
        scale = REF_S / (median(self.samples.get("machine.ref_s", [])) or REF_S)
        for name in TIMED:
            values = self.samples.get(f"wall.{name}", [])
            m[name] = (median(values) * scale, "s", len(values))
        timed = [r for r in self.results if r.rss_kb]
        m["peak_rss_mb"] = (max((r.rss_kb for r in timed), default=0) / 1024.0, "MB", len(timed))
        if not self.args.trace:
            return m
        for name in self.wl.COMMAND_NAMES:
            for key in (f"cli.{name}_s", f"cli.{name}_cpu_s"):
                values = self.samples.get(key, [])
                m[key] = (median(values), "s", len(values))
        startup = self.samples.get("cli.startup_s", [])
        m["cli.startup_s"] = (median(startup), "s", len(startup))
        for key in [f"wall.{name}" for name in TIMED] + ["machine.ref_s"]:
            values = self.samples.get(key, [])
            m[key] = (median(values), "s", len(values))
        traced = self.traced.get("pipeline_s", 0.0)
        m["trace.pipeline_s"] = (traced, "s", 1)
        m["trace.overhead_s"] = (traced - m["wall.pipeline_s"][0], "s", m["wall.pipeline_s"][2])
        m.update(self.traced.get("layers", {}))
        return m


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark the gavel CLI pipeline on one seed-generated workload.")
    p.add_argument("--workload", required=True, choices=("many-hearings", "long-hearings", "grid-search"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long to repeat the command sequence")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: add the traced in-process run")
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test only")
    p.add_argument("--out", default=str(ROOT / ".perfbench_out"), help="directory for the report and spans JSON")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gavel" / "cli.py").is_file():
        print(f"error: no gavel sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    bench = Bench(args, workloads)
    error = None
    try:
        bench.measure()
    except Aborted as exc:
        error = str(exc)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.work.parent.rmdir()
    return report(bench, error)


def report(bench: Bench, error) -> int:
    args = bench.args
    metrics = bench.metrics()
    failed_labels = [c for c in bench.checks if not c.ok]
    unstable = sorted(k for k, v in bench.prints.items() if len(v) != 1)
    attempted = len(bench.results)
    # each failed check or unstable fingerprint marks one invocation as failed
    failed = min(attempted, sum(1 for r in bench.results if r.rc != 0) + len(failed_labels) + len(unstable))
    correct = error is None and failed == 0 and bool(bench.checks)
    facts = machine_facts()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    spans_path = out_dir / f"{stem}-spans.json"
    report_path = out_dir / f"{stem}-trace{args.trace}.json"

    print(f"gavel benchmark: workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"machine: nproc {facts['nproc']} (usable {facts['cpus_usable']}), cpu {facts['cpu_model']}, "
          f"python {facts['python']}")
    if bench.inputs is not None:
        print(f"inputs: {len(bench.inputs.truth)} hearings, {bench.inputs.n_chars} chars, "
              f"generated in {bench.gen_s:.3f} s (not part of setup_s)")
    print("closed loop, 1 client, each command a fresh process; timings are medians over n samples")
    print(f"{'metric':36} {'value':>14} {'unit':8} n")
    for name, (value, unit, n) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:36} {shown:>14} {unit:8} {n}")
    print(f"{'failed_op_share':36} {failed / attempted if attempted else 0.0:>14.6g} {'share':8} "
          f"{failed} failed of {attempted} attempted")
    if error:
        print(f"ABORTED: {error}")
    groups: dict[tuple[str, str], list] = {}
    for c in bench.checks:
        groups.setdefault((c.command, c.name), []).append(c)
    print(f"checks: {len(bench.checks) - len(failed_labels)} passed, {len(failed_labels)} failed")
    for (command, name), cs in groups.items():
        bad = [c for c in cs if not c.ok]
        shown = bad[0] if bad else cs[-1]
        print(f"  {'FAIL' if bad else 'PASS'} {command}: {name} x{len(cs)} ({shown.detail})")
    print(f"fingerprints (sha256; {'identical across repeats' if not unstable else 'DIFFER: ' + ', '.join(unstable)}):")
    for key, digests in sorted(bench.prints.items()):
        print(f"  {key:32} {','.join(sorted(digests))}")
    if args.trace and bench.traced:
        spans_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "missing_wraps": bench.traced["missing"],
            "count_errors": bench.traced["count_errors"], "spans": bench.traced["spans"],
        }) + "\n", encoding="utf-8")
        print(f"spans: {len(bench.traced['spans'])} written to {spans_path}")
        for miss in bench.traced["missing"]:
            print(f"  not traced (name gone from the program): {miss}")
    report_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "gen_s": bench.gen_s, "error": error,
        "attempted": attempted, "failed": failed, "correct": correct,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "samples": bench.samples,
        "checks": [c.__dict__ for c in bench.checks],
        "fingerprints": {k: sorted(v) for k, v in sorted(bench.prints.items())},
    }, indent=1) + "\n", encoding="utf-8")
    print(f"report: {report_path}")

    names = END_TO_END if not args.trace else [k for k in metrics if k not in END_TO_END]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names if k in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
