"""`gavel.map_ordered`: the serial list's results, in order, from forked workers or in-process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gavel
from gavel import map_ordered

SRC = Path(__file__).parent.parent / "src"


@pytest.fixture
def two_cpus(monkeypatch):
    """Make `map_ordered` see two usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def run_script(code: str) -> str:
    """stdout of `code` in a fresh interpreter that imports gavel from `src/`; fails after 60 s."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_results_come_back_in_input_order_from_workers(two_cpus):
    offset = 7  # a closure: `fn` is never pickled

    def square(i):
        return i * i + offset, os.getpid()

    results = map_ordered(square, range(40))
    assert [value for value, _ in results] == [i * i + offset for i in range(40)]
    assert {pid for _, pid in results} - {os.getpid()}, "no item ran in a worker"
    assert gavel._job is None


def test_one_cpu_runs_in_process_without_loading_the_pool():
    out = run_script(
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "from gavel import map_ordered\n"
        "pids = map_ordered(lambda i: os.getpid(), range(8))\n"
        "print(set(pids) == {os.getpid()}, 'concurrent.futures.process' in sys.modules,"
        " 'multiprocessing' in sys.modules)\n"
    )
    assert out == "True False False"


def test_a_nested_map_runs_serially_inside_its_worker(two_cpus):
    def inner_pids(i):
        return os.getpid(), map_ordered(lambda j: os.getpid(), range(4))

    for worker, inner in map_ordered(inner_pids, range(6)):
        assert inner == [worker] * 4
    assert {worker for worker, _ in map_ordered(inner_pids, range(6))} - {os.getpid()}


def test_a_value_error_in_a_worker_reaches_the_caller(two_cpus):
    def check(i):
        if i == 3:
            raise ValueError(f"bad item {i}")
        return i

    with pytest.raises(ValueError, match="bad item 3"):
        map_ordered(check, range(8))
    assert gavel._job is None


def test_a_dead_worker_raises_rather_than_hangs():
    out = run_script(
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from concurrent.futures.process import BrokenProcessPool\n"
        "from gavel import map_ordered\n"
        "try:\n"
        "    map_ordered(lambda i: os._exit(1) if i == 2 else i, range(6))\n"
        "except BrokenProcessPool:\n"
        "    print('broken')\n"
    )
    assert out == "broken"
