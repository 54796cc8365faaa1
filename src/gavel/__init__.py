"""gavel: congressional-hearing transcript segmentation and Q&A analytics.

This module holds what a process may need before it loads any other gavel
module: the version, the choices the argument parser offers, and the base
class of the errors `gavel.cli` reports with exit code 1. It also holds the
one rule by which gavel adds floats, and the one way it spreads independent
work over the CPUs.
"""

import os

__version__ = "0.1.0"

KINDS = ("Question", "Answer", "Both")

LAYOUTS = ("split_grid", "committee", "hearing_type_government")


class GavelError(Exception):
    """A failure the user can fix: bad input, a bad lexicon, an unreachable source."""


def sum_floats(values) -> float:
    """Add floats left to right, one rounding per addition.

    Builtin `sum` of floats rounds differently from Python 3.12 on, so a table
    built with it would not have the same bytes on every supported Python.
    """
    total = 0.0
    for value in values:
        total += value
    return total


# (fn, items) of the map that forked workers are running. Set before the fork, so a
# worker finds it in its copy of this module and neither fn nor items is pickled.
_job = None


def _run_job(i: int):
    fn, items = _job
    return fn(items[i])


def map_ordered(fn, items) -> list:
    """`[fn(item) for item in items]`, spread over forked workers, one per usable CPU.

    The workers number `min(len(items), len(os.sched_getaffinity(0)))`; only the
    results are pickled, so `fn` may be a closure. The map runs in this process
    when that number is below 2, inside a worker (so a nested map does not fork
    again), and where the platform has no CPU affinity or no fork. An exception
    from `fn` reaches the caller as itself; a worker that dies raises
    `BrokenProcessPool` instead of hanging. With `fn` a function of its item
    alone, the result is the same whichever way the map runs.
    """
    global _job
    items = list(items)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = min(len(items), usable)
    if n < 2 or _job is not None or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _job = (fn, items)
    try:
        with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run_job, range(len(items))))
    finally:
        _job = None
