"""gavel: congressional-hearing transcript segmentation and Q&A analytics.

This module holds what a process may need before it loads any other gavel
module: the version, the choices the argument parser offers, and the base
class of the errors `gavel.cli` reports with exit code 1. It also holds the
one rule by which gavel adds floats.
"""

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
