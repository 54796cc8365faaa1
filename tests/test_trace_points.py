"""The benchmark's traced run wraps cross-module names; each must still exist."""

import importlib
import importlib.util
import json
from pathlib import Path

from test_cli import FIXTURES, pipeline_steps, run_fresh

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_every_traced_name_resolves():
    wraps = _wraps()
    assert len(wraps) > 20
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _, _ in wraps
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert missing == []


def test_every_traced_name_is_the_function_its_span_is_named_after():
    # a span "party_models.strip_speaker_names" wraps a name bound to gavel.party_models.strip_speaker_names
    for module, attribute, span, _ in _wraps():
        home, name = span.split(".")
        bound = getattr(importlib.import_module(module), attribute)
        assert bound is getattr(importlib.import_module(f"gavel.{home}"), name), span


# In a fresh interpreter: install every wrapper before any command has run, then run
# each argv through `gavel.cli.main`; print the exit codes and what the tracer saw.
_TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
from gavel.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "spans": sorted({s.name for s in tracer.spans}),
                  "missing": tracer.missing, "count_errors": tracer.count_errors}))
"""


def test_wrappers_installed_before_the_first_command_see_every_call(tmp_path):
    """Each command binds its names only when it runs; a wrapper the tracer set first must stay bound."""
    steps = pipeline_steps(tmp_path) + [
        ["classify-qa", "apply", "--model", str(tmp_path / "qa_model.json"),
         "--eval", f"{FIXTURES / 'qa' / 'hand_labeled_test.tsv'}:HandLabeled"],
    ]
    seen = json.loads(run_fresh(_TRACED_RUN, str(TRACING), json.dumps(steps)).splitlines()[-1])
    assert seen["codes"] == [0] * len(steps)
    assert seen["missing"] == [] and seen["count_errors"] == []
    cli_spans = {span for module, _, span, _ in _wraps() if module == "gavel.cli"}
    assert cli_spans - set(seen["spans"]) == set()
