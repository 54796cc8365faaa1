"""The benchmark's traced run wraps cross-module names; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

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
