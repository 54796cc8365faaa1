import argparse
import re
from pathlib import Path

from gavel.cli import build_parser

CLI_DOC = Path(__file__).parent.parent / "docs" / "cli.md"


def _declared_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every `--flag` of `parser` and of its subcommands, nested ones included."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _declared_flags(sub)
    return flags


def test_the_cli_doc_names_exactly_the_flags_the_parser_declares():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", CLI_DOC.read_text(encoding="utf-8")))
    declared = _declared_flags(build_parser())
    assert (sorted(declared - named), sorted(named - declared)) == ([], [])
