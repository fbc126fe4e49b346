"""The README's command-line section names what the CLI defines."""

import argparse
import re
from pathlib import Path

from pseudodyn import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_line_block(text):
    """The first fenced block under the README's "## Command line" heading."""
    section = text.split("\n## Command line\n", 1)[1]
    return section.split("```", 2)[1]


def test_readme_names_every_command():
    block = _command_line_block(README.read_text())
    named = [line.split()[1] for line in block.splitlines()
             if line.startswith("pseudodyn ")]
    assert sorted(named) == sorted(cli._COMMANDS)


def test_readme_names_every_long_flag():
    text = README.read_text()
    flags = [option for action in cli._build_parser()._actions
             if not isinstance(action, argparse._HelpAction)
             for option in action.option_strings if option.startswith("--")]
    assert flags
    missing = [flag for flag in flags
               if not re.search(re.escape(flag) + r"(?![\w-])", text)]
    assert missing == []
