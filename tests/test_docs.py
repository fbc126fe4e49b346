"""The README names what the package defines: the CLI's commands and
flags, the package's modules, and no class or error that is gone."""

import argparse
import builtins
import importlib
import pkgutil
import re
from pathlib import Path

import pseudodyn
from pseudodyn import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_block(text, heading):
    """The first fenced block under the README's "## <heading>" heading."""
    section = text.split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1]


def _modules():
    return [importlib.import_module(f"pseudodyn.{info.name}")
            for info in pkgutil.iter_modules(pseudodyn.__path__)]


def test_readme_names_every_command():
    block = _fenced_block(README.read_text(), "Command line")
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


def test_readme_layout_names_every_module():
    block = _fenced_block(README.read_text(), "Layout")
    named = re.findall(r"^\s+(\w+)\.py\s", block, flags=re.MULTILINE)
    assert sorted(named) == sorted(m.__name__.split(".")[1] for m in _modules())


def test_readme_class_names_resolve():
    # CamelCase names in code spans (two capitals, a lowercase letter, not a
    # builtin such as ValueError) must still exist in some module
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    names = {name for span in spans for name in re.findall(r"\b[A-Za-z_]\w*", span)
             if sum(c.isupper() for c in name) >= 2
             and any(c.islower() for c in name) and not hasattr(builtins, name)}
    assert names
    modules = _modules()
    missing = sorted(name for name in names
                     if not any(hasattr(m, name) for m in modules))
    assert missing == []
