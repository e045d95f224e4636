"""The README's command-line examples print what the README says they print.

Every `$ unitpoly ...` line of the README's console block runs through
cli.run, one fresh directory per blank-line-separated group of examples,
so a later command of a group reads the files an earlier one wrote. A
trailing `> file` writes stdout to that file, stderr counts as output,
and a `...` line stands for any lines. The lines below a command are
the output it must print.

Every `module.name` the README cites in backticks, with module one of
unitpoly's modules, names an attribute of unitpoly.<module>, so a retired
name cannot survive in the README.
"""

import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import unitpoly
from unitpoly.cli import run

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
CONSOLE = re.search(r"```console\n(.*?)```", README, re.S).group(1)
GROUPS = [group.splitlines() for group in CONSOLE.strip().split("\n\n")]
MODULES = {module.name for module in pkgutil.iter_modules(unitpoly.__path__)}
# `poly._values_at`, `context._ladder(n)`, `poly._OddEvaluator.preimage`: the dotted name
CITED = sorted(
    {match[1] for match in re.finditer(r"`((\w+)(?:\.\w+)+)", README) if match[2] in MODULES}
)


def _commands(lines):
    """(argv, redirect target or None, expected lines) for each command."""
    commands = []
    for line in lines:
        if line.startswith("$ "):
            words = shlex.split(line[2:])
            assert words[0] == "unitpoly", line
            target = None
            if words[-2:-1] == [">"]:
                words, target = words[:-2], words[-1]
            commands.append((words[1:], target, []))
        else:
            commands[-1][2].append(line)
    return commands


def _pattern(expected):
    return "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in expected)


def test_the_readme_has_console_examples():
    assert len(GROUPS) > 1 and all(group[0].startswith("$ unitpoly ") for group in GROUPS)


@pytest.mark.parametrize("group", GROUPS, ids=lambda group: shlex.split(group[0])[2])
def test_console_example(group, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, target, expected in _commands(group):
        run(argv)
        captured = capsys.readouterr()
        if target:
            (tmp_path / target).write_text(captured.out)
        output = captured.err if target else captured.out + captured.err
        assert re.fullmatch(_pattern(expected), output), (argv, output)


def test_the_readme_cites_module_names():
    assert {"context._ladder", "poly.KEPT_TREE_DEPTH", "solve.TREE_DEPTH_LIMIT"} <= set(CITED)


@pytest.mark.parametrize("name", CITED)
def test_a_cited_module_name_exists(name):
    module, *attributes = name.split(".")
    owner = importlib.import_module(f"unitpoly.{module}")
    for attribute in attributes:
        assert hasattr(owner, attribute), name
        owner = getattr(owner, attribute)
