"""The README's library example runs as written and prints what it says,
its command-line examples parse, and the names in its module table exist."""

import builtins
import contextlib
import fractions
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import slmatch
from slmatch.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # each print line ends with "# <expected output> -- <note>" or "# <expected output>"
    expected = [
        line.split("#", 1)[1].split(" -- ")[0].strip() + "\n"
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, str(README), "exec"), {})
    assert stdout.getvalue() == "".join(expected)


def test_readme_command_lines_parse():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) >= 10 and all(argv[0] == "slmatch" for argv in commands)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_readme_module_table_names_resolve():
    section = README.read_text(encoding="utf-8").split("## What is in the box", 1)[1]
    table = section.split("\n## ", 1)[0]
    names = {token.split("(")[0] for token in re.findall(r"`([^`]+)`", table)}
    assert len(names) >= 20
    submodules = [
        importlib.import_module(f"slmatch.{info.name}")
        for info in pkgutil.iter_modules(slmatch.__path__)
        if info.name != "__main__"
    ]
    scopes = [{"slmatch": slmatch, "np": np}] + [
        vars(module) for module in (slmatch, *submodules, builtins, fractions, np, np.linalg)
    ]

    def resolves(name):
        head, *path = name.split(".")
        for scope in scopes:
            value = scope.get(head)
            for attribute in path:
                value = getattr(value, attribute, None)
            if value is not None:
                return True
        return False

    assert [name for name in sorted(names) if not resolves(name)] == []
