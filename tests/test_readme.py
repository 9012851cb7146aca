"""The README's library quickstart runs as written, and its CLI invocations parse."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from tasksim.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library quickstart", "exec"), {})


def test_cli_invocations_parse():
    """Every ``tasksim ...`` line of the README's bash blocks, with its ``\\``
    continuations joined, parses with the CLI's parser; none is run."""
    text = README.read_text(encoding="utf-8")
    argvs = [shlex.split(line)[1:]
             for block in re.findall(r"```bash\n(.*?)```", text, re.S)
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("tasksim ")]
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in argvs} == set(commands.choices)
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README invocation does not parse: tasksim {shlex.join(argv)}")
