"""Static checks of the README's command examples and the demos' imports.

Neither check runs an experiment: the examples are only parsed, and the
demos are only read for the names they import from the package.
"""

import ast
import importlib
import pathlib
import shlex

from mixshor.cli import _build_parser

REPO = pathlib.Path(__file__).resolve().parent.parent


def readme_commands():
    """Every `mixshor ...` line of the README, with line continuations joined."""
    text = (REPO / "README.md").read_text(encoding="utf-8").replace("\\\n", " ")
    return [line.strip() for line in text.splitlines() if line.strip().startswith("mixshor ")]


def test_readme_examples_parse():
    commands = readme_commands()
    assert len(commands) >= 6
    parser = _build_parser()
    for command in commands:
        args = parser.parse_args(shlex.split(command)[1:])
        assert callable(args.run), command


def test_demo_imports_exist():
    imported = 0
    for demo in sorted((REPO / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "mixshor":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (demo.name, node.module, alias.name)
                    imported += 1
    assert imported > 0
