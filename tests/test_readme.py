"""The README's Python examples and command lines run and give the values
their comments show, and the package names it quotes exist."""

import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import cubecats
from cubecats import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)
COMMANDS = [
    line
    for line in re.search(r"## Command line\n\n```sh\n(.*?)```", TEXT, re.S)[1].splitlines()
    if line.startswith("cubecats ")
]
# inline code spans, with the fenced blocks taken out first
SPANS = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", TEXT, flags=re.S))


def _expected(lines, node):
    """The literal in the comment after an expression, on its line or the next.

    Text after two spaces is prose, as in ``# '00*'  (the 1 flips ...)``.
    """
    comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
    if not comment and node.end_lineno < len(lines):
        comment = lines[node.end_lineno].strip()
    return ast.literal_eval(comment.lstrip("# ").split("  ")[0])


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block(block):
    lines = block.splitlines()
    namespace: dict = {}
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            assert eval(code, namespace) == _expected(lines, node), code
        else:
            exec(code, namespace)


def test_readme_has_command_lines():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("line", COMMANDS, ids=[f"line{i}" for i in range(len(COMMANDS))])
def test_readme_command_line(line, tmp_path, capsys):
    # a comment of one word, before any two-space prose, is the line's output
    command, _, comment = line.partition("#")
    argv = shlex.split(command)[1:]
    if "t3.json" in argv:
        assert cli.main(["build", "--kind", "twisted", "--n", "3", "--out", "json"]) == 0
        (tmp_path / "t3.json").write_text(capsys.readouterr().out)
        argv[argv.index("t3.json")] = str(tmp_path / "t3.json")
    assert cli.main(argv) == 0, line
    shown = comment.strip().split("  ")[0]
    if shown and " " not in shown:
        assert capsys.readouterr().out == shown + "\n", line


def test_readme_names_resolve():
    # a backticked module.name of a cubecats module, and a backticked
    # enumerate_* name, must name something the package has
    modules = {"cubecats": cubecats}
    for info in pkgutil.iter_modules(cubecats.__path__):
        modules[info.name] = importlib.import_module(f"cubecats.{info.name}")
    missing = []
    for span in SPANS:
        for module, name in re.findall(r"(?<![\w.])(?:cubecats\.)?(\w+)\.(\w+)", span):
            if module in modules and not hasattr(modules[module], name):
                missing.append(f"{module}.{name}")
        for name in re.findall(r"\benumerate_\w+", span):
            if not any(hasattr(mod, name) for mod in modules.values()):
                missing.append(name)
    assert not missing, missing
