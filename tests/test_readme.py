"""The README's Python examples run and give the values their comments show."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


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
