"""Properties of the package source itself."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "lgmirror")


def test_no_assert_statements():
    """Invariants raise errors: `python -O` strips assert statements."""
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            if lines:
                found[name] = lines
    assert found == {}, f"assert statements at {found}"
