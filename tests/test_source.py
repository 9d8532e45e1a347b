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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    """Each module uses only the public names of the others: no
    `module._name` on an imported lgmirror module, and no
    `from lgmirror.module import _name`."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "lgmirror":
                modules.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lgmirror."):
                found += [f"{name}:{node.lineno} {node.module}.{a.name}" for a in node.names if _private(a.name)]
            elif isinstance(node, ast.Import):
                modules.update(a.asname for a in node.names if a.name.startswith("lgmirror.") and a.asname)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and _private(node.attr)
            ):
                found.append(f"{name}:{node.lineno} {node.value.id}.{node.attr}")
    assert found == [], f"private names read across modules: {found}"
