"""Module boundaries: no module imports another module's private names."""

import ast
from pathlib import Path

import supertkk

PACKAGE = Path(supertkk.__file__).resolve().parent


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("supertkk")):
                found.extend(f"{path.name}:{node.lineno} {alias.name}"
                             for alias in node.names if alias.name.startswith("_"))
    assert not found, found
