"""Module boundaries: no module imports another module's private names,
every name the benchmark's tracer wraps exists, and the public surface
resolves."""

import ast
import importlib
from pathlib import Path

import supertkk

PACKAGE = Path(supertkk.__file__).resolve().parent
TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("supertkk")):
                found.extend(f"{path.name}:{node.lineno} {alias.name}"
                             for alias in node.names if alias.name.startswith("_"))
    assert not found, found


def test_every_traced_target_resolves():
    # the tracer looks each (module, attribute) up when it installs, and a
    # class by its own __init__; TARGETS is read from the source, so that
    # the test imports nothing of the benchmark
    tree = ast.parse(TRACER.read_text(), str(TRACER))
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]]
    assert targets
    missing = []
    for module, attr in targets:
        found = getattr(importlib.import_module(f"supertkk.{module}"), attr, None)
        if not (callable(found) and (not isinstance(found, type) or "__init__" in vars(found))):
            missing.append(f"{module}.{attr}")
    assert not missing, missing


def test_the_public_surface_resolves():
    # every exported name imports, and the names only the tests used live
    # in the test oracles: Matrix in oracle_linalg, basis_triple in
    # oracle_tables, pair_der_matches_der0 in oracle_tkk
    from supertkk import exact, structure, tkk
    namespace = {}
    exec("from supertkk import *", namespace)
    assert set(supertkk.__all__) <= set(namespace)
    retired = ("Matrix", "pair_der_matches_der0", "basis_triple")
    found = [f"{owner.__name__}.{name}" for owner in (supertkk, exact, tkk, structure.JordanPair)
             for name in retired if hasattr(owner, name) or name in supertkk.__all__]
    assert not found, found
