"""Every public function and class of the package is reached or listed as library API.

A top-level public name in ``src/qrotor`` is reached when code in ``src/`` or
``perfbench/`` names it: as a name, as an attribute, or as a string equal to
it (the bench's span table names the functions it traces by string).  Import
lines do not count, so a re-export in ``__init__`` does not keep a name.  A
name that no code reaches is either a paper result that an acceptance
criterion checks, listed under the README's "Library API" heading, or it is
deleted; an independent oracle lives in ``tests/oracles.py``.  perfbench/ is
only read.
"""

import ast
import importlib
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "qrotor"


def _trees(paths):
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def public_definitions() -> list[tuple[str, str]]:
    """(module, name) of every top-level public function and class in the package."""
    return [(path.stem, node.name) for path, tree in _trees(sorted(SRC.glob("*.py")))
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def reached_names() -> set[str]:
    """Every identifier that code in src/ or perfbench/ names, imports aside."""
    paths = sorted(SRC.glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    names = set()
    for _, tree in _trees(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def library_api() -> list[str]:
    """The dotted names (module.name or module.Class.attribute) the README lists."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+(?:\.\w+)+)`", section, re.MULTILINE)


def test_every_public_name_is_reached_or_listed():
    reached = reached_names()
    listed = {tuple(dotted.split(".")[:2]) for dotted in library_api()}
    unreached = [f"{module}.{name}" for module, name in public_definitions()
                 if name not in reached and (module, name) not in listed]
    assert unreached == []


def test_every_listed_name_exists():
    listed = library_api()
    assert listed
    for dotted in listed:
        module, *attrs = dotted.split(".")
        obj = importlib.import_module(f"qrotor.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), dotted
            obj = getattr(obj, attr)
