"""Every key of every config table is set by a shipped config, a test or the bench.

A table in ``src/qrotor/config.py`` is a dict literal of ``key: (type,
default)`` pairs.  Its key is set when a config in ``configs/`` has it as a
key, or when code in ``tests/`` or ``perfbench/`` names it: as a string, or as
a keyword argument (the tests update configs with ``dict.update``).  A key
that nothing sets is a branch of the reader that no run takes; it is either
given a shipped config, a test or a bench job, or deleted.  perfbench/ is only
read.
"""

import ast
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def table_keys() -> set[str]:
    """The keys of every ``{key: (type, default)}`` table in config.py."""
    keys = set()
    for node in ast.walk(_tree(REPO / "src" / "qrotor" / "config.py")):
        if isinstance(node, ast.Dict) and node.keys and all(
                isinstance(v, ast.Tuple) and len(v.elts) == 2 for v in node.values):
            keys.update(k.value for k in node.keys)
    return keys


def _json_keys(node) -> set[str]:
    if isinstance(node, dict):
        return set(node).union(*map(_json_keys, node.values()))
    if isinstance(node, list):
        return set().union(*map(_json_keys, node))
    return set()


def set_keys() -> set[str]:
    """Every key a shipped config has, and every string or keyword tests and bench name."""
    keys = set()
    for path in sorted((REPO / "configs").glob("*.json")):
        keys |= _json_keys(json.loads(path.read_text(encoding="utf-8")))
    for path in sorted((REPO / "tests").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                keys.add(node.value)
            elif isinstance(node, ast.keyword) and node.arg:
                keys.add(node.arg)
    return keys


def test_every_config_key_is_set_somewhere():
    assert sorted(table_keys() - set_keys()) == []
