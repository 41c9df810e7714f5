"""Deterministic CSV/JSON emission and the worker-pool map helper.

Every float is rendered with nine significant digits in scientific notation,
and orderings are fixed by construction, so identical configurations produce
byte-identical artifacts regardless of platform or parallelism.  The writers
write straight to the path they are given; `write_together` is the one place
that stages: it runs them on siblings ``<path>.<pid>.tmp`` in the same
directory and renames each onto its path only once all are written, so a
failed run leaves no partial artifact.
"""

from __future__ import annotations

import errno
import functools
import itertools
import os
from pathlib import Path


def fmt_float(x: float) -> str:
    """Nine significant digits, scientific notation."""
    return f"{float(x):.8e}"


def _fmt_cell(value) -> str:
    if type(value) is float:   # most cells: skip the checks below
        return fmt_float(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def write_together(*writes) -> None:
    """Run each ``(writer, path, *args)`` on a staged sibling of its path, then
    move every file into place: a failure leaves none of them written.

    Nothing is moved until all are written, and a directory in the way of any
    path fails the set before the first move.
    """
    staged = [(f"{path}.{os.getpid()}.tmp", path) for _, path, *_ in writes]
    try:
        for (writer, _, *args), (tmp, _) in zip(writes, staged):
            writer(tmp, *args)
        for _, path in staged:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            Path(tmp).unlink(missing_ok=True)
        raise


_DIRECT = {float: "%.8e", int: "%d"}   # the bytes of fmt_float and of str(int)


@functools.lru_cache
def _row_pattern(kinds: tuple) -> str:
    """``%`` pattern of a CSV row whose cells have these types."""
    return ",".join(_DIRECT.get(kind, "%s") for kind in kinds) + "\n"


def write_csv(path, header, rows) -> None:
    """Header and rows, the body formatted by one ``%``.

    A ``float`` cell goes through ``%.8e`` (the bytes of `fmt_float`), an
    ``int`` cell through ``%d``, any other (``bool`` and numpy integers
    among them) through `_fmt_cell` and ``%s``.  When every row holds the
    first row's types, as a curve's or a table's do, one row pattern serves
    them all; when every cell is a ``float`` or an ``int``, the cells go to
    ``%`` as they are.
    """
    rows = list(rows)
    cells = list(itertools.chain.from_iterable(rows))
    kinds = list(map(type, cells))
    width = len(rows[0]) if rows else 0
    if set(map(len, rows)) <= {width} and kinds == kinds[:width] * len(rows):
        pattern = _row_pattern(tuple(kinds[:width])) * len(rows)
        direct = _DIRECT.keys() >= set(kinds[:width])
    else:
        pattern = "".join([_row_pattern(tuple(map(type, row))) for row in rows])
        direct = _DIRECT.keys() >= set(kinds)
    if direct:
        body = pattern % tuple(cells)
    else:
        body = pattern % tuple([c if k in _DIRECT else _fmt_cell(c) for c, k in zip(cells, kinds)])
    Path(path).write_text(",".join(header) + "\n" + body, encoding="utf-8")


def render_json(obj, indent: int = 0) -> str:
    """Minimal JSON renderer with controlled float formatting.

    The standard encoder prints shortest-roundtrip floats, which is
    deterministic but not the fixed nine-digit convention; rendering by hand
    keeps both the float format and the key order under our control.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{k}": {render_json(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat:
            return "[" + ", ".join(render_json(v) for v in seq) + "]"
        items = [f"{inner}{render_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return _fmt_cell(obj)


def write_json(path, obj) -> None:
    Path(path).write_text(render_json(obj) + "\n", encoding="utf-8")


def parallel_map(fn, items, workers: int = 1) -> list:
    """Order-preserving map over items, optionally on a thread pool.

    Each item is computed independently with identical arithmetic, so results
    do not depend on the worker count.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
