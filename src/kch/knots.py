"""Knot-table files: one `name: PDcode` per line, `#` comments."""

from __future__ import annotations

from importlib import resources

from .diagram import DiagramError, parse_pd


def parse_table(text):
    """Parse a knot-table file into an ordered list of (name, line) pairs.

    Names must be distinct: the distinguish matrix of `kch table` is keyed
    by name.

    PD parsing is deferred so that one malformed entry does not poison a
    batch run; call parse_pd on each entry's code.
    """
    entries = []
    seen = {}  # name -> line number
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise DiagramError("line %d: expected `name: PDcode`" % lineno)
        name, code = (part.strip() for part in line.split(":", 1))
        if not name:
            raise DiagramError("line %d: empty knot name" % lineno)
        if name in seen:
            raise DiagramError("line %d: knot name %r already used on line %d"
                               % (lineno, name, seen[name]))
        seen[name] = lineno
        entries.append((name, code))
    return entries


def load_table(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh.read())


def bundled_table():
    """The PD codes shipped with the package."""
    text = (resources.files("kch") / "data" / "knots.txt").read_text()
    return parse_table(text)


def bundled_knot(name):
    for nm, code in bundled_table():
        if nm == name:
            return parse_pd(code)
    raise KeyError("no bundled knot named %r" % (name,))
