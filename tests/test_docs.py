"""The public names the package exports and the README documents exist."""

import importlib
import re
from functools import reduce
from pathlib import Path

import macmahon

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in macmahon.__all__ if not hasattr(macmahon, name)]
    assert missing == []


def _layout_rows():
    # (module, contents) of each row of the README's "Library layout" table
    section = README.read_text().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`macmahon."):
            yield cells[0].strip("`"), cells[1]


def test_library_layout_names_resolve():
    rows = list(_layout_rows())
    assert len(rows) == 7
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([^`]+)`", contents):
            try:
                reduce(getattr, name.split("."), module)
            except AttributeError:
                missing.append(f"{module_name}: {name}")
    assert missing == []


def test_every_exported_name_is_in_the_layout():
    listed = {name for _, contents in _layout_rows() for name in re.findall(r"`([^`]+)`", contents)}
    assert sorted(set(macmahon.__all__) - listed) == []
