"""The public names the README documents exist in the modules it names."""

import importlib
import re
from functools import reduce

from reference import layout_rows


def test_library_layout_names_resolve():
    rows = list(layout_rows())
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
