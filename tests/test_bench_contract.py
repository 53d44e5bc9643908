"""Every function the benchmark's tracer wraps must exist under its name.

The tracer lives outside the package and looks functions up by attribute
name; a rename in the package would otherwise surface only as a crash of a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    entries = tracer.SPANNED + tracer.COUNTED
    assert entries
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in entries
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
