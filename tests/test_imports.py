"""The package root imports nothing: each name is imported from the module
that defines it, so importing a module loads only what that module needs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import macmahon

SOURCE = str(Path(macmahon.__file__).resolve().parents[1])

MODULES = [
    "macmahon",
    "macmahon.acceptance",
    "macmahon.cli",
    "macmahon.fforacle",
    "macmahon.motivic",
    "macmahon.partitions",
    "macmahon.series",
    "macmahon.torus",
    "macmahon.vuletic",
]


def _loaded(module: str) -> list[str]:
    """The package modules, and numpy, that a fresh interpreter holds after
    importing `module`."""
    code = (
        f"import sys, {module}; "
        "print(*sorted(m for m in sys.modules if m == 'numpy' or m.startswith('macmahon')))"
    )
    env = {**os.environ, "PYTHONPATH": SOURCE}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return child.stdout.split()


@pytest.mark.parametrize(
    "module, loaded",
    [("macmahon", ["macmahon"]), ("macmahon.partitions", ["macmahon", "macmahon.partitions"])],
)
def test_importing_leaves_numpy_out(module, loaded):
    assert _loaded(module) == loaded


def test_cli_loads_every_package_module():
    assert [m for m in _loaded("macmahon.cli") if m != "numpy"] == MODULES
