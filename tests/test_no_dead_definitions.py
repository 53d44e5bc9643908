"""Every function and class in the package is used: referenced somewhere in
the package source, or exported. The exported names are the backticked
names of the README's "Library layout" table, each part of a dotted name on
its own (`FactorProduct.prod` counts `FactorProduct` and `prod`); the
package root exports nothing. A reference is a name, an attribute, or a
string constant (the CLI looks its checks up by name). A method is reached
only through an attribute or a string, so a local variable of the same
name does not keep it alive. Python itself calls the protocol
methods the package relies on, so those are exempt; any other dunder needs a
reference like any other method."""

import ast
import re
from pathlib import Path

from reference import layout_rows

import macmahon

PACKAGE = Path(macmahon.__file__).resolve().parent

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

PROTOCOL = {"__init__", "__post_init__", "__hash__", "__repr__", "__mul__"}
# held only for the benchmark tracer, which spans and counts them, until the
# tracer stops naming them (ROADMAP item 1a)
TRACED = {"TruncatedSeries.__add__", "FactorProduct.__truediv__"}


def test_every_definition_is_referenced_or_exported():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.rglob("*.py"))}
    assert len(trees) >= 9
    exported = {
        part
        for _, contents in layout_rows()
        for name in re.findall(r"`([^`]+)`", contents)
        for part in name.split(".")
    }
    names, attributes = set(), exported
    methods, exempt = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
            elif isinstance(node, ast.ClassDef):
                methods.update(f for f in node.body if isinstance(f, DEFINITIONS))
                exempt.update(
                    f for f in node.body if isinstance(f, DEFINITIONS) and f"{node.name}.{f.name}" in TRACED
                )
    dead = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS)
        and node.name not in PROTOCOL
        and node not in exempt
        and node.name not in attributes
        and (node in methods or node.name not in names)
    ]
    assert dead == [], f"definitions nothing in the package uses: {dead}"
