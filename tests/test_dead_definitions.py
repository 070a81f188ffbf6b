"""Every top-level definition of the package is used by the package.

A static scan of ``src/geoplasma/*.py``: each top-level ``def`` and
``class``, and each method of a top-level class other than a dunder, must
be referenced by name (a name or an attribute) somewhere in the package
outside its own body.  Code that only tests call belongs in ``tests/``.
The exceptions are module-level PEP 562 hooks (``__getattr__``,
``__dir__``), which only the interpreter calls, and the two hooks the
benchmark's tracer wraps by name (``perfbench/tracer.py``), which nothing
in the package calls.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "geoplasma"

TRACER_HOOKS = {("expr", "evaluate"), ("verify", "invariants_at")}
MODULE_HOOKS = {"__getattr__", "__dir__"}


def _references(node):
    """Names and attribute names read anywhere under ``node``."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def test_every_top_level_definition_is_referenced():
    definitions = []
    references = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        references += _references(tree)
        definitions += [(path.stem, node) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name not in MODULE_HOOKS]
        definitions += [(path.stem, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                        for node in cls.body if isinstance(node, ast.FunctionDef)
                        and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert definitions
    unused = {(module, node.name) for module, node in definitions
              if references[node.name] == _references(node)[node.name]}
    assert unused <= TRACER_HOOKS, sorted(unused - TRACER_HOOKS)
