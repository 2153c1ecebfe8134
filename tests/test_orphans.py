"""Every public function, class and method of the package has a user.

A definition counts as used when its name appears in the README's "Library
use" example or in bench/trace.py, which wraps nilcoh functions by name, or
in the package's code (other than in its own `def` or `class` line): as any
name for a module-level function or class, as an attribute (`x.name`) for a
method, so that a local variable of the same name does not count.
Code that only tests call lives in tests/reference.py, not in the package.
"""

import ast
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nilcoh"


def _public_definitions(tree):
    """Public module-level functions and classes, and the public methods of
    those classes, as (qualified name, name)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _code_names(tree):
    """The identifiers a module's code refers to: names, attributes and
    imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _library_block():
    """The Python example under the README's "Library use" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library use", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def orphans(src):
    """Qualified names of the public definitions in the package at `src`
    that nothing names."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    outside = set(re.findall(r"\w+", _library_block()))
    trace = ast.parse((ROOT / "bench" / "trace.py").read_text())
    # bench/trace.py wraps by name: getattr(module, "frame_change") and the like
    outside |= _code_names(trace) | {node.value for node in ast.walk(trace)
                                     if isinstance(node, ast.Constant)
                                     and isinstance(node.value, str)}
    named = outside.union(*map(_code_names, trees.values()))
    attributes = outside | {node.attr for tree in trees.values() for node in ast.walk(tree)
                            if isinstance(node, ast.Attribute)}
    return [f"{module}.{qualified}"
            for module, tree in trees.items()
            for qualified, name in _public_definitions(tree)
            if name not in (attributes if "." in qualified else named)]


def test_every_public_definition_has_a_user():
    assert orphans(SRC) == []


def test_orphan_guard_lists_a_planted_unused_function(tmp_path):
    src = tmp_path / "nilcoh"
    shutil.copytree(SRC, src)
    with open(src / "linalg.py", "a") as f:
        # a local variable named like a method is no use of the method
        f.write("\n\ndef planted_unused_helper(rows):\n    shadowed = len(rows)\n"
                "    return shadowed\n")
    with open(src / "gauss.py", "a") as f:
        f.write("\n\nclass Planted:\n    def unused_method(self):\n        return 0\n\n"
                "    def shadowed(self):\n        return 0\n")
    assert orphans(src) == ["gauss.Planted", "gauss.Planted.unused_method",
                            "gauss.Planted.shadowed", "linalg.planted_unused_helper"]
