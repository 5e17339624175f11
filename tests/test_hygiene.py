"""Source hygiene: every import in the package is used, and so is every
top-level definition and method; no einsum in the package takes three or more operands.

A name bound by an import counts as used when it is read anywhere in the
module or listed in ``__all__``; ``from __future__`` imports are exempt.
A top-level function or class of ``src/nsmove``, or a method of such a
class other than a dunder, counts as used when some code in ``src/``,
``tests/`` or ``perfbench/`` other than its definition names it (a read,
an attribute, an import or an ``__all__`` entry). Exception classes are
exempt: the error vocabulary is declared ahead of the layers that raise it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "nsmove").glob("*.py"))
CODE = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_detects_unused_import():
    tree = ast.parse("import os\nfrom x import a as b, c\n__all__ = ['c']\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "b")]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """Top-level functions, non-exception classes and their non-dunder
    methods: {name: line}, a method named ``Class.method``."""
    out = {}
    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            out[node.name] = node.lineno
        elif isinstance(node, ast.ClassDef) and not any(
                isinstance(b, ast.Name) and (b.id.endswith("Error") or b.id == "Exception")
                for b in node.bases):
            out[node.name] = node.lineno
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not item.name.startswith("__"):
                    out[f"{node.name}.{item.name}"] = item.lineno
    return out


def _named(tree):
    """Every name the code mentions, other than by defining it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def _unnamed_definitions(trees):
    """(file, line, name) of the definitions in ``trees`` ({path: tree} of the
    package) that no tree in ``trees`` or in the rest of the code names."""
    named = set()
    for tree in trees.values():
        named |= _named(tree)
    for path in CODE:
        if path not in trees:
            named |= _named(ast.parse(path.read_text(), filename=str(path)))
    return sorted((path.name, line, name) for path, tree in trees.items()
                  for name, line in _definitions(tree).items()
                  if name.split(".")[-1] not in named)


# read by nothing; their keywords go with the next change to perfbench/
_KEPT_UNNAMED = {"MotionField.gradient3", "MotionField.dtt_velocity"}


def test_no_unnamed_definitions():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SRC}
    orphans = [o for o in _unnamed_definitions(trees) if o[2] not in _KEPT_UNNAMED]
    assert not orphans, f"defined but named nowhere: {orphans}"


def test_detects_unnamed_definition():
    trees = {ROOT / "src" / "nsmove" / "probe.py": ast.parse(
        "class FooError(ValueError):\n    pass\n"
        "class Unused:\n    pass\n"
        "def orphan():\n    return helper()\n"
        "def helper():\n    return FooError\n"
        "class Used:\n    def __init__(self):\n        self.run()\n"
        "    def run(self):\n        pass\n    def stale(self):\n        pass\n"
        "helper(Used)\n")}
    assert _unnamed_definitions(trees) == [
        ("probe.py", 3, "Unused"), ("probe.py", 5, "orphan"), ("probe.py", 14, "Used.stale")]


def _multi_operand_einsums(tree):
    """(line, operand count) of the einsum calls with three or more operands.

    Unoptimized, numpy evaluates such a call as one nested loop over every
    index at once; the package writes them as products of component rows.
    """
    out = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        name = getattr(func, "attr", getattr(func, "id", None))
        if isinstance(node, ast.Call) and name == "einsum" and len(node.args) - 1 >= 3:
            out.append((node.lineno, len(node.args) - 1))
    return sorted(out)


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_multi_operand_einsum(path):
    calls = _multi_operand_einsums(ast.parse(path.read_text(), filename=str(path)))
    assert not calls, f"{path.name}: einsum with >= 3 operands at (line, operands) {calls}"


def test_detects_multi_operand_einsum():
    tree = ast.parse("np.einsum('pi,pi->p', a, b)\n"
                     "np.einsum('pij,pj,pi->p', D, n,\n          t)\n"
                     "einsum('i,i,i,i->', a, b, c, d)\n")
    assert _multi_operand_einsums(tree) == [(2, 3), (4, 4)]
