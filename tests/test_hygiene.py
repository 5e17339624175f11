"""Source hygiene: every import in the package is used, and so is every
top-level definition and method; no einsum in the package takes three or more operands;
no module compares a flow map or frame with None.

A name bound by an import counts as used when it is read anywhere in the
module or listed in ``__all__``; ``from __future__`` imports are exempt.
A top-level function or class of ``src/nsmove``, or a method of such a
class other than a dunder, counts as used when some code in ``src/``,
``tests/`` or ``perfbench/`` other than its definition names it (a read,
an attribute, an import or an ``__all__`` entry). Exception classes are
exempt from that check; instead, each class of ``errors.py`` but the base
``NsmoveError`` is raised by some code in ``src/``, or is listed in
``_UNRAISED`` with the ROADMAP item that will raise it.
A definition that no code in ``src/`` or ``perfbench/`` outside a
``tests`` directory names is listed in ``_TEST_ONLY`` with the ROADMAP
item that will give it a caller; a listed one that gains such a caller
leaves the list.
Every defaulted parameter of such a function, method or constructor (a
dataclass field included) is passed, by keyword or by position, by some
call in ``src/`` or ``perfbench/`` outside a ``tests`` directory, save a
named list of exemptions: a test alone does not justify an option.
Importing the package, running a static-grid transport and running the
moving-domain chain load numpy and ``scipy.sparse`` only, never a heavier
scipy subpackage.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
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


def _is_exception(node):
    return any(isinstance(b, ast.Name) and (b.id.endswith("Error") or b.id == "Exception")
               for b in node.bases)


def _definitions(tree):
    """Top-level functions, non-exception classes and their non-dunder
    methods: {name: line}, a method named ``Class.method``."""
    out = {}
    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            out[node.name] = node.lineno
        elif isinstance(node, ast.ClassDef) and not _is_exception(node):
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


def _unnamed_definitions(trees, others=None):
    """(file, line, name) of the definitions in ``trees`` ({path: tree} of the
    package) that no tree in ``trees`` or in ``others`` ({path: tree},
    default the rest of the code) names."""
    if others is None:
        others = {p: ast.parse(p.read_text(), filename=str(p)) for p in CODE if p not in trees}
    named = set()
    for tree in [*trees.values(), *others.values()]:
        named |= _named(tree)
    return sorted((path.name, line, name) for path, tree in trees.items()
                  for name, line in _definitions(tree).items()
                  if name.split(".")[-1] not in named)


# read by nothing; their keywords go with the next change to perfbench/
_KEPT_UNNAMED = {"MotionField.gradient3", "MotionField.dtt_velocity"}


def _unnamed_against(trees, kept, others=None):
    """(orphans, exempt but named): the definitions named nowhere that ``kept`` does not
    list, and the names in ``kept`` that some code names after all."""
    found = _unnamed_definitions(trees, others)
    return [o for o in found if o[2] not in kept], kept - {name for _, _, name in found}


def test_no_unnamed_definitions():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SRC}
    orphans, named = _unnamed_against(trees, _KEPT_UNNAMED)
    assert not orphans, f"defined but named nowhere: {orphans}"
    assert not named, f"exempt but named, so no longer exempt: {named}"


def test_detects_exemption_that_is_named():
    # an exempt method that gains a reader, even a test, leaves the list
    trees = {ROOT / "src" / "nsmove" / "probe.py": ast.parse(
        "class Box:\n    def read(self):\n        pass\n"
        "    def idle(self):\n        pass\n")}
    others = {ROOT / "tests" / "test_probe.py": ast.parse("Box().read()\n")}
    assert _unnamed_against(trees, {"Box.read", "Box.idle"}, others) == ([], {"Box.read"})
    assert _unnamed_against(trees, set(), others) == ([("probe.py", 4, "Box.idle")], set())


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


def _test_only(trees, others=None):
    """Names of the definitions in ``trees`` that only code in a ``tests``
    directory names: none in ``trees`` or in ``others`` (as for
    :func:`_unnamed_definitions`) outside one does."""
    if others is None:
        others = {p: ast.parse(p.read_text(), filename=str(p)) for p in CODE if p not in trees}
    others = {p: t for p, t in others.items() if "tests" not in p.relative_to(ROOT).parts}
    return {name for _, _, name in _unnamed_definitions(trees, others)}


# the package's test-only API, each name with the ROADMAP item that gives it
# a caller in src/ or perfbench/, or deletes it
_TEST_ONLY = {
    # item 6: the paper's two theorems as experiments
    "relative_energy": 6,
    "relative_energy_remainder": 6,
    "gronwall_weak_strong_check": 6,
    "EnergyReport.max_residual": 6,
    "korn_quotient": 14,
    "MomentumBC.no_slip": 17,
    "density_gradient": 5,
    "extension_norm_report": 18,
    "stress_trace_fd": 18,
    # item 4: oracle infrastructure, to tests/ if no layer needs it, and the
    # flow-map Hessian
    "MotionField.zero": 4,
    "MotionField.translation": 4,
    "MotionField.dilation": 4,
    "MotionField.shear": 4,
    "Field.component": 4,
    "integrate": 4,
    "FlowMap.hessians": 4,
    # item 12 drops their keywords from the benchmark's motion
    "MotionField.dtt_velocity": 12,
    "MotionField.gradient3": 12,
}


def test_test_only_names_are_listed():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SRC}
    found = _test_only(trees)
    assert found <= set(_TEST_ONLY), (
        f"named only by tests, with no ROADMAP item in _TEST_ONLY: {found - set(_TEST_ONLY)}")
    assert found == set(_TEST_ONLY), (
        f"listed as test-only but named by src/ or perfbench/: {set(_TEST_ONLY) - found}")


def test_detects_test_only_name():
    trees = {ROOT / "src" / "nsmove" / "probe.py": ast.parse(
        "def used():\n    pass\ndef tested():\n    return inner()\n"
        "def inner():\n    pass\nclass Box:\n    def get(self):\n        pass\n")}
    others = {ROOT / "perfbench" / "probe.py": ast.parse("used()\nBox()\n"),
              ROOT / "tests" / "test_probe.py": ast.parse("tested()\nBox().get()\n")}
    assert _test_only(trees, others) == {"tested", "Box.get"}


def _unraised_errors(errors, trees):
    """Names of the classes of ``errors`` (the tree of ``errors.py``) other
    than ``NsmoveError`` that no ``raise`` in ``trees`` ({path: tree})
    raises, by name or as an attribute, called or not."""
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return {node.name for node in errors.body
            if isinstance(node, ast.ClassDef) and node.name != "NsmoveError"} - raised


# error classes that nothing in src/ raises yet, each with the ROADMAP item
# that gives it a raiser or deletes it
_UNRAISED = {
    # item 17: the successive-approximation driver's monitors
    "DivergenceError": 17,
    "InstabilityError": 17,
}


def test_every_error_class_is_raised_or_listed():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SRC}
    found = _unraised_errors(trees[ROOT / "src" / "nsmove" / "errors.py"], trees)
    assert found <= set(_UNRAISED), (
        f"raised nowhere in src/, with no ROADMAP item in _UNRAISED: {found - set(_UNRAISED)}")
    assert found == set(_UNRAISED), (
        f"listed as unraised but raised in src/: {set(_UNRAISED) - found}")


def test_detects_unraised_error():
    errors = ast.parse("class NsmoveError(Exception):\n    pass\n"
                       "class AError(NsmoveError):\n    pass\n"
                       "class BError(NsmoveError):\n    pass\n"
                       "class CError(NsmoveError):\n    pass\n"
                       "class DError(NsmoveError):\n    pass\n")
    # a name alone is no raiser: a test may name C, an except clause D
    trees = {ROOT / "src" / "nsmove" / "probe.py": ast.parse(
        "raise AError('a', t=0)\nraise errors.BError\n"
        "try:\n    pass\nexcept DError:\n    CError\n")}
    assert _unraised_errors(errors, trees) == {"CError", "DError"}


def _is_dataclass(node):
    return any(getattr(getattr(dec, "func", dec), "id", None) == "dataclass"
               for dec in node.decorator_list)


def _defaulted(fn, skip_first):
    """(position or None, name) of each parameter of ``fn`` with a default;
    keyword-only ones have no position, and a method's first is not counted."""
    args = fn.args.posonlyargs + fn.args.args
    if skip_first:
        args = args[1:]
    out = [(i, a.arg) for i, a in enumerate(args)][len(args) - len(fn.args.defaults):]
    out += [(None, a.arg) for a, dflt in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if dflt is not None]
    return out


def _parameter_definitions(tree):
    """{callee name: [(line, label, position, parameter)]} for every
    defaulted parameter in ``tree``: a function or method is called by its
    name, a constructor (``__init__`` or a dataclass's fields) by its
    class's. Exception classes are exempt."""
    out = {}

    def visit(node, owner):
        for item in node.body:
            if isinstance(item, ast.ClassDef):
                if _is_exception(item):
                    continue
                if _is_dataclass(item):
                    fields = [s for s in item.body if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)]
                    out.setdefault(item.name, []).extend(
                        (s.lineno, item.name, i, s.target.id)
                        for i, s in enumerate(fields) if s.value is not None)
                visit(item, item)
            elif isinstance(item, _FUNCTIONS):
                static = any(getattr(dec, "id", None) == "staticmethod"
                             for dec in item.decorator_list)
                method = owner is not None and not static
                callee = owner.name if method and item.name == "__init__" else item.name
                label = f"{owner.name}.{item.name}" if owner is not None else item.name
                out.setdefault(callee, []).extend(
                    (item.lineno, label, pos, name) for pos, name in _defaulted(item, method))
                visit(item, None)

    visit(tree, None)
    return out


def _calls(tree):
    """{callee name: [(positional count, keyword names) or None]}, None for a
    call that unpacks ``*args`` or ``**kwargs``; ``cls(...)`` calls its class."""
    out = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name == "cls" and owner is not None:
                    name = owner
                star = (any(isinstance(a, ast.Starred) for a in child.args)
                        or any(k.arg is None for k in child.keywords))
                out.setdefault(name, []).append(
                    None if star else (len(child.args), {k.arg for k in child.keywords}))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(tree, None)
    return out


def _unset_parameters(trees, others=None):
    """(file, line, label, parameter) of the defaulted parameters in
    ``trees`` ({path: tree} of the package) that no call in ``trees`` or in
    ``others`` ({path: tree}, default the rest of the code) passes. Calls
    in a file under a ``tests`` directory do not count."""
    if others is None:
        others = {p: ast.parse(p.read_text(), filename=str(p)) for p in CODE if p not in trees}
    calls = {}
    for path, tree in {**trees, **others}.items():
        if "tests" in path.relative_to(ROOT).parts:
            continue
        for name, found in _calls(tree).items():
            calls.setdefault(name, []).extend(found)

    def passed(callee, pos, name):
        return any(c is None or name in c[1] or (pos is not None and pos < c[0])
                   for c in calls.get(callee, []))

    return sorted((path.name, line, label, name) for path, tree in trees.items()
                  for callee, params in _parameter_definitions(tree).items()
                  for line, label, pos, name in params if not passed(callee, pos, name))


# (label, parameter) set by tests only, each kept for a named reason
_KEPT_UNSET = {
    # ROADMAP item 5: the coupled driver's body force
    ("lagrangian_remainder", "force"),
    # the exported Field API (nsmove.__all__)
    ("Field.copy", "values"),
    ("Field.zeros", "ncomp"),
    ("Field.zeros", "t"),
}


def test_no_unset_parameters():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SRC}
    unset = {(label, name) for _, _, label, name in _unset_parameters(trees)}
    assert unset <= _KEPT_UNSET, (
        f"defaulted parameters that no call outside the tests passes: {unset - _KEPT_UNSET}")
    assert unset == _KEPT_UNSET, f"exempt but passed, so no longer exempt: {_KEPT_UNSET - unset}"


def test_detects_unset_parameter():
    trees = {ROOT / "src" / "nsmove" / "probe.py": ast.parse(
        "class BadError(ValueError):\n    def __init__(self, msg, t=None):\n        pass\n"
        "@dataclass\nclass Rec:\n    a: int\n    b: int = 0\n    c: int = 1\n"
        "class Box:\n    def __init__(self, x, y=0, *, z=1):\n        pass\n"
        "    @classmethod\n    def make(cls, w=2):\n        return cls(1, 2)\n"
        "    def get(self, i, j=0, k=1):\n        pass\n"
        "    @staticmethod\n    def pure(a, b=0):\n        pass\n"
        "def f(a, b=0, *, c=1, e=2):\n    pass\n"
        "def g(p=0):\n    pass\n"
        "def h(q=0):\n    pass\n"
        "f(1, c=2)\nBox.make()\nBox(0).get(1, 2)\nRec(1, 2)\nBox.pure(1, 2)\n"
        "g(*args)\n")}
    # a call in perfbench/ sets z; one in a test file does not set q
    others = {ROOT / "perfbench" / "probe.py": ast.parse("Box(0, z=3)\n"),
              ROOT / "tests" / "test_probe.py": ast.parse("h(q=1)\nf(1, e=2)\n")}
    assert _unset_parameters(trees, others) == [
        ("probe.py", 8, "Rec", "c"), ("probe.py", 13, "Box.make", "w"),
        ("probe.py", 15, "Box.get", "k"), ("probe.py", 20, "f", "b"),
        ("probe.py", 20, "f", "e"), ("probe.py", 24, "h", "q")]


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


def _none_forks(tree):
    """(line, name) of each comparison of a name or attribute ``flow_map``
    or ``frame`` with None.

    A fixed domain is the flow map of V = 0, so the moving-frame layers
    take a map and have no second path for its absence; transport on a
    moving domain is static-grid transport in the reference frame, so
    ``DiscreteVelocity`` takes no map at all. No module has such a fork.
    """
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if not any(isinstance(o, ast.Constant) and o.value is None for o in operands):
            continue
        for o in operands:
            name = getattr(o, "id", getattr(o, "attr", None))
            if name in ("flow_map", "frame"):
                out.append((node.lineno, name))
    return sorted(out)


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_fixed_domain_fork(path):
    forks = _none_forks(ast.parse(path.read_text(), filename=str(path)))
    assert not forks, f"{path.name}: (line, name) compared with None {forks}"


def test_detects_fixed_domain_fork():
    tree = ast.parse("if flow_map is None:\n    pass\n"
                     "x = None if self.frame is not None else 1\n"
                     "y = self._frame is None or frame == 0\n"
                     "z = None != traj.flow_map\n")
    assert _none_forks(tree) == [(1, "flow_map"), (3, "frame"), (5, "flow_map")]


# quad and what it pulls in, which no pressure law needs any more; and the
# k-d tree and splu/CG the chain no longer uses, with the scipy.linalg and
# scipy.special they pull in
_HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.spatial",
                "scipy.sparse.linalg", "scipy.linalg", "scipy.special")


def _heavy_scipy_loaded(code):
    """The heavy scipy subpackages in ``sys.modules`` after ``code`` runs in a
    fresh interpreter that imports nsmove from ``src/``."""
    probe = code + textwrap.dedent(f"""
        import json, sys
        print(json.dumps([m for m in {_HEAVY_SCIPY!r} if m in sys.modules]))
        """)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    return json.loads(out.stdout.splitlines()[-1])


def test_import_and_pressure_law_load_no_heavy_scipy():
    modules = [f"nsmove.{p.stem}" for p in SRC if p.stem != "__init__"]
    code = textwrap.dedent(f"""
        import importlib
        for name in {modules!r}:
            importlib.import_module(name)
        from nsmove.energy import PressureLaw
        PressureLaw(gamma=1.4, coeff=1.0)
        """)
    assert _heavy_scipy_loaded(code) == []


def test_static_transport_loads_no_heavy_scipy():
    code = textwrap.dedent("""
        import numpy as np
        from nsmove.fields import Field, Grid
        from nsmove.transport import DiscreteVelocity, solve_transport
        g = Grid((17, 17), (0.0, 0.0), (1.0, 1.0))
        times = np.linspace(0.0, 0.1, 3)
        bump = lambda p: 0.2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        u = lambda p: np.stack([bump(p), -bump(p)], axis=1)
        dv = DiscreteVelocity(times, [Field.from_function(g, u, t=t, ncomp=2)
                                      for t in times])
        traj = solve_transport(Field(g, np.ones(g.shape)), dv, 0.1, 0.05)
        assert len(traj.times) == 3
        """)
    assert _heavy_scipy_loaded(code) == []


def test_moving_chain_loads_no_heavy_scipy():
    code = textwrap.dedent("""
        import numpy as np
        from nsmove.fields import Field, Grid
        from nsmove.momentum import FluidParams, MomentumBC, solve_linear_momentum
        from nsmove.motion import MotionField, advect_flow_map
        from nsmove.transport import solve_transport
        g = Grid((17, 17), (0.0, 0.0), (1.0, 1.0))
        V = MotionField.shear(0.4)
        fm = advect_flow_map(V, g, 0.1, 0.05)
        traj = solve_transport(Field(g, np.ones(g.shape)), V, 0.1, 0.05)
        rho, _ = traj.eval_physical(0.1, fm.positions(0.1))  # rho at its feet
        assert np.allclose(rho, 1.0)
        params = FluidParams(mu=0.3, eta=0.1, kappa=0.5, bc="slip")
        levels, _ = solve_linear_momentum(
            lambda t: rho, lambda t: np.zeros((g.num_nodes, 2)),
            MomentumBC.slip(V.velocity), Field.zeros(g, ncomp=2), params, 0.05, 0.1)
        assert len(levels) == 3
        """)
    assert _heavy_scipy_loaded(code) == []


def test_guard_sees_a_heavy_import():
    assert "scipy.spatial" in _heavy_scipy_loaded("import scipy.spatial\n")
