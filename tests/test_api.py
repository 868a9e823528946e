"""The package surface: exports resolve, every submodule export reaches a
user or another module, and no module keeps a dead import, a function
parameter that its body never reads, an option that no caller sets, or a
class field that nothing reads; every sweep along a vector lives in
``lovasz.py``, a set function's one evaluator is its sweep, every
reversed cumulative sum is ``lovasz.suffix_sums``, and every instance is
built by its constructor."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fracset

MODULES = sorted(m.name for m in pkgutil.iter_modules(fracset.__path__))
SOURCES = sorted(Path(fracset.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
CALLERS = SOURCES + sorted(ROOT.glob("perfbench/*.py")) + sorted(
    ROOT.glob("tools/*.py"))


@pytest.mark.parametrize("name", ["fracset"] + [f"fracset.{m}" for m in MODULES])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}: duplicate exports"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def _dunder_all(tree):
    """The string entries of a module's top-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def _unreached_exports(modules, package_all):
    """(module, name) for each name in a submodule's ``__all__`` that the
    package does not re-export and no other submodule imports.

    ``modules`` maps submodule names to their parsed sources; an import
    counts when it reads ``from .module import name``.
    """
    imported = {(node.module, alias.name)
                for tree in modules.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    return sorted((module, name) for module, tree in modules.items()
                  for name in _dunder_all(tree)
                  if name not in package_all
                  and (module, name) not in imported)


def test_submodule_exports_are_reached():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p))
               for p in SOURCES if p.stem != "__init__"}
    unreached = _unreached_exports(modules, set(fracset.__all__))
    assert not unreached, (
        f"exported by a submodule, but neither re-exported by the package "
        f"nor imported by another module: {unreached}")


def test_unreached_export_check_catches_internal_names():
    modules = {"a": ast.parse("__all__ = ['f', 'g', 'h', 'k']\n"),
               "b": ast.parse("from .a import g\nfrom os import h\n"
                              "__all__ = ['m']\n"),
               "c": ast.parse("def use():\n    from .b import k\n")}
    assert _unreached_exports(modules, {"f", "m"}) == [("a", "h"), ("a", "k")]


def _unused_imports(tree):
    """Names bound by import statements that the module never reads.

    A name counts as read when it is loaded anywhere, or when ``__all__``
    lists it (a re-export).
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used |= _dunder_all(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_unused_import_check_catches_dead_names():
    tree = ast.parse("import os\nfrom math import inf, pi\n"
                     "__all__ = ['pi']\nprint(os.sep)\n")
    assert _unused_imports(tree) == [(2, "inf")]


def _unread_parameters(tree):
    """(line, function, parameter) for each parameter a def never reads.

    A parameter counts as read when its name is loaded anywhere in the
    body, nested functions included.  ``self``, ``cls`` and names starting
    with an underscore are exempt.
    """
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.lineno, node.name, p.arg) for p in params
                   if p.arg not in ("self", "cls")
                   and not p.arg.startswith("_") and p.arg not in loaded]
    return sorted(unread)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = _unread_parameters(tree)
    assert not unread, f"{path.name}: parameters never read {unread}"


def test_unread_parameter_check_catches_dead_parameters():
    tree = ast.parse("def f(self, a, b, _c, *args, d=1, **kw):\n"
                     "    def g(x):\n"
                     "        return a + x\n"
                     "    return g(kw)\n")
    assert _unread_parameters(tree) == [(1, "f", "args"), (1, "f", "b"),
                                        (1, "f", "d")]


def _defaulted_parameters(tree):
    """(function, parameter, position) for each parameter with a default.

    ``position`` is the parameter's index among the positional arguments
    of a call, None for a keyword-only parameter; a method's ``self`` or
    ``cls`` takes none.  An ``__init__`` is reported under its class's
    name, the name its callers call.
    """
    methods = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef) and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in stmt.decorator_list):
                    methods[stmt] = cls.name
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        name = node.name
        if name == "__init__" and node in methods:
            name = methods[node]
        a = node.args
        positional = a.posonlyargs + a.args
        bound = 1 if node in methods else 0
        for k in range(len(positional) - len(a.defaults), len(positional)):
            found.append((name, positional[k].arg, k - bound))
        found += [(name, p.arg, None)
                  for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def _unset_options(defining, calling):
    """(function, parameter) for each defaulted parameter in ``defining``
    that no call in ``calling`` passes, by keyword or by position.

    Calls are matched by the called name alone, whatever object or module
    it is reached through; ``*args`` passes every position and ``**kw``
    every keyword.
    """
    positions, keywords = {}, {}
    for tree in calling:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            starred = any(isinstance(x, ast.Starred) for x in node.args)
            count = float("inf") if starred else len(node.args)
            positions[name] = max(positions.get(name, 0), count)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    return sorted({(fn, p) for tree in defining
                   for fn, p, pos in _defaulted_parameters(tree)
                   if not (pos is not None and pos < positions.get(fn, 0))
                   and not keywords.get(fn, set()) & {p, None}})


# Options that only tests set, each with the reason it stays.
TEST_SET_OPTIONS = {
    ("main", "argv"): "tests run the command line on an argv of their own",
    ("solve_inner", "tol"): "tests hold the solver to oracles at tight "
                            "tolerances",
    ("solve_inner", "max_iter"): "tests check the flagged stop at an "
                                 "iteration cap",
    ("solve_inner", "check_every"): "tests certify every step against "
                                    "oracles",
}


def test_every_option_is_set_by_a_caller():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in CALLERS]
    unset = set(_unset_options(trees[:len(SOURCES)], trees))
    extra = sorted(unset - set(TEST_SET_OPTIONS))
    assert not extra, f"defaulted parameters that no caller sets: {extra}"
    stale = sorted(set(TEST_SET_OPTIONS) - unset)
    assert not stale, f"listed as set by tests only, but have callers: {stale}"


def test_unset_option_check_catches_dead_options():
    defining = ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                         "class K:\n"
                         "    def __init__(self, x, y=0, z=0):\n        pass\n"
                         "    def m(self, t=0):\n        pass\n"
                         "def g(u=0):\n    pass\n"
                         "def h(v=0):\n    pass\n")
    calling = ast.parse("f(1, 2, e=5)\nK(1, 2)\nobj.m(t=1)\n"
                        "g(*xs)\nh(**kw)\n")
    assert _unset_options([defining], [calling]) == [
        ("K", "z"), ("f", "c"), ("f", "d")]


def _is_dataclass(node):
    """Whether a class is decorated with ``@dataclass`` or ``@dataclass(...)``."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _fields(tree):
    """(class, field) for each ``__slots__`` entry and dataclass field."""
    fields = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__"
                            for t in stmt.targets)):
                fields += [(node.name, elt.value) for elt in stmt.value.elts]
            elif (_is_dataclass(node) and isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                fields.append((node.name, stmt.target.id))
    return fields


def _unread_fields(defining, reading):
    """(class, field) for each field in ``defining`` trees that no tree in
    ``reading`` loads as an attribute."""
    loaded = {n.attr for tree in reading for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted((cls, name) for tree in defining
                  for cls, name in _fields(tree) if name not in loaded)


def test_no_unread_fields():
    sources = [ast.parse(p.read_text(), filename=str(p)) for p in SOURCES]
    tests = [ast.parse(p.read_text(), filename=str(p)) for p in TESTS]
    unread = _unread_fields(sources, sources + tests)
    assert not unread, f"fields that nothing reads: {unread}"


def test_unread_field_check_catches_dead_fields():
    defining = ast.parse("from dataclasses import dataclass\n"
                         "class A:\n"
                         "    __slots__ = ('x', 'y')\n"
                         "@dataclass(frozen=True)\n"
                         "class B:\n"
                         "    u: int\n"
                         "    w: int = 0\n"
                         "    K = 3\n"
                         "class C:\n"
                         "    v: int\n")
    reading = ast.parse("def f(a, b):\n"
                        "    a.y = 1\n"
                        "    return a.x + b.w\n")
    assert _unread_fields([defining], [reading]) == [("A", "y"), ("B", "u")]


# The hooks a sweep along f reads; ``lovasz.py`` is their one caller.
SWEEP_HOOKS = {"suffix_values", "suffix_flags", "ascending_order"}


def _sweep_hook_calls(tree):
    """(line, name) for each call of a sweep hook, as a function or a
    method; defining a hook is not a call."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = (f.id if isinstance(f, ast.Name)
                else f.attr if isinstance(f, ast.Attribute) else None)
        if name in SWEEP_HOOKS:
            calls.append((node.lineno, name))
    return sorted(calls)


def test_sweeps_live_in_lovasz():
    calls = {p.name: _sweep_hook_calls(ast.parse(p.read_text(),
                                                 filename=str(p)))
             for p in SOURCES if p.name != "lovasz.py"}
    calls = {name: found for name, found in calls.items() if found}
    assert not calls, f"sweep hooks called outside lovasz.py: {calls}"


def test_sweep_hook_check_catches_calls():
    tree = ast.parse("class K:\n"
                     "    def suffix_values(self, order):\n"
                     "        return self.w[order]\n"
                     "def sweep(fn, p, f):\n"
                     "    order = lovasz.ascending_order(f)\n"
                     "    return fn.suffix_values(order), p.suffix_flags(order)\n"
                     "hook = K().suffix_values\n")
    assert _sweep_hook_calls(tree) == [(5, "ascending_order"),
                                       (6, "suffix_flags"),
                                       (6, "suffix_values")]


def _second_evaluators(tree):
    """(line, class) for each class that defines ``value``, as a method or
    a class attribute, next to ``suffix_values``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        defined = {}
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                defined[stmt.name] = stmt.lineno
            elif isinstance(stmt, ast.Assign):
                defined.update((t.id, stmt.lineno) for t in stmt.targets
                               if isinstance(t, ast.Name))
            elif (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                defined[stmt.target.id] = stmt.lineno
        if "value" in defined and "suffix_values" in defined:
            found.append((defined["value"], node.name))
    return sorted(found)


def test_set_functions_have_one_evaluator():
    # a set's value is read from the sweep (``lovasz.set_values``), so a
    # second, hand-written evaluator could only drift from it
    found = {p.name: _second_evaluators(ast.parse(p.read_text(),
                                                  filename=str(p)))
             for p in SOURCES}
    found = {name: classes for name, classes in found.items() if classes}
    assert not found, f"classes with a value next to suffix_values: {found}"


def test_second_evaluator_check_catches_value():
    tree = ast.parse("class A:\n"
                     "    def value(self, idx):\n"
                     "        return 0.0\n"
                     "    def suffix_values(self, order):\n"
                     "        return order\n"
                     "class B:\n"
                     "    def suffix_values(self, order):\n"
                     "        return order\n"
                     "    value = suffix_values\n"
                     "class C:\n"
                     "    value: float\n"
                     "    def suffix_values(self, order):\n"
                     "        return order\n"
                     "class D:\n"
                     "    value: float\n"
                     "class E:\n"
                     "    def suffix_values(self, order):\n"
                     "        return order\n")
    assert _second_evaluators(tree) == [(2, "A"), (9, "B"), (11, "C")]


# Constants that only a folded-out seed block gives a set function.
SEED_CONSTANTS = {"offset", "boundary", "boundary_cut", "base"}


def _seed_constant_parameters(tree):
    """(class, parameter) for each ``__init__`` parameter named like a seed
    block's constant."""
    return sorted((node.name, arg.arg) for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef)
                  for stmt in node.body
                  if isinstance(stmt, ast.FunctionDef)
                  and stmt.name == "__init__"
                  for arg in stmt.args.args + stmt.args.kwonlyargs
                  if arg.arg in SEED_CONSTANTS)


def test_set_functions_take_no_seed_constants():
    # set functions and volume constraints live on the whole graph; the
    # seed block is read through one view, lovasz.SeedBlock
    root = Path(fracset.__file__).parent
    found = {name: _seed_constant_parameters(
                 ast.parse((root / name).read_text(), filename=name))
             for name in ("lovasz.py", "constraints.py")}
    found = {name: params for name, params in found.items() if params}
    assert not found, f"constructors taking seed-block constants: {found}"


def test_seed_constant_check_catches_offsets():
    tree = ast.parse("class A:\n"
                     "    def __init__(self, w, offset=0.0):\n"
                     "        pass\n"
                     "class B:\n"
                     "    def __init__(self, g, boundary, *, base):\n"
                     "        pass\n"
                     "    def other(self, offset):\n"
                     "        pass\n")
    assert _seed_constant_parameters(tree) == [("A", "offset"),
                                               ("B", "base"),
                                               ("B", "boundary")]


def _is_reversal(node):
    """Whether ``node`` is ``x[::-1]``."""
    if not (isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Slice)):
        return False
    sl = node.slice
    step = sl.step
    return (sl.lower is None and sl.upper is None
            and isinstance(step, ast.UnaryOp) and isinstance(step.op, ast.USub)
            and isinstance(step.operand, ast.Constant)
            and step.operand.value == 1)


def _reversed_cumsums(tree):
    """(line, function) for each reversed cumulative sum,
    ``np.cumsum(x[::-1])[::-1]`` or ``x[::-1].cumsum()[::-1]``, with the
    name of the innermost def around it (None at module level)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if _is_reversal(node) and isinstance(node.value, ast.Call):
            call = node.value
            f = call.func
            # the summed array: np.cumsum's first argument, or the object
            # whose cumsum method is called
            if isinstance(f, ast.Attribute):
                name, summed = f.attr, [f.value, *call.args[:1]]
            else:
                name, summed = getattr(f, "id", None), call.args[:1]
            if name == "cumsum" and any(map(_is_reversal, summed)):
                found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return sorted(found, key=lambda item: item[0])


def test_suffix_sums_have_one_home():
    # every sweep reads the volumes of its nested sets from one running
    # sum from the end, lovasz.suffix_sums
    found = [(p.name, where) for p in SOURCES
             for _, where in _reversed_cumsums(
                 ast.parse(p.read_text(), filename=str(p)))]
    assert found == [("lovasz.py", "suffix_sums")], (
        f"reversed cumulative sums outside lovasz.suffix_sums: {found}")


def test_reversed_cumsum_check_catches_both_forms():
    tree = ast.parse("import numpy as np\n"
                     "from numpy import cumsum\n"
                     "def suffix_sums(x):\n"
                     "    return np.cumsum(x[::-1])[::-1]\n"
                     "class K:\n"
                     "    def sweep(self, w):\n"
                     "        a = w[::-1].cumsum()[::-1]\n"
                     "        b = cumsum(w[::-1])[::-1]\n"
                     "        c = np.cumsum(w)[::-1] + np.cumsum(w[::-1])\n"
                     "        return a + b + c + w[::-2].cumsum()[::-1]\n"
                     "top = np.cumsum(np.ones(3)[::-1], dtype=float)[::-1]\n")
    assert _reversed_cumsums(tree) == [(4, "suffix_sums"), (7, "sweep"),
                                       (8, "sweep"), (11, None)]


def _constructor_bypasses(tree):
    """Line of each ``__new__`` call, such as ``object.__new__(Graph)``: an
    instance made past its constructor, whose fields are then set by hand."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "__new__")


def test_every_instance_is_built_by_its_constructor():
    # one way to build each object: its constructor's checks and
    # canonical form hold for every instance
    found = [(p.name, line) for p in SOURCES
             for line in _constructor_bypasses(
                 ast.parse(p.read_text(), filename=str(p)))]
    assert found == [], f"instances built past their constructor: {found}"


def test_constructor_bypass_check_catches_new():
    tree = ast.parse("class G:\n"
                     "    pass\n"
                     "def build():\n"
                     "    g = object.__new__(G)\n"
                     "    h = G.__new__(G)\n"
                     "    return G(), g, h, getattr(G, '__new__')\n")
    assert _constructor_bypasses(tree) == [4, 5]
