"""The package surface: exports resolve, every submodule export reaches a
user or another module, and no module keeps a dead import, a function
parameter that its body never reads, or a class field that nothing
reads."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fracset

MODULES = sorted(m.name for m in pkgutil.iter_modules(fracset.__path__))
SOURCES = sorted(Path(fracset.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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
