"""The package surface: exports resolve, and no module keeps a dead import
or a function parameter that its body never reads."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fracset

MODULES = sorted(m.name for m in pkgutil.iter_modules(fracset.__path__))
SOURCES = sorted(Path(fracset.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", ["fracset"] + [f"fracset.{m}" for m in MODULES])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}: duplicate exports"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


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
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant)}
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
