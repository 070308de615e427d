"""Every module of the package uses each name it imports, every private
name of the package has a reader, and so has every name the package
exports and every public method and property of a class it exports.  No
module keeps an export list of its own: the imports of
``tangles/__init__.py`` and its table of deferred modules are the one
list.  The test oracles read no private name of the package."""

import ast
import functools
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tangles"
ROOT = PACKAGE.parent.parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


@functools.cache
def _tree(path):
    """The syntax tree of a file, parsed once per session."""
    return ast.parse(path.read_text(encoding="utf-8"))


def _imported(tree):
    """Each name an import binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    tree = _tree(PACKAGE / module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{module}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert not unused


def _private(name):
    return name.startswith("_") and not name.endswith("__") and name != "_"


def _defined(stmt):
    """The names a function, class or assignment statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _definitions(tree):
    """Each private module-level function, class or constant, and each
    private method, property or constant of a module-level class, with the
    statement that defines it."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for stmt in [node, *members]:
            for name in _defined(stmt):
                if _private(name):
                    yield name, stmt


def _references(tree):
    """Each identifier a module reads, with its line: names, attributes,
    imported names and strings that spell an identifier."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def test_private_names_have_readers():
    trees = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    readers = defaultdict(list)  # name -> (module, line) of each reference
    for module, tree in trees.items():
        for name, line in _references(tree):
            readers[name].append((module, line))
    unread = []
    for module, tree in trees.items():
        for name, stmt in _definitions(tree):
            own = range(stmt.lineno, stmt.end_lineno + 1)
            if all(where == module and line in own for where, line in readers[name]):
                unread.append(f"{module}:{stmt.lineno} {name}")
    assert not unread


def _exports():
    """Each name ``tangles/__init__.py`` exports, as (module file, name)
    pairs: those of its ``from .module import`` statements, then those of
    its ``_DEFERRED`` table, which ``__getattr__`` loads on first use."""
    body = _tree(PACKAGE / "__init__.py").body
    (table,) = [ast.literal_eval(node.value) for node in body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_DEFERRED"]]
    return [(f"{node.module}.py", alias.asname or alias.name)
            for node in body if isinstance(node, ast.ImportFrom) for alias in node.names
            ] + [(f"{module}.py", name) for module, names in table.items() for name in names]


def test_exports_are_the_package_namespace():
    """The guards below see every export, the deferred ones too: 99 names,
    each the object of that name in its module and listed by
    ``dir(tangles)`` before its module loads, and nothing else public in
    the package but its modules."""
    import tangles

    exports = _exports()
    names = {name for _, name in exports}
    assert len(exports) == len(names) == 99
    probe = ("import json, sys, tangles; listed = dir(tangles); "
             "print(json.dumps([listed, sorted(m for m in sys.modules if m[:8] == 'tangles.')]))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    listed, loaded = json.loads(proc.stdout)
    assert names <= set(listed)
    assert loaded == ["tangles.formula", "tangles.kripke", "tangles.translate"]
    for module, name in exports:
        source = importlib.import_module(f"tangles.{module.removesuffix('.py')}")
        assert getattr(tangles, name) is getattr(source, name), name
    public = {name for name in dir(tangles) if not name.startswith("_")
              and not inspect.ismodule(getattr(tangles, name))}
    assert public == names
    with pytest.raises(AttributeError, match="^module 'tangles' has no attribute 'no_such_name'$"):
        tangles.no_such_name
    from tangles.logics import SEARCH_BUDGET, VALUATION_BUDGET, BudgetExceededError
    from tangles.kripke import SEARCH_BUDGET as search, VALUATION_BUDGET as valuation
    assert (SEARCH_BUDGET, VALUATION_BUDGET) == (search, valuation)
    assert BudgetExceededError is tangles.BudgetExceededError


def _loads(tree, attributes_only=False):
    """Each name a module reads as code, with its line: attribute loads
    (``x.name``) and, unless ``attributes_only``, name loads and imported
    names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


@functools.cache
def _readme_code():
    """The words of README's code spans and fenced blocks; its prose names
    nothing."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"^```.*?^```|`[^`]+`", text, re.M | re.S)
    return frozenset(re.findall(r"\w+", " ".join(code)))


def _unread(definitions, attributes_only=False):
    """The names among ``definitions``, (name, module, lines) triples, that
    are read nowhere: not in README's code, not in ``bench/``, and not in
    ``src/`` outside their own lines of their own module.  Code reads a
    name through ``_loads``."""
    readers = set(_readme_code())
    for path in sorted((ROOT / "bench").glob("*.py")):
        readers.update(name for name, _ in _loads(_tree(path), attributes_only))
    places = defaultdict(list)  # name -> (module, line) of each read in src/
    for module in MODULES:
        for name, line in _loads(_tree(PACKAGE / module), attributes_only):
            places[name].append((module, line))
    return [name for name, module, lines in definitions if name not in readers
            and all(where == module and line in lines for where, line in places[name])]


def test_exported_names_have_readers():
    """Each name ``tangles/__init__.py`` exports is read in ``src/`` outside
    its own definition or in ``bench/``, by a name load, an import or an
    attribute load, or is named in README's code."""
    definitions = []
    for module, name in _exports():
        lines = {line for stmt in _tree(PACKAGE / module).body if name in _defined(stmt)
                 for line in range(stmt.lineno, stmt.end_lineno + 1)}
        definitions.append((name, module, lines))
    assert _unread(definitions) == []


def test_public_methods_of_exported_classes_have_readers():
    """Each public method and property of a class ``tangles/__init__.py``
    exports is read in ``src/`` outside its own definition or in ``bench/``
    by an attribute load (``x.name``; a bare identifier of the same
    spelling is not a read), or is named in README's code."""
    definitions = []
    for module, name in _exports():
        for cls in _tree(PACKAGE / module).body:
            if isinstance(cls, ast.ClassDef) and cls.name == name:
                definitions += [(stmt.name, module, range(stmt.lineno, stmt.end_lineno + 1))
                                for stmt in cls.body if isinstance(stmt, ast.FunctionDef)
                                and not stmt.name.startswith("_")]
    assert _unread(definitions, attributes_only=True) == []


def test_no_module_assigns_all():
    """The imports of ``tangles/__init__.py`` and its table of deferred
    modules are the package's one export list."""
    assigned = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(_tree(path))
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and node.id == "__all__"]
    assert assigned == []


def test_oracles_read_no_private_name_of_the_package():
    """The slow references in ``tests/oracles.py`` share no code with the
    fast paths they check: they read no private name, by an attribute load
    (``x._name``) or a ``from tangles... import``, that ``oracles.py`` does
    not define itself."""
    tree = _tree(ROOT / "tests" / "oracles.py")
    own = {name for node in ast.walk(tree) for name in _defined(node)}
    reads = list(_loads(tree, attributes_only=True))
    reads += [(alias.name, node.lineno) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "tangles"
              for alias in node.names]
    shared = [f"oracles.py:{line} {name}" for name, line in reads
              if _private(name) and name not in own]
    assert shared == []
