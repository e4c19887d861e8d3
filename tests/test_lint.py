"""Stdlib lint: every name a package module imports is read somewhere in it,
every module-level private name is read by some module of the package, and
every public constant, function, class, method and property is read by the
package or by perfbench, not by tests alone."""

import ast
from pathlib import Path

import pytest

import medsegdet

MODULES = sorted(Path(medsegdet.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in ``source`` and never loaded."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def names_read(trees) -> set[str]:
    """Every name the modules load, take as an attribute or import by name."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level ``_name`` that no module in ``sources`` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = names_read(trees.values())
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            unread += [
                f"{module}.{n}" for n in defined_names(node)
                if n.startswith("_") and not n.startswith("__") and n not in read
            ]
    return sorted(unread)


def unread_public_names(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module.name`` for each public module-level constant, function or class, and
    ``module.Class.name`` for each public method or property of a class in ``package``, that
    no module of ``package`` or ``readers`` reads: a name only tests read is kept for them alone."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    read = names_read([*trees.values(), *map(ast.parse, readers.values())])
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            names = [(n, n) for n in defined_names(node)]
            if isinstance(node, ast.ClassDef):
                names += [(f"{node.name}.{f.name}", f.name) for f in node.body if isinstance(f, ast.FunctionDef)]
            unread += [f"{module}.{qual}" for qual, n in names if not n.startswith("_") and n not in read]
    return sorted(unread)


def test_unread_private_names_names_each_unread_definition():
    sources = {
        "a": "_KEPT = 1\n_DROPPED, _ALSO = 2, 3\n__all__ = []\ndef _f():\n    return _KEPT\nclass _C:\n    pass\n",
        "b": "from .a import _C\nimport a\na._ALSO\n",
    }
    assert unread_private_names(sources) == ["a._DROPPED", "a._f"]


def test_package_reads_every_private_name_it_defines():
    assert unread_private_names({p.stem: p.read_text(encoding="utf-8") for p in MODULES}) == []


def test_unread_public_names_names_each_name_no_module_reads():
    package = {
        "a": "def used():\n    pass\ndef spare():\n    pass\nclass C:\n    def m(self):\n        pass\n"
             "    @property\n    def p(self):\n        pass\n    def __init__(self):\n        pass\n"
             "def _private():\n    pass\nLIMIT, SPARE_LIMIT = 1, 2\nSTEP: float = LIMIT\n__version__ = '1'\n",
        "b": "from .a import used\nused()\n",
    }
    assert unread_public_names(package, {"bench": "import a\na.C().p\n"}) == ["a.C.m", "a.SPARE_LIMIT", "a.STEP", "a.spare"]
    assert unread_public_names(package, {"bench": "from a import STEP\n"}) == [
        "a.C", "a.C.m", "a.C.p", "a.SPARE_LIMIT", "a.spare"
    ]


def test_package_and_perfbench_read_every_public_name_the_package_defines():
    readers = {f"perfbench.{p.stem}": p.read_text(encoding="utf-8") for p in PERFBENCH}
    assert unread_public_names({p.stem: p.read_text(encoding="utf-8") for p in MODULES}, readers) == []


def test_unused_imports_names_each_unread_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nos.sep\nd()\n"
    assert unused_imports(source) == ["c (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
