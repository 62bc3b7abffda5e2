"""Import hygiene of src/rtlopt: no unused module-level imports, none in
functions, and no third-party package but numpy.

Package ``__init__.py`` files re-export names, so they are exempt from the
unused check.
"""

import ast
import functools
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rtlopt"
MODULES = sorted(SRC.rglob("*.py"))


@functools.cache
def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(node):
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_level_imports(path):
    tree = _tree(path)
    imported = [name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _imported_names(node)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported if name not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_imports_only_the_standard_library_and_numpy(path):
    tops = [alias.name.split(".")[0] for node in ast.walk(_tree(path))
            if isinstance(node, ast.Import) for alias in node.names]
    tops += [node.module.split(".")[0] for node in ast.walk(_tree(path))
             if isinstance(node, ast.ImportFrom) and node.level == 0]
    allowed = sys.stdlib_module_names | {"numpy"}
    assert [name for name in tops if name not in allowed] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_imports_only_at_module_level(path):
    tree = _tree(path)
    module_level = {id(node) for node in tree.body}
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and id(node) not in module_level]
    assert nested == []


def _assigned_names(tree):
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("__"):
                    yield name.id


def _read_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_level_names_are_read(path):
    """No dead vocabulary: every module-level constant is read somewhere in
    src/rtlopt, by name or as a module attribute."""
    read = {name for module in MODULES for name in _read_names(_tree(module))}
    assert [name for name in _assigned_names(_tree(path)) if name not in read] == []
