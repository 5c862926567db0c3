"""The package root exports exactly the names listed in ``__all__``,
no module imports a name it never uses, and no module but trees.py
reads whether a tree is standard."""

import ast
import pathlib
import types

import operad_forge


def test_every_exported_name_resolves():
    missing = [name for name in operad_forge.__all__ if not hasattr(operad_forge, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from operad_forge import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(operad_forge.__all__)


def test_all_lists_every_public_name():
    # submodules are bound as attributes by the imports, but are not exports
    public = [
        name
        for name, value in vars(operad_forge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(operad_forge.__all__) == sorted(public)


def _unused_imports(path: pathlib.Path) -> list[str]:
    # an import binds a name; the name must be read, or listed in __all__
    module = ast.parse(path.read_text(), str(path))
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def _tree_internals(path: pathlib.Path) -> list[str]:
    # whether a tree is standard, and its sorted-items key, are known to trees.py alone
    module = ast.parse(path.read_text(), str(path))
    return [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for node in ast.walk(module)
        if isinstance(node, ast.Attribute) and node.attr in ("is_standard", "_key")
    ]


def test_only_trees_reads_standardness_or_the_key():
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "operad_forge"
    files = [path for path in sorted(root.glob("*.py")) if path.name != "trees.py"]
    assert files
    assert [entry for path in files for entry in _tree_internals(path)] == []


def test_no_unused_imports():
    root = pathlib.Path(__file__).resolve().parent.parent
    files = sorted((root / "src" / "operad_forge").glob("*.py")) + sorted(
        (root / "tests").glob("*.py")
    )
    assert files
    assert [entry for path in files for entry in _unused_imports(path)] == []
