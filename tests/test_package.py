"""The package root exports exactly the names listed in ``__all__``."""

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
