"""The package namespace agrees with each module's __all__."""
import ast
import importlib
import pathlib
import pkgutil

import spbvp


def _modules():
    for info in pkgutil.iter_modules(spbvp.__path__):
        if not info.name.startswith("_"):  # __main__ would run the CLI
            yield importlib.import_module(f"spbvp.{info.name}")


def test_every_name_in_a_module_all_exists():
    missing = [
        f"{mod.__name__}.{name}"
        for mod in _modules()
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert not missing, f"__all__ lists names the module lacks: {missing}"


def test_package_exports_only_names_in_their_module_all():
    tree = ast.parse(pathlib.Path(spbvp.__file__).read_text(encoding="utf-8"))
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = importlib.import_module(f"spbvp.{node.module}").__all__
            unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    assert not unlisted, f"spbvp exports names missing from their module's __all__: {unlisted}"
