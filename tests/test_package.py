"""The package namespace agrees with each module's __all__, and running
the registered studies imports nothing beyond the package."""
import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def test_studies_import_nothing_after_the_package():
    # a module imported on first use would charge its import to a timed study
    script = (
        "import sys, spbvp\n"
        "before = set(sys.modules)\n"
        "for cfg in spbvp.STUDIES.values():\n"
        "    spbvp.run_study(cfg)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    src = pathlib.Path(spbvp.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
