"""Package exports: every public name resolves to a real object."""

import ast
import importlib
import pkgutil
from pathlib import Path

import matterhorn


def test_every_export_resolves():
    for info in pkgutil.iter_modules(matterhorn.__path__):
        module = importlib.import_module(f"matterhorn.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"matterhorn.{info.name}.__all__ lists missing {name!r}"
    # the package re-exports only names its modules declare public
    tree = ast.parse(Path(matterhorn.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"matterhorn.{node.module}")
            for alias in node.names:
                assert hasattr(matterhorn, alias.name), alias.name
                assert alias.name in getattr(module, "__all__", (alias.name,)), (
                    f"matterhorn re-exports {alias.name!r}, absent from "
                    f"matterhorn.{node.module}.__all__"
                )
