"""Every exported name resolves, in the package and in each module, and
every imported name is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import spdcmux


def test_star_import_and_every_export_resolve() -> None:
    namespace: dict[str, object] = {}
    exec("from spdcmux import *", namespace)
    assert set(spdcmux.__all__) <= set(namespace)
    for info in pkgutil.iter_modules(spdcmux.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"spdcmux.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"spdcmux.{info.name}.__all__ names missing {missing}"


def test_no_module_imports_a_name_it_does_not_use() -> None:
    for path in sorted(Path(spdcmux.__file__).parent.glob("*.py")):
        name = "spdcmux" if path.stem == "__init__" else f"spdcmux.{path.stem}"
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(imported - used - exported)
        assert not unused, f"{path.name} imports {unused} and never uses them"
