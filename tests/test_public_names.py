"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

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
