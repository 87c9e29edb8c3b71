"""Every name a module of the package exports exists."""

import importlib
import pkgutil

import wavebench


def test_all_names_exist():
    modules = [m.name for m in pkgutil.iter_modules(wavebench.__path__)]
    assert "metrics" in modules
    for name in modules:
        mod = importlib.import_module(f"wavebench.{name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"wavebench.{name}.__all__ names missing: {missing}"
