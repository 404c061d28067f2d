"""The package's public surface: every exported name resolves in motionwalk."""
from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import motionwalk

MODULES = [motionwalk] + [importlib.import_module(f"motionwalk.{m.name}")
                          for m in pkgutil.iter_modules(motionwalk.__path__)]


def test_public_names_resolve():
    package_dir = Path(motionwalk.__file__).resolve().parent
    for module in MODULES:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                # defined in the package, not borrowed from the tests
                assert obj.__module__.startswith("motionwalk."), f"{module.__name__}.{name}"
                assert package_dir in Path(inspect.getfile(obj)).resolve().parents
