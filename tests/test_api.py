"""The public names of the package: every __all__ entry must resolve."""

import importlib
import pkgutil

import higher_bruhat


def test_every_all_name_resolves():
    modules = [
        importlib.import_module(f"higher_bruhat.{info.name}")
        for info in pkgutil.iter_modules(higher_bruhat.__path__)
        if info.name != "__main__"
    ]
    assert {m.__name__ for m in modules} >= {"higher_bruhat.bruhat", "higher_bruhat.cli"}
    for module in [higher_bruhat, *modules]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
