"""The public names of the package: every __all__ entry must resolve, and
the README's python blocks run as they are written."""

import importlib
import os
import pkgutil
import re

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


def test_readme_python_blocks_run():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, readme, "exec"), {})
