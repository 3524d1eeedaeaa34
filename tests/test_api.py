"""The names of the package: every __all__ entry must resolve, every
module-level private name and every name the package root exports is
read by some library module, no library module builds an object past its
class, and the README's python blocks run, its command lines parse and
its budgets are the library's limits, as they are written."""

import ast
import glob
import importlib
import os
import pkgutil
import re
import shlex

import pytest

import higher_bruhat
from higher_bruhat import cli
from higher_bruhat.bruhat import DEFAULT_BFS_LIMIT, DEFAULT_BRUTEFORCE_LIMIT

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_text():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


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


def library_trees():
    """(file name, syntax tree) of each module of the library."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(higher_bruhat.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read(), path)


def names_read(tree):
    """The names that a syntax tree loads, and the attributes it reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_every_private_name_is_read_by_the_library():
    # a module-level private name that no library module reads is dead code
    # that only the tests could still be keeping alive
    defined, read = {}, set()
    for module, tree in library_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.update((name, module) for name in names if name.startswith("_"))
        read |= names_read(tree)
    dead = sorted(
        f"{module}: {name}" for name, module in defined.items()
        if not name.startswith("__") and name not in read
    )
    assert dead == []


def test_every_package_name_is_read_by_the_library():
    # a name that the package root exports and only the tests read is an
    # oracle, and belongs in the tests
    trees = dict(library_trees())
    exported = {
        alias.asname or alias.name
        for node in trees.pop("__init__.py").body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set().union(*map(names_read, trees.values()))
    assert exported and sorted(exported - read) == []


def test_no_library_module_calls_object_new():
    # a certified value is built only by calling its class, so the class's
    # checks, and the benchmark tracer's spans on them, see every build
    calls = sorted(
        f"{module}:{node.lineno}"
        for module, tree in library_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
    )
    assert calls == []


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", readme_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, README, "exec"), {})


def test_readme_command_lines_parse():
    # a CLI choice or flag that changes cannot leave the examples stale
    block = re.search(r"^## Command line\n.*?^```\n(.*?)^```$", readme_text(), re.M | re.S)
    lines = [shlex.split(line, comments=True) for line in block.group(1).splitlines()]
    lines = [line for line in lines if line]
    assert lines and all(line[0] == "higher-bruhat" for line in lines)
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(line[1:])
        except SystemExit:
            pytest.fail(f"README's command line does not parse: {shlex.join(line)}")


def test_readme_budgets_are_the_limits():
    row = re.search(r"^\| `--max-subsets` +\| ([^|]*)\|", readme_text(), re.M)
    assert re.findall(r"\d+", row.group(1)) == [
        str(DEFAULT_BFS_LIMIT), str(DEFAULT_BRUTEFORCE_LIMIT)
    ]
