"""What a fresh `import qhflag` loads, and what the sources define.

Every `qhflag` run, and the benchmark's setup_s, pays for the modules a
fresh `import qhflag` loads.  On top of the interpreter's start-up set it
may load qhflag's own modules and the standard-library modules their
sources name, with whatever those need, and nothing else.

The sources carry no dead weight either: every name a module imports is
read in it, and every function and class is named by the library, the
demos, the README or the benchmark, not only by the tests.
"""

import ast
import glob
import os
import re
import subprocess
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The standard-library modules named by the sources `import qhflag` loads
# (cli.py, which it does not load, is not among them).
STDLIB = {"__future__", "contextlib", "itertools", "math", "operator",
          "random", "threading", "time", "typing"}
# Heavy modules kept off the import path: a @dataclass loads dataclasses
# and through it inspect, ast, dis, tokenize, linecache and copy; the exact
# elimination works in the integers, so fractions and decimal are unneeded.
NEVER = {"dataclasses", "inspect", "ast", "dis", "tokenize", "linecache",
         "copy", "fractions", "decimal"}


def _added(imports: str) -> set:
    """The modules a fresh interpreter adds to its start-up set by running
    the statement ``imports``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    code = ("import sys; before = set(sys.modules); " + imports +
            "; print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _stdlib_named(module: str) -> set:
    """Top-level names of the absolute imports in a qhflag module's source."""
    path = os.path.join(ROOT, "src", *module.split("."))
    path = os.path.join(path, "__init__.py") if module == "qhflag" else path + ".py"
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_import_loads_only_qhflag_and_the_stdlib_it_names():
    added = _added("import qhflag")
    own = {m for m in added if m == "qhflag" or m.startswith("qhflag.")}
    assert "qhflag.cli" not in own
    assert set().union(*map(_stdlib_named, own)) == STDLIB
    allowed = _added("import " + ", ".join(sorted(STDLIB)))
    assert not allowed & NEVER
    assert added - own <= allowed, sorted(added - own - allowed)
    assert not added & NEVER, sorted(added & NEVER)


SRC = sorted(glob.glob(os.path.join(ROOT, "src", "qhflag", "*.py")))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _names_read(tree: ast.Module) -> set:
    """Every name a module reads, string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    hints = [getattr(node, "annotation", None) or getattr(node, "returns", None)
             for node in ast.walk(tree)]  # of arguments, assignments, defs
    for const in (c for hint in filter(None, hints) for c in ast.walk(hint)):
        if isinstance(const, ast.Constant) and isinstance(const.value, str):
            names |= _names_read(ast.parse(const.value, mode="eval"))
    return names


def test_every_imported_name_is_read():
    unread = []
    for path in SRC:
        if path.endswith("__init__.py"):  # the package's exports
            continue
        tree = ast.parse(_read(path))
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [(os.path.basename(path), name) for name in (
                    alias.asname or alias.name.split(".")[0]
                    for alias in node.names) if name not in read]
    assert unread == []


def test_every_definition_is_named_outside_the_tests():
    readers = SRC + sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))) + [
        os.path.join(ROOT, "README.md")] + sorted(
            glob.glob(os.path.join(ROOT, "bench", "*.py")))
    lines = {path: _read(path).splitlines() for path in readers}
    named = Counter(word for text in lines.values() for line in text
                    for word in re.findall(r"\w+", line))
    def_lines = {}  # name -> the (path, line number) of each def of it
    for path in SRC:
        for node in ast.walk(ast.parse(_read(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                def_lines.setdefault(node.name, set()).add((path, node.lineno))
    unnamed = sorted(name for name, where in def_lines.items()
                     if named[name] == sum(
                         re.findall(r"\w+", lines[path][k - 1]).count(name)
                         for path, k in where))
    assert unnamed == []
