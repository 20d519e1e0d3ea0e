"""What a fresh `import qhflag` loads.

Every `qhflag` run, and the benchmark's setup_s, pays for the modules a
fresh `import qhflag` loads.  On top of the interpreter's start-up set it
may load qhflag's own modules and the standard-library modules their
sources name, with whatever those need, and nothing else.
"""

import ast
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The standard-library modules named by the sources `import qhflag` loads
# (cli.py, which it does not load, is not among them).
STDLIB = {"__future__", "contextlib", "itertools", "math", "operator",
          "random", "time", "typing"}
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
