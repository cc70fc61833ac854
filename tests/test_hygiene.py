"""Code hygiene of the package: no unused imports, no unread names.

A module-level function or class of `src/wdmplan`, and a method or
property of one of its classes other than a dunder, needs a reader in the
program: `src/` (the package's own `__init__` re-export does not count),
`demos/` or `perfbench/`. A reader is a name in the code other than the
definition itself: a bare name, an attribute or an imported name. A method
or property is read only as an attribute, or by a `getattr` string, so a
local variable of the same spelling does not count. Other strings,
docstrings and comments are not readers, and neither are the tests. Names
are taken from the syntax tree rather than from `tokenize`, which before
Python 3.12 sees an f-string as one string token and so would miss the
names read inside one.

Importing the package loads no standard-library module that only one
option needs.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wdmplan"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PROGRAM = MODULES + sorted((ROOT / "demos").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))

# public names kept without a reader in the program, with the reason
KEEP = {
    "import_solution": "the HiGHS round trip of the tests reads external "
                       "solver output back into a Solution",
    "k_shortest_bounded": "the public search for one pair's paths, tested "
                          "on its own; build_catalog runs the same search "
                          "(_k_shortest) for every pair",
}

# loaded by the command that needs them: the process pool for `--jobs` above
# 1, the XML reader for an XML solution in `import_solution`
ON_DEMAND = ("concurrent.futures", "multiprocessing", "xml.etree")


def _names_read(path: Path) -> tuple[Counter, Counter]:
    """(the names read in one file, the attributes read in it): an attribute
    is an `obj.name` access or a constant `getattr(obj, "name")`."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
            attributes[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant):
            attributes[node.args[1].value] += 1
    return names, attributes


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}: {bound}")
    assert not unused


def _program_reads() -> tuple[Counter, Counter]:
    names, attributes = Counter(), Counter()
    for path in PROGRAM:
        file_names, file_attributes = _names_read(path)
        names.update(file_names)
        attributes.update(file_attributes)
    return names, attributes


def test_every_module_level_name_has_a_reader():
    counts, _ = _program_reads()
    unread = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not counts[node.name] and node.name not in KEEP:
                unread.append(f"{path.name}: {node.name}")
    assert not unread
    assert not any(counts[name] for name in KEEP), "a kept name has a reader now"


def test_every_method_has_a_reader():
    """A method left without callers, such as a second entry point that
    the program stopped calling, fails here rather than living on in the
    tests alone. Only attribute reads count: a method is called through its
    object."""
    _, counts = _program_reads()
    methods, unread = 0, []
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    methods += 1
                    if not counts[node.name]:
                        unread.append(f"{path.name}: {cls.name}.{node.name}")
    assert methods and not unread, unread


def test_import_loads_no_on_demand_module():
    """A fresh interpreter that imports `wdmplan` and `wdmplan.cli` loads
    neither the process pool nor the XML reader."""
    code = ("import sys; before = set(sys.modules); import wdmplan, wdmplan.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "wdmplan.cli" in loaded
    assert not [name for name in loaded
                if any(name == m or name.startswith(m + ".") for m in ON_DEMAND)]
