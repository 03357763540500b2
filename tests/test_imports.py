"""Import rules for the package, read from the source with ``ast``.

* The package imports only the standard library, numpy and itself;
  scipy is not a dependency.
* ``cli.py`` presents results: it imports no ``_``-prefixed name, and
  nothing from a ``_``-prefixed module, of the package.
* Every function, class, method and property defined in the package is
  named somewhere in the package or in ``scripts/`` outside its own
  definition; one that only tests reach goes.
* A seed-0 split loads neither OpenSSL (through ``hashlib``) nor
  ``numpy.ma``, each over a MiB of resident memory.
"""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "f2moduli"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "f2moduli"}


def _imports(path: Path):
    """(module, names, level) of every import statement in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, [], 0
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", [alias.name for alias in node.names], node.level


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_stdlib_numpy_and_package(path):
    outside = [
        module for module, _, level in _imports(path)
        if level == 0 and module.split(".")[0] not in ALLOWED
    ]
    assert outside == [], f"{path.name} imports {outside}"


def test_cli_imports_no_private_names():
    private = [
        f"{module}.{name}"
        for module, names, level in _imports(PACKAGE / "cli.py")
        if level > 0 or module.split(".")[0] == "f2moduli"
        for name in names
        if any(part.startswith("_") for part in [*module.split("."), name])
    ]
    assert private == [], f"cli.py imports private names {private}"


# defined in the package and named by no command or script, kept on purpose
KEPT = {
    "error": "argparse calls _Parser.error on a usage error",
    "from_rows": "perfbench's tracer test builds its matrix with it, and perfbench/ "
    "changes only together with the benchmark",
    "kron": "perfbench's tracer times it as the f2la.kron layer; split diagrams "
    "are packed by kron_assemble",
}


def _unreached() -> list[str]:
    """Names defined in the package that nothing names outside their own definition."""
    defs, uses = [], defaultdict(list)
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                uses[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append((path, node.lineno))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if path.parent == PACKAGE and not dunder:
                    defs.append((node.name, path, node.lineno, node.end_lineno))
    return sorted(
        name
        for name, path, first, last in defs
        if all(where == path and first <= line <= last for where, line in uses[name])
    )


def test_every_routine_reaches_a_user():
    unreached = _unreached()
    extra = [name for name in unreached if name not in KEPT]
    assert extra == [], f"only tests reach {extra}: delete them"
    assert unreached == sorted(KEPT), "a name in KEPT is now reached: drop it from KEPT"


_LOADED_BY_SPLIT = """
import contextlib, io, sys
import numpy
before = set(sys.modules)
from f2moduli import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["mv", "--split", "2+2", "--format", "json"])
print(code, *sorted(set(sys.modules) - before))
"""


def test_seed_0_split_loads_no_openssl_and_no_masked_arrays():
    # modules numpy itself loads on import are not the package's doing
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_SPLIT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[0] == "0"
    assert "f2moduli.mv" in out[1:]
    assert "_hashlib" not in out[1:] and "numpy.ma" not in out[1:]
