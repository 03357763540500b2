"""Import rules for the package, read from the source with ``ast``.

* The package imports only the standard library, numpy and itself;
  scipy is not a dependency.
* ``cli.py`` presents results: it imports no ``_``-prefixed name, and
  nothing from a ``_``-prefixed module, of the package.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "f2moduli"
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
