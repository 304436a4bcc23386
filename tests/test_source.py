"""Properties of the library's source text."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chaincodes"


def _parsed():
    return [(path, ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.glob("*.py"))]


def test_no_assert_statement_in_the_library():
    # python -O strips assert statements, and every check must still run
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _parsed()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) >= 9
    assert found == []


def test_the_library_imports_only_the_standard_library():
    # the runtime is stdlib-only; relative imports are the package's own
    names = []
    for path, tree in _parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.append((path.name, node.module))
    assert len(names) >= 15, names
    found = [f"{name}: {module}" for name, module in names
             if module.split(".")[0] not in sys.stdlib_module_names]
    assert found == []
