"""Properties of the library's source text."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "chaincodes"


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


def test_every_function_and_class_is_named_beyond_its_definition():
    # no dead helpers: each name the library defines, dunders aside, also
    # appears in src/, tests/ or perfbench/ outside its own definitions
    defined = {}
    for path, tree in _parsed():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not re.fullmatch(r"__\w+__", node.name):
                defined.setdefault(node.name, []).append(
                    f"{path.name}:{node.lineno}")
    words = Counter(word for folder in ("src", "tests", "perfbench")
                    for path in (ROOT / folder).rglob("*.py")
                    for word in re.findall(r"\w+", path.read_text()))
    assert len(defined) >= 100
    found = [where for name, where in sorted(defined.items())
             if words[name] <= len(where)]
    assert found == []
