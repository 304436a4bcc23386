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


def test_no_function_imports_inside_its_body():
    # every import is at module level, so the import graph is in plain
    # sight and no call pays for an import
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _parsed()
             for function in ast.walk(tree)
             if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(function)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
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


def _references():
    """How often src/, tests/ and perfbench/ name each word: as a Name or
    an import alias (`names`), or as an attribute or a string constant
    that is not a docstring (`attributes`).  perfbench/tracing.py looks up
    the functions it traces by string."""
    names, attributes = Counter(), Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text(), str(path))
            docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                          if isinstance(node, (ast.Module, ast.ClassDef,
                                               ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                          and ast.get_docstring(node, clean=False)
                          is not None}
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names[node.id] += 1
                elif isinstance(node, ast.alias):
                    names[node.name] += 1
                elif isinstance(node, ast.Attribute):
                    attributes[node.attr] += 1
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and id(node) not in docstrings:
                    attributes[node.value] += 1
    return names, attributes


def test_every_function_and_class_is_named_beyond_its_definition():
    # no dead helpers: each function or class the library defines, dunders
    # aside, is referenced in src/, tests/ or perfbench/; a method only as
    # an attribute or a string, so neither a builtin of the same name nor
    # a docstring or comment keeps a dead one
    defined, methods = {}, set()
    for path, tree in _parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods.update(id(item) for item in node.body)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not re.fullmatch(r"__\w+__", node.name):
                defined.setdefault((node.name, id(node) in methods),
                                   []).append(f"{path.name}:{node.lineno}")
    names, attributes = _references()
    assert len(defined) >= 100
    found = [where for (name, method), where in sorted(defined.items())
             if not attributes[name] and (method or not names[name])]
    assert found == []


def test_only_the_budget_gate_raises_budget_exceeded():
    # errors.check_budget is the one place that compares an amount with a
    # budget and reports both
    made = [path.name for path, tree in _parsed()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "BudgetExceeded" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))]
    assert made == ["errors.py"]
