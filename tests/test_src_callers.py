"""Code that only the tests use lives under tests/, not in src/frisec.

Every top-level function and class of `src/frisec`, and every method of such
a class other than a dunder, must be referenced by name or attribute from
other code in `src/frisec`, or be named in `benchmarks/*.py`, which calls
the library by name and so pins what it names.  A definition that neither
reaches is test-only, and belongs in `tests/oracles.py`.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level def and class and each non-dunder method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, functions)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def references(node: ast.AST) -> Counter:
    """How often each name is used in `node`, as a bare name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_src_definition_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "frisec").glob("*.py"))}
    used = sum((references(tree) for tree in trees.values()), Counter())
    pinned = set(re.findall(r"\w+", "".join(path.read_text(encoding="utf-8")
                                            for path in (ROOT / "benchmarks").glob("*.py"))))
    assert "records_for_budget" in pinned  # the benchmark's files were read
    uncalled = [f"{path.stem}.{qualname}"
                for path, tree in trees.items() for qualname, node in definitions(tree)
                if (name := qualname.rpartition(".")[2]) not in pinned
                and used[name] <= references(node)[name]]
    assert not uncalled, f"referenced only by tests, move to tests/oracles.py: {uncalled}"
