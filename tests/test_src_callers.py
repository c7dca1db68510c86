"""Code that only the tests use lives under tests/, not in src/frisec.

Every top-level function and class of `src/frisec`, and every method of such
a class other than a dunder, must be referenced by name or attribute from
other code in `src/frisec`, or be named by the code of `benchmarks/*.py`,
which calls the library by name and so pins what it names: as a name or an
attribute, or in a dotted string constant such as "harness.reference_fits",
the form in which the tracer and the benchmark's layer lists name what they
wrap.  Words in comments, docstrings and other strings pin nothing.  A
definition that neither reaches is test-only, and belongs in
`tests/oracles.py`.
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


def pins(tree: ast.Module) -> set:
    """The names `tree` uses as a name or attribute, or as a part of a dotted string constant."""
    dotted = (re.fullmatch(r"\w+(\.\w+)+", n.value) for n in ast.walk(tree)
              if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return set(references(tree)) | {part for match in dotted if match
                                     for part in match[0].split(".")}


def test_pins_are_code_not_prose():
    tree = ast.parse('''
"""Docstring words: simulate_gains."""
# comment words: estimate_sop
harness.reference_fits(corr, label="sweep rows")
run(["secrecy.asc_oracle", "not.a dotted.name", "plain"])
''')
    assert pins(tree) == {"harness", "reference_fits", "corr", "run", "secrecy", "asc_oracle"}


def test_every_src_definition_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "frisec").glob("*.py"))}
    used = sum((references(tree) for tree in trees.values()), Counter())
    pinned = set().union(*(pins(ast.parse(path.read_text(encoding="utf-8")))
                           for path in (ROOT / "benchmarks").glob("*.py")))
    assert "records_for_budget" in pinned  # the benchmark's files were read
    uncalled = [f"{path.stem}.{qualname}"
                for path, tree in trees.items() for qualname, node in definitions(tree)
                if (name := qualname.rpartition(".")[2]) not in pinned
                and used[name] <= references(node)[name]]
    assert not uncalled, f"referenced only by tests, move to tests/oracles.py: {uncalled}"
