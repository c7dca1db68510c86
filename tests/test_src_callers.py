"""Code that only the tests use lives under tests/, not in src/frisec.

Every top-level function and class of `src/frisec` must be referenced by
name or attribute from other code in `src/frisec`, and every method of such a
class other than a dunder by attribute, since a bare name of the same
spelling is some other variable; or it must be named by the code of
`benchmarks/*.py`,
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


def references(node: ast.AST, kinds: tuple = (ast.Name, ast.Attribute)) -> Counter:
    """How often each name is used in `node`, as a bare name or as an attribute, or
    only as the `kinds` given."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, kinds))


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


def uncalled(trees: dict, pinned: set) -> list:
    """"module.qualname" of each definition in `trees` that no other code of theirs uses and
    `pinned` does not name; a method's uses are its attribute references alone."""
    def uses(kinds):
        return sum((references(tree, kinds) for tree in trees.values()), Counter())

    by_name, by_attribute = uses((ast.Name, ast.Attribute)), uses((ast.Attribute,))
    found = []
    for path, tree in trees.items():
        for qualname, node in definitions(tree):
            owner, _, name = qualname.rpartition(".")
            kinds = (ast.Attribute,) if owner else (ast.Name, ast.Attribute)
            used = by_attribute if owner else by_name
            if name not in pinned and used[name] <= references(node, kinds)[name]:
                found.append(f"{path.stem}.{qualname}")
    return found


def test_a_method_is_not_called_by_a_variable_of_its_name():
    # `block` is a local variable of simulate_gains, never the method: the
    # method is unused, where a count of bare names too saw two uses
    tree = ast.parse('''
class CorrelationMatrix:
    def block(self, rows):
        return rows

def simulate_gains(corr):
    block = corr.rank
    return block
''')
    assert uncalled({Path("surface.py"): tree}, {"CorrelationMatrix", "simulate_gains"}) == [
        "surface.CorrelationMatrix.block"]


def test_every_src_definition_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "frisec").glob("*.py"))}
    pinned = set().union(*(pins(ast.parse(path.read_text(encoding="utf-8")))
                           for path in (ROOT / "benchmarks").glob("*.py")))
    assert "records_for_budget" in pinned  # the benchmark's files were read
    found = uncalled(trees, pinned)
    assert not found, f"referenced only by tests, move to tests/oracles.py: {found}"
