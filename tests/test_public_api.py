"""Every public module-level function of ``bei`` is used by the package itself.

A function that only the tests call is dead weight in the program; its
checks belong in the tests.  The two exceptions are reference
implementations that the Betti tests compare the production kernel against.
"""

import ast
from collections import Counter
from pathlib import Path

import bei

PACKAGE = Path(bei.__file__).parent
MODULES = {
    "census", "classify", "cli", "cliques", "degeneration",
    "graph6", "graphs", "oracle", "primes",
}
TEST_REFERENCES = {"reduced_homology", "stanley_reisner"}


def referenced_names(tree) -> Counter:
    """How often each name is read, or taken as an attribute, inside ``tree``."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def is_cli_command(decorator) -> bool:
    """``@group.command(...)``: click registers the function with the group."""
    func = getattr(decorator, "func", None)
    return isinstance(func, ast.Attribute) and func.attr == "command"


def test_every_public_function_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    everywhere = sum((referenced_names(t) for t in trees.values()), Counter())
    functions = [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert {module for module, _ in functions} == MODULES
    assert TEST_REFERENCES <= {node.name for _, node in functions}
    unused = [
        f"{module}.{node.name}"
        for module, node in functions
        if node.name not in TEST_REFERENCES
        and not any(is_cli_command(d) for d in node.decorator_list)
        # references inside the function's own body do not count
        and everywhere[node.name] == referenced_names(node)[node.name]
    ]
    assert unused == []
