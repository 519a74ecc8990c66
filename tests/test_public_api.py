"""Every public function and class member of ``bei`` is used by the package itself.

A function, method, property or field that only the tests read is dead
weight in the program; its checks belong in the tests.  The exceptions are
listed with the reason each one stays.
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
# class members that nothing in the package reads by attribute, and why each stays
MEMBER_EXCEPTIONS = {
    "BettiTable.entries": "perfbench/tracer.py reads it",
    "CensusRecord": "asdict writes every field into the byte-pinned census",
    "Codim1Conditions.cond_i": "its repr is the codim1 violation detail",
    "Codim1Conditions.cond_ii": "its repr is the codim1 violation detail",
    "Codim1Conditions.cond_iii": "its repr is the codim1 violation detail",
    "Shape.attached": "Shape.to_json reads it",
    "VertexPath.vertices": "VertexPath.inner reads it",
}


def package_trees() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def referenced_names(tree) -> Counter:
    """How often each name is read, or taken as an attribute, inside ``tree``."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def attribute_reads(tree) -> Counter:
    """How often each attribute name is read inside ``tree``."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def is_cli_command(decorator) -> bool:
    """``@group.command(...)``: click registers the function with the group."""
    func = getattr(decorator, "func", None)
    return isinstance(func, ast.Attribute) and func.attr == "command"


def public_members(cls: ast.ClassDef):
    """Methods, properties and annotated fields whose names do not start with _."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name


def test_every_public_function_has_a_caller_in_the_package():
    trees = package_trees()
    everywhere = sum((referenced_names(t) for t in trees.values()), Counter())
    functions = [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert {module for module, _ in functions} == MODULES
    unused = [
        f"{module}.{node.name}"
        for module, node in functions
        if not any(is_cli_command(d) for d in node.decorator_list)
        # references inside the function's own body do not count
        and everywhere[node.name] == referenced_names(node)[node.name]
    ]
    assert unused == []


def test_every_public_class_member_is_read_in_the_package():
    """Matched by attribute name, so a member that shares its name with an
    attribute read elsewhere passes."""
    trees = package_trees()
    everywhere = sum((attribute_reads(t) for t in trees.values()), Counter())
    classes = [
        node for t in trees.values() for node in t.body if isinstance(node, ast.ClassDef)
    ]
    members = {f"{cls.name}.{name}" for cls in classes for name in public_members(cls)}
    for exception in MEMBER_EXCEPTIONS:
        assert exception in members or exception in {cls.name for cls in classes}
    unused = [
        f"{cls.name}.{name}"
        for cls in classes
        if cls.name not in MEMBER_EXCEPTIONS
        for name in public_members(cls)
        if f"{cls.name}.{name}" not in MEMBER_EXCEPTIONS
        # reads inside the member's own class do not count
        and everywhere[name] == attribute_reads(cls)[name]
    ]
    assert unused == []
