"""Every public function and class member of ``bei`` is used by the package itself.

A function, method, property or field that only the tests read is dead
weight in the program; its checks belong in the tests.  The exceptions are
listed with the reason each one stays.  Likewise every default parameter
is both omitted and overridden by some call in the package.
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


def has_decorator(func: ast.FunctionDef, name: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name for d in func.decorator_list)


def definitions_and_calls(tree):
    """The function definitions of ``tree``, each with its class or None, and
    its calls, each with the name it calls: ``f`` for ``f(...)`` and
    ``x.f(...)``, and the class name for ``cls(...)`` inside a classmethod."""
    defs, calls = [], []

    def visit(node, cls, classmethod_of):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, None)
                continue
            if isinstance(child, ast.FunctionDef):
                defs.append((child, cls))
                in_classmethod = cls and has_decorator(child, "classmethod")
                visit(child, None, cls.name if in_classmethod else classmethod_of)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.append((classmethod_of if name == "cls" and classmethod_of else name, child))
            visit(child, cls, classmethod_of)

    visit(tree, None, None)
    return defs, calls


def defaulted_parameters(func: ast.FunctionDef, bound: bool):
    """(name, index among a call's positional arguments, or None) of each
    parameter with a default; a ``bound`` method's call does not pass self."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first - bound):
        yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def passes(call: ast.Call, name: str, index) -> bool:
    positional = [a for a in call.args if not isinstance(a, ast.Starred)]
    if len(positional) < len(call.args) or any(k.arg is None for k in call.keywords):
        return True  # *args or **kwargs: it may pass the parameter
    return (index is not None and len(positional) > index) or any(
        k.arg == name for k in call.keywords
    )


def single_valued_parameters() -> list[str]:
    """Defaulted parameters that every call in the package overrides, or
    that no call overrides.  Calls are matched by name, and ``C(...)`` and
    ``cls(...)`` in a classmethod of C call ``C.__init__``."""
    defs, calls = [], []
    for module, tree in package_trees().items():
        d, c = definitions_and_calls(tree)
        defs.extend((module, func, cls) for func, cls in d)
        calls.extend(c)
    single_valued = []
    for module, func, cls in defs:
        callee = cls.name if cls and func.name == "__init__" else func.name
        bound = cls is not None and not has_decorator(func, "staticmethod")
        sites = [call for name, call in calls if name == callee]
        for param, index in defaulted_parameters(func, bound):
            passed = [passes(call, param, index) for call in sites]
            if all(passed) or not any(passed):
                owner = f"{cls.name}." if cls else ""
                single_valued.append(f"{module}.{owner}{func.name}({param})")
    return single_valued


def test_every_default_is_both_omitted_and_overridden_in_the_package():
    """A default that every call overrides, or that none does, is a parameter
    with one value in use: a constant or a required argument says the same
    with one path."""
    assert single_valued_parameters() == []
