"""The package's modules import one another at module level only, so the
import graph is read from the top of each file."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gmineq"

# (file, function) of each import of a package module inside a function.
# `InstanceSet.spectra` imports `chains.InstanceSpectra` when first read,
# since chains imports blocks.  Moving InstanceSpectra out of chains would
# end the cycle, but chains would then no longer import `hermitian_eig` by
# name, which the benchmark's tracer test (perfbench/test_perfbench.py)
# asserts.  mpmath, which highprec loads on first use, is not a package
# module.
ALLOWED = {("blocks.py", "InstanceSet.spectra")}


def _is_package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "gmineq"
    return any(alias.name.split(".")[0] == "gmineq" for alias in node.names)


def _function_imports(node, scope=(), in_function=False):
    """The qualified name of a function once per import of a package
    module in its body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            if in_function and _is_package_import(child):
                yield ".".join(scope)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _function_imports(child, (*scope, child.name),
                                         in_function or not isinstance(child, ast.ClassDef))
        else:
            yield from _function_imports(child, scope, in_function)


def test_no_package_import_inside_a_function():
    found = {(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in _function_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == ALLOWED


def _unused_imports(tree) -> list:
    """The names that a module imports at module level and never reads."""
    imported = [alias.asname or alias.name.split(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) and
                not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_unused_import():
    """Every name a module imports at module level is used in it;
    `__init__.py` re-exports and is exempt."""
    found = {path.name: _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}
