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
