"""The package is a one-way stack of modules: each imports, when it loads,
only from the modules below it, and no function imports from the package
when it is called, but bregman_prox, the one solver that builds operators."""

import ast
import os

import pytest

import haraux

STACK = ("core", "solvers", "functions", "operators", "bounds", "oracle", "gauges",
         "verification", "cli")
PACKAGE = os.path.dirname(haraux.__file__)


def _relative_imports(module):
    """(enclosing function or None, imported module) of each relative import in the module."""
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            found.extend((function, name) for name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_the_stack_names_every_module():
    modules = {name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")}
    assert modules == set(STACK) | {"__init__"}


@pytest.mark.parametrize("module", STACK)
def test_a_module_loads_only_from_the_modules_below_it(module):
    below = STACK[:STACK.index(module)]
    loaded = {name for function, name in _relative_imports(module) if function is None}
    assert loaded <= set(below), sorted(loaded - set(below))


def test_bregman_prox_holds_the_one_call_time_import():
    calls = [(module, function, name) for module in STACK
             for function, name in _relative_imports(module) if function is not None]
    assert calls == [("solvers", "bregman_prox", "operators")]
