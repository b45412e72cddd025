"""The option surface of the package is what this file lists: the CLI's
flags, no setting read from the environment, and the constructor
arguments of the operators. A new option shows up as an edit here."""

import argparse
import ast
import dataclasses
import inspect
import os

import pytest

import haraux
from haraux import cli
from haraux.operators import AffineOp, DiagonalOp, GradientOp, MonotoneOperator, identity
from haraux.oracle import GraphSample

PACKAGE = os.path.dirname(haraux.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))

FLAGS = {
    None: ["-h", "--help", "--config"],
    "bound": ["-h", "--help", "--phi", "--f", "--op-a", "--op-w", "--method", "--gamma",
              "--point", "--out"],
    "verify": ["-h", "--help", "--seed", "--out", "--self-test-corrupt"],
    "figure1": ["-h", "--help", "--out", "--format"],
    "gauge": ["-h", "--help", "--instance", "--point", "--out"],
}
FLAGS["sweep"] = FLAGS["bound"]


def _option_strings(parser):
    return [s for action in parser._actions for s in action.option_strings]


def test_each_subcommand_has_the_listed_flags():
    parser = cli._build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {None: _option_strings(parser)}
    found.update((name, _option_strings(sub)) for name, sub in subs.choices.items())
    assert found == FLAGS


def _environment_reads(module):
    """The lines of the module that read the process environment."""
    with open(os.path.join(PACKAGE, module)) as fh:
        tree = ast.parse(fh.read())
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ("environ", "getenv", "environb")):
            lines.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            lines.extend(node.lineno for a in node.names
                         if a.name in ("environ", "getenv", "environb"))
    return lines


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_the_environment(module):
    assert _environment_reads(module) == []


@pytest.mark.parametrize("op", [GradientOp, AffineOp, DiagonalOp])
def test_operators_take_no_modulus_or_check(op):
    params = inspect.signature(op).parameters
    assert not {"modulus", "check"} & set(params)


def test_only_the_identity_declares_a_modulus():
    assert MonotoneOperator.modulus is None
    assert identity(3).modulus.kind == "strong" and identity(3).modulus.alpha == 1.0


def test_a_graph_sample_always_carries_its_operator():
    (field,) = [f for f in dataclasses.fields(GraphSample) if f.name == "operator"]
    assert field.default is dataclasses.MISSING


def test_an_operator_is_applied_through_apply_alone():
    assert not callable(identity(1))
