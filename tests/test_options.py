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


# The flags of each command that take no value: a config key of one takes
# true or false.
BOOLEAN_FLAGS = {"verify": ["--self-test-corrupt"]}
COMMANDS = [command for command in FLAGS if command]
# A value each flag accepts, and what it reads as; any other flag reads "x" as "x".
# _run_config passes --instance i.txt to gauge, and the flag wins over the file.
_SAMPLES = {"method": ("pairing", "pairing"), "seed": ("7", 7), "point": ("x", ["x"]),
            "format": ("csv", "csv"), "instance": ("x", "i.txt")}


def _dest(flag):
    return flag[2:].replace("-", "_")


def _config_keys(command):
    """The dests of the command's flags: the keys its config file accepts."""
    return [_dest(flag) for flag in FLAGS[command] if flag not in ("-h", "--help")]


def _run_config(monkeypatch, tmp_path, command, text):
    """The exit code of the command with a config file holding ``text``, and
    the arguments its handler was given, if it was called."""
    called = []
    for name in ("cmd_bound", "cmd_verify", "cmd_figure1", "cmd_gauge"):
        monkeypatch.setattr(cli, name, lambda args: called.append(args) or cli.EXIT_OK)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    required = ["--instance", "i.txt"] if command == "gauge" else []
    return cli.main(["--config", str(cfg), command, *required]), called


@pytest.mark.parametrize("command", COMMANDS)
def test_a_config_file_takes_the_dests_of_the_commands_flags(monkeypatch, tmp_path, command):
    booleans = [_dest(flag) for flag in BOOLEAN_FLAGS.get(command, [])]
    for key in _config_keys(command):
        text, value = ("true", True) if key in booleans else _SAMPLES.get(key, ("x", "x"))
        code, called = _run_config(monkeypatch, tmp_path, command, f"{key}={text}\n")
        assert code == cli.EXIT_OK, key
        assert getattr(called[0], key) == value, key


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key", ["command", "config", "help"])
def test_a_config_file_refuses_the_keys_of_no_flag(monkeypatch, tmp_path, command, key):
    code, called = _run_config(monkeypatch, tmp_path, command, f"{key}=x\n")
    assert code == cli.EXIT_CONFIG and not called


@pytest.mark.parametrize("command", COMMANDS)
def test_a_boolean_key_takes_true_or_false(monkeypatch, tmp_path, command):
    for key in map(_dest, BOOLEAN_FLAGS.get(command, [])):
        for text, value in (("true", True), ("false", False)):
            code, called = _run_config(monkeypatch, tmp_path, command, f"{key}={text}\n")
            assert code == cli.EXIT_OK and getattr(called[0], key) is value
        for text in ("yes", "1", "True", ""):
            code, called = _run_config(monkeypatch, tmp_path, command, f"{key}={text}\n")
            assert code == cli.EXIT_CONFIG and not called, text


def test_the_boolean_flags_are_the_flags_without_a_value():
    parser = cli._build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {name: [a.option_strings[-1] for a in sub._actions
                    if a.nargs == 0 and a.dest != "help"]
             for name, sub in subs.choices.items()}
    assert {name: flags for name, flags in found.items() if flags} == BOOLEAN_FLAGS


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
