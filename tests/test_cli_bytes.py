"""The bytes of default ``haraux bound``/``sweep`` calls, pinned in
``tests/data/bound_cli_bytes.json`` by ``scripts/pin_bound_cli.py``: each
call's exit code, stderr and stdout (its sha256 when over 4 KB)."""

import contextlib
import hashlib
import io
import json
import os

import pytest

from haraux import cli

with open(os.path.join(os.path.dirname(__file__), "data", "bound_cli_bytes.json")) as fh:
    PIN = json.load(fh)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrices")
    for name, text in PIN["files"].items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in PIN["files"]}


@pytest.mark.parametrize("entry", [
    pytest.param(e, id=f"{i:03d} " + " ".join(a for a in e["argv"] if "--point" not in a))
    for i, e in enumerate(PIN["calls"])])
def test_call_gives_the_pinned_bytes(entry, paths):
    argv = entry["argv"]
    for name, path in paths.items():
        argv = [a.replace("{" + name + "}", path) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (entry["exit"], entry["stderr"])
    if "stdout_sha256" in entry:
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == entry["stdout_sha256"]
    else:
        assert out.getvalue() == entry["stdout"]


def test_pin_covers_every_route_and_both_error_codes():
    argvs = [" ".join(e["argv"]) for e in PIN["calls"]]
    for needle in ("--phi", "--f fermi_dirac", "--f burg", "grad:", "subdiff:",
                   "joca16:2,quadratic", "affine:{affine.txt}", "--gamma 0.1,1,10"):
        assert any(needle in a for a in argvs), needle
    assert {e["exit"] for e in PIN["calls"]} == {0, 2, 3}
    methods = " ".join(e.get("stdout", "") for e in PIN["calls"])
    for route in ("burg_closed", "fermi_dirac_closed", "carlier_haraux", "legendre_self"):
        assert f",{route}," in methods, route
