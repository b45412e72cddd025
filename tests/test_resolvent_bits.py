"""The bits of the resolvent-based bounds, pinned in
``tests/data/resolvent_bits.json`` by ``scripts/pin_resolvent_bits.py``:
the repr of each result's value, z, method and diagnostics, or the
exception it raises, at seeded points on both sides of the elementwise
crossover, in ``_fy_rows`` batches and on the benchmark's boundary slice.
Each call is replayed by the script's own ``run``."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "pin_resolvent_bits", os.path.join(ROOT, "scripts", "pin_resolvent_bits.py"))
pin = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin)

with open(os.path.join(ROOT, "tests", "data", "resolvent_bits.json")) as fh:
    PIN = json.load(fh)["calls"]


def _label(i, call):
    return f"{i:03d} {call['call']} {call.get('phi', '')} {call.get('method', '')} d={len(call['x'])}"


@pytest.mark.parametrize("call", [pytest.param(c, id=_label(i, c)) for i, c in enumerate(PIN)])
def test_call_gives_the_pinned_bits(call):
    assert pin.run(call) == call["out"]


def test_pin_covers_both_solver_paths_and_the_error_paths():
    dims = {len(c["x"]) for c in PIN if c["call"] in ("point", "fd_bs")}
    assert {1, 23, 24} <= dims
    outcomes = [o for c in PIN for o in (c["out"] if isinstance(c["out"], list) else [c["out"]])]
    assert any("error" in o for o in outcomes)
    assert {o.get("method") for o in outcomes} >= {"pairing", "strong", "bregman",
                                                    "burg_closed", "fermi_dirac_closed"}
