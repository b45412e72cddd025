"""Bounds at the certify benchmark's boundary points against mpmath roots.

``tests/data/boundary_roots.json``, written by
``scripts/mp_boundary_roots.py``, holds the pairing, strong, carlier_fy
and bregman calls on boltzmann_shannon and fermi_dirac at the boundary
points of seeds 401-404 that raised while open domains were clipped by
1e-13 before solving. Each call carries its 40-digit root, the exact
L_phi(x, u*) and a class: ``solvable`` (a float inside the domain meets
the residual tolerance), ``edge`` (the root lies between an end of the
domain and the float nearest it) or ``tolerance`` (the root lies between
two floats inside the domain, neither of which meets the tolerance).
"""

import json
import os

import numpy as np
import pytest

from haraux import bounds, functions
from haraux.core import DualPair
from haraux.solvers import ConvergenceError, NoSolutionError

with open(os.path.join(os.path.dirname(__file__), "data", "boundary_roots.json")) as fh:
    ROOTS = json.load(fh)
GAMMA = ROOTS["gamma"]
# A bound may exceed the exact value by this much, relative to 1 + |exact|.
SLACK = 1e-9


def _calls(kind):
    return [r for r in ROOTS["calls"] if r["class"] == kind]


def _bound(rec):
    phi = functions.from_name(rec["phi"])
    p = DualPair([rec["x"]], [rec["u"]])
    return phi, bounds.fy_bound_dispatch(phi, None, p, GAMMA, rec["method"])


def _label(rec):
    return f"{rec['phi']}/{rec['method']} at x={rec['x']!r}, u*={rec['u']!r}"


def test_the_file_covers_every_class():
    assert ROOTS["counts"] == {k: len(_calls(k)) for k in ("solvable", "edge", "tolerance")}
    assert all(ROOTS["counts"].values())


def test_solvable_calls_meet_the_residual_contract_below_the_exact_value():
    problems = []
    for rec in _calls("solvable"):
        phi, b = _bound(rec)
        x, z = np.array([rec["x"]]), b.z
        deriv = lambda v: phi._evaluate("deriv", v)[0]
        # The scalar equation of the call, as the library forms its sides.
        if rec["method"] == "bregman":
            rhs, lhs = deriv(x) + GAMMA * rec["u"], (1.0 + GAMMA) * deriv(z)
        else:
            rhs, lhs = rec["x"] + GAMMA * rec["u"], z[0] + GAMMA * deriv(z)
        exact = float(rec["exact"])
        if not phi.in_interior(z):
            problems.append(f"{_label(rec)}: z={z[0]!r} outside the domain")
        elif abs(lhs - rhs) > 1e-12 * (1.0 + abs(rhs)):
            problems.append(f"{_label(rec)}: residual {abs(lhs - rhs):.3e}")
        if not 0.0 <= b.value <= exact + SLACK * (1.0 + abs(exact)):
            problems.append(f"{_label(rec)}: bound {b.value!r} above exact {exact!r}")
    assert problems == []


@pytest.mark.parametrize("kind, error, message", [
    ("edge", NoSolutionError, "the root lies between the edge"),
    ("tolerance", ConvergenceError, "bracket collapsed"),
])
def test_unresolvable_roots_raise_their_error(kind, error, message):
    problems = []
    for rec in _calls(kind):
        try:
            _bound(rec)
            problems.append(f"{_label(rec)}: returned a bound")
        except error as exc:
            if message not in str(exc):
                problems.append(f"{_label(rec)}: {exc}")
        except Exception as exc:  # any other outcome is a failure to report
            problems.append(f"{_label(rec)}: raised {type(exc).__name__}: {exc}")
    assert problems == []
