"""The rows of the verify suite, pinned to the benchmark's reference and
to the exact rows of the per-sample suites they replace."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from haraux import bounds, functions, oracle, verification

REFERENCE = (Path(__file__).resolve().parents[1]
             / "perfbench" / "reference" / "certify_verify_rows.json")
# The rows of run_checks at the default seed and seeds 0-3 as the suites
# gave them one sample per call, ``measured`` written by repr.
EXACT = Path(__file__).resolve().parent / "data" / "verify_rows_exact.json"


def _by_check(rows):
    return {r["check"]: r for r in rows}


def test_rows_match_the_reference():
    # The benchmark's rule: module, check, passed and threshold exactly,
    # measured to rel 1e-6 or a thousandth of the threshold.
    reference = json.loads(REFERENCE.read_text())
    rows = verification.run_checks(seed=oracle.DEFAULT_SEED)
    assert [(r["module"], r["check"]) for r in rows] == [
        (r["module"], r["check"]) for r in reference]
    for row, ref in zip(rows, reference):
        assert (row["passed"], row["threshold"]) == (ref["passed"], ref["threshold"]), row
        assert math.isclose(row["measured"], ref["measured"], rel_tol=1e-6,
                            abs_tol=1e-3 * ref["threshold"]), (row, ref["measured"])


@pytest.mark.parametrize("entry", json.loads(EXACT.read_text()), ids=lambda e: str(e["seed"]))
def test_rows_equal_the_pinned_rows_exactly(entry):
    rows = verification.run_checks(seed=entry["seed"])
    got = [(r["module"], r["check"], r["passed"], repr(r["measured"]), r["threshold"])
           for r in rows]
    assert got == [(r["module"], r["check"], r["passed"], r["measured"], r["threshold"])
                   for r in entry["rows"]]


def test_rows_carry_the_seed_and_their_suite_time():
    rows = verification.run_checks(seed=3)
    assert all(r["seed"] == 3 and r["suite_s"] > 0.0 for r in rows)
    # One wall time per suite, and each suite reports one module.
    assert len({(r["module"], r["suite_s"]) for r in rows}) == len({r["module"] for r in rows})


def test_a_nan_lambert_sample_fails_its_row(monkeypatch):
    # max(worst, nan) keeps worst, so a running max let this row pass.
    real = verification.lambert_w
    monkeypatch.setattr(verification, "lambert_w", lambda t: math.nan if t > 1 else real(t))
    rows = []
    verification._solver_checks(np.random.default_rng(0), rows)
    row = _by_check(rows)["lambert_roundtrip"]
    assert math.isnan(row["measured"]) and not row["passed"]


def test_a_nan_sample_fails_its_batched_row(monkeypatch):
    real = functions.SeparableFunction._gradient_at

    def one_nan(self, x):
        g = real(self, x)
        if g.ndim == 2:
            g = g.copy()
            g[7, 0] = math.nan
        return g

    monkeypatch.setattr(functions.SeparableFunction, "_gradient_at", one_nan)
    rows = []
    verification._function_checks(np.random.default_rng(0), rows)
    checks = _by_check(rows)
    assert math.isnan(checks["gradient_finite_difference"]["measured"])
    # At u* = NaN the conjugate is +inf, so the graph row reads inf.
    assert checks["fenchel_young_graph_zero"]["measured"] == math.inf
    assert not checks["gradient_finite_difference"]["passed"]
    assert not checks["fenchel_young_graph_zero"]["passed"]
    assert checks["deriv_inv_roundtrip"]["passed"]


def test_bregman_rows_equal_the_bregman_calls():
    burg = functions.burg()
    X = np.array([[0.5], [2.0], [1.0], [3.0], [0.0]])
    Y = np.array([[1.5], [0.0], [-1.0], [4.0], [1.0]])
    expected = [burg.bregman(x, y) for x, y in zip(X, Y)]
    assert verification._bregman_rows(burg, X, Y).tolist() == expected
    # z on the edge, z outside, and phi(x) = +inf at x on the edge.
    assert [expected[1], expected[2], expected[4]] == [math.inf] * 3
    assert verification._bregman_rows(burg, Y[1:3], X[1:3]).tolist() == [
        burg.bregman(y, x) for x, y in zip(X[1:3], Y[1:3])]


def test_a_non_interior_z_fails_its_row_without_raising(monkeypatch):
    # bregman is +inf at a z outside the domain; the row must read that.
    real = bounds._fy_rows

    def z_on_the_edge(phi, X, U, gamma, method):
        values, Z = real(phi, X, U, gamma, method)
        if phi.name == "burg" and method == "bregman":
            Z = Z.copy()
            Z[5, 0] = 0.0
        return values, Z

    monkeypatch.setattr(bounds, "_fy_rows", z_on_the_edge)
    rows = []
    verification._bound_checks(np.random.default_rng(0), rows)
    row = _by_check(rows)["burg_closed_form_equality"]
    assert row["measured"] == math.inf and not row["passed"]
