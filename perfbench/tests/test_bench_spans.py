"""Span recorder: self time, rebinding of imported aliases, error origin."""

import numpy as np
import pytest

import spans

import haraux
from haraux import bounds, functions, operators, solvers
from haraux.core import DualPair


def test_self_time_on_a_synthetic_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 1 has child 3 [2, 3].
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 9.0, 3.0]
    parent = [-1, 0, 0, 1]
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 4.0, 1.0]


def test_self_times_add_up_to_the_top_level_spans():
    # Two top-level spans; the second's child [12, 15] ends with it.
    start = [0.0, 11.0, 12.0, 13.0]
    end = [10.0, 15.0, 15.0, 14.5]
    parent = [-1, -1, 1, 2]
    self_t = spans.self_times(start, end, parent)
    assert self_t.tolist() == [10.0, 1.0, 1.5, 1.5]
    assert self_t.sum() == 14.0


@pytest.fixture
def installed():
    rec = spans.SpanRecorder()
    inst = spans.Instrumentation(rec).install()
    yield rec, inst
    inst.uninstall()


def test_every_imported_alias_is_rebound(installed):
    rec, inst = installed
    assert inst.unwrapped_aliases() == []
    # bounds, gauges and verification imported these by name
    assert bounds.solve_resolvent is solvers.solve_resolvent
    assert bounds.identity is operators.identity
    assert haraux.bound_pairing is bounds.bound_pairing
    assert hasattr(bounds.solve_resolvent, "__wrapped__")


def test_rebinding_check_fails_on_an_unwrapped_alias(installed):
    rec, inst = installed
    bounds.solve_resolvent = solvers.solve_resolvent.__wrapped__
    try:
        assert inst.unwrapped_aliases() == ["haraux.bounds.solve_resolvent"]
    finally:
        bounds.solve_resolvent = solvers.solve_resolvent


def test_uninstall_restores_the_originals():
    before = (bounds.solve_resolvent, functions.SeparableFunction.gradient,
              operators.AffineOp.is_diagonal)
    inst = spans.Instrumentation(spans.SpanRecorder()).install()
    inst.uninstall()
    after = (bounds.solve_resolvent, functions.SeparableFunction.gradient,
             operators.AffineOp.is_diagonal)
    assert before == after
    assert not hasattr(bounds.solve_resolvent, "__wrapped__")


def test_spans_nest_and_record_where_errors_start(installed):
    rec, _ = installed
    phi = functions.burg(2)
    rec.op_id = 0
    bounds.fy_bound_dispatch(phi, None, DualPair([1.0, 2.0], [-1.0, -0.5]), 1.0, "pairing")
    rec.op_id = 1
    with pytest.raises(solvers.NoSolutionError):
        bounds.fy_bound_dispatch(functions.fermi_dirac(1), None,
                                 DualPair([1.0 - 1e-12], [-1e3]), 1.0, "pairing")
    cols = rec.columns()
    names = [rec.names[i] for i in cols["name_id"]]
    top = names.index("bounds.fy_bound_dispatch")
    assert cols["parent"][top] == -1
    child = names.index("bounds.bound_pairing")
    assert cols["parent"][child] == top
    assert np.all(cols["end"] >= cols["start"])
    origin = [names[i] for i in np.flatnonzero(cols["error"] == spans.ERROR_ORIGIN)]
    assert origin == ["solvers.solve_scalar_increasing"]
    metrics, bases = spans.layer_metrics(cols, rec.names, n_ops=2)
    assert metrics["solvers.errors"][0] == 0.5
    assert metrics["bounds.errors"][0] == 0.0
    assert bases["solve_resolvent"] == 2
