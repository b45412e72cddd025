"""The batched Fenchel-Young bounds of ``bounds._fy_rows``: k pairs of R^d
evaluated as one pair of R^{kd} give the per-pair values, z and errors."""

import numpy as np
import pytest

from haraux import bounds, functions, solvers
from haraux.bounds import FY_METHODS, InternalConsistencyError, _fy_rows, fy_bound_dispatch
from haraux.core import DomainError, DualPair
from haraux.operators import GradientOp
from haraux.solvers import ConvergenceError, NoSolutionError

# (x box, u* box) of each function: the boxes of the verify suite.
BOXES = {
    "burg": ((0.05, 5.0), (-5.0, -0.05)),
    "boltzmann_shannon": ((0.05, 5.0), (-3.0, 3.0)),
    "quadratic": ((-5.0, 5.0), (-5.0, 5.0)),
}
CASES = [(m, False) for m in FY_METHODS] + [("pairing", True)]


def _per_pair(phi, X, U, gamma, method):
    results = [fy_bound_dispatch(phi, None, DualPair(x, u), gamma, method)
               for x, u in zip(X, U)]
    return np.array([b.value for b in results]), np.array([b.z for b in results])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k, d", [(40, 1), (8, 3)])
@pytest.mark.parametrize("method, on_graph", CASES)
@pytest.mark.parametrize("name", list(BOXES))
def test_rows_equal_the_per_pair_bounds(name, method, on_graph, k, d):
    rng = np.random.default_rng(20251018)
    phi = functions.from_name(name, d)
    x_box, u_box = BOXES[name]
    X = rng.uniform(*x_box, (k, d))
    U = GradientOp(phi).apply_rows(X) if on_graph else rng.uniform(*u_box, (k, d))
    values, Z = _fy_rows(phi, X, U, 1.0, method)
    expected, expected_z = _per_pair(phi, X, U, 1.0, method)
    assert values.shape == (k,) and Z.shape == (k, d)
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(Z, expected_z, rtol=1e-12, atol=1e-15)


def test_a_failing_row_raises_its_own_error():
    # Row 2 has 1 - gamma*x*u* = -1 <= 0: its Burg self-pair resolvent has
    # no solution, alone or in the batch.
    burg = functions.burg()
    X = np.array([[1.0], [2.0], [1.0], [0.5]])
    U = np.array([[-1.0], [-0.5], [2.0], [-1.0]])
    with pytest.raises(NoSolutionError) as alone:
        fy_bound_dispatch(burg, None, DualPair(X[2], U[2]), 1.0, "bregman")
    with pytest.raises(NoSolutionError) as batch:
        _fy_rows(burg, X, U, 1.0, "bregman")
    assert str(batch.value) == str(alone.value)


def test_each_row_is_clamped_alone(monkeypatch):
    # Noise below zero clamps to zero row by row, and the first row below
    # the clamp tolerance raises, as _finalize does for one pair.
    values = np.array([0.5, -1e-13, -1e-6, -2e-6])
    monkeypatch.setattr(bounds, "_legendre_self_rows",
                        lambda *args: (values[:len(args[1])], np.zeros(len(args[1]))))
    X, U = np.ones((4, 1)), -np.ones((4, 1))
    with pytest.raises(InternalConsistencyError,
                       match="legendre_self bound evaluated to -1.000000e-06"):
        _fy_rows(functions.burg(), X, U, 1.0, "legendre_self")
    clamped, _ = _fy_rows(functions.burg(), X[:2], U[:2], 1.0, "legendre_self")
    assert clamped.tolist() == [0.5, 0.0]


def _mixed_rows(k=24):
    """Pairing rows of the quadratic with |x + u*| near 1e3 (even rows) and
    near 1e-3 (odd rows): tolerances 1e-12 * (1 + |rhs|) of about 1e-9 and
    1e-12."""
    x = np.where(np.arange(k) % 2 == 0, 600.0, 2e-3)
    u = np.where(np.arange(k) % 2 == 0, 400.0, -1e-3)
    return x[:, None], u[:, None]


def _perturbed_solve(monkeypatch, row, delta):
    """Make the elementwise resolvent solve return its z with ``delta``
    added to coordinate ``row``."""
    solve = solvers._solve_separable

    def perturbed(*args):
        z = solve(*args).copy()
        z[row] += delta
        return z

    monkeypatch.setattr(solvers, "_solve_separable", perturbed)


def test_mixed_magnitude_rows_match_the_per_pair_bounds():
    phi = functions.quadratic()
    X, U = _mixed_rows()
    values, Z = _fy_rows(phi, X, U, 1.0, "pairing")
    expected, expected_z = _per_pair(phi, X, U, 1.0, "pairing")
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(Z, expected_z, rtol=1e-12, atol=1e-15)


def test_each_row_is_checked_against_its_own_tolerance(monkeypatch):
    # A shift of 1e-11 in z leaves a residual of 2e-11: inside the 1e-9
    # tolerance of the batch's largest rhs, outside the 1e-12 of a small row.
    phi = functions.quadratic()
    X, U = _mixed_rows()
    _perturbed_solve(monkeypatch, 5, 1e-11)
    with pytest.raises(ConvergenceError, match="post-hoc residual 2.000e-11 exceeds "
                                               "tolerance 1.001e-12"):
        _fy_rows(phi, X, U, 1.0, "pairing")


def test_a_large_row_keeps_its_own_looser_tolerance(monkeypatch):
    phi = functions.quadratic()
    X, U = _mixed_rows()
    _perturbed_solve(monkeypatch, 4, 1e-11)
    _, Z = _fy_rows(phi, X, U, 1.0, "pairing")
    assert Z[4, 0] == 500.0 + 1e-11


def test_rows_of_another_dimension_are_refused():
    with pytest.raises(DomainError):
        _fy_rows(functions.burg(2), np.ones((3, 1)), -np.ones((3, 1)), 1.0, "pairing")
