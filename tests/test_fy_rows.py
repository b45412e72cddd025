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
    monkeypatch.setattr(bounds, "_rows", lambda method, A, x, u, gamma, rows, **kernel:
                        (values[:rows], np.zeros(rows), method, None))
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


def _fd_over_bs_per_row(X, U, gamma):
    A = GradientOp(functions.boltzmann_shannon())
    results = [bounds.bound_bregman(functions.fermi_dirac(), A, DualPair(x, u), gamma)
               for x, u in zip(X, U)]
    return np.array([b.value for b in results]), results


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fermi_dirac_kernel_rows_equal_the_panel_bounds_exactly():
    # The Boltzmann-Shannon panel grid, then on-graph rows x = e^u*, where
    # float noise below zero is clamped.
    xs = np.linspace(0.01, 0.99, 201)
    us = np.linspace(-4.6, -0.01, 201)
    X = np.concatenate([xs, xs, np.exp(us)])[:, None]
    U = np.concatenate([np.full(201, 1.0), np.full(201, -1.0), us])[:, None]
    values, Z = _fy_rows(functions.boltzmann_shannon(), X, U, 1.0, "bregman",
                         f=functions.fermi_dirac())
    expected, results = _fd_over_bs_per_row(X, U, 1.0)
    assert sum("clamped_from" in b.diagnostics for b in results) > 0
    assert values.tolist() == expected.tolist()
    assert Z.tolist() == [b.z.tolist() for b in results]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_fermi_dirac_kernel_rows_in_the_tail_band(gamma):
    # |log r| > log 1e3, with r = x e^{gamma u*} / (1 - x): the root is
    # carried by its logs, and off gamma = 1 by a scalar solve.
    rng = np.random.default_rng(20251018)
    x = rng.uniform(0.01, 0.99, 400)
    u = rng.uniform(-30.0, 30.0, 400)
    log_r = np.log(x) - np.log1p(-x) + gamma * u
    tail = np.abs(log_r) > bounds._FD_LOG_R_MAX
    X, U = x[tail][:60, None], u[tail][:60, None]
    assert X.shape == (60, 1)
    values, _ = _fy_rows(functions.boltzmann_shannon(), X, U, gamma, "bregman",
                         f=functions.fermi_dirac())
    expected, _ = _fd_over_bs_per_row(X, U, gamma)
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["pairing", "bregman", "strong"])
def test_a_kernel_function_is_used_as_fy_bound_dispatch_does(method):
    # f is the kernel of pairing and bregman; strong keeps the identity.
    rng = np.random.default_rng(7)
    bs, fd = functions.boltzmann_shannon(3), functions.fermi_dirac(3)
    X, U = rng.uniform(0.05, 0.95, (8, 3)), rng.uniform(-2.0, 2.0, (8, 3))
    values, Z = _fy_rows(bs, X, U, 1.0, method, f=fd)
    results = [fy_bound_dispatch(bs, fd, DualPair(x, u), 1.0, method) for x, u in zip(X, U)]
    np.testing.assert_allclose(values, [b.value for b in results], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(Z, [b.z for b in results], rtol=1e-12, atol=1e-15)


def test_a_kernel_of_another_dimension_is_refused():
    X = np.full((3, 2), 0.5)
    with pytest.raises(DomainError):
        _fy_rows(functions.boltzmann_shannon(2), X, X, 1.0, "bregman",
                 f=functions.fermi_dirac(1))
