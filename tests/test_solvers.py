import math

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from haraux import functions
from haraux.core import DomainError
from haraux.operators import (
    AffineOp,
    GradientOp,
    Joca16Op,
    SkewPDOp,
    SubdifferentialOp,
    identity,
)
from haraux.solvers import (
    ConvergenceError,
    NoSolutionError,
    ResolventProblem,
    UnsupportedOperatorError,
    bregman_prox,
    lambert_w,
    lambert_w_of_exp,
    prox,
    resolvent_residual,
    solve_resolvent,
    solve_scalar_increasing,
    warped_resolvent,
)


class TestSolveConfig:
    # Only the problem validation is left; the class keeps its name so the
    # test keeps its id.
    def test_problem_validation(self):
        with pytest.raises(ValueError):
            ResolventProblem(identity(1), identity(1), -1.0, [0.0])
        with pytest.raises(ValueError):
            ResolventProblem(identity(1), identity(2), 1.0, [0.0, 0.0])


class TestScalarSolve:
    def test_cubic(self):
        root = solve_scalar_increasing(
            lambda t: t**3 + t, lambda t: 3 * t * t + 1, (-math.inf, math.inf),
            10.0, 1e-12,
        )
        assert root**3 + root == pytest.approx(10.0, abs=1e-11)

    def test_log_barrier_on_half_line(self):
        root = solve_scalar_increasing(
            lambda t: math.log(t), lambda t: 1.0 / t, (0.0, math.inf), -20.0, 1e-12
        )
        assert math.log(root) == pytest.approx(-20.0, abs=1e-11)

    def test_without_derivative_falls_back_to_bisection(self):
        root = solve_scalar_increasing(
            lambda t: t + math.tanh(t), None, (-math.inf, math.inf), 1.5, 1e-12
        )
        assert root + math.tanh(root) == pytest.approx(1.5, abs=1e-11)

    def test_no_solution_on_bounded_range(self):
        # tanh maps R onto (-1, 1); target 2 is unreachable.
        with pytest.raises((NoSolutionError, ConvergenceError)):
            solve_scalar_increasing(
                math.tanh, None, (-math.inf, math.inf), 2.0, 1e-12,
            )


class TestLambertW:
    def test_against_scipy(self):
        for t in np.concatenate([[0.0, 1.0, math.e], np.logspace(-8, 8, 100)]):
            ref = float(scipy_lambertw(t).real)
            assert lambert_w(t) == pytest.approx(ref, rel=1e-12, abs=1e-14)

    def test_round_trip_contract(self):
        for t in np.concatenate([[0.0], np.logspace(-10, 6, 200)]):
            w = lambert_w(t)
            assert abs(w * math.exp(w) - t) <= 1e-13 * (1.0 + t)

    def test_known_values(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-13)
        assert lambert_w(1.0) == pytest.approx(0.5671432904097838, abs=1e-13)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            lambert_w(-0.1)

    def test_of_exp_matches_direct_for_moderate_a(self):
        for a in np.linspace(-5, 20, 30):
            assert lambert_w_of_exp(a) == pytest.approx(
                lambert_w(math.exp(a)), rel=1e-12
            )

    def test_of_exp_large_argument(self):
        # w + ln w = a must hold where exp(a) overflows.
        for a in (150.0, 1e3, 1e6):
            w = lambert_w_of_exp(a)
            assert w + math.log(w) == pytest.approx(a, rel=1e-13)


class TestProx:
    def test_quadratic_closed_form(self, rng):
        q = functions.quadratic(3)
        x = rng.normal(size=3)
        np.testing.assert_allclose(prox(q, 2.0, x), x / 3.0, atol=1e-14)

    def test_burg_closed_form(self, rng):
        burg = functions.burg()
        for x in rng.uniform(-3, 3, size=10):
            for g in (0.1, 1.0, 10.0):
                z = prox(burg, g, [x])[0]
                assert 0.5 * (x + math.sqrt(x * x + 4 * g)) == pytest.approx(z)
                # optimality: z - gamma/z = x
                assert z - g / z == pytest.approx(x, abs=1e-10)

    def test_boltzmann_shannon_optimality(self, rng):
        bs = functions.boltzmann_shannon()
        for x in rng.uniform(-5, 5, size=10):
            for g in (0.5, 1.0, 2.0):
                z = prox(bs, g, [x])[0]
                assert z + g * math.log(z) == pytest.approx(x, abs=1e-10)

    def test_fermi_dirac_numeric_route(self, rng):
        fd = functions.fermi_dirac()
        for x in rng.uniform(-4, 4, size=10):
            z = prox(fd, 1.0, [x])[0]
            assert 0.0 < z < 1.0
            assert z + math.log(z / (1 - z)) == pytest.approx(x, abs=1e-10)

    def test_composite_reduces_to_inner(self, rng):
        phi = functions.from_name("quad_plus:quadratic")
        for x in rng.uniform(-4, 4, size=5):
            # phi = t^2, prox with step g solves z + 2 g z = x.
            assert prox(phi, 1.0, [x])[0] == pytest.approx(x / 3.0, abs=1e-12)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            prox(functions.quadratic(), 0.0, [1.0])


class TestSolveResolvent:
    def test_affine_pair_exact(self, rng):
        W = AffineOp([[2.0, 0.3], [0.3, 1.0]])
        A = AffineOp(np.eye(2), [1.0, -1.0])
        rhs = rng.normal(size=2)
        z = solve_resolvent(ResolventProblem(W, A, 0.7, rhs))
        assert resolvent_residual(W, A, 0.7, z, rhs) <= 1e-12 * (
            1 + np.max(np.abs(rhs))
        )

    def test_gradient_pairs_residual_contract(self, rng):
        cases = [
            ("burg", "burg", (-5.0, -0.1)),
            ("boltzmann_shannon", "boltzmann_shannon", (-3.0, 3.0)),
            ("fermi_dirac", "boltzmann_shannon", (-3.0, 3.0)),
        ]
        for wname, aname, rbox in cases:
            W = GradientOp(functions.from_name(wname))
            A = SubdifferentialOp(functions.from_name(aname))
            for g in (0.5, 1.0, 2.0):
                for r in rng.uniform(*rbox, size=10):
                    rhs = np.array([r])
                    z = solve_resolvent(ResolventProblem(W, A, g, rhs))
                    assert resolvent_residual(W, A, g, z, rhs) <= 1e-10 * (
                        1 + abs(r)
                    )

    def test_mixed_gradient_affine(self, rng):
        W = AffineOp(2.0 * np.eye(1))
        A = SubdifferentialOp(functions.burg())
        rhs = np.array([0.5])
        z = solve_resolvent(ResolventProblem(W, A, 1.0, rhs))
        assert 2.0 * z[0] - 1.0 / z[0] == pytest.approx(0.5, abs=1e-10)

    def test_joca16_linearizes_with_matching_kernel(self, rng):
        A = Joca16Op(1.0, functions._quadratic_scalar())
        W = GradientOp(functions.quadratic(2))
        rhs = rng.normal(size=2)
        z = solve_resolvent(ResolventProblem(W, A, 1.0, rhs))
        # W + A is the rotation matrix [[1,-1],[1,1]].
        np.testing.assert_allclose(np.array([[1.0, -1.0], [1.0, 1.0]]) @ z, rhs,
                                   atol=1e-12)

    def test_joca16_newton_path(self, rng):
        A = Joca16Op(1.0, functions._quadratic_scalar())
        W = GradientOp(functions.quadratic(2))
        rhs = rng.normal(size=2)
        z = solve_resolvent(ResolventProblem(W, A, 0.5, rhs))
        assert resolvent_residual(W, A, 0.5, z, rhs) <= 1e-10 * (
            1 + np.max(np.abs(rhs))
        )

    @pytest.mark.parametrize("d", [1, 4, 50])
    @pytest.mark.parametrize("kind", ["subdiff:burg", "subdiff:fermi_dirac", "affine"])
    def test_diagonal_identity_matches_dense_kernel(self, d, kind):
        # The dense identity AffineOp(np.eye(d)) is the reference kernel:
        # the diagonal identity must give the same z to the last bit.
        rng = np.random.default_rng(d)
        if kind == "affine":
            B = rng.normal(size=(d, d))
            A = AffineOp(B @ B.T + (B - B.T), rng.normal(size=d))
        else:
            A = SubdifferentialOp(functions.from_name(kind.split(":")[1], d))
        rhs = rng.uniform(-3.0, 3.0, d)
        for gamma in (0.5, 1.0, 3.0):
            z = solve_resolvent(ResolventProblem(identity(d), A, gamma, rhs))
            z_ref = solve_resolvent(ResolventProblem(AffineOp(np.eye(d)), A, gamma, rhs))
            assert z.tobytes() == z_ref.tobytes()

    def test_unsupported_pair_raises(self):
        W = identity(4)
        A = SkewPDOp(np.eye(2))
        with pytest.raises(UnsupportedOperatorError):
            solve_resolvent(ResolventProblem(W, A, 1.0, np.zeros(4)))


class TestBregmanProx:
    def test_burg_closed_form(self, rng):
        burg = functions.burg()
        for _ in range(20):
            xi = rng.uniform(0.1, 5.0)
            mu = rng.uniform(-5.0, -0.1)
            g = float(rng.choice([0.1, 1.0, 10.0]))
            s = np.array([-1.0 / xi + g * mu])
            z = bregman_prox(burg, burg, g, s)[0]
            assert z == pytest.approx((1 + g) * xi / (1 - g * xi * mu), rel=1e-10)

    def test_matches_resolvent_route(self, rng):
        f = functions.boltzmann_shannon()
        phi = functions.boltzmann_shannon()
        s = np.array([rng.uniform(-2, 2)])
        z1 = bregman_prox(f, phi, 1.5, s)
        z2 = solve_resolvent(
            ResolventProblem(GradientOp(f), SubdifferentialOp(phi), 1.5, s)
        )
        np.testing.assert_allclose(z1, z2)

    def test_requires_separable(self):
        with pytest.raises(TypeError):
            bregman_prox(functions.from_name("quad_plus:burg"),
                         functions.burg(), 1.0, [0.0])


class TestWarpedResolvent:
    def test_forward_backward_step(self, rng):
        # W = Id: warped resolvent is prox_{g phi}(x - g B x).
        phi = functions.quadratic(2)
        A = SubdifferentialOp(phi)
        B = GradientOp(functions.quadratic(2))
        for _ in range(5):
            x = rng.normal(size=2)
            z = warped_resolvent(identity(2), A, B, 0.5, x)
            np.testing.assert_allclose(z, prox(phi, 0.5, x - 0.5 * x), atol=1e-12)

    def test_fixed_point_at_zero_of_sum(self):
        # A = B = Id gradient flows: the only zero of A + B is 0.
        A = SubdifferentialOp(functions.quadratic(1))
        B = GradientOp(functions.quadratic(1))
        z = warped_resolvent(identity(1), A, B, 1.0, np.zeros(1))
        np.testing.assert_allclose(z, 0.0, atol=1e-14)
