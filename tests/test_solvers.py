import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from haraux import bounds, functions, solvers
from haraux.core import DomainError, DualPair
from haraux.operators import (
    AffineOp,
    GradientOp,
    Joca16Op,
    MonotoneOperator,
    SubdifferentialOp,
    identity,
)
from haraux.solvers import (
    _StackedProblem,
    ConvergenceError,
    NoSolutionError,
    ResolventProblem,
    UnsupportedOperatorError,
    bregman_prox,
    lambert_w,
    lambert_w_of_exp,
    prox,
    _ELEMENTWISE_MIN_DIM,
    resolvent_residual,
    solve_increasing_elementwise,
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


# Increasing functions for the elementwise-against-scalar comparison:
# (g, dg, open domain, open range). Each g takes floats and arrays alike
# through the same float operations, and the two solvers' charts take exp
# and log from numpy on both paths, so the roots agree bit for bit.
_INCREASING = {
    "burg": (lambda t: -1.0 / t, lambda t: 1.0 / (t * t), (0.0, math.inf),
             (-math.inf, 0.0)),
    "cubic": (lambda t: t * t * t + t, lambda t: 3.0 * t * t + 1.0, (-math.inf, math.inf),
              (-math.inf, math.inf)),
    "log": (np.log, lambda t: 1.0 / t, (0.0, math.inf), (-math.inf, math.inf)),
    "logit": (lambda t: np.log(t) - np.log1p(-t), lambda t: 1.0 / (t * (1.0 - t)),
              (0.0, 1.0), (-math.inf, math.inf)),
    "tanh": (np.tanh, None, (-math.inf, math.inf), (-1.0, 1.0)),
}


def _edge_targets(g, dom, rng_, gaps=(1e-12, 1e-14)):
    """Targets whose roots lie ``gaps`` inside each finite end of the
    domain, where that is a float other than the end, which the solvers
    reach through the domain's chart, and targets 1e-12 inside and 1e-3
    outside each finite end of the range."""
    targets = []
    for end, sign in ((dom[0], 1.0), (dom[1], -1.0)):
        if math.isfinite(end):
            targets += [float(g(end + sign * gap)) for gap in gaps if end + sign * gap != end]
    for end, sign in ((rng_[0], 1.0), (rng_[1], -1.0)):
        if math.isfinite(end):
            targets += [end + sign * 1e-12, end - sign * 1e-3]
    return targets


class TestElementwiseSolve:
    @pytest.mark.parametrize("name", sorted(_INCREASING))
    def test_matches_the_scalar_solver(self, name):
        g, dg, dom, rng_ = _INCREASING[name]
        rng = np.random.default_rng(sorted(_INCREASING).index(name))
        lo_r = max(rng_[0], -50.0)
        hi_r = min(rng_[1], 50.0)
        targets = np.array(list(rng.uniform(lo_r, hi_r, 40)) + _edge_targets(g, dom, rng_))
        # Half the coordinates start from a random interior point.
        lo_s, hi_s = max(dom[0], -5.0), min(dom[1], 5.0)
        x0 = np.where(rng.random(targets.shape[0]) < 0.5, np.nan,
                      rng.uniform(lo_s, hi_s, targets.shape[0]))
        x0[x0 <= dom[0]] = np.nan
        x0[x0 >= dom[1]] = np.nan
        tol = 1e-12 * (1.0 + np.abs(targets))

        def scalar(i):
            start = None if np.isnan(x0[i]) else float(x0[i])
            try:
                return solve_scalar_increasing(g, dg, dom, float(targets[i]),
                                               float(tol[i]), x0=start)
            except (NoSolutionError, ConvergenceError) as exc:
                return exc

        def elementwise(sel):
            return solve_increasing_elementwise(g, dg, dom[0], dom[1], targets[sel],
                                                tol[sel], x0[sel])

        def raises_as(exc):
            return pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$")

        expected = [scalar(i) for i in range(targets.shape[0])]
        failing = [i for i, r in enumerate(expected) if isinstance(r, Exception)]
        solved = [i for i, r in enumerate(expected) if not isinstance(r, Exception)]
        for i in range(targets.shape[0]):
            if i in failing:
                with raises_as(expected[i]):
                    elementwise([i])
            else:
                z = elementwise([i])[0]
                assert abs(g(z) - targets[i]) <= tol[i]
                assert z == expected[i]
        # All at once: the roots of the solvable coordinates, and the error
        # of the lowest failing coordinate when the batch has one.
        z = elementwise(solved)
        assert np.all(np.abs(g(z) - targets[solved]) <= tol[solved])
        assert z.tolist() == [expected[i] for i in solved]
        if failing:
            with raises_as(expected[failing[0]]):
                elementwise(slice(None))

    @pytest.mark.parametrize("name", ["burg", "log", "logit", "entropy"])
    def test_a_dg_that_fails_takes_a_bisection_step(self, name):
        # Plain derivatives such as 1/(t*t) divide by zero or overflow a
        # float near the end 0 (1/(t*t) below t = 1e-154), where the steps
        # toward roots 1e-300 inside it lead: each such slope is a
        # bisection step, on both paths alike and with no warning.
        if name == "entropy":
            g, dg, dom = (lambda z: z + np.log(z)), (lambda z: 1.0 + 1.0 / z), (0.0, math.inf)
            targets = [-700.0, -720.0, -745.0]
        else:
            g, dg, dom, rng_ = _INCREASING[name]
            targets = _edge_targets(g, dom, rng_, gaps=(1e-300,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target in targets:
                tol = 1e-12 * (1.0 + abs(target))
                try:
                    expected = solve_scalar_increasing(g, dg, dom, target, tol)
                except (NoSolutionError, ConvergenceError) as exc:
                    with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                        solve_increasing_elementwise(g, dg, *dom, [target], tol)
                    continue
                assert abs(g(expected) - target) <= tol
                z = solve_increasing_elementwise(g, dg, *dom, [target], tol)
                assert z.tolist() == [expected]

    def test_slow_newton_steps_give_way_to_bisection(self):
        # z + ln z = a, the identity-kernel Boltzmann-Shannon resolvent,
        # from t = ln z = 0: the first Newton step lands near t = 212, past
        # the root t = 6.04, and from there each Newton step moves t by
        # about 1. A Newton step no shorter than half the step before last
        # gives way to bisection.
        a = 424.1944224026184
        tol = 1e-12 * (1.0 + a)
        calls = 0

        def g(z):
            nonlocal calls
            calls += 1
            return z + np.log(z)

        dg = lambda z: 1.0 + 1.0 / z
        z = solve_scalar_increasing(g, dg, (0.0, math.inf), a, tol)
        assert calls <= 30
        calls = 0
        assert solve_increasing_elementwise(g, dg, 0.0, math.inf, [a], tol).tolist() == [z]
        assert calls <= 30
        assert abs(g(z) - a) <= tol

    def test_a_finished_search_stays_put(self):
        # Coordinate 0 searches up for an unreachable target for the whole
        # budget; coordinate 1 brackets at once and must not step on toward
        # +inf, where sinh overflows.
        g = lambda z: np.concatenate([np.tanh(z[:1]), np.sinh(z[1:])])
        dg = lambda z: np.concatenate([1.0 - np.tanh(z[:1]) ** 2, np.cosh(z[1:])])
        with pytest.raises(NoSolutionError, match="upper boundary"):
            solve_increasing_elementwise(g, dg, -math.inf, math.inf, [2.0, 1.0], 1e-12)

    @pytest.mark.parametrize("method", ["pairing", "strong", "bregman", "carlier_fy",
                                        "carlier_haraux"])
    @pytest.mark.parametrize("name", ["burg", "boltzmann_shannon", "fermi_dirac",
                                      "quadratic", "quad_plus:fermi_dirac"])
    def test_z_does_not_depend_on_the_dimension(self, name, method):
        # At and above the crossover the solves run elementwise, below it
        # coordinate by coordinate: z at d = _ELEMENTWISE_MIN_DIM and at
        # d = 1000 must be the d = 1 results stacked.
        x_box, u_box = {
            "burg": ((0.05, 5.0), (-5.0, -0.05)),
            "boltzmann_shannon": ((0.05, 5.0), (-3.0, 3.0)),
            "fermi_dirac": ((0.01, 0.99), (-3.0, 3.0)),
            "quadratic": ((-5.0, 5.0), (-5.0, 5.0)),
            "quad_plus:fermi_dirac": ((0.01, 0.99), (-3.0, 3.0)),
        }[name]
        rng = np.random.default_rng(7)
        x, u = rng.uniform(*x_box, 1000), rng.uniform(*u_box, 1000)
        atol = 1e-12
        if name == "boltzmann_shannon":
            # x + u in [-20, -15]: z is about e^(x + u), 2e-9 to 3e-7, and
            # the prox takes Lambert W where lambert_w stops at log1p(t).
            u[::50] = -x[::50] - rng.uniform(15.0, 20.0, 20)
            atol = 0.0

        def z_of(d, i=0):
            phi = functions.from_name(name, d)
            p = DualPair(x[i:i + d], u[i:i + d])
            if method == "carlier_haraux":
                return bounds.bound_carlier_haraux(SubdifferentialOp(phi), p, 1.0).z
            return bounds.fy_bound_dispatch(phi, None, p, 1.0, method).z

        stacked = np.array([z_of(1, i)[0] for i in range(1000)])
        for d in (_ELEMENTWISE_MIN_DIM, 1000):
            np.testing.assert_allclose(z_of(d), stacked[:d], rtol=1e-9, atol=atol)

    def test_a_trial_point_where_g_overflows_is_past_the_root(self):
        # Burg's gradient raises DomainError below z = 5.6e-309, where the
        # bracket searches from z = 1 land for these targets. The roots,
        # about 0.5/|target|, lie above that but for the last one.
        part = functions.burg().parts[0]
        g = lambda z: z + 0.5 * (part.arrays if isinstance(z, np.ndarray) else part).deriv(z)
        targets = np.array([-1e10, -1e200, -1e300, -1e307, -1.7e308])
        tol = 1e-12 * (1.0 + np.abs(targets))
        roots = [solve_scalar_increasing(g, None, part.dom, t, tol_t)
                 for t, tol_t in zip(targets[:4].tolist(), tol[:4].tolist())]
        assert all(abs(g(z) - t) <= tol_t for z, t, tol_t in zip(roots, targets, tol))
        z = solve_increasing_elementwise(g, None, *part.dom, targets[:4], tol[:4])
        assert z.tolist() == roots
        with pytest.raises(ConvergenceError, match="bracket collapsed"):
            solve_scalar_increasing(g, None, part.dom, targets[4], tol[4])
        with pytest.raises(ConvergenceError, match="bracket collapsed"):
            solve_increasing_elementwise(g, None, *part.dom, targets[::-1], tol[::-1])

    def test_mixed_charts_are_the_charts_of_each_interval(self):
        # Coordinates whose intervals differ share one chart per kind of
        # interval; each coordinate gets the t range and the chart values
        # of its own interval.
        ends = [(0.0, math.inf), (0.0, 1.0), (-math.inf, math.inf), (-math.inf, 2.0),
                (-3.0, math.inf), (1e-300, 1.0)]
        lo, hi = (np.array([ends[i % len(ends)][j] for i in range(40)]) for j in (0, 1))
        c, dc, inverse, t_lo, t_hi = solvers._array_chart(lo, hi)
        t = np.clip(np.linspace(-800.0, 800.0, 40), t_lo, t_hi)
        z = c(t)
        assert np.all((lo < z) & (z < hi))
        for i in range(40):
            ci, dci, inverse_i, t_lo_i, t_hi_i = solvers._interval_chart(lo[i], hi[i])
            assert (t_lo[i], t_hi[i]) == (t_lo_i, t_hi_i)
            assert lo[i] < c(t_lo)[i] and c(t_hi)[i] < hi[i]
            assert z[i] == ci(float(t[i]))
            assert dc(z)[i] == dci(float(z[i]))
            assert inverse(z)[i] == inverse_i(float(z[i]))

    @pytest.mark.parametrize("arrays", [False, True])
    def test_a_bounded_interval_wider_than_a_float_is_a_domain_error(self, arrays):
        # hi - lo overflows: the chart raises instead of warning (the suite
        # turns RuntimeWarning into an error).
        with pytest.raises(DomainError, match=r"interval \(-1e\+308, 1e\+308\) is wider"):
            solvers._interval_chart(-1e308, 1e308, arrays)
        with pytest.raises(DomainError, match=r"interval \(-1e\+308, 1e\+308\) is wider"):
            solvers._array_chart(np.array([0.0, -1e308, -1.0]), np.array([1.0, 1e308, 1e308]))
        # The widest bounded interval that a float spans keeps its chart.
        c, _, _, t_lo, t_hi = solvers._interval_chart(-8e307, 8e307, arrays)
        assert -8e307 < c(t_lo) < c(t_hi) < 8e307

    @pytest.mark.parametrize("kernel", ["identity", "gradient"])
    def test_mixed_intervals_match_the_scalar_solves(self, kernel):
        # Interleaved burg, fermi_dirac and quadratic coordinates at d = 40:
        # one elementwise solve over (0, inf), (0, 1) and R, with points
        # whose roots lie up to 1e-200 from a finite end, gives the roots of
        # the coordinate-by-coordinate solves at d = 1.
        names = ["burg", "fermi_dirac", "quadratic"]
        order = [names[i % 3] for i in range(40)]
        rng = np.random.default_rng(5)
        rhs = {"burg": lambda: -(10.0 ** rng.uniform(-2.0, 200.0)),
               "fermi_dirac": lambda: rng.uniform(-350.0, 15.0),
               "quadratic": lambda: rng.uniform(-5.0, 5.0)}
        r = np.array([rhs[n]() for n in order])
        gamma = 0.5

        def problem(names_, r_):
            f = functions.SeparableFunction([functions.from_name(n).parts[0] for n in names_])
            ops = (identity(len(names_)), GradientOp(f))
            W, A = ops if kernel == "identity" else ops[::-1]
            # One block per coordinate: each held to its own tolerance.
            return _StackedProblem(W, A, gamma, r_, len(names_))

        z = solve_resolvent(problem(order, r))
        single = np.array([solve_resolvent(problem([n], r[i:i + 1]))[0]
                           for i, n in enumerate(order)])
        assert np.all(np.abs(z - single) <= 1e-9 * np.abs(single) + 1e-12)
        assert z[::3].min() < 1e-150

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 4.0])
    def test_starts_outside_the_kernel_inverse_match_the_scalar_solves(self, gamma):
        # The inverse of burg's derivative is defined on (-inf, 0), so each
        # coordinate with rhs/(1+gamma) >= 0 starts the elementwise solve
        # from t = 0, and still gives the one-coordinate root bit for bit.
        # One block per coordinate: a block's tolerance follows its largest |rhs|.
        d = 30
        r = np.random.default_rng(23).uniform(-5.0, 5.0, d)
        assert d >= _ELEMENTWISE_MIN_DIM and (r > 0).any() and (r < 0).any()
        W, A = GradientOp(functions.burg(d)), GradientOp(functions.quadratic(d))
        z = solve_resolvent(_StackedProblem(W, A, gamma, r, d))
        W, A = GradientOp(functions.burg(1)), GradientOp(functions.quadratic(1))
        single = [solve_resolvent(ResolventProblem(W, A, gamma, r[i:i + 1]))[0] for i in range(d)]
        assert z.tolist() == single

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_fermi_dirac_over_entropy_does_not_depend_on_the_dimension(self, gamma):
        # The closed-form z solves each coordinate for itself; the
        # resolvent cross-check runs elementwise from the crossover on.
        rng = np.random.default_rng(11)
        x, u = rng.uniform(0.01, 0.99, 1000), rng.uniform(-3.0, 3.0, 1000)

        def bound(d, i=0):
            A = SubdifferentialOp(functions.boltzmann_shannon(d))
            p = DualPair(x[i:i + d], u[i:i + d])
            return bounds.bound_bregman(functions.fermi_dirac(d), A, p, gamma)

        single = [bound(1, i) for i in range(1000)]
        stacked = np.array([r.z[0] for r in single])
        for d in (_ELEMENTWISE_MIN_DIM, 1000):
            r = bound(d)
            assert r.method == "fermi_dirac_closed"
            np.testing.assert_allclose(r.z, stacked[:d], rtol=1e-9, atol=1e-12)
            assert r.value == pytest.approx(sum(s.value for s in single[:d]), rel=1e-9)
            assert r.diagnostics["solver_z_gap"] <= 1e-9


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

    def test_of_exp_on_arrays_matches_the_float_helper(self, rng):
        # The array prox of Boltzmann-Shannon from _ELEMENTWISE_MIN_DIM on
        # must give the float prox's w, including a in [-20, -15], where
        # lambert_w stops at its start log1p(t).
        a = np.concatenate([np.linspace(-700.0, 1e4, 2001), rng.uniform(-30.0, 30.0, 2000),
                            np.linspace(-20.0, -15.0, 101), [0.0, 1.0, 100.0]])
        ref = np.array([lambert_w_of_exp(v) for v in a.tolist()])
        np.testing.assert_allclose(functions._NUMPY.lambert_w_of_exp(a), ref, rtol=1e-12, atol=0)

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

    def test_joca16_without_root_in_the_domain_is_a_convergence_error(self, half_line_psi):
        # (Id + A)^-1 (-1, -2) has a negative first coordinate, outside
        # (0, inf)^2, the domain of psi.
        A = Joca16Op(25.0, half_line_psi)
        with pytest.raises(ConvergenceError):
            solve_resolvent(ResolventProblem(identity(2), A, 1.0, np.array([-1.0, -2.0])))

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_non_diagonal_affine_kernel_takes_newton(self, gamma):
        W = AffineOp([[2.0, 1.0], [0.0, 2.0]])
        A = GradientOp(functions.burg(2))
        rhs = np.array([1.0, -3.0])
        z = solve_resolvent(ResolventProblem(W, A, gamma, rhs))
        assert np.all(z > 0.0)
        assert resolvent_residual(W, A, gamma, z, rhs) <= 1e-12 * (1 + 3.0)

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
        # An operator that gives only apply: not affine, not separable,
        # and without a Jacobian.
        class ApplyOnly(MonotoneOperator):
            dim_in = 4

            def apply(self, x):
                return np.asarray(x, dtype=float)

        W = identity(4)
        A = ApplyOnly()
        with pytest.raises(UnsupportedOperatorError, match="no resolvent route"):
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
        phi = functions.boltzmann_shannon()
        for kernel in ("boltzmann_shannon", "quad_plus:burg"):
            f = functions.from_name(kernel)
            s = np.array([rng.uniform(-2, 2)])
            z1 = bregman_prox(f, phi, 1.5, s)
            z2 = solve_resolvent(
                ResolventProblem(GradientOp(f), SubdifferentialOp(phi), 1.5, s)
            )
            np.testing.assert_allclose(z1, z2)

    def test_requires_separable(self):
        with pytest.raises(TypeError):
            bregman_prox(lambda t: t, functions.burg(), 1.0, [0.0])


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


def test_a_mixed_interval_resolvent_does_not_load_numpy_ma():
    # scipy imports numpy.ma inside pytest, so a fresh interpreter runs the
    # d = 40 resolvent over (0, inf), (0, 1) and R.
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from haraux import functions, operators, solvers",
        "parts = [functions.from_name(n).parts[0] for n in ('burg', 'fermi_dirac', 'quadratic')]",
        "f = functions.SeparableFunction([parts[i % 3] for i in range(40)])",
        "problem = solvers.ResolventProblem(operators.identity(40), operators.GradientOp(f), 1.0,",
        "                                   np.linspace(0.1, 0.9, 40))",
        "solvers.solve_resolvent(problem)",
        "print('numpy.ma' in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
