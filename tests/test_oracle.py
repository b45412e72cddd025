import numpy as np
import pytest

from haraux import bounds, functions, oracle
from haraux.core import DualPair
from haraux.operators import GradientOp, Joca16Op, SubdifferentialOp, identity


def _identity_graph(n=1025, box=(-10.0, 10.0)):
    return oracle.sample_graph(GradientOp(functions.quadratic(1)), [box], n)


class TestSampleGraph:
    def test_points_are_on_graph(self):
        A = GradientOp(functions.burg(1))
        s = oracle.sample_graph(A, [(0.1, 5.0)], 32)
        for y, ys in zip(s.y, s.y_star):
            np.testing.assert_allclose(ys, A.apply(y))

    def test_2d_mesh(self):
        A = identity(2)
        s = oracle.sample_graph(A, [(-1.0, 1.0), (0.0, 2.0)], 5)
        assert s.y.shape == (25, 2)
        assert s.y_star.shape == (25, 2)

    @pytest.mark.parametrize("A, n", [
        (SubdifferentialOp(functions.burg(1)), oracle.DEFAULT_N_1D),
        (Joca16Op(2.0, functions._quadratic_scalar()), 129),
    ])
    def test_batch_equals_row_loop(self, A, n):
        s = oracle.sample_graph(A, oracle.default_box(A), n)
        assert s.y.shape == (n ** A.dim_in, A.dim_in)
        np.testing.assert_array_equal(s.y_star, np.array([A.apply(y) for y in s.y]))

    def test_validation(self):
        with pytest.raises(ValueError):
            oracle.sample_graph(identity(1), [(-1.0, 1.0)], 1)
        with pytest.raises(ValueError):
            oracle.sample_graph(identity(2), [(-1.0, 1.0)], 8)


class TestDefaultBox:
    def test_clips_and_shrinks(self):
        box = oracle.default_box(GradientOp(functions.burg(1)))
        lo, hi = box[0]
        assert lo > 0.0 and hi < 10.0 + 1e-12

    def test_unbounded_operator(self):
        box = oracle.default_box(identity(3))
        assert len(box) == 3
        assert box[0][0] == pytest.approx(-10.0, abs=1e-5)

    def test_joca16_box_lies_in_the_domain_of_psi(self, half_line_psi):
        A = Joca16Op(25.0, half_line_psi)
        box = oracle.default_box(A)
        assert box == [(1e-6, 10.0 - 1e-6)] * 2
        s = oracle.sample_graph(A, box, 9)
        assert s.y_star.shape == (81, 2)


class TestLowerApprox:
    def test_identity_analytic_value(self):
        # H_Id(x, u) = (x - u)^2 / 4, attained at y = (x + u)/2.
        s = _identity_graph(4096)
        for x, u in [(1.0, 0.0), (3.0, -2.0), (-4.0, 4.0)]:
            approx = oracle.haraux_lower_approx(s, DualPair([x], [u]))
            assert approx == pytest.approx((x - u) ** 2 / 4.0, abs=1e-3)
            assert approx <= (x - u) ** 2 / 4.0 + 1e-12

    def test_nested_refinement_monotone(self):
        p = DualPair([1.3], [0.2])
        s = _identity_graph(16, box=(-3.0, 3.0))
        prev = oracle.haraux_lower_approx(s, p)
        for _ in range(5):
            s = oracle.refine(s)
            cur = oracle.haraux_lower_approx(s, p)
            assert cur >= prev
            prev = cur

    def test_refine_grid_sizes(self):
        s = _identity_graph(16)
        assert oracle.refine(s).n_per_dim == 31


class TestVerifyBound:
    def test_scalar_reference_pass_and_fail(self):
        b = bounds.BoundResult(1.0, np.zeros(1), "m", 1.0)
        assert oracle.verify_bound(b, 1.5, 1e-9)["status"] == "pass"
        assert oracle.verify_bound(b, 0.5, 1e-9)["status"] == "fail"

    def test_graph_reference_consistent(self):
        # For the quadratic the baseline bound is exactly the supremum, so
        # the sampled reference needs escalation to get within the slack.
        phi = functions.quadratic(1)
        p = DualPair([2.0], [-1.0])
        b = bounds.bound_carlier_fy(phi, p, 1.0)
        s = _identity_graph(1025)
        rep = oracle.verify_bound(b, s, 1e-6, p=p, max_refinements=6)
        assert rep["status"] == "consistent"

    def test_graph_reference_escalates(self):
        # A deliberately coarse start forces at least one refinement for a
        # bound close to the true supremum.
        phi = functions.quadratic(1)
        p = DualPair([2.0], [-1.0])
        exact = (2.0 - (-1.0)) ** 2 / 4.0
        b = bounds.BoundResult(exact - 1e-7, np.zeros(1), "m", 1.0)
        s = _identity_graph(8, box=(-10.0, 10.0))
        rep = oracle.verify_bound(b, s, 1e-6, p=p, max_refinements=12,
                                  refinement_cap=2**16)
        assert rep["status"] == "consistent"
        assert rep["n_per_dim"] > 8

    def test_inflated_bound_fails(self):
        p = DualPair([2.0], [-1.0])
        exact = (2.0 - (-1.0)) ** 2 / 4.0
        b = bounds.BoundResult(exact + 0.1, np.zeros(1), "m", 1.0)
        s = _identity_graph(64)
        rep = oracle.verify_bound(b, s, 1e-6, p=p, max_refinements=3)
        assert rep["status"] == "fail"

    def test_graph_reference_needs_pair(self):
        b = bounds.BoundResult(0.0, np.zeros(1), "m", 1.0)
        with pytest.raises(ValueError):
            oracle.verify_bound(b, _identity_graph(16), 1e-6)


class TestAgainstCatalogBounds:
    @pytest.mark.parametrize("name,box,cbox", [
        ("burg", (0.2, 3.0), (-3.0, -0.2)),
        ("boltzmann_shannon", (0.2, 3.0), (-2.0, 2.0)),
    ])
    def test_bounds_below_sampled_supremum(self, name, box, cbox, rng):
        phi = functions.from_name(name)
        A = SubdifferentialOp(phi)
        s = oracle.sample_graph(A, oracle.default_box(A), 4097)
        for _ in range(5):
            p = DualPair([rng.uniform(*box)], [rng.uniform(*cbox)])
            for method in ("carlier_fy", "legendre_self", "bregman"):
                b = bounds.fy_bound_dispatch(phi, None, p, 1.0, method)
                rep = oracle.verify_bound(b, s, 1e-6, p=p)
                assert rep["status"] == "consistent", (name, method, rep)
