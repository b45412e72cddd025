import numpy as np
import pytest

from haraux import functions
from haraux.gauges import (
    InclusionInstance,
    KTInstance,
    fr_gauge_bound,
    kt_gauge_bound,
    linear_quadratic_kt_instance,
    primal_primal_bound,
    stacked_inclusion,
    theta_bound,
)
from haraux.operators import (
    AffineOp,
    DiagonalOp,
    GradientOp,
    SubdifferentialOp,
    identity,
    strong,
)

L = np.array([[1.0, 0.5], [0.0, 1.0]])
X_BAR = np.array([1.0, -2.0])
Y_BAR = np.array([0.5, 1.5])


@pytest.fixture
def kt():
    return linear_quadratic_kt_instance(X_BAR, Y_BAR, L)


class TestInstances:
    def test_inclusion_dimension_check(self):
        with pytest.raises(ValueError):
            InclusionInstance(A=identity(2), B=identity(3), W=identity(2),
                              gamma=1.0)

    def test_inclusion_gamma_check(self):
        with pytest.raises(ValueError):
            InclusionInstance(A=identity(1), B=identity(1), W=identity(1),
                              gamma=0.0)

    def test_kt_dimension_check(self):
        with pytest.raises(ValueError):
            KTInstance(C=identity(3), D_inv=identity(2), L=L, gamma=1.0,
                       W_X=identity(3), W_Ystar=identity(2))


class TestThetaGauge:
    def test_zero_at_zero_of_sum(self):
        # A = Id - 1, B = Id + 1: the unique zero of A + B is 0.
        A = AffineOp(np.eye(1), [-1.0])
        B = AffineOp(np.eye(1), [1.0])
        inst = InclusionInstance(A=A, B=B, W=identity(1), gamma=1.0)
        assert theta_bound(inst, [0.0]).value <= 1e-12

    def test_positive_away_from_zero(self):
        A = AffineOp(np.eye(1), [-1.0])
        B = AffineOp(np.eye(1), [1.0])
        inst = InclusionInstance(A=A, B=B, W=identity(1), gamma=1.0)
        assert theta_bound(inst, [1.0]).value >= 1e-4

    def test_modulus_and_bregman_diagnostics(self):
        A = SubdifferentialOp(functions.quadratic(1))
        B = GradientOp(functions.quadratic(1))
        inst = InclusionInstance(A=A, B=B, W=identity(1), gamma=1.0,
                                 modulus=strong(1.0),
                                 f=functions.quadratic(1))
        b = primal_primal_bound(inst, [0.5], [0.5])
        assert "modulus_value" in b.diagnostics
        assert "bregman_value" in b.diagnostics
        # For W = Id all three readings coincide on quadratics.
        assert b.diagnostics["modulus_value"] == pytest.approx(b.value, abs=1e-12)
        assert b.diagnostics["bregman_value"] == pytest.approx(b.value, abs=1e-12)


class TestKTGauge:
    def test_zero_at_kt_point(self, kt):
        assert kt_gauge_bound(kt, X_BAR, Y_BAR).value <= 1e-12

    def test_positive_when_displaced(self, kt):
        b = kt_gauge_bound(kt, X_BAR + 0.1, Y_BAR + 0.1)
        assert b.value >= 1e-4
        assert b.diagnostics["component_primal"] >= 0.0
        assert b.diagnostics["component_dual"] >= 0.0

    def test_components_sum_to_value(self, kt):
        b = kt_gauge_bound(kt, X_BAR + 0.3, Y_BAR - 0.2)
        total = (b.diagnostics["component_primal"]
                 + b.diagnostics["component_dual"])
        assert b.value == pytest.approx(total, abs=1e-12)

    def test_product_space_assembly_agrees(self, kt):
        stacked = stacked_inclusion(kt)
        for shift in (0.0, 0.1, -0.7):
            pt = np.concatenate([X_BAR + shift, Y_BAR + shift])
            direct = kt_gauge_bound(kt, X_BAR + shift, Y_BAR + shift)
            assembled = theta_bound(stacked, pt)
            assert assembled.value == pytest.approx(direct.value, abs=1e-10)

    def test_back_solved_offsets(self, kt):
        # C(x_bar) = -L^T y_bar and D^{-1}(y_bar) = L x_bar by construction.
        np.testing.assert_allclose(kt.C.apply(X_BAR), -L.T @ Y_BAR, atol=1e-12)
        np.testing.assert_allclose(kt.D_inv.apply(Y_BAR), L @ X_BAR, atol=1e-12)

    def test_rectangular_coupling(self):
        Lr = np.array([[1.0, 2.0, -1.0]])
        inst = linear_quadratic_kt_instance([1.0, 0.0, -1.0], [2.0], Lr)
        assert kt_gauge_bound(inst, [1.0, 0.0, -1.0], [2.0]).value <= 1e-12
        assert kt_gauge_bound(inst, [1.1, 0.1, -0.9], [2.1]).value >= 1e-4


class TestFRGauge:
    def test_zero_on_matching_graph_point(self):
        # With L = 0 the blocks decouple; x solving grad f(x) + grad phi(x)
        # stationarity means x is the unconstrained minimizer of f + phi...
        # here we simply pick the point where both block resolvents fix x.
        f = functions.quadratic(1)
        g = functions.quadratic(1)
        phi = functions.quadratic(1)
        psi = functions.quadratic(1)
        L0 = np.zeros((1, 1))
        b = fr_gauge_bound(f, g, phi, psi, L0, 1.0, [0.0], [0.0])
        assert b.value <= 1e-12

    def test_positive_off_solution(self):
        f = functions.quadratic(1)
        g = functions.quadratic(1)
        phi = functions.quadratic(1)
        psi = functions.quadratic(1)
        L0 = np.zeros((1, 1))
        b = fr_gauge_bound(f, g, phi, psi, L0, 1.0, [1.0], [0.5])
        assert b.value >= 1e-4

    def test_entropic_kernels(self):
        f = functions.boltzmann_shannon()
        g = functions.boltzmann_shannon()
        phi = functions.boltzmann_shannon()
        psi = functions.boltzmann_shannon()
        b = fr_gauge_bound(f, g, phi, psi, np.array([[0.3]]), 1.0,
                           [0.7], [1.2])
        assert b.value >= 0.0
        assert "near_boundary" in b.diagnostics

    def test_gamma_validation(self):
        f = functions.quadratic(1)
        with pytest.raises(ValueError):
            fr_gauge_bound(f, f, f, f, np.zeros((1, 1)), 0.0, [0.0], [0.0])


class TestStackedInclusion:
    def test_gradient_blocks(self):
        inst = KTInstance(
            C=SubdifferentialOp(functions.quadratic(2)),
            D_inv=SubdifferentialOp(functions.quadratic(2)),
            L=np.eye(2),
            gamma=1.0,
            W_X=GradientOp(functions.quadratic(2)),
            W_Ystar=GradientOp(functions.quadratic(2)),
        )
        stacked = stacked_inclusion(inst)
        assert stacked.A.dim_in == 4
        assert stacked.W.dim_in == 4

    def test_diagonal_blocks(self):
        inst = KTInstance(
            C=DiagonalOp([1.0, 2.0], [0.5, -0.5]),
            D_inv=identity(1),
            L=np.ones((1, 2)),
            gamma=1.0,
            W_X=identity(2),
            W_Ystar=DiagonalOp([3.0]),
        )
        stacked = stacked_inclusion(inst)
        np.testing.assert_array_equal(stacked.A.M, np.diag([1.0, 2.0, 1.0]))
        np.testing.assert_array_equal(stacked.A.b, [0.5, -0.5, 0.0])
        np.testing.assert_array_equal(stacked.W.M, np.diag([1.0, 1.0, 3.0]))

    def test_mixed_blocks_rejected(self):
        inst = KTInstance(
            C=identity(2),
            D_inv=SubdifferentialOp(functions.quadratic(2)),
            L=np.eye(2),
            gamma=1.0,
            W_X=identity(2),
            W_Ystar=identity(2),
        )
        with pytest.raises(TypeError):
            stacked_inclusion(inst)
