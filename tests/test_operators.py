import numpy as np
import pytest

from haraux import functions
from haraux.core import DomainError, pairing
from haraux.operators import (
    AffineOp,
    DiagonalOp,
    GradientOp,
    Joca16Op,
    SkewPDOp,
    SubdifferentialOp,
    custom_modulus,
    identity,
    monotonicity_probe,
    power,
    strong,
)


class TestModuli:
    def test_strong_is_quadratic(self):
        m = strong(2.0)
        assert m(3.0) == 18.0

    def test_power(self):
        m = power(0.5, 3.0)
        assert m(2.0) == 4.0

    def test_custom_must_vanish_at_zero(self):
        with pytest.raises(ValueError):
            custom_modulus(lambda t: t + 1.0)
        m = custom_modulus(lambda t: t**4)
        assert m(2.0) == 16.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            strong(0.0)
        with pytest.raises(ValueError):
            power(1.0, 1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            strong(1.0)(-1.0)


class TestGradientOp:
    def test_apply_and_interval(self):
        op = GradientOp(functions.burg(2))
        np.testing.assert_allclose(op.apply([1.0, 2.0]), [-1.0, -0.5])
        _, _, interval, inverse, inverse_dom = op.separable_terms()[0]
        assert interval == (0.0, np.inf)
        assert inverse(-0.5) == 2.0 and inverse_dom == (-np.inf, 0.0)

    def test_subdifferential_tag(self):
        op = SubdifferentialOp(functions.quadratic())
        assert op.tag == "subdiff"
        assert isinstance(op, GradientOp)

    def test_monotone_on_samples(self, rng):
        for name, box in [("burg", (0.1, 5.0)), ("fermi_dirac", (0.05, 0.95))]:
            op = GradientOp(functions.from_name(name))
            rep = monotonicity_probe(op, [box], n=100, seed=7)
            assert rep["min_pairing"] >= 0.0


class TestAffineOp:
    def test_apply(self):
        op = AffineOp([[2.0, 0.0], [0.0, 3.0]], [1.0, -1.0])
        np.testing.assert_allclose(op.apply([1.0, 1.0]), [3.0, 2.0])

    def test_rejects_non_monotone_matrix(self):
        with pytest.raises(ValueError):
            AffineOp([[-1.0]])

    def test_skew_matrix_accepted(self):
        AffineOp([[0.0, -1.0], [1.0, 0.0]])  # symmetric part is zero

    def test_check_can_be_disabled(self):
        op = AffineOp([[-1.0]], check=False)
        assert op.M[0, 0] == -1.0

    def test_is_diagonal(self):
        assert AffineOp(np.eye(3)).is_diagonal
        assert not AffineOp([[1.0, 0.5], [0.0, 1.0]]).is_diagonal

    def test_identity_has_unit_strong_modulus(self):
        op = identity(2)
        assert op.modulus.kind == "strong" and op.modulus.alpha == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            AffineOp(np.eye(2)).apply([1.0])


class TestDiagonalOp:
    def test_apply(self):
        op = DiagonalOp([2.0, 3.0], [1.0, -1.0])
        np.testing.assert_array_equal(op.apply([1.0, 1.0]), [3.0, 2.0])

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="negative entry"):
            DiagonalOp([1.0, -1e-3])
        DiagonalOp([1.0, -1e-12])  # within the rounding threshold

    def test_rejects_mismatched_offset(self):
        with pytest.raises(ValueError, match="offset dimension"):
            DiagonalOp([1.0, 2.0], [0.0, 0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            DiagonalOp([1.0, 2.0]).apply([1.0])

    def test_identity_is_diagonal_with_unit_strong_modulus(self):
        op = identity(1000)
        assert isinstance(op, DiagonalOp)
        assert op.d.shape == (1000,) and op.b.shape == (1000,)
        assert op.modulus.kind == "strong" and op.modulus.alpha == 1.0

    def test_structure_queries(self):
        diag = DiagonalOp([2.0, 0.5], [1.0, -1.0])
        M, b = diag.as_affine()
        np.testing.assert_array_equal(M, np.diag([2.0, 0.5]))
        np.testing.assert_array_equal(b, [1.0, -1.0])
        (v, dv, ivl, inv, inv_dom), _ = diag.separable_terms()
        assert (v(3.0), dv(3.0), ivl) == (7.0, 2.0, (-np.inf, np.inf))
        assert inv is None and inv_dom is None  # linear terms give no start
        assert AffineOp([[1.0, 0.5], [0.0, 1.0]]).separable_terms() is None
        assert len(AffineOp(np.eye(3)).separable_terms()) == 3
        grad = GradientOp(functions.burg(2))
        assert grad.as_affine() is None
        assert [t[2] for t in grad.separable_terms()] == [(0.0, np.inf)] * 2
        assert SkewPDOp(np.eye(1)).separable_terms() is None


class TestJoca16Op:
    def test_reduces_to_rotation_for_quadratic(self, rng):
        # beta*t - t cancels, leaving the pure rotation (t1,t2) -> (-t2,t1).
        op = Joca16Op(1.0, functions._quadratic_scalar())
        for _ in range(10):
            v = rng.normal(size=2)
            np.testing.assert_allclose(op.apply(v), [-v[1], v[0]], atol=1e-14)

    def test_monotone(self, rng):
        op = Joca16Op(1.0, functions._quadratic_scalar())
        rep = monotonicity_probe(op, [(-3, 3), (-3, 3)], n=200, seed=3)
        assert rep["min_pairing"] >= -1e-12

    def test_lipschitz_check_rejects_steep_psi(self):
        with pytest.raises(ValueError):
            Joca16Op(0.5, functions._quadratic_scalar())  # slope 1 > beta

    def test_wrong_dimension(self):
        op = Joca16Op(1.0, functions._quadratic_scalar())
        with pytest.raises(DomainError):
            op.apply([1.0, 2.0, 3.0])


class TestSkewPDOp:
    def test_pairing_vanishes(self, rng):
        op = SkewPDOp([[1.0, 2.0], [0.5, -1.0]])
        for _ in range(20):
            v = rng.normal(size=4)
            assert abs(pairing(v, op.apply(v))) <= 1e-12 * (1 + float(v @ v))

    def test_block_structure(self):
        L = np.array([[1.0, 0.0], [0.0, 2.0]])
        op = SkewPDOp(L)
        out = op.apply([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(out, [1.0, 2.0, -1.0, -2.0])


class TestMonotonicityProbe:
    def test_reports_modulus_slack(self):
        op = identity(1)
        rep = monotonicity_probe(op, [(-2.0, 2.0)], n=50, seed=1)
        assert rep["n"] == 50
        assert rep["min_modulus_slack"] >= -1e-12

    def test_detects_violation_without_raising(self):
        op = AffineOp([[-1.0]], check=False)
        rep = monotonicity_probe(op, [(-2.0, 2.0)], n=50, seed=1)
        assert rep["min_pairing"] < 0.0

    def test_box_dimension_checked(self):
        with pytest.raises(ValueError):
            monotonicity_probe(identity(2), [(-1.0, 1.0)], n=5)
