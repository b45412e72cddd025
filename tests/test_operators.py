import ast
import pathlib
import warnings

import numpy as np
import pytest

import haraux
from haraux import bounds, functions
from haraux.core import DomainError, DualPair, pairing
from haraux.operators import (
    AffineOp,
    DiagonalOp,
    GradientOp,
    Joca16Op,
    MonotoneOperator,
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
        terms = op.separable_terms()
        _, _, inverse, inverse_dom = terms.term(0)
        assert inverse(-0.5) == 2.0 and inverse_dom == (-np.inf, 0.0)
        np.testing.assert_array_equal(terms.value(np.array([1.0, 2.0])), [-1.0, -0.5])
        np.testing.assert_array_equal(terms.inverse(np.array([-0.5, -2.0])), [2.0, 0.5])
        lo, hi = op.domain()
        assert (lo.tolist(), hi.tolist()) == ([0.0] * 2, [np.inf] * 2)
        assert (terms.inv_lo.tolist(), terms.inv_hi.tolist()) == ([-np.inf] * 2, [0.0] * 2)

    def test_subdifferential_alias(self):
        assert SubdifferentialOp is GradientOp

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

    def test_is_diagonal(self):
        assert AffineOp(np.eye(3)).is_diagonal
        assert not AffineOp([[1.0, 0.5], [0.0, 1.0]]).is_diagonal

    def test_identity_has_unit_strong_modulus(self):
        op = identity(2)
        assert op.modulus.kind == "strong" and op.modulus.alpha == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            AffineOp(np.eye(2)).apply([1.0])


_BAD_ENTRIES = [np.inf, -np.inf, np.nan]


def _constructed_without_warnings(build):
    """Call build() with every warning an error, so a rejection must be its own."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build()


class TestOperatorData:
    @pytest.mark.parametrize("bad", _BAD_ENTRIES)
    def test_affine_matrix_entries_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            _constructed_without_warnings(lambda: AffineOp([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", _BAD_ENTRIES)
    def test_skew_matrix_entries_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            _constructed_without_warnings(lambda: SkewPDOp([[bad, 1.0]]))

    @pytest.mark.parametrize("beta", [np.inf, np.nan, 0.0, -1.0])
    def test_joca16_beta_must_be_positive_and_finite(self, beta):
        with pytest.raises(ValueError, match="beta"):
            _constructed_without_warnings(
                lambda: Joca16Op(beta, functions._quadratic_scalar()))


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
        terms = diag.separable_terms()
        v, dv, inv, inv_dom = terms.term(0)
        assert (v(3.0), dv(3.0)) == (7.0, 2.0)
        lo, hi = diag.domain()
        assert (lo.tolist(), hi.tolist()) == ([-np.inf] * 2, [np.inf] * 2)
        assert inv is None and inv_dom is None  # linear terms give no start
        assert terms.inverse is None
        np.testing.assert_array_equal(terms.value(np.array([3.0, 2.0])), [7.0, 0.0])
        np.testing.assert_array_equal(terms.deriv(np.array([3.0, 2.0])), [2.0, 0.5])
        assert AffineOp([[1.0, 0.5], [0.0, 1.0]]).separable_terms() is None
        assert AffineOp(np.eye(3)).separable_terms() is not None
        grad = GradientOp(functions.burg(2))
        assert grad.as_affine() is None
        lo, hi = grad.domain()
        assert list(zip(lo.tolist(), hi.tolist())) == [(0.0, np.inf)] * 2
        assert SkewPDOp(np.eye(1)).separable_terms() is None


class TestSharedState:
    def test_identity_is_one_read_only_operator_per_dim(self):
        assert identity(3) is identity(3)
        assert identity(3) is not identity(4)
        op = identity(2)
        for end in (op.d, op.b):
            with pytest.raises(ValueError):
                end[0] = 5.0
        np.testing.assert_array_equal(identity(2).d, [1.0, 1.0])
        np.testing.assert_array_equal(identity(2).b, [0.0, 0.0])

    def test_gradient_ops_of_one_function_share_its_terms(self):
        f = functions.fermi_dirac(3)
        terms = GradientOp(f).separable_terms()
        assert SubdifferentialOp(f).separable_terms() is terms
        assert GradientOp(functions.fermi_dirac(3)).separable_terms() is not terms
        np.testing.assert_array_equal(terms.value(np.array([0.25, 0.5, 0.75])),
                                      f.gradient([0.25, 0.5, 0.75]))

    def test_the_default_domain_is_one_read_only_box_per_dim(self):
        lo, hi = AffineOp(np.eye(2)).domain()
        assert (lo, hi) == identity(2).domain() and lo is identity(2).domain()[0]
        with pytest.raises(ValueError):
            lo[0] = 0.0


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

    @pytest.mark.parametrize("beta, name", [(25.0, "boltzmann_shannon"), (300.0, "burg"),
                                            (1e6, "fermi_dirac")])
    def test_lipschitz_check_reaches_toward_a_barrier(self, beta, name):
        # psi'' is 1/t for Boltzmann-Shannon, which exceeds 25 below
        # t = 0.04, where A is not monotone: the check samples the domain
        # through its chart, log-spaced toward the barrier at 0.
        with pytest.raises(ValueError, match="Lipschitz"):
            Joca16Op(beta, functions.from_name(name).parts[0])

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_lipschitz_check_accepts_the_quadratic(self, beta, half_line_psi):
        # Joca16Op(1, quadratic) and Joca16Op(2, quadratic) are the
        # operators of verify and of the benchmark's 2-D certification.
        for psi in (functions._quadratic_scalar(), half_line_psi):
            assert Joca16Op(beta, psi).beta == beta

    def test_psi_on_a_bounded_interval_with_an_end_at_zero(self):
        # Checking the Lipschitz bound builds the chart of (0, 3), whose t
        # range passes a long run of t where e^t underflows.
        psi = functions.ScalarLegendre(
            name="box_quadratic", dom=(0.0, 3.0), value=lambda t: 0.5 * t * t,
            deriv=lambda t: t, deriv_inv=lambda s: s, conj_dom=(0.0, 3.0),
            conj_value=lambda s: 0.5 * s * s, deriv2=lambda t: 1.0)
        op = Joca16Op(2.0, psi)
        np.testing.assert_array_equal(op.domain()[1], [3.0, 3.0])
        # A = grad(psi) on (0, 3): the pairing bound with W = Id has
        # z = (x + gamma*u*)/(1 + gamma) = 0.75 and value (x - z)^2/gamma.
        b = bounds.fy_bound_dispatch(functions.SeparableFunction([psi]), None,
                                     DualPair([1.0], [0.5]), 1.0, "pairing")
        assert b.value == pytest.approx(0.0625, abs=1e-12)

    def test_wrong_dimension(self):
        op = Joca16Op(1.0, functions._quadratic_scalar())
        with pytest.raises(DomainError):
            op.apply([1.0, 2.0, 3.0])

    def test_point_outside_the_domain_of_psi(self, half_line_psi):
        op = Joca16Op(1.0, half_line_psi)
        with pytest.raises(DomainError):
            op.apply([1.0, -0.5])
        Y = np.ones((5, 2))
        Y[3, 0] = 0.0
        with pytest.raises(DomainError):
            op.apply_rows(Y)


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

    def test_affine_form_is_the_map(self, rng):
        L = rng.normal(size=(2, 3))
        op = SkewPDOp(L)
        M, b = op.as_affine()
        assert M.shape == (5, 5) and b.tolist() == [0.0] * 5
        np.testing.assert_array_equal(M + M.T, np.zeros((5, 5)))
        for v in rng.normal(size=(10, 5)):
            np.testing.assert_allclose(M @ v + b, op.apply(v), rtol=1e-15, atol=1e-15)


class TestMonotonicityProbe:
    def test_reports_modulus_slack(self):
        op = identity(1)
        rep = monotonicity_probe(op, [(-2.0, 2.0)], n=50, seed=1)
        assert rep["n"] == 50
        assert rep["min_modulus_slack"] >= -1e-12

    def test_detects_violation_without_raising(self):
        class Negation(MonotoneOperator):
            dim_in = 1

            def apply(self, x):
                return -np.asarray(x, dtype=float)

        op = Negation()
        rep = monotonicity_probe(op, [(-2.0, 2.0)], n=50, seed=1)
        assert rep["min_pairing"] < 0.0

    def test_box_dimension_checked(self):
        with pytest.raises(ValueError):
            monotonicity_probe(identity(2), [(-1.0, 1.0)], n=5)


# Interior boxes of the catalog parts, for batches of points inside dom f.
_BOX = {
    "quadratic": (-5.0, 5.0),
    "burg": (0.05, 5.0),
    "boltzmann_shannon": (0.05, 5.0),
    "fermi_dirac": (0.01, 0.99),
    "quad_plus:burg": (0.05, 5.0),
}


def _row_loop(op, Y):
    return np.array([op.apply(y) for y in Y])


def _mixed_function():
    """d = 40: burg, fermi_dirac and quadratic parts interleaved."""
    names = ["burg", "fermi_dirac", "quadratic"]
    parts = {n: functions.from_name(n).parts[0] for n in names}
    order = [names[i % 3] for i in range(40)]
    return functions.SeparableFunction([parts[n] for n in order]), order


class TestApplyRows:
    @pytest.mark.parametrize("name", sorted(_BOX))
    def test_gradient_equals_row_loop(self, name, rng):
        op = SubdifferentialOp(functions.from_name(name, 40))
        Y = rng.uniform(*_BOX[name], size=(64, 40))
        out = op.apply_rows(Y)
        assert out.shape == Y.shape
        np.testing.assert_array_equal(out, _row_loop(op, Y))

    def test_mixed_parts_equal_row_loop(self, rng):
        f, order = _mixed_function()
        Y = np.column_stack([rng.uniform(*_BOX[n], size=64) for n in order])
        op = GradientOp(f)
        np.testing.assert_array_equal(op.apply_rows(Y), _row_loop(op, Y))

    def test_joca16_equals_row_loop(self, rng):
        op = Joca16Op(2.0, functions._quadratic_scalar())
        Y = rng.uniform(-10.0, 10.0, size=(500, 2))
        np.testing.assert_array_equal(op.apply_rows(Y), _row_loop(op, Y))

    def test_matrix_and_diagonal_operators_equal_row_loop(self, rng):
        # These run the base-class loop over apply.
        M = rng.normal(size=(6, 6))
        ops = [AffineOp(M @ M.T + M - M.T, rng.normal(size=6)), SkewPDOp(rng.normal(size=(2, 4))),
               DiagonalOp(rng.uniform(0.0, 3.0, 6), rng.normal(size=6))]
        Y = rng.normal(size=(50, 6))
        for op in ops:
            np.testing.assert_array_equal(op.apply_rows(Y), _row_loop(op, Y))

    def test_base_class_loops_over_rows(self, rng):
        class Cubic(MonotoneOperator):
            dim_in = 3

            def apply(self, x):
                return np.asarray(x) ** 3

        op = Cubic()
        Y = rng.normal(size=(20, 3))
        np.testing.assert_array_equal(op.apply_rows(Y), _row_loop(op, Y))

    def test_row_outside_the_domain_raises(self):
        Y = np.full((10, 3), 0.5)
        Y[7, 1] = -0.5
        with pytest.raises(DomainError):
            GradientOp(functions.burg(3)).apply_rows(Y)

    def test_wrong_width_raises_like_apply(self):
        ops = [GradientOp(functions.burg(2)), AffineOp(np.eye(2)), DiagonalOp([1.0, 2.0]),
               Joca16Op(1.0, functions._quadratic_scalar()), SkewPDOp(np.eye(1))]
        for op in ops:
            with pytest.raises(DomainError):
                op.apply(np.ones(3))
            with pytest.raises(DomainError):
                op.apply_rows(np.ones((4, 3)))


def _probe_loop(op, box, n, seed, modulus=None):
    """The monotonicity probe written as one pair per iteration."""
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    modulus = modulus if modulus is not None else op.modulus
    min_pairing = min_slack = np.inf
    for _ in range(n):
        x = lo + (hi - lo) * rng.random(op.dim_in)
        y = lo + (hi - lo) * rng.random(op.dim_in)
        gap = pairing(x - y, op.apply(x) - op.apply(y))
        min_pairing = min(min_pairing, gap)
        if modulus is not None:
            min_slack = min(min_slack, gap - modulus(float(np.linalg.norm(x - y))))
    report = {"n": n, "min_pairing": float(min_pairing)}
    if modulus is not None:
        report["min_modulus_slack"] = float(min_slack)
    return report


class TestProbeMatchesLoop:
    @pytest.mark.parametrize("name", ["quadratic", "burg", "boltzmann_shannon", "fermi_dirac"])
    def test_catalog_gradients(self, name):
        op = GradientOp(functions.from_name(name))
        for seed in range(5):
            assert monotonicity_probe(op, [_BOX[name]], n=100, seed=seed) == \
                _probe_loop(op, [_BOX[name]], 100, seed)

    def test_with_modulus(self):
        op = identity(1)
        assert monotonicity_probe(op, [(-2.0, 2.0)], n=50, seed=1) == \
            _probe_loop(op, [(-2.0, 2.0)], 50, 1)
        mod = power(0.5, 3.0)
        assert monotonicity_probe(op, [(-2.0, 2.0)], n=50, seed=2, modulus=mod) == \
            _probe_loop(op, [(-2.0, 2.0)], 50, 2, modulus=mod)

    def test_two_dimensional(self):
        op = Joca16Op(1.0, functions._quadratic_scalar())
        box = [(-3.0, 3.0), (-3.0, 3.0)]
        rep = monotonicity_probe(op, box, n=200, seed=3)
        ref = _probe_loop(op, box, 200, 3)
        assert rep["min_pairing"] == pytest.approx(ref["min_pairing"], rel=1e-14, abs=1e-15)

    def test_no_pairs(self):
        assert monotonicity_probe(identity(1), [(-1.0, 1.0)], n=0) == {
            "n": 0, "min_pairing": np.inf, "min_modulus_slack": np.inf}


_OPERATOR_CLASSES = {"GradientOp", "SubdifferentialOp", "Joca16Op", "AffineOp",
                     "DiagonalOp", "SkewPDOp"}


def test_only_operators_module_tests_operator_classes():
    # The other modules route on the operator protocol (domain, jacobian,
    # as_affine, separable_terms, f), never on the concrete class.
    src = pathlib.Path(haraux.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "operators.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                named = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node.args[1])
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if named & _OPERATOR_CLASSES:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
