import math

import numpy as np
import pytest

from haraux import bounds, functions
from haraux.core import DomainError, DualPair
from haraux.operators import GradientOp, SubdifferentialOp, identity, strong
from haraux.bounds import (
    FY_METHODS,
    BoundResult,
    InternalConsistencyError,
    _finalize,
    bound_bregman,
    bound_carlier_fy,
    bound_carlier_haraux,
    bound_legendre_self,
    bound_modulus,
    bound_pairing,
    burg_self_bound_closed,
    exact_fenchel_young,
    fermi_dirac_bound_closed,
    fermi_dirac_zeta,
    fitzpatrick_lower,
    fy_bound_dispatch,
)


class TestFinalize:
    def test_clamps_tiny_negative(self):
        b = _finalize(-1e-13, np.zeros(1), "m", 1.0, {})
        assert b.value == 0.0
        assert b.diagnostics["clamped_from"] == -1e-13

    def test_rejects_large_negative(self):
        with pytest.raises(InternalConsistencyError):
            _finalize(-1e-6, np.zeros(1), "m", 1.0, {})


class TestFrozenReferences:
    """Regression pins computed once with an independent script."""

    def test_burg_point(self):
        p = DualPair([1.0], [-0.5])
        burg = functions.burg()
        ls = fy_bound_dispatch(burg, None, p, 1.0, "legendre_self")
        assert ls.value == pytest.approx(1.0 / 12.0, abs=1e-14)
        br = fy_bound_dispatch(burg, None, p, 1.0, "bregman")
        assert br.value == pytest.approx(1.0 / 12.0, abs=1e-14)
        ca = fy_bound_dispatch(burg, None, p, 1.0, "carlier_fy")
        assert ca.value == pytest.approx(0.0788353903933773, abs=1e-13)
        # L = -ln(1) + (-1 - ln(0.5)) - 1*(-0.5) = ln 2 - 1/2.
        assert exact_fenchel_young(burg, p) == pytest.approx(
            math.log(2.0) - 0.5, abs=1e-14
        )

    def test_fermi_dirac_point(self):
        fd = functions.fermi_dirac()
        bs = functions.boltzmann_shannon()
        b = bound_bregman(fd, SubdifferentialOp(bs), DualPair([0.5], [1.0]), 1.0)
        assert b.value == pytest.approx(0.34740408616244667, abs=1e-13)
        assert b.method == "fermi_dirac_closed"
        assert b.diagnostics["solver_z_gap"] <= 1e-10


class TestClosedForms:
    def test_burg_closed_satisfies_resolvent(self, rng):
        for _ in range(30):
            xi = rng.uniform(0.1, 5.0)
            mu = rng.uniform(-5.0, -0.1)
            g = float(rng.choice([0.1, 1.0, 10.0]))
            _, z = burg_self_bound_closed([xi], [mu], g)
            # (1 + g) * (-1/z) = -1/xi + g*mu
            assert (1 + g) * (-1.0 / z[0]) == pytest.approx(
                -1.0 / xi + g * mu, rel=1e-12
            )

    def test_zeta_satisfies_resolvent_equation(self, rng):
        # ln(z/(1-z)) + g*ln z = ln(x/(1-x)) + g*u.
        for _ in range(30):
            xi = rng.uniform(0.05, 0.95)
            mu = rng.uniform(-3.0, 3.0)
            g = float(rng.choice([0.5, 1.0, 2.0]))
            z = fermi_dirac_zeta([xi], [mu], g)[0]
            lhs = math.log(z / (1 - z)) + g * math.log(z)
            rhs = math.log(xi / (1 - xi)) + g * mu
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("x, u", [
        (0.9999999962367657, 0.008820355623250996),  # r ~ 3e8: zeta cancels to 1
        (1.0 - 1e-9, 0.01),
        (1.0 - 1e-9, 10.0),
        (1.0 - 1e-9, 700.0),  # r overflows
        (1e-12, -1000.0),  # r underflows
    ])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_fermi_dirac_closed_form_at_the_edges(self, x, u, gamma):
        value, zeta = fermi_dirac_bound_closed([x], [u], gamma)
        exact = exact_fenchel_young(functions.boltzmann_shannon(), DualPair([x], [u]))
        assert math.isfinite(value) and np.all(np.isfinite(zeta))
        assert 0.0 <= value <= exact + 1e-9 * (1.0 + abs(exact))

    def test_fermi_dirac_bound_nonnegative(self, rng):
        for _ in range(30):
            xi = rng.uniform(0.05, 0.95)
            mu = rng.uniform(-3.0, 3.0)
            v, _ = fermi_dirac_bound_closed([xi], [mu], 1.0)
            assert v >= -1e-12


class TestOrderingAndDomination:
    @pytest.mark.parametrize("name", ["quadratic", "burg", "boltzmann_shannon"])
    def test_bounds_below_exact(self, name, rng):
        phi = functions.from_name(name)
        box = {"quadratic": (-4, 4), "burg": (0.2, 4.0),
               "boltzmann_shannon": (0.2, 4.0)}[name]
        cbox = {"quadratic": (-4, 4), "burg": (-4.0, -0.2),
                "boltzmann_shannon": (-2.0, 2.0)}[name]
        for _ in range(25):
            p = DualPair([rng.uniform(*box)], [rng.uniform(*cbox)])
            exact = exact_fenchel_young(phi, p)
            for method in FY_METHODS:
                b = fy_bound_dispatch(phi, None, p, 1.0, method)
                assert b.value <= exact + 1e-9, (name, method)

    def test_strong_never_beats_pairing(self, rng):
        # With W = Id the modulus bound equals the pairing bound; with a
        # weaker declared modulus it can only be smaller.
        phi = functions.quadratic(1)
        A = SubdifferentialOp(phi)
        for _ in range(20):
            p = DualPair([rng.uniform(-3, 3)], [rng.uniform(-3, 3)])
            bp = bound_pairing(identity(1), A, p, 1.0)
            bm = bound_modulus(identity(1), A, p, 1.0, modulus=strong(0.5))
            assert bm.value <= bp.value + 1e-12

    def test_quadratic_legendre_self_closed_form(self, rng):
        # For phi = ||.||^2/2 both routes give g*||x-u||^2/(1+g)^2.
        phi = functions.quadratic(2)
        for g in (0.5, 1.0, 2.0):
            x, u = rng.uniform(-3, 3, size=(2, 2))
            p = DualPair(x, u)
            d = float((x - u) @ (x - u))
            expect = g * d / (1 + g) ** 2
            assert bound_legendre_self(phi, p, g).value == pytest.approx(expect)
            assert bound_carlier_fy(phi, p, g).value == pytest.approx(expect)


class TestHarauxRoute:
    def test_carlier_haraux_matches_carlier_fy(self, rng):
        phi = functions.burg()
        A = SubdifferentialOp(phi)
        for _ in range(10):
            p = DualPair([rng.uniform(0.2, 3.0)], [rng.uniform(-3.0, -0.2)])
            b1 = bound_carlier_haraux(A, p, 1.0)
            b2 = bound_carlier_fy(phi, p, 1.0)
            assert b1.value == pytest.approx(b2.value, abs=1e-12)

    def test_pairing_zero_on_graph(self, rng):
        phi = functions.boltzmann_shannon()
        A = SubdifferentialOp(phi)
        W = GradientOp(functions.boltzmann_shannon())
        for _ in range(10):
            x = np.array([rng.uniform(0.2, 3.0)])
            p = DualPair(x, phi.gradient(x))
            assert bound_pairing(W, A, p, 1.0).value <= 1e-10

    def test_modulus_requires_declaration(self):
        W = GradientOp(functions.quadratic(1))  # no modulus attached
        A = SubdifferentialOp(functions.quadratic(1))
        with pytest.raises(ValueError):
            bound_modulus(W, A, DualPair([1.0], [0.0]), 1.0)


class TestCompositeChain:
    def test_closed_chain(self, rng):
        phi = functions.from_name("quad_plus:quadratic")
        for _ in range(25):
            x, u = rng.uniform(-5, 5, size=2)
            p = DualPair([x], [u])
            d2 = (2 * x - u) ** 2
            assert bound_carlier_fy(phi, p, 1.0).value == pytest.approx(
                d2 / 9.0, abs=1e-10
            )
            assert bound_legendre_self(phi, p, 1.0).value == pytest.approx(
                d2 / 8.0, abs=1e-10
            )
            assert exact_fenchel_young(phi, p) == pytest.approx(d2 / 4.0, abs=1e-10)


class TestDiagnostics:
    def test_domain_error_outside(self):
        with pytest.raises(DomainError):
            bound_bregman(functions.burg(), SubdifferentialOp(functions.burg()),
                          DualPair([-1.0], [-1.0]), 1.0)
        # exp overflows in grad phi* and phi* of Boltzmann-Shannon at u* = 2000.
        bs, p = functions.boltzmann_shannon(), DualPair([1.0], [2000.0])
        with pytest.raises(DomainError):
            fy_bound_dispatch(bs, None, p, 1.0, "legendre_self")
        with pytest.raises(DomainError):
            exact_fenchel_young(bs, p)

    def test_fitzpatrick_shift(self):
        p = DualPair([2.0], [3.0])
        b = BoundResult(1.5, np.zeros(1), "m", 1.0)
        assert fitzpatrick_lower(b, p) == pytest.approx(7.5)

    def test_residual_reported(self):
        burg = functions.burg()
        p = DualPair([1.0], [-0.5])
        b = fy_bound_dispatch(burg, burg, p, 1.0, "pairing")
        assert b.diagnostics["residual"] <= 1e-10
