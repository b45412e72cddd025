import copy
import json
import math
import pickle
import warnings

import numpy as np
import pytest

from haraux import bounds, functions
from haraux.core import DomainError, DualPair
from haraux.operators import GradientOp, SubdifferentialOp, identity, strong
from haraux.solvers import NoSolutionError, solve_resolvent
from haraux.bounds import (
    FY_METHODS,
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
        # Where 1 - g*x*u* <= 0 the resolvent has no solution in (0, inf).
        with pytest.raises(NoSolutionError):
            burg_self_bound_closed([0.5], [4.0], 1.0)

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
        bs, p = functions.boltzmann_shannon(), DualPair([x], [u])
        exact = exact_fenchel_young(bs, p)
        assert math.isfinite(value) and np.all(np.isfinite(zeta))
        assert 0.0 <= value <= exact + 1e-9 * (1.0 + abs(exact))
        # A failed generic cross-check is recorded, not raised.
        b = bound_bregman(functions.fermi_dirac(), SubdifferentialOp(bs), p, gamma)
        assert b.value == value and np.array_equal(b.z, zeta)
        assert ("solver_z_gap" in b.diagnostics) != ("crosscheck_error" in b.diagnostics)

    def test_fermi_dirac_crosscheck_runs_on_the_figure1_panel(self, monkeypatch):
        # The 402 points of the figure1 Fermi-Dirac-over-Boltzmann-Shannon
        # panel: each bound runs one independent generic solve, which
        # agrees with the closed form and meets the residual contract.
        fd, bs = functions.fermi_dirac(), functions.boltzmann_shannon()
        A = SubdifferentialOp(bs)
        solves = []

        def counted(problem):
            solves.append(problem)
            return solve_resolvent(problem)

        monkeypatch.setattr(bounds, "solve_resolvent", counted)
        for u in (1.0, -1.0):
            for x in np.linspace(0.01, 0.99, 201).tolist():
                b = bound_bregman(fd, A, DualPair([x], [u]), 1.0)
                rhs = fd.gradient([x])[0] + u
                assert b.method == "fermi_dirac_closed"
                assert b.diagnostics["solver_z_gap"] <= 1e-10
                residual = b.diagnostics["residual"]
                assert math.isfinite(residual) and residual <= 1e-12 * (1.0 + abs(rhs))
                assert solves[-1].rhs.tolist() == [rhs]
        assert len(solves) == 402

    def test_fermi_dirac_bound_nonnegative(self, rng):
        for _ in range(30):
            xi = rng.uniform(0.05, 0.95)
            mu = rng.uniform(-3.0, 3.0)
            v, _ = fermi_dirac_bound_closed([xi], [mu], 1.0)
            assert v >= -1e-12


def _twice_burg(name):
    """2 * (-ln t) as a user part, whatever its name."""
    return functions.SeparableFunction(functions.ScalarLegendre(
        name=name, dom=(0.0, math.inf), value=lambda t: -2.0 * math.log(t),
        deriv=lambda t: -2.0 / t, deriv_inv=lambda s: -2.0 / s, deriv2=lambda t: 2.0 / (t * t),
        conj_dom=(-math.inf, 0.0), conj_value=lambda s: 2.0 * math.log(2.0 / -s) - 2.0))


class TestClosedFormChoice:
    def test_a_user_part_named_like_a_catalog_part_takes_the_generic_route(self):
        # The Burg closed form holds for -ln t alone: 2 * (-ln t) named
        # "burg" gets the bound of the same function under another name.
        p = DualPair([1.0], [-0.2])
        named, other = (bound_bregman(f, GradientOp(f), p, 1.0)
                        for f in (_twice_burg("burg"), _twice_burg("other")))
        assert named.method == other.method == "bregman"
        assert named.value == other.value and np.array_equal(named.z, other.z)
        assert named.value == pytest.approx(0.73636363636363636, rel=1e-12)
        assert bound_bregman(functions.burg(), GradientOp(functions.burg()), p,
                             1.0).method == "burg_closed"

    def test_catalog_functions_of_separate_calls_share_their_part(self):
        assert functions.burg(3).parts[0] is functions.from_name("burg").parts[0]
        f, phi = functions.from_name("burg"), functions.from_name("burg")
        b = fy_bound_dispatch(phi, f, DualPair([1.0], [-0.2]), 1.0, "bregman")
        assert b.method == "burg_closed"


class TestUnknownMethod:
    def test_dispatch(self):
        with pytest.raises(ValueError, match="nope"):
            fy_bound_dispatch(functions.burg(), None, DualPair([1.0], [-0.5]), 1.0, "nope")

    def test_rows(self):
        with pytest.raises(ValueError, match="nope"):
            bounds._fy_rows(functions.burg(), np.ones((2, 1)), -np.ones((2, 1)), 1.0, "nope")


class TestOrderingAndDomination:
    @pytest.mark.parametrize("name", [
        "quadratic", "burg", "boltzmann_shannon", "fermi_dirac", "quad_plus:quadratic",
        "quad_plus:burg", "quad_plus:boltzmann_shannon", "quad_plus:fermi_dirac",
    ])
    def test_bounds_below_exact(self, name, rng):
        inner = name.split(":")[-1]
        box = {"quadratic": (-4, 4), "burg": (0.2, 4.0),
               "boltzmann_shannon": (0.2, 4.0), "fermi_dirac": (0.05, 0.95)}[inner]
        # The conjugate of ||.||^2/2 + psi is finite everywhere.
        cbox = {"quadratic": (-4, 4), "burg": (-4.0, -0.2),
                "boltzmann_shannon": (-2.0, 2.0)}.get(name, (-4.0, 4.0))
        for dim, points in ((1, 25), (24, 3), (1000, 1)):
            phi = functions.from_name(name, dim)
            for _ in range(points):
                p = DualPair(rng.uniform(*box, dim), rng.uniform(*cbox, dim))
                exact = exact_fenchel_young(phi, p)
                for method in FY_METHODS:
                    b = fy_bound_dispatch(phi, None, p, 1.0, method)
                    assert b.value <= exact + 1e-9, (name, dim, method)
                    if b.method == "bregman":
                        # <x - z, grad phi(x) - grad phi(z)> / gamma is the
                        # symmetrized Bregman distance.
                        ref = phi.bregman(p.x, b.z) + phi.bregman(b.z, p.x)
                        assert b.value == pytest.approx(ref, rel=1e-12), (name, dim)

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
        for dim in (1, 24, 1000):
            phi = functions.burg(dim)
            A = SubdifferentialOp(phi)
            for _ in range(10 if dim == 1 else 2):
                p = DualPair(rng.uniform(0.2, 3.0, dim), rng.uniform(-3.0, -0.2, dim))
                b1 = bound_carlier_haraux(A, p, 1.0)
                b2 = bound_carlier_fy(phi, p, 1.0)
                tol = {"abs": 1e-12} if dim == 1 else {"rel": 1e-12}
                assert b1.value == pytest.approx(b2.value, **tol)
                # The baseline is the pairing bound with kernel W = Id, bit
                # for bit.
                b0 = bound_pairing(identity(dim), A, p, 1.0)
                assert b1.value == b0.value and np.array_equal(b1.z, b0.z)
                assert b1.diagnostics["residual"] == b0.diagnostics["residual"]

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
        # At u* = -2000 e^-s overflows in the Fermi-Dirac grad phi*
        # 1/(1 + e^-s), whose value e^s is finite: a bound, not an error.
        fd, p = functions.fermi_dirac(), DualPair([0.5], [-2000.0])
        b = fy_bound_dispatch(fd, None, p, 1.0, "legendre_self")
        assert b.z[0] == 0.0
        assert 0.0 <= b.value <= exact_fenchel_young(fd, p)

    def test_near_boundary_on_the_generic_route(self):
        # Kernel Boltzmann-Shannon over its own gradient takes the generic
        # solve; z = sqrt(x e^u*) = 1e-20 lies within BOUNDARY_TOL of 0.
        bs = functions.boltzmann_shannon()
        u = 2.0 * math.log(1e-20) - math.log(0.5)
        b = bound_bregman(bs, SubdifferentialOp(bs), DualPair([0.5], [u]), 1.0)
        assert b.method == "bregman" and b.z[0] == pytest.approx(1e-20, rel=1e-9)
        assert b.diagnostics["near_boundary"] is True
        assert b.diagnostics["residual"] <= 1e-12 * (1.0 + abs(u + math.log(0.5)))
        b = bound_bregman(bs, SubdifferentialOp(bs), DualPair([0.5], [0.0]), 1.0)
        assert b.diagnostics["near_boundary"] is False

    def test_crosscheck_reaches_a_closed_form_root_next_to_the_edge(self):
        # zeta = 7.1e-224: the generic solve reaches it through the chart
        # of (0, 1), and the residual at it is finite.
        b = bound_bregman(functions.fermi_dirac(),
                          SubdifferentialOp(functions.boltzmann_shannon()),
                          DualPair([1e-12], [-1000.0]), 1.0)
        assert b.method == "fermi_dirac_closed" and b.z[0] == pytest.approx(7.1e-224, rel=1e-2)
        assert b.diagnostics["solver_z_gap"] <= 1e-230
        assert b.diagnostics["residual"] <= 1e-12 * 1001.0
        assert b.diagnostics["near_boundary"] is True

    def test_residual_reported(self):
        burg = functions.burg()
        p = DualPair([1.0], [-0.5])
        b = fy_bound_dispatch(burg, burg, p, 1.0, "pairing")
        assert b.diagnostics["residual"] <= 1e-10


# The two closed-form Bregman routes: kernel, operator, the helper that
# forms the terms of the bound, and a point.
CLOSED_ROUTES = {
    "burg_closed": (functions.burg, functions.burg, "_burg_self_terms",
                    [2.5, 0.7], [-1.0, -0.3]),
    "fermi_dirac_closed": (functions.fermi_dirac, functions.boltzmann_shannon,
                           "_fermi_dirac_terms", [0.5, 0.2], [1.0, -2.0]),
}
CROSSCHECK_KEYS = ["solver_z_gap", "residual", "near_boundary"]


def _closed_bound(route, p=None):
    f, a, _, x, u = CLOSED_ROUTES[route]
    b = bound_bregman(f(2), SubdifferentialOp(a(2)), p or DualPair(x, u), 0.7)
    assert b.method == route
    return b


@pytest.mark.parametrize("route", sorted(CLOSED_ROUTES))
class TestDeferredCrosscheck:
    """A closed-form Bregman bound runs its generic cross-check once, on
    the first read of its diagnostics, and the read gives the dict the
    check gave when it ran with the bound."""

    @pytest.fixture
    def solves(self, monkeypatch):
        solves = []

        def counted(problem):
            solves.append(problem)
            return solve_resolvent(problem)

        monkeypatch.setattr(bounds, "solve_resolvent", counted)
        return solves

    def test_one_solve_on_the_first_read(self, route, solves):
        b = _closed_bound(route)
        assert solves == []
        diagnostics = b.diagnostics
        assert len(solves) == 1 and list(diagnostics) == CROSSCHECK_KEYS
        assert "residual" in b.diagnostics and b.diagnostics.get("solver_z_gap") <= 1e-10
        assert dict(b.diagnostics) == diagnostics
        json.dumps(b.diagnostics)
        assert b.diagnostics is diagnostics and len(solves) == 1

    def test_json_as_the_first_read(self, route):
        diagnostics = json.loads(json.dumps(_closed_bound(route).diagnostics))
        assert diagnostics == _closed_bound(route).diagnostics
        assert list(diagnostics) == CROSSCHECK_KEYS

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))])
    def test_copies_carry_every_key(self, route, clone, solves):
        b = clone(_closed_bound(route))
        assert len(solves) == 1
        assert list(b.diagnostics) == CROSSCHECK_KEYS
        assert b.diagnostics == _closed_bound(route).diagnostics
        assert "solver_z_gap" in repr(_closed_bound(route))

    def test_later_changes_to_the_inputs_leave_the_diagnostics(self, route):
        expected = _closed_bound(route).diagnostics
        p = DualPair(*CLOSED_ROUTES[route][3:])
        b = _closed_bound(route, p)
        p.x[0], p.u_star[0], b.z[0] = 0.1, -0.1, 0.3
        assert b.diagnostics == expected

    def test_clamped_from_stays_the_last_key(self, route, monkeypatch):
        # Terms of -1e-14 each: noise that the clamp takes to zero.
        name = CLOSED_ROUTES[route][2]
        terms_of = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda x, u, gamma: (
            np.full_like(x, -1e-14), terms_of(x, u, gamma)[1]))
        b = _closed_bound(route)
        assert b.value == 0.0
        assert list(b.diagnostics) == CROSSCHECK_KEYS + ["clamped_from"]


class TestCrosscheckSetUp:
    @pytest.mark.parametrize("x, u, value, error", [
        # grad f(x) + gamma*u* = -1e308 - 1e308 overflows.
        (1e-308, -1e308, 3.0814879110195774e-33, "ValueError: vector entries must be finite"),
        # grad f(x) = -1/x overflows.
        (1e-310, -1.0, 0.5, "DomainError: 1/t overflows a float at t = 1e-310"),
    ])
    def test_a_crosscheck_that_cannot_be_set_up_leaves_the_closed_form(self, x, u, value,
                                                                       error):
        burg = functions.burg()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = bound_bregman(burg, GradientOp(burg), DualPair([x], [u]), 1.0)
            diagnostics = b.diagnostics
        closed, z = burg_self_bound_closed([x], [u], 1.0)
        assert b.method == "burg_closed" and b.value == closed == value
        assert np.array_equal(b.z, z)
        assert diagnostics == {"crosscheck_error": error, "residual": math.inf,
                               "near_boundary": True}
        assert list(diagnostics) == ["crosscheck_error", "residual", "near_boundary"]

    def test_legendre_self_overflow_is_a_domain_error_alone(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                bound_legendre_self(functions.burg(), DualPair([1e-308], [-1e308]), 1.0)
