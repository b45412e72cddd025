import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haraux import functions, solvers
from haraux.core import INF, DomainError, pairing
from haraux.operators import GradientOp

# Interior sampling boxes for each catalog function and its conjugate.
BOXES = {
    "quadratic": ((-5.0, 5.0), (-5.0, 5.0)),
    "burg": ((0.05, 5.0), (-5.0, -0.05)),
    "boltzmann_shannon": ((0.05, 5.0), (-3.0, 3.0)),
    "fermi_dirac": ((0.01, 0.99), (-3.0, 3.0)),
}


@pytest.mark.parametrize("name", sorted(BOXES))
class TestCatalogScalar:
    def test_value_matches_direct_formula(self, name):
        f = functions.from_name(name)
        direct = {
            "quadratic": lambda t: 0.5 * t * t,
            "burg": lambda t: -math.log(t),
            "boltzmann_shannon": lambda t: t * math.log(t) - t,
            "fermi_dirac": lambda t: t * math.log(t) + (1 - t) * math.log(1 - t),
        }[name]
        for t in np.linspace(*BOXES[name][0], 17):
            assert f([t]) == pytest.approx(direct(t), abs=1e-14)

    def test_gradient_matches_finite_difference(self, name, rng):
        f = functions.from_name(name)
        lo, hi = BOXES[name][0]
        h = 1e-6
        for t in lo + (hi - lo) * rng.random(50):
            t = min(max(t, lo + 2 * h), hi - 2 * h)
            fd = (f([t + h]) - f([t - h])) / (2 * h)
            assert f.gradient([t])[0] == pytest.approx(fd, abs=1e-5)

    def test_deriv_inv_inverts_deriv(self, name, rng):
        p = functions.from_name(name).parts[0]
        lo, hi = BOXES[name][0]
        for t in lo + (hi - lo) * rng.random(50):
            assert p.deriv_inv(p.deriv(t)) == pytest.approx(t, rel=1e-10, abs=1e-10)

    def test_fenchel_young_nonnegative_and_zero_on_graph(self, name, rng):
        f = functions.from_name(name)
        (lo, hi), (clo, chi) = BOXES[name]
        for t in lo + (hi - lo) * rng.random(50):
            s = clo + (chi - clo) * rng.random()
            assert f.fenchel_young([t], [s]) >= -1e-12
            g = f.gradient([t])[0]
            assert abs(f.fenchel_young([t], [g])) <= 1e-10

    def test_conjugate_of_conjugate_is_original(self, name, rng):
        f = functions.from_name(name)
        ff = f.conjugate_function().conjugate_function()
        lo, hi = BOXES[name][0]
        for t in lo + (hi - lo) * rng.random(20):
            assert ff([t]) == pytest.approx(f([t]), rel=1e-12, abs=1e-12)

    def test_conjugate_matches_brute_force_sup(self, name):
        """phi*(s) = sup_t t*s - phi(t), checked against a dense grid."""
        f = functions.from_name(name)
        (lo, hi), (clo, chi) = BOXES[name]
        if name == "boltzmann_shannon":
            hi = 12.0  # the supremum over t sits at e^s, up to e^1.8
        grid = np.linspace(lo, hi, 20001)
        vals = np.array([f([t]) for t in grid])
        for s in np.linspace(clo + 0.2 * (chi - clo), chi - 0.2 * (chi - clo), 7):
            brute = float(np.max(grid * s - vals))
            exact = f.conjugate_eval([s])
            assert brute <= exact + 1e-12
            assert exact - brute <= 1e-4


class TestDomains:
    def test_value_is_inf_outside(self):
        burg = functions.burg()
        assert burg([-1.0]) == INF
        assert burg([0.0]) == INF  # no boundary value for -ln

    def test_boundary_values(self):
        bs = functions.boltzmann_shannon()
        assert bs([0.0]) == 0.0
        fd = functions.fermi_dirac()
        assert fd([0.0]) == 0.0 and fd([1.0]) == 0.0

    def test_gradient_outside_raises(self):
        with pytest.raises(DomainError):
            functions.burg().gradient([-1.0])

    def test_grad_conj_outside_conjugate_domain(self):
        with pytest.raises(DomainError):
            functions.burg().grad_conj([1.0])  # conj domain is (-inf, 0)

    def test_bregman_inf_when_base_not_interior(self):
        burg = functions.burg()
        assert burg.bregman([1.0], [-1.0]) == INF


class TestSeparable:
    def test_dim_broadcast(self):
        f = functions.quadratic(3)
        assert f.dim == 3
        assert f([1.0, 2.0, 3.0]) == pytest.approx(7.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            functions.quadratic(2)([1.0, 2.0, 3.0])

    def test_bregman_quadratic_is_half_squared_distance(self, rng):
        f = functions.quadratic(4)
        x, y = rng.normal(size=(2, 4))
        d = x - y
        assert f.bregman(x, y) == pytest.approx(0.5 * float(d @ d), abs=1e-12)

    def test_mixed_parts(self):
        f = functions.SeparableFunction(
            [functions._burg_scalar(), functions._quadratic_scalar()]
        )
        assert f.name == "mixed"
        assert f([1.0, 2.0]) == pytest.approx(2.0)

    @pytest.mark.parametrize("d", [4, 40])
    def test_mixed_parts_on_arrays(self, d, rng):
        # Interleaved parts form two groups; every array method must match
        # the parts coordinate by coordinate. At d = 40 the quadratic group
        # (30 coordinates) is above the size at which the prox runs on
        # arrays and the burg group (10) below it.
        burg, quad = functions._burg_scalar(), functions._quadratic_scalar()
        parts = [burg if i % 4 == 0 else quad for i in range(d)]
        f = functions.SeparableFunction(parts)
        assert len(f.groups) == 2
        x = rng.uniform(0.1, 3.0, d)
        s = -rng.uniform(0.1, 3.0, d)
        assert f.gradient(x).tolist() == [p.deriv(t) for p, t in zip(parts, x.tolist())]
        assert f.grad_conj(s).tolist() == [p.deriv_inv(v) for p, v in zip(parts, s.tolist())]
        assert f.in_interior(x) and not f.in_interior(np.where(np.arange(d) == 0, 0.0, x))
        z = solvers.prox(f, 0.5, s)
        np.testing.assert_allclose(z, [p.prox_fn(v, 0.5) for p, v in zip(parts, s.tolist())],
                                   rtol=1e-15)
        # Each group's size alone picks its path: the prox of a mixed
        # function is, bit for bit, the prox of each part on its coordinates.
        for p, coords in f.groups:
            alone = functions.SeparableFunction(p, len(coords))
            assert np.array_equal(z[coords], solvers.prox(alone, 0.5, s[coords]))

    def test_part_without_array_formulas(self, rng):
        # A hand-built part maps its float formulas over the elements.
        part = functions.ScalarLegendre(
            name="shifted_quadratic", dom=(-INF, INF), value=lambda t: 0.5 * (t - 1) ** 2,
            deriv=lambda t: t - 1.0, deriv_inv=lambda s: s + 1.0, conj_dom=(-INF, INF),
            conj_value=lambda s: 0.5 * s * s + s, deriv2=lambda t: 1.0,
        )
        f = functions.SeparableFunction(part, 40)
        x = rng.normal(size=40)
        np.testing.assert_array_equal(f.gradient(x), x - 1.0)
        np.testing.assert_array_equal(f.grad_conj(x), x + 1.0)
        X = rng.normal(size=(5, 40))
        np.testing.assert_array_equal(GradientOp(f).apply_rows(X), X - 1.0)
        # No closed-form prox: z + gamma (z - 1) = x, solved elementwise.
        np.testing.assert_allclose(solvers.prox(f, 2.0, x), (x + 2.0) / 3.0, atol=1e-11)


class TestFenchelYoungRows:
    """The per-row kernel behind ``fenchel_young`` and the exact column of
    the figure panels."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name, d", [(n, d) for n in [*sorted(BOXES), "quad_plus:burg"]
                                         for d in (1, 3)] + [("mixed", 3)])
    def test_rows_equal_the_one_pair_values_bit_for_bit(self, name, d):
        rng = np.random.default_rng(20251018)
        if name == "mixed":
            phi = functions.SeparableFunction(
                [functions.from_name(n).parts[0] for n in ("burg", "boltzmann_shannon",
                                                           "fermi_dirac")])
        else:
            phi = functions.from_name(name, d)
        boxes = [BOXES[p.name.removeprefix("quad_plus:")] for p in phi.parts]
        X = np.column_stack([rng.uniform(*box, 25) for box, _ in boxes])
        U = np.column_stack([rng.uniform(*box, 25) for _, box in boxes])
        rows = phi._fenchel_young_rows(X, U)
        # Each row is the definition: phi(x) + phi*(u*) - <x, u*>, each sum
        # an xadd over the parts in coordinate order.
        assert rows == [phi(x) + phi.conjugate_eval(u) - pairing(x, u) for x, u in zip(X, U)]
        assert rows == [phi.fenchel_young(x, u) for x, u in zip(X, U)]

    def test_a_row_outside_the_conjugate_domain_is_inf(self):
        burg = functions.burg()
        X = np.array([[1.0], [2.0], [0.5]])
        U = np.array([[-1.0], [0.5], [-3.0]])
        rows = burg._fenchel_young_rows(X, U)
        assert rows[1] == INF and math.isfinite(rows[0]) and math.isfinite(rows[2])
        assert rows == [burg.fenchel_young(x, u) for x, u in zip(X, U)]

    def test_a_row_outside_the_domain_is_inf(self):
        bs = functions.boltzmann_shannon(2)
        X = np.array([[1.0, 2.0], [1.0, -0.5]])
        U = np.zeros((2, 2))
        assert bs._fenchel_young_rows(X, U) == [bs.fenchel_young(X[0], U[0]), INF]

    def test_a_nan_value_is_an_error(self):
        # As in xadd, a NaN term is an error, also in a row whose conjugate
        # sum is +inf.
        part = functions.ScalarLegendre(
            name="nan_at_two", dom=(-INF, INF), value=lambda t: math.nan if t == 2.0 else t,
            deriv=lambda t: 1.0, deriv_inv=lambda s: 0.0, conj_dom=(0.5, 1.5),
            conj_value=lambda s: 0.0)
        phi = functions.SeparableFunction(part, 2)
        assert phi.fenchel_young([1.0, 3.0], [1.0, 1.0]) == 0.0
        with pytest.raises(ValueError, match="NaN"):
            phi._fenchel_young_rows(np.array([[1.0, 3.0], [3.0, 2.0]]), np.ones((2, 2)))
        with pytest.raises(ValueError, match="NaN"):
            phi.fenchel_young([3.0, 2.0], [2.0, 1.0])


class TestCompositeQuadPlus:
    def test_from_name(self):
        phi = functions.from_name("quad_plus:burg", 2)
        assert isinstance(phi, functions.SeparableFunction)
        assert phi.name == "quad_plus:burg" and phi.dim == 2

    def test_value_and_gradient(self):
        phi = functions.from_name("quad_plus:quadratic")
        assert phi([2.0]) == pytest.approx(4.0)  # t^2/2 + t^2/2
        assert phi.gradient([2.0])[0] == pytest.approx(4.0)

    def test_fenchel_young_closed_form(self, rng):
        # phi = t^2 has conjugate s^2/4, so L = (2x - u)^2 / 4.
        phi = functions.from_name("quad_plus:quadratic")
        for _ in range(20):
            x, u = rng.uniform(-5, 5, size=2)
            assert phi.fenchel_young([x], [u]) == pytest.approx(
                (2 * x - u) ** 2 / 4.0, abs=1e-12
            )

    def test_grad_conj_is_prox_of_inner(self, rng):
        phi = functions.from_name("quad_plus:burg")
        for s in rng.uniform(-3, 3, size=10):
            z = phi.grad_conj([s])[0]
            # prox of -ln with step 1: z + (-1/z) = s.
            assert z - 1.0 / z == pytest.approx(s, abs=1e-10)

    def test_fenchel_young_nonnegative_zero_on_graph(self, rng):
        phi = functions.from_name("quad_plus:burg")
        for t in rng.uniform(0.1, 3.0, size=20):
            g = phi.gradient([t])
            assert abs(phi.fenchel_young([t], g)) <= 1e-10
            assert phi.fenchel_young([t], g + 0.5) >= -1e-12


class TestMoreauEnvelope:
    def test_quadratic_closed_form(self, rng):
        # env of t^2/2 with unit step is t^2/4.
        q = functions.quadratic(1)
        for t in rng.uniform(-4, 4, size=10):
            assert functions.moreau_envelope(q, [t]) == pytest.approx(
                t * t / 4.0, abs=1e-12
            )

    def test_below_function(self, rng):
        bs = functions.boltzmann_shannon()
        for t in rng.uniform(0.1, 4.0, size=10):
            assert functions.moreau_envelope(bs, [t]) <= bs([t]) + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    t=st.floats(0.02, 0.98),
    s=st.floats(-3.0, 3.0),
)
def test_fermi_dirac_young_inequality(t, s):
    fd = functions.fermi_dirac()
    assert fd([t]) + fd.conjugate_eval([s]) >= t * s - 1e-12
