"""Catalog of closed-form convex Legendre functions.

Each scalar building block carries its value, derivative, inverse
derivative and conjugate in closed form, so that separable functions on
R^N evaluate coordinatewise without any numerical conjugation.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import INF, DomainError, as_vector, pairing, xadd

# A point this close to an open domain boundary is treated as outside for
# gradient/Bregman purposes; avoids catastrophic log/division blowup.
BOUNDARY_TOL = 1e-14


@dataclass(frozen=True)
class ScalarLegendre:
    """A 1-D Legendre function given by closed forms.

    ``dom`` and ``conj_dom`` are open intervals (a, b) with extended-real
    endpoints. ``deriv`` must be strictly increasing on ``dom`` and
    ``deriv_inv`` inverts it on its range. ``boundary_values`` optionally
    supplies finite values on the closed hull of ``dom``. ``prox_fn``,
    when present, is a closed form for (Id + gamma * deriv)^{-1}.
    """

    name: str
    dom: tuple
    value: callable
    deriv: callable
    deriv_inv: callable
    conj_dom: tuple
    conj_value: callable
    deriv2: callable = None
    boundary_values: dict = field(default_factory=dict)
    prox_fn: callable = None

    def eval(self, t):
        """Value on the closed hull of dom; +inf outside."""
        lo, hi = self.dom
        if t < lo or t > hi:
            return INF
        if t == lo or t == hi:
            if t in self.boundary_values:
                return self.boundary_values[t]
            return INF
        return float(self.value(t))

    def eval_conj(self, s):
        lo, hi = self.conj_dom
        if not lo < s < hi:
            return INF
        return float(self.conj_value(s))

    def in_interior(self, t):
        lo, hi = self.dom
        if not lo < t < hi:
            return False
        if np.isfinite(lo) and t - lo <= BOUNDARY_TOL * max(1.0, abs(lo)):
            return False
        if np.isfinite(hi) and hi - t <= BOUNDARY_TOL * max(1.0, abs(hi)):
            return False
        return True

    def conjugate(self):
        """The conjugate as a ScalarLegendre (swaps the two closed forms)."""
        deriv2_conj = None
        if self.deriv2 is not None:
            deriv2_conj = lambda s: 1.0 / self.deriv2(self.deriv_inv(s))
        return ScalarLegendre(
            name=self.name + "*",
            dom=self.conj_dom,
            value=self.conj_value,
            deriv=self.deriv_inv,
            deriv_inv=self.deriv,
            conj_dom=self.dom,
            conj_value=self.value,
            deriv2=deriv2_conj,
        )


def _check_dim(x, dim):
    """x as a vector, checked against the dimension of a function."""
    x = as_vector(x)
    if x.shape[0] != dim:
        raise DomainError(
            f"point of dimension {x.shape[0]} for function of dimension {dim}"
        )
    return x


class SeparableFunction:
    """Sum of scalar Legendre parts, one per coordinate."""

    def __init__(self, parts, dim=None):
        if isinstance(parts, ScalarLegendre):
            if dim is None:
                dim = 1
            parts = [parts] * dim
        parts = list(parts)
        if dim is not None and len(parts) != dim:
            raise ValueError("number of parts does not match dim")
        if not parts:
            raise ValueError("at least one part is required")
        self.parts = parts
        self.dim = len(parts)

    @property
    def name(self):
        names = {p.name for p in self.parts}
        return names.pop() if len(names) == 1 else "mixed"

    def __call__(self, x):
        x = _check_dim(x, self.dim)
        return xadd(*(p.eval(t) for p, t in zip(self.parts, x)))

    def conjugate_eval(self, u_star):
        u = _check_dim(u_star, self.dim)
        return xadd(*(p.eval_conj(s) for p, s in zip(self.parts, u)))

    def in_interior(self, x):
        x = _check_dim(x, self.dim)
        return all(p.in_interior(t) for p, t in zip(self.parts, x))

    def gradient(self, x):
        x = _check_dim(x, self.dim)
        if not self.in_interior(x):
            raise DomainError("gradient requires a point strictly inside the domain")
        return np.array([p.deriv(t) for p, t in zip(self.parts, x)])

    def grad_conj(self, s):
        """Inverse gradient (gradient of the conjugate), coordinatewise."""
        s = _check_dim(s, self.dim)
        for p, si in zip(self.parts, s):
            lo, hi = p.conj_dom
            if not lo < si < hi:
                raise DomainError(f"{si} outside the conjugate domain of {p.name}")
        return np.array([p.deriv_inv(si) for p, si in zip(self.parts, s)])

    def bregman(self, x, y):
        """D(x, y) = f(x) - f(y) - <x - y, grad f(y)>; +inf if y not interior."""
        x = _check_dim(x, self.dim)
        y = _check_dim(y, self.dim)
        if not self.in_interior(y):
            return INF
        fx = self(x)
        if fx == INF:
            return INF
        fy = self(y)
        return fx - fy - pairing(x - y, self.gradient(y))

    def fenchel_young(self, x, u_star):
        """phi(x) + phi*(u*) - <x, u*>, always >= 0."""
        x = _check_dim(x, self.dim)
        u = _check_dim(u_star, self.dim)
        fx = self(x)
        fu = self.conjugate_eval(u)
        if fx == INF or fu == INF:
            return INF
        return fx + fu - pairing(x, u)

    def conjugate_function(self):
        return SeparableFunction([p.conjugate() for p in self.parts])


class CompositeQuadPlus:
    """phi = ||.||^2/2 + psi for a separable Legendre psi.

    The conjugate is ||.||^2/2 minus the Moreau envelope of psi, and the
    gradient of the conjugate is prox_psi.
    """

    def __init__(self, psi):
        if not isinstance(psi, SeparableFunction):
            raise TypeError("psi must be a SeparableFunction")
        self.psi = psi
        self.dim = psi.dim

    @property
    def name(self):
        return f"quad_plus:{self.psi.name}"

    def __call__(self, x):
        x = _check_dim(x, self.dim)
        return xadd(float(np.dot(x, x)) / 2.0, self.psi(x))

    def in_interior(self, x):
        return self.psi.in_interior(x)

    def gradient(self, x):
        x = _check_dim(x, self.dim)
        return x + self.psi.gradient(x)

    def grad_conj(self, s):
        from .solvers import prox

        return prox(self.psi, 1.0, _check_dim(s, self.dim))

    def conjugate_eval(self, u_star):
        u = _check_dim(u_star, self.dim)
        return float(np.dot(u, u)) / 2.0 - moreau_envelope(self.psi, u)

    def fenchel_young(self, x, u_star):
        x = _check_dim(x, self.dim)
        u = _check_dim(u_star, self.dim)
        px = self.psi(x)
        if px == INF:
            return INF
        d = x - u
        return float(np.dot(d, d)) / 2.0 + px - moreau_envelope(self.psi, u)


def moreau_envelope(psi, x):
    """inf_y psi(y) + ||x - y||^2 / 2, evaluated through prox_psi."""
    from .solvers import prox

    x = as_vector(x)
    p = prox(psi, 1.0, x)
    d = x - p
    return psi(p) + float(np.dot(d, d)) / 2.0


# --------------------------------------------------------------------------
# Catalog
# --------------------------------------------------------------------------

def _quadratic_scalar():
    return ScalarLegendre(
        name="quadratic",
        dom=(-INF, INF),
        value=lambda t: 0.5 * t * t,
        deriv=lambda t: t,
        deriv_inv=lambda s: s,
        conj_dom=(-INF, INF),
        conj_value=lambda s: 0.5 * s * s,
        deriv2=lambda t: 1.0,
        prox_fn=lambda t, gamma: t / (1.0 + gamma),
    )


def _burg_scalar():
    # -ln t on (0, inf); conjugate -1 - ln(-s) on (-inf, 0).
    return ScalarLegendre(
        name="burg",
        dom=(0.0, INF),
        value=lambda t: -math.log(t),
        deriv=lambda t: -1.0 / t,
        deriv_inv=lambda s: -1.0 / s,
        conj_dom=(-INF, 0.0),
        conj_value=lambda s: -1.0 - math.log(-s),
        deriv2=lambda t: 1.0 / (t * t),
        prox_fn=lambda t, gamma: 0.5 * (t + math.sqrt(t * t + 4.0 * gamma)),
    )


def _boltzmann_shannon_prox(t, gamma):
    # Solve z + gamma*ln z = t, i.e. z = gamma * W(exp(t/gamma)/gamma).
    from .solvers import lambert_w_of_exp

    return gamma * lambert_w_of_exp(t / gamma - math.log(gamma))


def _exp(s):
    """e^s, with overflow reported as a point outside the domain."""
    try:
        return math.exp(s)
    except OverflowError:
        raise DomainError(f"exp(s) overflows a float at s = {float(s)!r}") from None


def _boltzmann_shannon_scalar():
    # t ln t - t on (0, inf), value 0 at t = 0; conjugate exp(s) on R.
    return ScalarLegendre(
        name="boltzmann_shannon",
        dom=(0.0, INF),
        value=lambda t: t * math.log(t) - t,
        deriv=lambda t: math.log(t),
        deriv_inv=_exp,
        conj_dom=(-INF, INF),
        conj_value=_exp,
        deriv2=lambda t: 1.0 / t,
        boundary_values={0.0: 0.0},
        prox_fn=_boltzmann_shannon_prox,
    )


def _fermi_dirac_scalar():
    # t ln t + (1-t) ln(1-t) on (0, 1), value 0 at both endpoints;
    # conjugate ln(1 + exp(s)) on R.
    def _conj(s):
        # Overflow-safe log(1 + e^s).
        if s > 30:
            return s + math.log1p(math.exp(-s))
        return math.log1p(math.exp(s))

    return ScalarLegendre(
        name="fermi_dirac",
        dom=(0.0, 1.0),
        value=lambda t: t * math.log(t) + (1.0 - t) * math.log(1.0 - t),
        deriv=lambda t: math.log(t) - math.log(1.0 - t),
        deriv_inv=lambda s: 1.0 / (1.0 + math.exp(-s)),
        conj_dom=(-INF, INF),
        conj_value=_conj,
        deriv2=lambda t: 1.0 / (t * (1.0 - t)),
        boundary_values={0.0: 0.0, 1.0: 0.0},
    )


_SCALAR_CATALOG = {
    "quadratic": _quadratic_scalar,
    "burg": _burg_scalar,
    "boltzmann_shannon": _boltzmann_shannon_scalar,
    "fermi_dirac": _fermi_dirac_scalar,
}


def quadratic(dim=1):
    return SeparableFunction(_quadratic_scalar(), dim)


def burg(dim=1):
    return SeparableFunction(_burg_scalar(), dim)


def boltzmann_shannon(dim=1):
    return SeparableFunction(_boltzmann_shannon_scalar(), dim)


def fermi_dirac(dim=1):
    return SeparableFunction(_fermi_dirac_scalar(), dim)


def from_name(name, dim=1):
    """Resolve a catalog function by its CLI name.

    Supports "quadratic", "burg", "boltzmann_shannon", "fermi_dirac" and
    "quad_plus:<inner>".
    """
    if name.startswith("quad_plus:"):
        inner = from_name(name.split(":", 1)[1], dim)
        if not isinstance(inner, SeparableFunction):
            raise ValueError("quad_plus requires a separable inner function")
        return CompositeQuadPlus(inner)
    try:
        scalar = _SCALAR_CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown function name {name!r}") from None
    return SeparableFunction(scalar(), dim)
