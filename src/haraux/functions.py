"""Catalog of closed-form convex Legendre functions.

Each scalar building block carries its value, derivative, inverse
derivative and conjugate in closed form, so that separable functions on
R^N evaluate coordinatewise without any numerical conjugation. The
derivative formulas of a catalog entry are written once and instantiated
twice: over ``math`` for floats and over numpy for arrays, so a separable
function evaluates them on whole vectors. The composite t^2/2 + psi(t)
takes its inverse derivative and conjugate from the prox of psi.
"""

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import cycle
from types import SimpleNamespace

import numpy as np

from .core import INF, DomainError, as_vector, pairing, xadd

# A point this close to an open domain boundary is treated as outside for
# gradient/Bregman purposes; avoids catastrophic log/division blowup.
BOUNDARY_TOL = 1e-14


@dataclass(frozen=True)
class _Forms:
    """The derivative formulas of one scalar part over one backend."""

    deriv: callable
    deriv_inv: callable
    deriv2: callable = None
    prox_fn: callable = None


def _mapped(fn):
    """A float formula applied to each element of an array."""
    if fn is None:
        return None
    return lambda t, *args: np.array(
        [fn(ti, *args) for ti in t.ravel().tolist()], dtype=float).reshape(t.shape)


def _conjugate_forms(f):
    """The formulas of the conjugate: derivative and inverse swap places."""
    deriv2 = None
    if f.deriv2 is not None:
        deriv2 = lambda s: 1.0 / f.deriv2(f.deriv_inv(s))
    return _Forms(deriv=f.deriv_inv, deriv_inv=f.deriv, deriv2=deriv2)


@dataclass(frozen=True)
class ScalarLegendre:
    """A 1-D Legendre function given by closed forms.

    ``dom`` and ``conj_dom`` are open intervals (a, b) with extended-real
    endpoints. ``deriv`` must be strictly increasing on ``dom`` and
    ``deriv_inv`` inverts it on its range. ``boundary_values`` optionally
    supplies finite values on the closed hull of ``dom``. ``prox_fn``,
    when present, evaluates (Id + gamma * deriv)^{-1}; without it the
    prox is a generic scalar solve. These formulas take floats;
    ``arrays`` holds the same ones over numpy arrays (by default the
    float formulas mapped over the elements).
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
    arrays: _Forms = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.arrays is None:
            object.__setattr__(self, "arrays", _Forms(
                deriv=_mapped(self.deriv),
                deriv_inv=_mapped(self.deriv_inv),
                deriv2=_mapped(self.deriv2),
                prox_fn=_mapped(self.prox_fn),
            ))

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

    def conjugate(self):
        """The conjugate as a ScalarLegendre (swaps the two closed forms)."""
        return ScalarLegendre(
            name=self.name + "*",
            dom=self.conj_dom,
            value=self.conj_value,
            conj_dom=self.dom,
            conj_value=self.value,
            arrays=_conjugate_forms(self.arrays),
            **vars(_conjugate_forms(self)),
        )


def _check_dim(x, dim):
    """x as a vector, checked against the dimension of a function."""
    x = as_vector(x)
    if x.shape[0] != dim:
        raise DomainError(
            f"point of dimension {x.shape[0]} for function of dimension {dim}"
        )
    return x


def _bounds(intervals):
    """Lower and upper ends of open intervals as two arrays."""
    ends = np.array(intervals, dtype=float)
    return ends[:, 0].copy(), ends[:, 1].copy()


def _boundary_tol(end):
    """The boundary tolerance at each finite end; 0 at an infinite one."""
    return np.where(np.isfinite(end), BOUNDARY_TOL * np.maximum(1.0, np.abs(end)), 0.0)


class SeparableFunction:
    """Sum of scalar Legendre parts, one per coordinate.

    Coordinates that share one part object form a group: ``groups`` lists
    (part, coordinates) pairs, the coordinates a slice when one part
    covers them all. The gradient, its inverse and the interior test
    evaluate each group's array formulas on whole vectors.
    """

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
        first = parts[0]
        if all(p is first for p in parts):
            self.groups = [(first, slice(None))]
        else:
            unique = list({id(p): p for p in parts}.values())
            number = {id(p): k for k, p in enumerate(unique)}
            group_id = np.array([number[id(p)] for p in parts])
            self.groups = [(p, np.flatnonzero(group_id == k))
                           for k, p in enumerate(unique)]
        self.dom_lo, self.dom_hi = _bounds([p.dom for p in parts])
        self.conj_lo, self.conj_hi = _bounds([p.conj_dom for p in parts])
        self._lo_tol = _boundary_tol(self.dom_lo)
        self._hi_tol = _boundary_tol(self.dom_hi)

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

    def _evaluate(self, form, z):
        """The array formula ``form`` (a field of ``ScalarLegendre.arrays``)
        of each part at its coordinates of z, a vector or a batch of row
        vectors."""
        out = np.empty_like(z)
        for part, coords in self.groups:
            out[..., coords] = getattr(part.arrays, form)(z[..., coords])
        return out

    def _inside(self, x):
        # Strictly inside, and farther than BOUNDARY_TOL * max(1, |end|)
        # from each finite end; t - lo > tol implies lo < t, and hi - t > tol
        # implies t < hi.
        return bool(((x - self.dom_lo > self._lo_tol)
                     & (self.dom_hi - x > self._hi_tol)).all())

    def in_interior(self, x):
        return self._inside(_check_dim(x, self.dim))

    def gradient(self, x):
        return self._gradient_at(_check_dim(x, self.dim))

    def _gradient_at(self, x):
        """The gradient at a checked vector, or at each row of a checked
        batch; one interior test covers the whole batch."""
        if not self._inside(x):
            raise DomainError("gradient requires a point strictly inside the domain")
        return self._evaluate("deriv", x)

    def grad_conj(self, s):
        """Inverse gradient (gradient of the conjugate), coordinatewise."""
        s = _check_dim(s, self.dim)
        outside = ~((self.conj_lo < s) & (s < self.conj_hi))
        if outside.any():
            i = int(np.argmax(outside))
            raise DomainError(f"{s[i]} outside the conjugate domain of {self.parts[i].name}")
        return self._evaluate("deriv_inv", s)

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
        return self._fenchel_young_rows(x[None], u[None])[0]

    def _fenchel_young_rows(self, X, U):
        """fenchel_young at each row of the checked (k, dim) arrays X and
        U, as a list of k floats. Each row is the xadd of the parts' values
        plus the xadd of their conjugate values, minus the row's dot
        product: +inf when either sum is."""
        fx = _part_sums(self.parts, "eval", X)
        fu = _part_sums(self.parts, "eval_conj", U)
        # Row i of the stacked product is np.dot(X[i], U[i]).
        dots = np.matmul(X[:, None, :], U[:, :, None])[:, 0, 0].tolist()
        return [INF if a == INF or b == INF else a + b - c
                for a, b, c in zip(fx, fu, dots)]

    def conjugate_function(self):
        conjugates = {id(p): p.conjugate() for p, _ in self.groups}
        return SeparableFunction([conjugates[id(p)] for p in self.parts])


def _part_sums(parts, method, X):
    """xadd(*(getattr(p, method)(t) for p, t in zip(parts, row))) for each
    row of X: the same additions in the same order."""
    k, d = X.shape
    values = list(map(getattr(ScalarLegendre, method), cycle(parts), X.ravel().tolist()))
    totals = [reduce(operator.add, values[i:i + d], 0.0) for i in range(0, k * d, d)]
    # +inf absorbs finite terms; a NaN or -inf term leaves a NaN or -inf total.
    if not all(t > -INF for t in totals):
        raise ValueError("NaN or -inf in extended-real sum")
    return totals


def _envelope(p, s):
    """inf_y p(y) + (s - y)^2 / 2 for one scalar part, through its prox."""
    from .solvers import _prox_part

    y = _prox_part(p, 1.0, s)
    return p.eval(y) + 0.5 * (s - y) ** 2


def moreau_envelope(psi, x):
    """inf_y psi(y) + ||x - y||^2 / 2, summed over the parts of psi."""
    x = _check_dim(x, psi.dim)
    return xadd(*(_envelope(p, s) for p, s in zip(psi.parts, x)))


# --------------------------------------------------------------------------
# Catalog
# --------------------------------------------------------------------------

def _exp(s):
    """e^s, with overflow reported as a point outside the domain."""
    try:
        return math.exp(s)
    except OverflowError:
        raise DomainError(f"exp(s) overflows a float at s = {float(s)!r}") from None


# e^s is finite for every s up to this; the array forms check for
# overflow only past it.
_EXP_SAFE = 709.0


def _exp_array(s):
    """_exp over an array."""
    if s.max() <= _EXP_SAFE:
        return np.exp(s)
    with np.errstate(over="ignore"):
        e = np.exp(s)
    overflow = np.isinf(e)
    if overflow.any():
        raise DomainError(
            f"exp(s) overflows a float at s = {float(s[np.argmax(overflow)])!r}"
        )
    return e


def _logistic(s):
    """1/(1 + e^-s); where e^-s overflows, e^s, which equals it in floats."""
    try:
        return 1.0 / (1.0 + math.exp(-s))
    except OverflowError:
        return math.exp(s)


def _logistic_array(s):
    """_logistic over an array."""
    if s.min() >= -_EXP_SAFE:
        return 1.0 / (1.0 + np.exp(-s))
    with np.errstate(over="ignore"):
        e = np.exp(-s)
        return np.where(np.isinf(e), np.exp(s), 1.0 / (1.0 + e))


def _lambert_w_of_exp(a):
    from .solvers import lambert_w_of_exp

    return lambert_w_of_exp(a)


def _lambert_w_of_exp_array(a):
    from .solvers import lambert_w_of_exp

    return _mapped(lambert_w_of_exp)(a)


def _prox_float(p, gamma, t):
    from .solvers import _prox_part

    return _prox_part(p, gamma, t)


def _prox_array(p, gamma, t):
    from .solvers import _prox_part_array

    return _prox_part_array(p, gamma, t)


# The two backends a catalog formula is instantiated over. ``forms`` picks
# a part's formulas of the same backend.
_MATH = SimpleNamespace(
    log=math.log, sqrt=math.sqrt, exp=_exp, logistic=_logistic,
    lambert_w_of_exp=_lambert_w_of_exp, prox=_prox_float, forms=lambda p: p,
)
_NUMPY = SimpleNamespace(
    log=np.log, sqrt=np.sqrt, exp=_exp_array, logistic=_logistic_array,
    lambert_w_of_exp=_lambert_w_of_exp_array, prox=_prox_array,
    forms=lambda p: p.arrays,
)


def _catalog_part(forms, **fields):
    """A ScalarLegendre whose derivative formulas ``forms(m)`` are
    instantiated over math for floats and over numpy for arrays."""
    return ScalarLegendre(**fields, **vars(forms(_MATH)), arrays=forms(_NUMPY))


def _quadratic_forms(m):
    return _Forms(
        deriv=lambda t: t,
        deriv_inv=lambda s: s,
        deriv2=lambda t: 1.0,
        prox_fn=lambda t, gamma: t / (1.0 + gamma),
    )


def _quadratic_scalar():
    return _catalog_part(
        _quadratic_forms,
        name="quadratic",
        dom=(-INF, INF),
        value=lambda t: 0.5 * t * t,
        conj_dom=(-INF, INF),
        conj_value=lambda s: 0.5 * s * s,
    )


def _burg_forms(m):
    return _Forms(
        deriv=lambda t: -1.0 / t,
        deriv_inv=lambda s: -1.0 / s,
        deriv2=lambda t: 1.0 / (t * t),
        prox_fn=lambda t, gamma: 0.5 * (t + m.sqrt(t * t + 4.0 * gamma)),
    )


def _burg_scalar():
    # -ln t on (0, inf); conjugate -1 - ln(-s) on (-inf, 0).
    return _catalog_part(
        _burg_forms,
        name="burg",
        dom=(0.0, INF),
        value=lambda t: -math.log(t),
        conj_dom=(-INF, 0.0),
        conj_value=lambda s: -1.0 - math.log(-s),
    )


def _boltzmann_shannon_forms(m):
    # The prox solves z + gamma*ln z = t, i.e. z = gamma * W(exp(t/gamma)/gamma).
    return _Forms(
        deriv=m.log,
        deriv_inv=m.exp,
        deriv2=lambda t: 1.0 / t,
        prox_fn=lambda t, gamma: gamma * m.lambert_w_of_exp(t / gamma - m.log(gamma)),
    )


def _boltzmann_shannon_scalar():
    # t ln t - t on (0, inf), value 0 at t = 0; conjugate exp(s) on R.
    return _catalog_part(
        _boltzmann_shannon_forms,
        name="boltzmann_shannon",
        dom=(0.0, INF),
        value=lambda t: t * math.log(t) - t,
        conj_dom=(-INF, INF),
        conj_value=_exp,
        boundary_values={0.0: 0.0},
    )


def _fermi_dirac_forms(m):
    return _Forms(
        deriv=lambda t: m.log(t) - m.log(1.0 - t),
        deriv_inv=m.logistic,
        deriv2=lambda t: 1.0 / (t * (1.0 - t)),
    )


def _fermi_dirac_scalar():
    # t ln t + (1-t) ln(1-t) on (0, 1), value 0 at both endpoints;
    # conjugate ln(1 + exp(s)) on R.
    def _conj(s):
        # Overflow-safe log(1 + e^s).
        if s > 30:
            return s + math.log1p(math.exp(-s))
        return math.log1p(math.exp(s))

    return _catalog_part(
        _fermi_dirac_forms,
        name="fermi_dirac",
        dom=(0.0, 1.0),
        value=lambda t: t * math.log(t) + (1.0 - t) * math.log(1.0 - t),
        conj_dom=(-INF, INF),
        conj_value=_conj,
        boundary_values={0.0: 0.0, 1.0: 0.0},
    )


_SCALAR_CATALOG = {
    "quadratic": _quadratic_scalar,
    "burg": _burg_scalar,
    "boltzmann_shannon": _boltzmann_shannon_scalar,
    "fermi_dirac": _fermi_dirac_scalar,
}


def _quad_plus_forms(m, psi):
    f = m.forms(psi)
    return _Forms(
        deriv=lambda t: t + f.deriv(t),
        deriv_inv=lambda s: m.prox(psi, 1.0, s),
        deriv2=lambda t: 1.0 + f.deriv2(t),
        prox_fn=lambda t, gamma: m.prox(psi, gamma / (1.0 + gamma), t / (1.0 + gamma)),
    )


def _quad_plus_scalar(psi):
    """t^2/2 + psi(t) on the domain of psi. Its inverse derivative is
    prox_psi, its conjugate s^2/2 minus the Moreau envelope of psi, and its
    prox with step gamma is prox_{gamma/(1+gamma) psi}(t/(1+gamma))."""
    return _catalog_part(
        lambda m: _quad_plus_forms(m, psi),
        name="quad_plus:" + psi.name,
        dom=psi.dom,
        value=lambda t: 0.5 * t * t + psi.value(t),
        conj_dom=(-INF, INF),
        conj_value=lambda s: 0.5 * s * s - _envelope(psi, s),
        boundary_values={t: 0.5 * t * t + v for t, v in psi.boundary_values.items()},
    )


def _scalar_from_name(name):
    if name.startswith("quad_plus:"):
        return _quad_plus_scalar(_scalar_from_name(name.split(":", 1)[1]))
    try:
        scalar = _SCALAR_CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown function name {name!r}") from None
    return scalar()


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
    "quad_plus:<inner>" (||.||^2/2 plus the inner function).
    """
    return SeparableFunction(_scalar_from_name(name), dim)
