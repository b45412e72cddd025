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
from functools import cached_property, partial, reduce
from itertools import cycle
from types import SimpleNamespace

import numpy as np

from .core import INF, DomainError, as_vector
from .solvers import _prox_part, _prox_part_array, lambert_w_of_exp

# The ``near_boundary`` diagnostic flags an auxiliary point this close
# (times max(1, |end|)) to a finite end of an open domain, or outside it.
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


def _conjugate_forms(f, recip):
    """The formulas of the conjugate, over the backend of ``recip``:
    derivative and inverse swap places."""
    deriv2 = None
    if f.deriv2 is not None:
        deriv2 = lambda s: recip(f.deriv2(f.deriv_inv(s)))
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
            arrays=_conjugate_forms(self.arrays, _recip_array),
            **vars(_conjugate_forms(self, _recip)),
        )


@dataclass(frozen=True)
class SeparableTerms:
    """An operator that decouples coordinatewise, as whole-vector forms.

    ``value(z)`` and ``deriv(z)`` evaluate each coordinate's term and its
    derivative at the entries of z, which lie in the operator's
    ``domain()``; ``inverse(s)`` inverts ``value`` on the open intervals
    (inv_lo, inv_hi). ``deriv`` is None when a term has no derivative,
    and ``inverse`` with its intervals when a term has no closed-form
    inverse. ``term(i)`` is coordinate i as float callables: (value,
    derivative, inverse, inverse interval).
    """

    value: callable
    deriv: callable
    term: callable
    inverse: callable = None
    inv_lo: np.ndarray = None
    inv_hi: np.ndarray = None


def _check_dim(x, dim):
    """x as a vector, checked against the dimension of a function."""
    return _match_dim(as_vector(x), dim)


def _match_dim(x, dim):
    """The checked vector x, tested against the dimension of a function."""
    if x.shape[0] != dim:
        raise DomainError(
            f"point of dimension {x.shape[0]} for function of dimension {dim}"
        )
    return x


def _bounds(intervals):
    """Lower and upper ends of open intervals as two arrays."""
    ends = np.array(intervals, dtype=float)
    return ends[:, 0].copy(), ends[:, 1].copy()


class SeparableFunction:
    """Sum of scalar Legendre parts, one per coordinate.

    Coordinates that share one part object form a group: ``groups`` lists
    (part, coordinates) pairs, the coordinates a slice when one part
    covers them all. The gradient, its inverse and the interior test
    evaluate each group's array formulas on whole vectors. The public
    methods check their points; the underscore ones take checked vectors.
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
        names = {p.name for p, _ in self.groups}
        self.name = names.pop() if len(names) == 1 else "mixed"
        self.dom_lo, self.dom_hi = _bounds([p.dom for p in parts])
        self.conj_lo, self.conj_hi = _bounds([p.conj_dom for p in parts])
        # _near_boundary's distance from each end: BOUNDARY_TOL * max(1, |end|)
        # from a finite end, none from an infinite one.
        self._near_lo, self._near_hi = (
            np.where(np.isfinite(end), BOUNDARY_TOL * np.maximum(1.0, abs(end)), 0.0)
            for end in (self.dom_lo, self.dom_hi))

    def __call__(self, x):
        x = _check_dim(x, self.dim)
        return _part_sums(self.parts, ScalarLegendre.eval, x[None])[0]

    def conjugate_eval(self, u_star):
        u = _check_dim(u_star, self.dim)
        return _part_sums(self.parts, ScalarLegendre.eval_conj, u[None])[0]

    def _evaluate(self, form, z):
        """The array formula ``form`` (a field of ``ScalarLegendre.arrays``)
        of each part at its coordinates of z, a vector or a batch of row
        vectors."""
        out = np.empty_like(z)
        for part, coords in self.groups:
            out[..., coords] = getattr(part.arrays, form)(z[..., coords])
        return out

    def _inside(self, x):
        return bool(((self.dom_lo < x) & (x < self.dom_hi)).all())

    def _near_boundary(self, x):
        """Whether a coordinate of x is within BOUNDARY_TOL * max(1, |end|) of an end."""
        return not ((x - self.dom_lo > self._near_lo) & (self.dom_hi - x > self._near_hi)).all()

    @cached_property
    def _gradient_terms(self):
        """The gradient as a SeparableTerms record, built on first use and
        kept: the function does not change after __init__."""
        deriv2 = all(p.deriv2 is not None for p, _ in self.groups)
        return SeparableTerms(
            value=partial(self._evaluate, "deriv"),
            deriv=partial(self._evaluate, "deriv2") if deriv2 else None,
            term=lambda i: _part_term(self.parts[i]),
            inverse=partial(self._evaluate, "deriv_inv"),
            inv_lo=self.conj_lo,
            inv_hi=self.conj_hi,
        )

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
        return self._grad_conj_at(_check_dim(s, self.dim))

    def _grad_conj_at(self, s):
        outside = ~((self.conj_lo < s) & (s < self.conj_hi))
        if outside.any():
            i = int(np.argmax(outside))
            raise DomainError(f"{s[i]} outside the conjugate domain of {self.parts[i].name}")
        return self._evaluate("deriv_inv", s)

    def bregman(self, x, y):
        """D(x, y) = f(x) - f(y) - <x - y, grad f(y)>; +inf if y not interior."""
        x, y = _check_dim(x, self.dim), _check_dim(y, self.dim)
        return float(self._bregman_rows(x[None], y[None])[0])

    def _bregman_rows(self, X, Y):
        """bregman at each row of the checked (k, dim) arrays X and Y, as an
        array: +inf where the row of Y is not interior or f is +inf at X's."""
        fx = np.array(_part_sums(self.parts, ScalarLegendre.eval, X))
        inside = ((self.dom_lo < Y) & (Y < self.dom_hi)).all(axis=1) & (fx < INF)
        out = np.full(len(X), INF)
        Xi, Yi = X[inside], Y[inside]
        # Row i of the stacked product is np.dot(Xi[i] - Yi[i], grad f(Yi[i])).
        dots = np.matmul((Xi - Yi)[:, None, :], self._evaluate("deriv", Yi)[:, :, None])[:, 0, 0]
        out[inside] = fx[inside] - _part_sums(self.parts, ScalarLegendre.eval, Yi) - dots
        return out

    def fenchel_young(self, x, u_star):
        """phi(x) + phi*(u*) - <x, u*>, always >= 0."""
        x = _check_dim(x, self.dim)
        u = _check_dim(u_star, self.dim)
        return self._fenchel_young_rows(x[None], u[None])[0]

    def _fenchel_young_rows(self, X, U):
        """fenchel_young at each row of the checked (k, dim) arrays X and
        U, as a list of k floats. Each row is the extended-real sum of the
        parts' values plus that of their conjugate values, minus the row's
        dot product: +inf when either sum is."""
        fx = _part_sums(self.parts, ScalarLegendre.eval, X)
        fu = _part_sums(self.parts, ScalarLegendre.eval_conj, U)
        # Row i of the stacked product is np.dot(X[i], U[i]).
        dots = np.matmul(X[:, None, :], U[:, :, None])[:, 0, 0].tolist()
        return [INF if a == INF or b == INF else a + b - c
                for a, b, c in zip(fx, fu, dots)]

    def conjugate_function(self):
        conjugates = {id(p): p.conjugate() for p, _ in self.groups}
        return SeparableFunction([conjugates[id(p)] for p in self.parts])


def _part_term(p):
    return p.deriv, p.deriv2, p.deriv_inv, p.conj_dom


def _part_sums(parts, value, X):
    """The extended-real sum of value(p, t) over the parts p and entries t of
    each row of X, added left to right from 0.0, as a list of floats."""
    k, d = X.shape
    values = list(map(value, cycle(parts), X.ravel().tolist()))
    totals = [reduce(operator.add, values[i:i + d], 0.0) for i in range(0, k * d, d)]
    # +inf absorbs finite terms; a NaN or -inf term leaves a NaN or -inf total.
    if not all(t > -INF for t in totals):
        raise ValueError("NaN or -inf in extended-real sum")
    return totals


def _envelope(p, s):
    """inf_y p(y) + (s - y)^2 / 2 for one scalar part, through its prox."""
    y = _prox_part(p, 1.0, s)
    return p.eval(y) + 0.5 * (s - y) ** 2


def moreau_envelope(psi, x):
    """inf_y psi(y) + ||x - y||^2 / 2, summed over the parts of psi."""
    x = _check_dim(x, psi.dim)
    return _part_sums(psi.parts, _envelope, x[None])[0]


# --------------------------------------------------------------------------
# Catalog
# --------------------------------------------------------------------------

def _exp(s):
    """e^s, with overflow reported as a point outside the domain."""
    try:
        return math.exp(s)
    except OverflowError:
        raise DomainError(f"exp(s) overflows a float at s = {float(s)!r}") from None


# e^s is finite for every s up to this; only past it is overflow checked.
_EXP_SAFE = 709.0


def _exp_array(s):
    """_exp over an array."""
    if s.max(initial=-INF) > _EXP_SAFE:
        _exp(s.max())
    return np.exp(s)


# 1/t is finite for |t| from this on.
_RECIP_SAFE = 5.6e-309


def _recip(t):
    """1/t, with overflow reported as a point outside the domain."""
    if abs(t) < _RECIP_SAFE:
        raise DomainError(f"1/t overflows a float at t = {float(t)!r}")
    return 1.0 / t


def _recip_array(t):
    """_recip over an array; one element is checked as a float, which costs
    less than a numpy reduction."""
    if t.size == 1:
        _recip(t.item())
    elif not (t.min(initial=INF) >= _RECIP_SAFE or t.max(initial=-INF) <= -_RECIP_SAFE):
        _recip(t.flat[np.argmin(np.abs(t))])
    return 1.0 / t


def _logistic(s):
    """1/(1 + e^-s); where e^-s overflows, e^s, which equals it in floats."""
    try:
        return 1.0 / (1.0 + math.exp(-s))
    except OverflowError:
        return math.exp(s)


def _logistic_array(s):
    """_logistic over an array."""
    if s.min(initial=INF) >= -_EXP_SAFE:
        return 1.0 / (1.0 + np.exp(-s))
    with np.errstate(over="ignore"):
        e = np.exp(-s)
        return np.where(np.isinf(e), np.exp(s), 1.0 / (1.0 + e))


# The two backends a catalog formula is instantiated over. ``forms`` picks
# a part's formulas of the same backend.
_MATH = SimpleNamespace(
    log=math.log, sqrt=math.sqrt, exp=_exp, logistic=_logistic, recip=_recip,
    extent=lambda t: (t, t), where=lambda condition, a, b: a if condition else b,
    lambert_w_of_exp=lambert_w_of_exp, prox=_prox_part, forms=lambda p: p,
)
_NUMPY = SimpleNamespace(
    log=np.log, sqrt=np.sqrt, exp=_exp_array, logistic=_logistic_array, recip=_recip_array,
    extent=lambda t: (t.min(), t.max()), where=np.where,
    lambert_w_of_exp=_mapped(lambert_w_of_exp), prox=_prox_part_array, forms=lambda p: p.arrays,
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
        deriv=lambda t: -m.recip(t),
        deriv_inv=lambda s: m.recip(-s),
        deriv2=lambda t: m.recip(t * t),
        prox_fn=lambda t, gamma: _burg_prox(m, t, gamma),
    )


def _burg_prox(m, t, gamma):
    """The root z > 0 of z^2 - t z - gamma = 0: (t + sqrt(t^2 + 4 gamma))/2, or,
    below t = -1e3 sqrt(gamma), where that sum cancels, 2 gamma/(sqrt(...) - t)."""
    lo, hi = m.extent(t)
    if max(-lo, hi) > _SQUARE_SAFE:
        raise DomainError(f"t*t overflows a float at |t| = {float(max(-lo, hi))!r}")
    root = m.sqrt(t * t + 4.0 * gamma)
    cut = -1e3 * math.sqrt(gamma)
    if lo >= cut:
        return 0.5 * (t + root)
    return m.where(t < cut, 2.0 * gamma / (root + abs(t)), 0.5 * (t + root))


# t*t is finite for |t| up to this.
_SQUARE_SAFE = 1.34e154


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
        deriv2=m.recip,
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
        deriv2=lambda t: m.recip(t * (1.0 - t)),
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


# Built once: each catalog name is one part object, by which bounds choose closed forms.
_SCALAR_CATALOG = {
    "quadratic": _quadratic_scalar(),
    "burg": _burg_scalar(),
    "boltzmann_shannon": _boltzmann_shannon_scalar(),
    "fermi_dirac": _fermi_dirac_scalar(),
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
        return _SCALAR_CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown function name {name!r}") from None


def quadratic(dim=1):
    return from_name("quadratic", dim)


def burg(dim=1):
    return from_name("burg", dim)


def boltzmann_shannon(dim=1):
    return from_name("boltzmann_shannon", dim)


def fermi_dirac(dim=1):
    return from_name("fermi_dirac", dim)


def from_name(name, dim=1):
    """Resolve a catalog function by its CLI name.

    Supports "quadratic", "burg", "boltzmann_shannon", "fermi_dirac" and
    "quad_plus:<inner>" (||.||^2/2 plus the inner function).
    """
    return SeparableFunction(_scalar_from_name(name), dim)
