"""Monotone operator representations: gradients, affine, diagonal and skew
maps, the R^2 rotation-plus-gradient example, and uniform-monotonicity
moduli."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import INF, DomainError, as_vector
from .functions import _EXP_SAFE, ScalarLegendre, SeparableFunction, SeparableTerms
from .solvers import _interval_chart


@lru_cache(maxsize=64)
def _whole_space(dim):
    """The ends (lo, hi) of R^dim as an open box: read-only arrays, one pair per dim."""
    box = np.full(dim, -INF), np.full(dim, INF)
    for end in box:
        end.flags.writeable = False
    return box


@dataclass(frozen=True)
class UniformModulus:
    """Modulus phi with phi(0)=0 bounding the graph pairing from below.

    kind is "strong" (phi(t) = alpha t^2), "power" (alpha t^p) or
    "custom" (explicit increasing map).
    """

    kind: str
    alpha: float = None
    p: float = None
    fn: callable = None

    def __call__(self, t):
        if t < 0:
            raise ValueError("modulus argument must be >= 0")
        if self.kind == "strong":
            return self.alpha * t * t
        if self.kind == "power":
            return self.alpha * t**self.p
        if self.kind == "custom":
            return float(self.fn(t))
        raise ValueError(f"unknown modulus kind {self.kind!r}")


def strong(alpha):
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return UniformModulus(kind="strong", alpha=alpha)


def power(alpha, p):
    if alpha <= 0 or p <= 1:
        raise ValueError("need alpha > 0 and p > 1")
    return UniformModulus(kind="power", alpha=alpha, p=p)


def custom_modulus(fn):
    if abs(fn(0.0)) > 0:
        raise ValueError("modulus must vanish at 0")
    return UniformModulus(kind="custom", fn=fn)


def _rows(Y, dim):
    """Y as a (k, dim) float array of finite entries, one point per row."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"expected a (k, {dim}) batch of points, got shape {Y.shape}")
    if Y.shape[1] != dim:
        raise DomainError(f"points of dimension {Y.shape[1]} for an operator on R^{dim}")
    if not np.isfinite(Y).all():
        raise ValueError("vector entries must be finite")
    return Y


class MonotoneOperator:
    """Base class of the operator protocol, which the solvers, bounds,
    gauges and oracle read without knowing the concrete class:

    - ``apply(x)``: a single-valued selection at x, which subclasses
      implement; ``apply_rows(Y)`` applies it to each row of a
      (k, dim_in) batch. The base class loops over the rows, and the
      operators the graph oracle samples (``GradientOp``, ``Joca16Op``)
      evaluate the batch in one array expression. ``_apply(x)`` is
      ``apply`` at a checked vector of R^dim_in, without the checks.
    - ``dim_in``: the dimension N of the space the operator acts on.
    - ``separable_terms()``: a SeparableTerms record when the operator
      decouples coordinatewise, else None.
    - ``as_affine()``: (M, b) when the operator is affine, else None.
    - ``domain()``: the open box (lo, hi) of the operator's domain, two
      arrays of N extended-real ends; R^N by default.
    - ``jacobian(z)``: the N x N Jacobian at z, or None when the operator
      gives none; by default the matrix of ``as_affine()``.
    - ``f``: the separable function the operator is the gradient of, or
      None.
    - ``modulus``: None, but the unit strong modulus that ``identity()`` sets.
    """

    dim_in = None
    modulus = None
    f = None

    def apply(self, x):
        raise NotImplementedError

    def _apply(self, x):
        return self.apply(x)

    def apply_rows(self, Y):
        """Row i of the result is apply(Y[i])."""
        Y = _rows(Y, self.dim_in)
        out = np.empty_like(Y)
        for i, y in enumerate(Y):
            out[i] = self._apply(y)
        return out

    def separable_terms(self):
        """A SeparableTerms record, or None when the operator does not
        decouple coordinatewise."""
        return None

    def as_affine(self):
        """(M, b) with apply(x) = M x + b, or None when not affine."""
        return None

    def domain(self):
        """(lo, hi): the domain is the open box of the intervals (lo[i], hi[i]).

        The arrays may be the operator's own; callers do not write to them."""
        return _whole_space(self.dim_in)

    def jacobian(self, z):
        """The Jacobian at z, or None when the operator gives none."""
        affine = self.as_affine()
        return None if affine is None else affine[0]


def _linear_terms(m, c):
    """The coordinatewise map z -> m*z + c."""

    def term(i):
        mi, ci = float(m[i]), float(c[i])
        return lambda z: mi * z + ci, lambda z: mi, None, None

    return SeparableTerms(value=lambda z: m * z + c, deriv=lambda z: m, term=term)


class GradientOp(MonotoneOperator):
    """Gradient of a separable function, single-valued on the interior.

    A subdifferential of a catalog function is this same operator, its
    smooth-interior selection; ``SubdifferentialOp`` names it."""

    def __init__(self, f):
        if not isinstance(f, SeparableFunction):
            raise TypeError("GradientOp requires a SeparableFunction")
        self.f = f
        self.dim_in = f.dim

    def apply(self, x):
        return self.f.gradient(x)

    def _apply(self, x):
        return self.f._gradient_at(x)

    def apply_rows(self, Y):
        return self.f._gradient_at(_rows(Y, self.dim_in))

    def separable_terms(self):
        # One record per function: every GradientOp(f) shares f's.
        return self.f._gradient_terms

    def domain(self):
        return self.f.dom_lo, self.f.dom_hi

    def jacobian(self, z):
        deriv2 = self.f._gradient_terms.deriv
        return None if deriv2 is None else np.diag(deriv2(z))


SubdifferentialOp = GradientOp


class AffineOp(MonotoneOperator):
    """x -> M x + b with positive-semidefinite symmetric part."""

    def __init__(self, M, b=None):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        if not np.isfinite(M).all():
            raise ValueError("AffineOp matrix entries must be finite")
        if M.shape[0] != M.shape[1]:
            raise ValueError("AffineOp matrix must be square")
        if b is None:
            b = np.zeros(M.shape[0])
        b = as_vector(b)
        if b.shape[0] != M.shape[0]:
            raise ValueError("offset dimension does not match matrix")
        sym = 0.5 * (M + M.T)
        lam_min = float(np.linalg.eigvalsh(sym)[0])
        if lam_min < -1e-10:
            raise ValueError(
                f"symmetric part has negative eigenvalue {lam_min:.3e}; "
                "not a monotone map"
            )
        self.M = M
        self.b = b
        self.dim_in = M.shape[0]

    def apply(self, x):
        x = as_vector(x)
        if x.shape[0] != self.dim_in:
            raise DomainError("dimension mismatch in affine operator")
        return self.M @ x + self.b

    @property
    def is_diagonal(self):
        return np.count_nonzero(self.M - np.diag(np.diagonal(self.M))) == 0

    def separable_terms(self):
        if not self.is_diagonal:
            return None
        return _linear_terms(np.diagonal(self.M), self.b)

    def as_affine(self):
        return self.M, self.b


class DiagonalOp(MonotoneOperator):
    """x -> d * x + b with a nonnegative diagonal d, stored as vectors.

    Monotone by construction once d >= 0, which is checked in O(dim)."""

    def __init__(self, d, b=None):
        d = as_vector(d)
        b = np.zeros(d.shape[0]) if b is None else as_vector(b)
        if b.shape[0] != d.shape[0]:
            raise ValueError("offset dimension does not match diagonal")
        d_min = float(d.min())
        if d_min < -1e-10:
            raise ValueError(
                f"diagonal has negative entry {d_min:.3e}; not a monotone map"
            )
        self.d = d
        self.b = b
        self.dim_in = d.shape[0]
        self._terms = _linear_terms(d, b)

    def apply(self, x):
        x = as_vector(x)
        if x.shape[0] != self.dim_in:
            raise DomainError("dimension mismatch in diagonal operator")
        return self._apply(x)

    def _apply(self, x):
        return self.d * x + self.b

    def separable_terms(self):
        return self._terms

    def as_affine(self):
        return np.diag(self.d), self.b


@lru_cache(maxsize=64)
def identity(dim):
    """The identity on R^dim with the unit strong modulus: one shared
    operator per dim, whose d and b are read-only."""
    op = DiagonalOp(np.ones(dim))
    op.modulus = strong(1.0)
    op.d.flags.writeable = op.b.flags.writeable = False
    return op


class Joca16Op(MonotoneOperator):
    """The maximally monotone R^2 operator that is not a subdifferential:

        (t1, t2) -> (beta*t1 - psi'(t1) - t2, t1 + beta*t2 - psi'(t2))

    for a Legendre psi with a beta-Lipschitz derivative, checked on 201
    points of the domain taken through its chart (evenly spaced in the
    chart coordinate t, |t| <= 709), so log-spaced toward a finite end,
    where a barrier's psi'' grows without bound.
    """

    def __init__(self, beta, psi):
        if not 0 < beta < INF:
            raise ValueError(f"beta must be positive and finite, got {beta!r}")
        if not isinstance(psi, ScalarLegendre):
            raise TypeError("psi must be a ScalarLegendre")
        lo, hi = psi.dom
        c, _, _, t_lo, t_hi = _interval_chart(float(lo), float(hi), arrays=True)
        grid = c(np.linspace(max(t_lo, -_EXP_SAFE), min(t_hi, _EXP_SAFE), 201))
        d = psi.arrays.deriv(grid)
        with np.errstate(over="ignore"):
            slopes = np.abs(np.diff(d) / np.diff(grid))
        if slopes.max() > beta + 1e-8:
            raise ValueError(
                f"psi' exceeds the Lipschitz constant beta={beta} on its domain"
            )
        self.beta = beta
        self.psi = psi
        self.dim_in = 2
        self._box = np.full(2, lo), np.full(2, hi)

    def apply(self, x):
        x = as_vector(x)
        if x.shape[0] != 2:
            raise DomainError("this operator acts on R^2")
        self._check_domain(x)
        return np.array(self._map(x[0], x[1], self.psi.deriv))

    def apply_rows(self, Y):
        Y = _rows(Y, self.dim_in)
        self._check_domain(Y)
        return np.column_stack(self._map(Y[:, 0], Y[:, 1], self.psi.arrays.deriv))

    def domain(self):
        return self._box

    def jacobian(self, z):
        if self.psi.deriv2 is None:
            return None
        return np.array([
            [self.beta - self.psi.deriv2(z[0]), -1.0],
            [1.0, self.beta - self.psi.deriv2(z[1])],
        ])

    def _check_domain(self, x):
        lo, hi = self.psi.dom
        if not ((lo < x) & (x < hi)).all():
            raise DomainError(f"a coordinate lies outside the domain {self.psi.dom} of psi")

    def _map(self, t1, t2, deriv):
        """The two components at coordinates t1, t2 (floats or columns),
        with deriv the matching form of psi'."""
        return self.beta * t1 - deriv(t1) - t2, t1 + self.beta * t2 - deriv(t2)


class SkewPDOp(MonotoneOperator):
    """Primal-dual coupling (x, y*) -> (L^T y*, -L x); skew, hence monotone."""

    def __init__(self, L):
        L = np.atleast_2d(np.asarray(L, dtype=float))
        if not np.isfinite(L).all():
            raise ValueError("SkewPDOp matrix entries must be finite")
        self.L = L
        self.m, self.n = L.shape
        self.dim_in = self.n + self.m

    def apply(self, x):
        x = as_vector(x)
        if x.shape[0] != self.dim_in:
            raise DomainError("dimension mismatch in skew operator")
        xp, ys = x[: self.n], x[self.n :]
        return np.concatenate([self.L.T @ ys, -self.L @ xp])

    def as_affine(self):
        M = np.zeros((self.dim_in, self.dim_in))
        M[: self.n, self.n :] = self.L.T
        M[self.n :, : self.n] = -self.L
        return M, np.zeros(self.dim_in)


def monotonicity_probe(op, box, n=200, seed=0, modulus=None):
    """Empirical check of the graph pairing <x - y, Ax - Ay> >= 0.

    Samples n random pairs inside box (a list of (lo, hi) intervals) and
    reports the minimum pairing, plus the minimum slack against a claimed
    modulus when one is given. Report only; never raises.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != op.dim_in:
        raise ValueError("box dimension does not match the operator")
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    modulus = modulus if modulus is not None else op.modulus

    # Pair k is rows (k, 0) and (k, 1): the draws of alternating
    # rng.random(dim) calls, x then y.
    pairs = lo + (hi - lo) * rng.random((n, 2, op.dim_in))
    x, y = pairs[:, 0], pairs[:, 1]
    diff = x - y
    gaps = np.einsum("kj,kj->k", diff, op.apply_rows(x) - op.apply_rows(y))
    report = {"n": n, "min_pairing": float(np.min(gaps, initial=np.inf))}
    if modulus is not None:
        phis = np.array([modulus(float(np.linalg.norm(d))) for d in diff])
        report["min_modulus_slack"] = float(np.min(gaps - phis, initial=np.inf))
    return report
