"""Monotone operator representations: gradients, affine, diagonal and skew
maps, the R^2 rotation-plus-gradient example, and uniform-monotonicity
moduli."""

from dataclasses import dataclass

import numpy as np

from .core import INF, DomainError, as_vector, pairing
from .functions import ScalarLegendre, SeparableFunction


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


class MonotoneOperator:
    """Base class; subclasses implement apply(x) as a single-valued selection.

    Two optional structure queries let the solvers pick a route without
    knowing the concrete class: ``separable_terms()`` for operators that
    decouple coordinatewise and ``as_affine()`` for affine maps.
    """

    dim_in = None
    dim_out = None
    modulus = None

    def apply(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.apply(x)

    def separable_terms(self):
        """Per-coordinate (value, derivative, open interval, inverse,
        inverse interval) tuples, or None when the operator does not
        decouple coordinatewise. The inverse and its open interval are
        None when the term carries no closed-form inverse."""
        return None

    def as_affine(self):
        """(M, b) with apply(x) = M x + b, or None when not affine."""
        return None


def _linear_terms(diag, offset):
    """Scalar terms of the coordinatewise map z -> m*z + c."""
    return [
        (lambda z, m=m, c=c: m * z + c, lambda z, m=m: m, (-INF, INF),
         None, None)
        for m, c in zip(diag.tolist(), offset.tolist())
    ]


class GradientOp(MonotoneOperator):
    """Gradient of a separable function, single-valued on the interior."""

    tag = "grad"

    def __init__(self, f, modulus=None):
        if not isinstance(f, SeparableFunction):
            raise TypeError("GradientOp requires a SeparableFunction")
        self.f = f
        self.dim_in = self.dim_out = f.dim
        self.modulus = modulus

    def apply(self, x):
        return self.f.gradient(x)

    def separable_terms(self):
        return [
            (p.deriv, p.deriv2, p.dom, p.deriv_inv, p.conj_dom) for p in self.f.parts
        ]


class SubdifferentialOp(GradientOp):
    """Subdifferential exposed through its smooth-interior selection."""

    tag = "subdiff"


class AffineOp(MonotoneOperator):
    """x -> M x + b with positive-semidefinite symmetric part."""

    tag = "affine"

    def __init__(self, M, b=None, modulus=None, check=True):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        if M.shape[0] != M.shape[1]:
            raise ValueError("AffineOp matrix must be square")
        if b is None:
            b = np.zeros(M.shape[0])
        b = as_vector(b)
        if b.shape[0] != M.shape[0]:
            raise ValueError("offset dimension does not match matrix")
        if check:
            sym = 0.5 * (M + M.T)
            lam_min = float(np.linalg.eigvalsh(sym)[0])
            if lam_min < -1e-10:
                raise ValueError(
                    f"symmetric part has negative eigenvalue {lam_min:.3e}; "
                    "not a monotone map"
                )
        self.M = M
        self.b = b
        self.dim_in = self.dim_out = M.shape[0]
        self.modulus = modulus

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

    tag = "diagonal"

    def __init__(self, d, b=None, modulus=None):
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
        self.dim_in = self.dim_out = d.shape[0]
        self.modulus = modulus

    def apply(self, x):
        x = as_vector(x)
        if x.shape[0] != self.dim_in:
            raise DomainError("dimension mismatch in diagonal operator")
        return self.d * x + self.b

    def separable_terms(self):
        return _linear_terms(self.d, self.b)

    def as_affine(self):
        return np.diag(self.d), self.b


def identity(dim):
    return DiagonalOp(np.ones(dim), modulus=strong(1.0))


class Joca16Op(MonotoneOperator):
    """The maximally monotone R^2 operator that is not a subdifferential:

        (t1, t2) -> (beta*t1 - psi'(t1) - t2, t1 + beta*t2 - psi'(t2))

    for a Legendre psi with a beta-Lipschitz derivative, checked on 200
    interior grid points of the domain (clipped to [-10, 10]).
    """

    tag = "joca16"

    def __init__(self, beta, psi):
        if beta <= 0:
            raise ValueError("beta must be positive")
        if not isinstance(psi, ScalarLegendre):
            raise TypeError("psi must be a ScalarLegendre")
        lo, hi = psi.dom
        a = lo if np.isfinite(lo) else -10.0
        b = hi if np.isfinite(hi) else 10.0
        grid = np.linspace(a, b, 202)[1:-1]
        d = np.array([psi.deriv(t) for t in grid])
        slopes = np.abs(np.diff(d) / np.diff(grid))
        if slopes.max() > beta + 1e-8:
            raise ValueError(
                f"psi' exceeds the Lipschitz constant beta={beta} on the grid"
            )
        self.beta = beta
        self.psi = psi
        self.dim_in = self.dim_out = 2

    def apply(self, x):
        x = as_vector(x)
        if x.shape[0] != 2:
            raise DomainError("this operator acts on R^2")
        t1, t2 = x
        d1 = self.psi.deriv(t1)
        d2 = self.psi.deriv(t2)
        return np.array(
            [self.beta * t1 - d1 - t2, t1 + self.beta * t2 - d2]
        )


class SkewPDOp(MonotoneOperator):
    """Primal-dual coupling (x, y*) -> (L^T y*, -L x); skew, hence monotone."""

    tag = "skew"

    def __init__(self, L):
        L = np.atleast_2d(np.asarray(L, dtype=float))
        self.L = L
        self.m, self.n = L.shape
        self.dim_in = self.dim_out = self.n + self.m

    def apply(self, x):
        x = as_vector(x)
        if x.shape[0] != self.dim_in:
            raise DomainError("dimension mismatch in skew operator")
        xp, ys = x[: self.n], x[self.n :]
        return np.concatenate([self.L.T @ ys, -self.L @ xp])


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

    min_pairing = np.inf
    min_modulus_slack = np.inf
    for _ in range(n):
        x = lo + (hi - lo) * rng.random(op.dim_in)
        y = lo + (hi - lo) * rng.random(op.dim_in)
        gap = pairing(x - y, op.apply(x) - op.apply(y))
        min_pairing = min(min_pairing, gap)
        if modulus is not None:
            min_modulus_slack = min(
                min_modulus_slack, gap - modulus(float(np.linalg.norm(x - y)))
            )
    report = {"n": n, "min_pairing": float(min_pairing)}
    if modulus is not None:
        report["min_modulus_slack"] = float(min_modulus_slack)
    return report
