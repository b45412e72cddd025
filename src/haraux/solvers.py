"""Root-finding machinery for resolvents (W + gamma*A)^{-1}, proximity
operators, Bregman proxes, the Lambert W function and warped resolvents.

Scalar inclusions are solved by guaranteed sign-change bracketing followed
by a safeguarded Newton/bisection loop; strict monotonicity of W + gamma*A
makes the bracketing sound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, as_vector
from .functions import CompositeQuadPlus, SeparableFunction
from .operators import GradientOp, Joca16Op, MonotoneOperator, SubdifferentialOp

# Open domains are shrunk by this much before bracketing, so the solver
# never evaluates a barrier at (or across) its singularity.
_SHRINK = 1e-13
# Absolute residual tolerance, scaled by 1 + |right-hand side|.
_ATOL = 1e-12
# Iteration budget of the bracket search and of the Newton loops.
_MAX_ITER = 200
# Geometric growth of the bracket search steps.
_BRACKET_EXPAND = 2.0


class NoSolutionError(RuntimeError):
    """No sign change found inside the admissible domain."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the residual tolerance."""


class UnsupportedOperatorError(TypeError):
    """The operator pair is outside the structural classes handled here."""


@dataclass(frozen=True)
class ResolventProblem:
    W: MonotoneOperator
    A: MonotoneOperator
    gamma: float
    rhs: np.ndarray

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        object.__setattr__(self, "rhs", as_vector(self.rhs))
        if self.W.dim_in != self.A.dim_in or self.rhs.shape[0] != self.W.dim_in:
            raise ValueError("dimensions of W, A and rhs must agree")


def _shrunk(interval):
    lo, hi = interval
    lo_eff = lo + _SHRINK * max(1.0, abs(lo)) if np.isfinite(lo) else lo
    hi_eff = hi - _SHRINK * max(1.0, abs(hi)) if np.isfinite(hi) else hi
    return lo_eff, hi_eff


def solve_scalar_increasing(g, dg, interval, target, tol, x0=None):
    """Root of the strictly increasing g(z) = target on an open interval.

    Brackets by geometric expansion from x0, then runs bisection refined
    by Newton steps whenever the derivative is available and the step
    stays inside the bracket.
    """
    lo, hi = _shrunk(interval)
    if x0 is None:
        if np.isfinite(lo) and np.isfinite(hi):
            x0 = 0.5 * (lo + hi)
        elif np.isfinite(lo):
            x0 = lo + max(1.0, abs(lo))
        elif np.isfinite(hi):
            x0 = hi - max(1.0, abs(hi))
        else:
            x0 = 0.0
    x0 = min(max(x0, lo), hi)

    f0 = g(x0) - target
    if abs(f0) <= tol:
        return x0

    if f0 > 0:
        # Root lies to the left.
        b, fb = x0, f0
        a = None
        step = max(1.0, abs(x0))
        for k in range(_MAX_ITER):
            if np.isfinite(lo):
                cand = lo + (x0 - lo) / _BRACKET_EXPAND ** (k + 1)
            else:
                cand = x0 - step * _BRACKET_EXPAND**k
            fc = g(cand) - target
            if fc <= 0:
                a, fa = cand, fc
                break
            b, fb = cand, fc
        if a is None:
            raise NoSolutionError("no sign change found toward the lower boundary")
    else:
        a, fa = x0, f0
        b = None
        step = max(1.0, abs(x0))
        for k in range(_MAX_ITER):
            if np.isfinite(hi):
                cand = hi - (hi - x0) / _BRACKET_EXPAND ** (k + 1)
            else:
                cand = x0 + step * _BRACKET_EXPAND**k
            fc = g(cand) - target
            if fc >= 0:
                b, fb = cand, fc
                break
            a, fa = cand, fc
        if b is None:
            raise NoSolutionError("no sign change found toward the upper boundary")

    if abs(fa) <= tol:
        return a
    if abs(fb) <= tol:
        return b

    # Safeguarded Newton within the bracket [a, b], fa < 0 < fb.
    x, fx = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    for _ in range(_MAX_ITER):
        took_newton = False
        if dg is not None:
            slope = dg(x)
            if slope > 0:
                cand = x - fx / slope
                if a < cand < b:
                    x_new = cand
                    took_newton = True
        if not took_newton:
            x_new = 0.5 * (a + b)
        fx_new = g(x_new) - target
        if abs(fx_new) <= tol:
            return x_new
        if fx_new < 0:
            a, fa = x_new, fx_new
        else:
            b, fb = x_new, fx_new
        x, fx = x_new, fx_new
        if b - a <= 1e-16 * max(1.0, abs(x)):
            if abs(fx) <= tol:
                return x
            raise ConvergenceError(
                f"bracket collapsed with residual {abs(fx):.3e} > tol {tol:.3e}"
            )
    raise ConvergenceError("iteration budget exhausted in scalar solve")


def _intersect(ivl1, ivl2):
    lo = max(ivl1[0], ivl2[0])
    hi = min(ivl1[1], ivl2[1])
    if lo >= hi:
        raise NoSolutionError("operator domains have empty intersection")
    return lo, hi


def solve_resolvent(problem):
    """Solve W(z) + gamma*A(z) = rhs for the catalog operator classes.

    Affine pairs reduce to a linear system; separable pairs decouple into
    scalar monotone equations; the R^2 rotation example is handled by
    damped Newton. The output is re-verified by substitution against the
    residual contract.
    """
    W, A, gamma, rhs = problem.W, problem.A, problem.gamma, problem.rhs
    tol = _ATOL * (1.0 + float(np.max(np.abs(rhs))))

    # A is asked first so a diagonal W builds no dense matrix when A is
    # not affine.
    a_aff = A.as_affine()
    w_aff = W.as_affine() if a_aff is not None else None
    if w_aff is not None:
        (Mw, bw), (Ma, ba) = w_aff, a_aff
        z = np.linalg.solve(Mw + gamma * Ma, rhs - bw - gamma * ba)
    elif isinstance(A, Joca16Op):
        z = _solve_joca16(W, A, gamma, rhs, tol)
    else:
        wt = W.separable_terms()
        at = A.separable_terms()
        if wt is None or at is None:
            raise UnsupportedOperatorError(
                f"no resolvent route for {type(W).__name__} + {type(A).__name__}"
            )
        z = np.empty_like(rhs)
        for i, ((w, dw, wiv, w_inv, w_inv_dom), (a, da, aiv, _, _)) in enumerate(
            zip(wt, at)
        ):
            interval = _intersect(wiv, aiv)
            g = lambda t, w=w, a=a: w(t) + gamma * a(t)
            dg = None
            if dw is not None and da is not None:
                dg = lambda t, dw=dw, da=da: dw(t) + gamma * da(t)
            x0 = _initial_guess(w_inv, w_inv_dom, rhs[i], gamma, interval)
            z[i] = solve_scalar_increasing(g, dg, interval, rhs[i], tol, x0=x0)

    res = resolvent_residual(W, A, gamma, z, rhs)
    if res > tol:
        raise ConvergenceError(
            f"post-hoc residual {res:.3e} exceeds tolerance {tol:.3e}"
        )
    return z


def _initial_guess(inverse, inverse_dom, r, gamma, interval):
    """Domain-interior start: the kernel term's inverse at r/(1+gamma),
    when the term has one."""
    if inverse is None:
        return None
    s = r / (1.0 + gamma)
    lo, hi = inverse_dom
    if lo < s < hi:
        cand = inverse(s)
        lo_eff, hi_eff = _shrunk(interval)
        if lo_eff < cand < hi_eff:
            return cand
    return None


def _solve_joca16(W, A, gamma, rhs, tol):
    beta, psi = A.beta, A.psi

    # The kernel Jacobian is its matrix when W is affine, else the
    # diagonal of its terms' second derivatives.
    w_aff = W.as_affine()
    if w_aff is None:
        w_terms = W.separable_terms()
        if w_terms is None:
            raise UnsupportedOperatorError("unsupported kernel for the R^2 example")
        w_d2 = [term[1] for term in w_terms]
        if any(d is None for d in w_d2):
            raise UnsupportedOperatorError("kernel parts need second derivatives")
    if psi.deriv2 is None:
        raise UnsupportedOperatorError("psi needs a second derivative")

    def F(z):
        return W.apply(z) + gamma * A.apply(z) - rhs

    def J(z):
        JA = np.array(
            [
                [beta - psi.deriv2(z[0]), -1.0],
                [1.0, beta - psi.deriv2(z[1])],
            ]
        )
        if w_aff is not None:
            JW = w_aff[0]
        else:
            JW = np.diag([d(t) for d, t in zip(w_d2, z)])
        return JW + gamma * JA

    # Damped Newton from a domain-interior start.
    lo, hi = _shrunk(psi.dom)
    z = np.array([min(max(0.0, lo + 1e-3), hi - 1e-3)] * 2) if np.isfinite(lo) and np.isfinite(hi) else np.zeros(2)
    fz = F(z)
    for _ in range(_MAX_ITER):
        if float(np.max(np.abs(fz))) <= tol:
            return z
        step = np.linalg.solve(J(z), fz)
        t = 1.0
        while t > 1e-12:
            z_new = z - t * step
            if (not np.isfinite(lo) or np.all(z_new > lo)) and (
                not np.isfinite(hi) or np.all(z_new < hi)
            ):
                fz_new = F(z_new)
                if np.linalg.norm(fz_new) < np.linalg.norm(fz):
                    z, fz = z_new, fz_new
                    break
            t *= 0.5
        else:
            raise ConvergenceError("damped Newton stalled on the R^2 example")
    raise ConvergenceError("iteration budget exhausted on the R^2 example")


def resolvent_residual(W, A, gamma, z, rhs):
    """Infinity-norm residual of W(z) + gamma*A(z) = rhs."""
    return float(np.max(np.abs(W.apply(z) + gamma * A.apply(z) - as_vector(rhs))))


def prox(phi, gamma, x):
    """(Id + gamma * d phi)^{-1} x, coordinatewise.

    Uses catalog closed forms when the scalar part carries one, and the
    generic monotone solve otherwise. CompositeQuadPlus reduces to a
    rescaled prox of its inner function.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = as_vector(x)
    if isinstance(phi, CompositeQuadPlus):
        return prox(phi.psi, gamma / (1.0 + gamma), x / (1.0 + gamma))
    if not isinstance(phi, SeparableFunction):
        raise TypeError("prox requires a SeparableFunction or CompositeQuadPlus")
    if x.shape[0] != phi.dim:
        raise DomainError("dimension mismatch in prox")

    tol = _ATOL * (1.0 + float(np.max(np.abs(x))))
    out = np.empty_like(x)
    for i, (p, xi) in enumerate(zip(phi.parts, x)):
        if p.prox_fn is not None:
            out[i] = p.prox_fn(xi, gamma)
        else:
            g = lambda t, p=p: t + gamma * p.deriv(t)
            dg = None
            if p.deriv2 is not None:
                dg = lambda t, p=p: 1.0 + gamma * p.deriv2(t)
            out[i] = solve_scalar_increasing(g, dg, p.dom, xi, tol)
    return out


def bregman_prox(f, phi, gamma, s):
    """Solve grad f(z) + gamma * grad phi(z) = s coordinatewise.

    The start point is deriv_inv(s_i/(1+gamma)) of the kernel part when
    that lands inside the domain, else the domain midpoint; an interior
    start is mandatory for log-type barriers.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    s = as_vector(s)
    if not isinstance(f, SeparableFunction) or not isinstance(phi, SeparableFunction):
        raise TypeError("bregman_prox requires separable functions")
    if f.dim != phi.dim or s.shape[0] != f.dim:
        raise DomainError("dimension mismatch in bregman_prox")

    problem = ResolventProblem(GradientOp(f), SubdifferentialOp(phi), gamma, s)
    return solve_resolvent(problem)


def lambert_w(t):
    """Principal-branch Lambert W for t >= 0, by Halley iteration.

    Satisfies |W(t) e^{W(t)} - t| <= 1e-13 * (1 + t).
    """
    t = float(t)
    if t < 0:
        raise DomainError("lambert_w requires t >= 0")
    if t == 0:
        return 0.0
    w = math.log1p(t)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - t
        if abs(f) <= 1e-14 * (1.0 + t):
            return w
        w1 = w + 1.0
        # Halley update.
        w -= f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
    if abs(w * math.exp(w) - t) <= 1e-13 * (1.0 + t):
        return w
    raise ConvergenceError(f"Lambert W did not converge for t={t!r}")


def lambert_w_of_exp(a):
    """W(e^a) computed without overflowing for large a.

    For large a this solves w + ln w = a by Newton from a - ln a.
    """
    a = float(a)
    if a < 100.0:
        return lambert_w(math.exp(a))
    w = a - math.log(a)
    for _ in range(100):
        f = w + math.log(w) - a
        if abs(f) <= 1e-15 * (1.0 + abs(a)):
            return w
        w -= f / (1.0 + 1.0 / w)
    return w


def warped_resolvent(W, A, B, gamma, x):
    """(W + gamma*A)^{-1}(W(x) - gamma*B(x)).

    Fixed points are exactly the zeros of A + B inside dom W.
    """
    x = as_vector(x)
    rhs = W.apply(x) - gamma * B.apply(x)
    return solve_resolvent(ResolventProblem(W, A, gamma, rhs))
