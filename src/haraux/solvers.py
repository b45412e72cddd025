"""Root-finding machinery for resolvents (W + gamma*A)^{-1}, proximity
operators, Bregman proxes, the Lambert W function and warped resolvents.

solve_resolvent reads only the operator protocol of MonotoneOperator and
takes the first route that fits the pair (W, A), on the intersection of
their domains:

1. both affine: one linear solve;
2. both separable: scalar monotone equations, one per coordinate;
3. otherwise, when both operators give Jacobians (a non-diagonal affine
   kernel, a gradient with second derivatives, the R^2 rotation example):
   damped Newton on W.jacobian + gamma*A.jacobian.

Scalar inclusions are solved by guaranteed sign-change bracketing followed
by a safeguarded Newton/bisection loop; strict monotonicity of W + gamma*A
makes the bracketing sound. Separable problems with at least
_ELEMENTWISE_MIN_DIM coordinates run that algorithm on all coordinates at
once over arrays; smaller ones run it coordinate by coordinate, which
costs less there.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DomainError, as_vector
from .operators import GradientOp, MonotoneOperator

# Open domains are shrunk by this much before bracketing, so the solver
# never evaluates a barrier at (or across) its singularity.
_SHRINK = 1e-13
# Absolute residual tolerance, scaled by 1 + |right-hand side|.
_ATOL = 1e-12
# Iteration budget of the bracket search and of the Newton loops.
_MAX_ITER = 200
# Geometric growth of the bracket search steps.
_BRACKET_EXPAND = 2.0
# Separable solves with at least this many coordinates run elementwise;
# the crossover of the two paths measured in BENCH_layers.json.
_ELEMENTWISE_MIN_DIM = 24


class NoSolutionError(RuntimeError):
    """No sign change found inside the admissible domain."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the residual tolerance."""


class UnsupportedOperatorError(TypeError):
    """The operator pair is outside the structural classes handled here."""


@dataclass(frozen=True)
class ResolventProblem:
    """The equation W(z) + gamma*A(z) = rhs. solve_resolvent records the
    infinity-norm residual of the solution it returns in ``residuals``, one
    entry per block of coordinates."""

    W: MonotoneOperator
    A: MonotoneOperator
    gamma: float
    rhs: np.ndarray
    residuals: np.ndarray = field(default=None, init=False, compare=False, repr=False)
    # The coordinates form this many equal blocks, each solved and checked
    # against the tolerance of its own block of rhs.
    rows = 1

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        # Checked also where the library forms rhs: a sum can overflow.
        object.__setattr__(self, "rhs", as_vector(self.rhs))
        if self.W.dim_in != self.A.dim_in or self.rhs.shape[0] != self.W.dim_in:
            raise ValueError("dimensions of W, A and rhs must agree")


@dataclass(frozen=True)
class _StackedProblem(ResolventProblem):
    """``rows`` resolvent problems of one dimension stacked as one: each
    block of coordinates is solved as if alone."""

    rows: int


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


# Failure codes of the elementwise solver, in the order of its steps.
_NO_ROOT_BELOW, _NO_ROOT_ABOVE, _COLLAPSED, _BUDGET = 1, 2, 3, 4


def _shrunk_arrays(lo, hi, n):
    lo = np.array(np.broadcast_to(lo, (n,)), dtype=float)
    hi = np.array(np.broadcast_to(hi, (n,)), dtype=float)
    f = np.isfinite(lo)
    lo[f] += _SHRINK * np.maximum(1.0, np.abs(lo[f]))
    f = np.isfinite(hi)
    hi[f] -= _SHRINK * np.maximum(1.0, np.abs(hi[f]))
    return lo, hi


def _default_starts(x0, lo, hi):
    """Fill the NaN entries of x0 with the scalar solver's default start."""
    none = np.isnan(x0)
    if not none.any():
        return
    flo, fhi = np.isfinite(lo), np.isfinite(hi)
    both = none & flo & fhi
    x0[both] = 0.5 * (lo[both] + hi[both])
    below = none & flo & ~fhi
    x0[below] = lo[below] + np.maximum(1.0, np.abs(lo[below]))
    above = none & ~flo & fhi
    x0[above] = hi[above] - np.maximum(1.0, np.abs(hi[above]))
    x0[none & ~flo & ~fhi] = 0.0


def solve_increasing_elementwise(g, dg, lo, hi, target, tol, x0=None):
    """solve_scalar_increasing for many coordinates at once.

    Coordinate i solves g(z)[i] = target[i] on the open interval
    (lo[i], hi[i]), where g(z) and dg(z) evaluate increasing functions of
    each coordinate and their derivatives on a whole vector. lo, hi and
    tol broadcast against target; NaN entries of x0 take the default
    start. Each coordinate takes the steps of the scalar solver, geometric
    bracket expansion and then Newton steps safeguarded by bisection,
    while a mask marks the unfinished ones. A failure raises what the
    scalar solver raises at the lowest failing coordinate.
    """
    target = np.asarray(target, dtype=float)
    n = target.shape[0]
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (n,))
    lo, hi = _shrunk_arrays(lo, hi, n)
    x0 = np.full(n, np.nan) if x0 is None else np.array(x0, dtype=float)
    _default_starts(x0, lo, hi)
    x0 = np.minimum(np.maximum(x0, lo), hi)
    failure = np.zeros(n, dtype=np.int8)
    residual = np.zeros(n)

    f0 = g(x0) - target
    done = np.abs(f0) <= tol
    root = x0

    # Bracket search. Coordinates with f0 > 0 search down toward lo, the
    # others up toward hi; toward an infinite end the steps grow, toward a
    # finite one each step halves the distance to it. ``hit`` is the first
    # point past the sign change, ``prev`` the last one before it.
    down = f0 > 0
    edge = np.where(down, lo, hi)
    bounded = np.isfinite(edge)
    edge[~bounded] = 0.0
    step = np.where(down, -1.0, 1.0) * np.maximum(1.0, np.abs(x0))
    prev, f_prev, hit, f_hit = x0, f0, x0, f0
    active = ~done
    for k in range(_MAX_ITER):
        if not active.any():
            break
        cand = np.where(bounded, edge + (x0 - edge) / _BRACKET_EXPAND ** (k + 1),
                        x0 + step * _BRACKET_EXPAND**k)
        # A finished search stays at its last point instead of stepping on
        # toward an end where g may overflow.
        cand = np.where(active, cand, prev)
        fc = g(cand) - target
        found = active & np.where(down, fc <= 0, fc >= 0)
        hit, f_hit = np.where(found, cand, hit), np.where(found, fc, f_hit)
        active &= ~found
        prev, f_prev = np.where(active, cand, prev), np.where(active, fc, f_prev)
    failure[active] = np.where(down[active], _NO_ROOT_BELOW, _NO_ROOT_ABOVE)

    a, fa = np.where(down, hit, prev), np.where(down, f_hit, f_prev)
    b, fb = np.where(down, prev, hit), np.where(down, f_prev, f_hit)
    active = ~(done | active)
    at_a = active & (np.abs(fa) <= tol)
    at_b = active & ~at_a & (np.abs(fb) <= tol)
    root = np.where(at_a, a, np.where(at_b, b, root))
    active &= ~(at_a | at_b)

    # Safeguarded Newton within the brackets [a, b], fa < 0 < fb. The
    # points of finished coordinates stay inside their last bracket.
    use_a = np.abs(fa) < np.abs(fb)
    x, fx = np.where(use_a, a, b), np.where(use_a, fa, fb)
    for _ in range(_MAX_ITER):
        if not active.any():
            break
        x_new = 0.5 * (a + b)
        if dg is not None:
            slope = dg(x)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                cand = x - fx / slope
            x_new = np.where((slope > 0) & (a < cand) & (cand < b), cand, x_new)
        x = x_new
        fx = g(x) - target
        below = fx < 0
        a = np.where(active & below, x, a)
        b = np.where(active & ~below, x, b)
        converged = active & (np.abs(fx) <= tol)
        root = np.where(converged, x, root)
        active &= ~converged
        collapsed = active & (b - a <= 1e-16 * np.maximum(1.0, np.abs(x)))
        if collapsed.any():
            failure[collapsed] = _COLLAPSED
            residual[collapsed] = np.abs(fx[collapsed])
            active &= ~collapsed
    failure[active] = _BUDGET

    failed = np.flatnonzero(failure)
    if failed.shape[0]:
        i = failed[0]
        code = failure[i]
        if code == _NO_ROOT_BELOW:
            raise NoSolutionError("no sign change found toward the lower boundary")
        if code == _NO_ROOT_ABOVE:
            raise NoSolutionError("no sign change found toward the upper boundary")
        if code == _COLLAPSED:
            raise ConvergenceError(
                f"bracket collapsed with residual {residual[i]:.3e} > tol {tol[i]:.3e}"
            )
        raise ConvergenceError("iteration budget exhausted in scalar solve")
    return root


def solve_resolvent(problem):
    """Solve W(z) + gamma*A(z) = rhs on the intersection of the domains.

    The routes, in order: an affine pair is one linear solve; a pair that
    both decouple coordinatewise is scalar monotone equations; any other
    pair whose operators both give Jacobians is damped Newton. The output
    is re-verified by substitution against the residual contract, and the
    residual is recorded in ``problem.residuals``. Each block of a
    stacked problem is held to the tolerance of its own block of rhs; a
    failure raises what the lowest failing block would raise alone, once
    the domains meet.
    """
    W, A, gamma, rhs, rows = problem.W, problem.A, problem.gamma, problem.rhs, problem.rows
    tol_rows = _row_tol(rhs, rows)
    tol = np.repeat(tol_rows, rhs.shape[0] // rows)
    (w_lo, w_hi), (a_lo, a_hi) = W.domain(), A.domain()
    lo, hi = np.maximum(w_lo, a_lo), np.minimum(w_hi, a_hi)
    if (lo >= hi).any():
        raise NoSolutionError("operator domains have empty intersection")

    # A is asked first so a diagonal W builds no dense matrix when A is
    # not affine.
    a_aff = A.as_affine()
    w_aff = W.as_affine() if a_aff is not None else None
    if w_aff is not None:
        (Mw, bw), (Ma, ba) = w_aff, a_aff
        z = np.linalg.solve(Mw + gamma * Ma, rhs - bw - gamma * ba)
    else:
        wt, at = W.separable_terms(), A.separable_terms()
        if wt is None or at is None:
            z = _solve_newton(W, A, gamma, rhs, tol, lo, hi)
        elif rhs.shape[0] < _ELEMENTWISE_MIN_DIM:
            z = np.empty_like(rhs)
            intervals = zip(lo.tolist(), hi.tolist())
            for i, (interval, tol_i) in enumerate(zip(intervals, tol.tolist())):
                w, dw, w_inv, w_inv_dom = wt.term(i)
                a, da, _, _ = at.term(i)
                g = lambda t, w=w, a=a: w(t) + gamma * a(t)
                dg = None
                if dw is not None and da is not None:
                    dg = lambda t, dw=dw, da=da: dw(t) + gamma * da(t)
                x0 = _initial_guess(w_inv, w_inv_dom, rhs[i], gamma, interval)
                z[i] = solve_scalar_increasing(g, dg, interval, rhs[i], tol_i, x0=x0)
        else:
            z = _solve_separable(wt, at, gamma, rhs, tol, lo, hi)

    res = _row_residuals(W, A, gamma, z, rhs, rows)
    over = res > tol_rows
    if over.any():
        i = np.argmax(over)
        raise ConvergenceError(
            f"post-hoc residual {res[i]:.3e} exceeds tolerance {tol_rows[i]:.3e}"
        )
    object.__setattr__(problem, "residuals", res)
    return z


def _row_tol(v, rows):
    """The residual tolerance _ATOL * (1 + max |v_j|) of each of the
    ``rows`` equal blocks v_j of the vector v."""
    return _ATOL * (1.0 + np.abs(v).reshape(rows, -1).max(axis=1))


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


def _solve_separable(wt, at, gamma, rhs, tol, lo, hi):
    """The separable resolvent on the box (lo, hi), all coordinates in one
    elementwise solve, each started from the kernel term's inverse at
    r/(1+gamma) when it has one and that lands inside the box."""
    g = lambda z: wt.value(z) + gamma * at.value(z)
    dg = None
    if wt.deriv is not None and at.deriv is not None:
        dg = lambda z: wt.deriv(z) + gamma * at.deriv(z)
    x0 = np.full(rhs.shape[0], np.nan)
    if wt.inverse is not None:
        s = rhs / (1.0 + gamma)
        usable = (wt.inv_lo < s) & (s < wt.inv_hi)
        if not usable.all():
            # Entries outside the inverse's interval evaluate it at an
            # interior point instead, and keep the default start.
            inside = np.full(s.shape[0], np.nan)
            _default_starts(inside, wt.inv_lo, wt.inv_hi)
            s = np.where(usable, s, inside)
        cand = wt.inverse(s)
        lo_eff, hi_eff = _shrunk_arrays(lo, hi, lo.shape[0])
        usable &= (lo_eff < cand) & (cand < hi_eff)
        x0[usable] = cand[usable]
    return solve_increasing_elementwise(g, dg, lo, hi, rhs, tol, x0)


def _solve_newton(W, A, gamma, rhs, tol, lo, hi):
    """Damped Newton on W(z) + gamma*A(z) = rhs with the Jacobian
    W.jacobian + gamma*A.jacobian, started at the scalar solver's default
    start of each interval of the box (lo, hi) and kept inside it, until
    each coordinate of the residual is within its entry of tol."""

    def F(z):
        return W._apply(z) + gamma * A._apply(z) - rhs

    lo, hi = _shrunk_arrays(lo, hi, rhs.shape[0])
    z = np.full(rhs.shape[0], np.nan)
    _default_starts(z, lo, hi)
    fz = F(z)
    for _ in range(_MAX_ITER):
        jw, ja = W.jacobian(z), A.jacobian(z)
        if jw is None or ja is None:
            raise UnsupportedOperatorError(
                f"no resolvent route for {type(W).__name__} + {type(A).__name__}: "
                "not affine, not separable, and without a Jacobian"
            )
        if (np.abs(fz) <= tol).all():
            return z
        step = np.linalg.solve(jw + gamma * ja, fz)
        t = 1.0
        while t > 1e-12:
            z_new = z - t * step
            if np.all((lo < z_new) & (z_new < hi)):
                fz_new = F(z_new)
                if np.linalg.norm(fz_new) < np.linalg.norm(fz):
                    z, fz = z_new, fz_new
                    break
            t *= 0.5
        else:
            raise ConvergenceError("damped Newton stalled")
    raise ConvergenceError("iteration budget exhausted in damped Newton")


def resolvent_residual(W, A, gamma, z, rhs):
    """Infinity-norm residual of W(z) + gamma*A(z) = rhs."""
    rhs = as_vector(rhs)
    return float(np.max(np.abs(W.apply(z) + gamma * A.apply(z) - rhs)))


def _row_residuals(W, A, gamma, z, rhs, rows):
    """The infinity-norm residual of each of ``rows`` equal blocks of
    W(z) + gamma*A(z) = rhs, at a z the solver formed."""
    r = np.abs(W._apply(z) + gamma * A._apply(z) - rhs)
    return r.reshape(rows, -1).max(axis=1)


def _prox_part(p, gamma, t, tol=None):
    """(Id + gamma * p.deriv)^{-1} t for one scalar part: its closed form
    when it carries one, else the generic monotone solve."""
    if p.prox_fn is not None:
        return p.prox_fn(t, gamma)
    if tol is None:
        tol = _ATOL * (1.0 + abs(t))
    g = lambda z: z + gamma * p.deriv(z)
    dg = None
    if p.deriv2 is not None:
        dg = lambda z: 1.0 + gamma * p.deriv2(z)
    return solve_scalar_increasing(g, dg, p.dom, t, tol)


def _prox_part_array(p, gamma, t, tol=None):
    """_prox_part over an array t, with tol None or one tolerance per
    entry: coordinate by coordinate below _ELEMENTWISE_MIN_DIM entries;
    from there on the array closed form when p carries one, else the
    generic solve elementwise."""
    if t.shape[0] < _ELEMENTWISE_MIN_DIM:
        tols = [None] * t.shape[0] if tol is None else tol.tolist()
        return np.array([_prox_part(p, gamma, ti, tol_i)
                         for ti, tol_i in zip(t.tolist(), tols)], dtype=float)
    if p.prox_fn is not None:
        return p.arrays.prox_fn(t, gamma)
    if tol is None:
        tol = _ATOL * (1.0 + np.abs(t))
    g = lambda z: z + gamma * p.arrays.deriv(z)
    dg = None
    if p.deriv2 is not None:
        dg = lambda z: 1.0 + gamma * p.arrays.deriv2(z)
    return solve_increasing_elementwise(g, dg, p.dom[0], p.dom[1], t, tol)


def prox(phi, gamma, x):
    """(Id + gamma * d phi)^{-1} x, coordinatewise."""
    return _prox(phi, gamma, as_vector(x))


def _prox(phi, gamma, x, rows=1):
    """prox at a checked vector x whose coordinates form ``rows`` equal
    blocks, each solved to the tolerance of its own block as if alone."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if x.shape[0] != phi.dim:
        raise DomainError("dimension mismatch in prox")
    out = np.empty_like(x)
    for p, coords in phi.groups:
        tol = None if p.prox_fn else np.repeat(_row_tol(x, rows), x.shape[0] // rows)[coords]
        out[coords] = _prox_part_array(p, gamma, x[coords], tol)
    return out


def bregman_prox(f, phi, gamma, s):
    """Solve grad f(z) + gamma * grad phi(z) = s coordinatewise.

    The start point is deriv_inv(s_i/(1+gamma)) of the kernel part when
    that lands inside the domain, else the domain midpoint; an interior
    start is mandatory for log-type barriers. The problem checks gamma.
    """
    s = as_vector(s)
    W, A = GradientOp(f), GradientOp(phi)
    if W.dim_in != A.dim_in or s.shape[0] != W.dim_in:
        raise DomainError("dimension mismatch in bregman_prox")
    return solve_resolvent(ResolventProblem(W, A, gamma, s))


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
    """(W + gamma*A)^{-1}(W(x) - gamma*B(x)); W.apply checks x.

    Fixed points are exactly the zeros of A + B inside dom W.
    """
    rhs = W.apply(x) - gamma * B.apply(x)
    return solve_resolvent(ResolventProblem(W, A, gamma, rhs))
