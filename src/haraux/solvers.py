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

A scalar equation g(z) = target on an open interval (lo, hi) is solved
as g(c(t)) = target in the coordinate t of the interval's chart
c: R -> (lo, hi): the identity on R, lo + e^t or hi - e^-t on a half-line,
lo + (hi - lo)/(1 + e^-t) on a bounded interval. One safeguarded loop
runs over a bracket of t around the root (sound by strict monotonicity of
W + gamma*A), within the t of the floats inside the interval. The
bracket's end on the root's side stays open until a point of the other
sign closes it. Each step is a Newton step in t when it lands inside the
bracket and is shorter than half the step before last (the slow-progress
rule of rtsafe, Numerical Recipes 9.4), else a geometric step toward the
open end, else bisection. The steps move in log scale near a barrier's
edge and reach the first float inside each end; consecutive floats t map
at most about 1.1e-13 apart relative to the distance from the nearer end.
A trial point at which g overflows a float (raises DomainError) counts as
past the root. A root between a finite end and the float nearest it
raises NoSolutionError, a root between two consecutive chart points of
which neither meets the tolerance ConvergenceError. From
_ELEMENTWISE_MIN_DIM coordinates on, a separable problem runs this on all
coordinates at once over arrays, below coordinate by coordinate.

The module depends only on core: functions and operators import their
proxes, Lambert W and charts from it when they load. bregman_prox alone
builds operators, and imports GradientOp when it is called.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from types import SimpleNamespace

import numpy as np

from .core import DomainError, as_vector

# Absolute residual tolerance, scaled by 1 + |right-hand side|.
_ATOL = 1e-12
# Iteration budget of the root solvers and of damped Newton.
_MAX_ITER = 200
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
    infinity-norm residual of the solution z it returns in ``residuals``, one
    entry per block of coordinates, and W(z) in ``wz``."""

    W: "MonotoneOperator"
    A: "MonotoneOperator"
    gamma: float
    rhs: np.ndarray
    residuals: np.ndarray = field(default=None, init=False, compare=False, repr=False)
    wz: np.ndarray = field(default=None, init=False, compare=False, repr=False)
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


# The two backends of the charts. Both take exp and log from numpy, whose
# vectorised exp differs from the C library's in the last bit on some
# machines, so that the two solvers run the same float operations. Inside
# a chart's t range exp does not overflow.
_FLOAT_CHART = SimpleNamespace(exp=lambda t: float(np.exp(t)), log=lambda z: float(np.log(z)),
                               where=lambda condition, a, b: a if condition else b)
_ARRAY_CHART = SimpleNamespace(exp=np.exp, log=np.log, where=np.where)


def _chart(m, lo, hi, lo_finite, hi_finite):
    """The chart c: R -> (lo, hi) over the backend m as (c, dc, inverse), dc(z) being
    c'(t) at z = c(t); the ends are floats or arrays, finite as the flags say."""
    if lo_finite and hi_finite:
        with np.errstate(over="ignore"):
            w = hi - lo
        wide = np.isinf(w)
        if wide.any():
            i = np.argmax(wide)
            raise DomainError(f"the interval ({float(np.ravel(lo)[i])!r}, "
                              f"{float(np.ravel(hi)[i])!r}) is wider than the largest float")

        def bounded(t):
            # lo + w/(1 + e^-t), formed from the end t points toward, so
            # that every float near either end is an image.
            e = m.exp(-abs(t))
            side = w * e / (1.0 + e)
            return m.where(t > 0, hi - side, lo + side)

        return (bounded, lambda z: (z - lo) * (hi - z) / w,
                lambda z: m.log(z - lo) - m.log(hi - z))
    if lo_finite:
        return lambda t: lo + m.exp(t), lambda z: z - lo, lambda z: m.log(z - lo)
    if hi_finite:
        return lambda t: hi - m.exp(-t), lambda z: hi - z, lambda z: -m.log(hi - z)
    return lambda t: t, lambda z: 1.0, lambda z: z


def _t_range(c, inverse, lo, hi):
    """c^-1 of the first and last floats inside (lo, hi), stepped in where c rounds out."""
    t_lo, t_hi = inverse(np.nextafter(lo, hi)), inverse(np.nextafter(hi, lo))
    while not (np.all(c(t_lo) > lo) and np.all(c(t_hi) < hi)):
        t_lo = np.where(c(t_lo) > lo, t_lo, np.nextafter(t_lo, math.inf))
        t_hi = np.where(c(t_hi) < hi, t_hi, np.nextafter(t_hi, -math.inf))
    return t_lo, t_hi


@lru_cache(maxsize=64)
def _interval_chart(lo, hi, arrays=False):
    """(c, dc, inverse, t_lo, t_hi) of (lo, hi) over floats, or over arrays inside it."""
    c, dc, inverse = _chart(_ARRAY_CHART if arrays else _FLOAT_CHART, lo, hi,
                            math.isfinite(lo), math.isfinite(hi))
    t_lo, t_hi = _t_range(c, inverse, lo, hi)
    return c, dc, inverse, float(t_lo), float(t_hi)


def _array_chart(lo, hi):
    """_interval_chart for the intervals (lo[i], hi[i]), one chart per kind of interval."""
    if (lo == lo[0]).all() and (hi == hi[0]).all():
        return _interval_chart(float(lo[0]), float(hi[0]), arrays=True)
    kind = np.isfinite(lo) + 2 * np.isfinite(hi)
    masks = [m for m in (kind == k for k in range(4)) if m.any()]
    charts = [_chart(_ARRAY_CHART, lo[m], hi[m], kind[m][0] & 1, kind[m][0] & 2) for m in masks]
    c, dc, inverse = (partial(np.piecewise, condlist=masks, funclist=[f[j] for f in charts])
                      for j in range(3))
    return (c, dc, inverse, *_t_range(c, inverse, lo, hi))


def _slope(dg, dc, z):
    """The Newton slope dg(z) * c'(t) at z = c(t); NaN, which takes no
    Newton step, where dg raises instead of giving one."""
    try:
        return dg(z) * dc(z)
    except (DomainError, ZeroDivisionError, OverflowError):
        return math.nan


def _overflowing(g, z, safe):
    """The coordinates at which g(z) overflows a float (g raises DomainError
    there, next to a barrier's end), found by bisecting the coordinates while
    the others are held at safe, where g is finite; g is separable."""
    bad = np.zeros(z.shape[0], dtype=bool)

    def bisect(idx):
        probe = safe.copy()
        probe[idx] = z[idx]
        try:
            g(probe)
        except DomainError:
            if idx.shape[0] == 1:
                bad[idx] = True
            else:
                bisect(idx[: idx.shape[0] // 2])
                bisect(idx[idx.shape[0] // 2:])

    bisect(np.flatnonzero(z != safe))
    return bad


def _no_root(up, end):
    """The error of a search that met no sign change toward ``end``, the
    upper end of the interval when ``up``."""
    return NoSolutionError(
        f"no float inside the domain meets the target: the root lies between the edge "
        f"{float(end)!r} and the float nearest it" if math.isfinite(end) else
        f"no sign change found toward the {'upper' if up else 'lower'} boundary")


def _collapsed(residual, tol):
    """The error of a bracket with no float strictly inside."""
    return ConvergenceError(f"bracket collapsed with residual {residual:.3e} > tol {tol:.3e}")


def solve_scalar_increasing(g, dg, interval, target, tol, x0=None):
    """Root of the strictly increasing g(z) = target on an open interval.

    Solves g(c(t)) = target in the chart coordinate t, from the preimage
    of x0 when x0 lies inside the interval, else from t = 0, in one loop
    over a bracket [a, b] of t around the root. The bracket's end on the
    root's side stays open, one float past the t range, until a point of
    the other sign closes it. Each step is a Newton step of slope
    dg(z) * c'(t) when it lands strictly inside the bracket and is shorter
    than half the step before last; else a geometric step toward the open
    end, clamped to the t range; else bisection.
    """
    lo, hi = interval
    c, dc, inverse, t_lo, t_hi = _interval_chart(float(lo), float(hi))
    t0 = 0.0
    if x0 is not None and lo < x0 < hi:
        t0 = min(max(inverse(x0), t_lo), t_hi)
    x, z = t0, c(t0)
    fx = g(z) - target
    # g(c(a)) < target <= g(c(b)). Every later point lies on the root's
    # side of t0, so a point where g overflows (raises DomainError) lies
    # toward the open end: past the root.
    up = fx < 0
    a, b = (x, math.nextafter(t_hi, math.inf)) if up else (math.nextafter(t_lo, -math.inf), x)
    # While the bracket is open, x is its point farthest from t0. A
    # geometric step toward the open end doubles the distance of x from
    # ``back``, the point max(1, |t0|) behind t0.
    back = t0 - (1.0 if up else -1.0) * max(1.0, abs(t0))
    overflow = math.inf if up else -math.inf
    is_open = True
    half_old = half = math.inf
    for _ in range(_MAX_ITER):
        if abs(fx) <= tol:
            return z
        new = min(max(x + x - back, t_lo), t_hi) if is_open else 0.5 * (a + b)
        if not a < new < b:
            raise _no_root(up, hi if up else lo) if is_open else _collapsed(abs(fx), tol)
        if dg is not None:
            slope = _slope(dg, dc, z)
            if slope > 0:
                dn = fx / slope
                if a < x - dn < b and abs(dn) < half_old:
                    new = x - dn
        half_old, half = half, 0.5 * abs(new - x)
        x, z = new, c(new)
        try:
            fx = g(z) - target
        except DomainError:
            fx = overflow
        if fx < 0:
            a = x
        else:
            b = x
        is_open = is_open and (fx < 0) == up
    if is_open:
        raise _no_root(up, hi if up else lo)
    raise ConvergenceError("iteration budget exhausted in scalar solve")


def _values(g, z, target, safe, overflow):
    """g(z) - target over arrays, with the entry of overflow (-inf or +inf) at
    each coordinate where g overflows; g is finite at safe."""
    try:
        return g(z) - target
    except DomainError:
        bad = _overflowing(g, z, safe)
        return np.where(bad, overflow, g(np.where(bad, safe, z)) - target)


def solve_increasing_elementwise(g, dg, lo, hi, target, tol, x0=None):
    """solve_scalar_increasing for many coordinates at once.

    Coordinate i solves g(z)[i] = target[i] on (lo[i], hi[i]), where g and
    dg evaluate increasing functions of each coordinate and their
    derivatives on a whole vector. lo, hi and tol broadcast against
    target; entries of x0 that are NaN or outside their interval start
    from t = 0. Each coordinate takes the scalar solver's steps, and stays
    put once it has converged or failed. A failure raises what the scalar
    solver raises at the lowest failing coordinate.
    """
    target = np.asarray(target, dtype=float)
    n = target.shape[0]
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (n,))
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,))
    c, dc, inverse, t_lo, t_hi = _array_chart(lo, hi)
    t0 = np.zeros(n)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        start = (lo < x0) & (x0 < hi)
        if start.any():
            t0 = inverse(x0 if start.all() else np.where(start, x0, c(t0)))
            t0 = np.minimum(np.maximum(np.where(start, t0, 0.0), t_lo), t_hi)
    # Array arithmetic runs as float arithmetic does, without warnings: a
    # dg that overflows gives no Newton step, and a step past a float's
    # range is clamped to the t range.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, z = t0, c(t0)
        fx = g(z) - target
        safe = z
        up = fx < 0
        a = np.where(up, x, np.nextafter(t_lo, -math.inf))
        b = np.where(up, np.nextafter(t_hi, math.inf), x)
        back = t0 - np.where(up, 1.0, -1.0) * np.maximum(1.0, np.abs(t0))
        overflow = np.where(up, math.inf, -math.inf)
        is_open = np.ones(n, dtype=bool)
        active = np.ones(n, dtype=bool)
        half_old = half = math.inf
        for _ in range(_MAX_ITER):
            # A coordinate stops, and stays put, once it converges or its
            # fallback step finds no float strictly inside its bracket: an
            # open end reached without a sign change, or a collapsed bracket.
            active &= np.abs(fx) > tol
            new = np.where(is_open, np.minimum(np.maximum(x + x - back, t_lo), t_hi), 0.5 * (a + b))
            active &= (a < new) & (new < b)
            if not active.any():
                break
            if dg is not None:
                dn = fx / _slope(dg, dc, z)
                cand = x - dn
                new = np.where((a < cand) & (cand < b) & (np.abs(dn) < half_old), cand, new)
            new = np.where(active, new, x)
            half_old, half = half, 0.5 * np.abs(new - x)
            x, z = new, c(new)
            fx = _values(g, z, target, safe, overflow)
            neg = fx < 0
            a, b = np.where(neg, x, a), np.where(neg, b, x)
            is_open &= neg == up

    failed = np.flatnonzero(active | (np.abs(fx) > tol))
    if failed.shape[0]:
        i = failed[0]
        if is_open[i]:
            raise _no_root(up[i], hi[i] if up[i] else lo[i])
        if not active[i]:
            raise _collapsed(abs(fx[i]), tol[i])
        raise ConvergenceError("iteration budget exhausted in scalar solve")
    return z


def solve_resolvent(problem):
    """Solve W(z) + gamma*A(z) = rhs on the intersection of the domains.

    The routes, in order: an affine pair is one linear solve; a pair that
    both decouple coordinatewise is scalar monotone equations; any other
    pair whose operators both give Jacobians is damped Newton. The output
    is re-verified by substitution against the residual contract: the
    residual is recorded in ``problem.residuals``, and W(z) as the
    substitution formed it beside it, in ``problem.wz``. Each block of a
    stacked problem is held to the tolerance of its own block of rhs; a
    failure raises what the lowest failing block would raise alone, once
    the domains meet.
    """
    W, A, gamma, rhs, rows = problem.W, problem.A, problem.gamma, problem.rhs, problem.rows
    # A is asked first so a diagonal W builds no dense matrix when A is
    # not affine.
    a_aff = A.as_affine()
    w_aff = W.as_affine() if a_aff is not None else None
    wt = at = None
    if w_aff is None:
        wt, at = W.separable_terms(), A.separable_terms()
    separable = wt is not None and at is not None
    if separable and rhs.shape[0] < _ELEMENTWISE_MIN_DIM:
        z, tol_rows = _solve_coordinates(wt, at, gamma, rhs, rows, W.domain(), A.domain())
    else:
        tol_rows = _row_tol(rhs, rows)
        tol = np.repeat(tol_rows, rhs.shape[0] // rows)
        (w_lo, w_hi), (a_lo, a_hi) = W.domain(), A.domain()
        lo, hi = np.maximum(w_lo, a_lo), np.minimum(w_hi, a_hi)
        if (lo >= hi).any():
            raise _disjoint()
        if w_aff is not None:
            (Mw, bw), (Ma, ba) = w_aff, a_aff
            z = np.linalg.solve(Mw + gamma * Ma, rhs - bw - gamma * ba)
        elif separable:
            z = _solve_separable(wt, at, gamma, rhs, tol, lo, hi)
        else:
            z = _solve_newton(W, A, gamma, rhs, tol, lo, hi)

    # Every route leaves z strictly inside the domains: a chart's images lie
    # inside its interval, Newton accepts interior points only, an affine
    # map is defined on R^N. So a separable pair's W(z) and A(z) are the
    # values of its terms, with no second interior test, and one value when
    # W and A are the gradient of one function (a self-kernel bregman bound).
    if separable:
        wz = wt.value(z)
        az = wz if at is wt else at.value(z)
    else:
        wz, az = W._apply(z), A._apply(z)
    res = _row_residuals(wz, az, gamma, rhs, rows)
    over = res > tol_rows
    if over.any():
        i = np.argmax(over)
        raise ConvergenceError(
            f"post-hoc residual {res[i]:.3e} exceeds tolerance {tol_rows[i]:.3e}"
        )
    object.__setattr__(problem, "residuals", res)
    object.__setattr__(problem, "wz", wz)
    return z


def _disjoint():
    return NoSolutionError("operator domains have empty intersection")


def _solve_coordinates(wt, at, gamma, rhs, rows, w_dom, a_dom):
    """The separable resolvent one coordinate at a time, with its
    bookkeeping in floats: (z, the tolerance of each block). abs, max, min,
    + and * round as numpy's do, so the tolerances and the domain
    intersection are those of the array routes, bit for bit."""
    r = rhs.tolist()
    m = len(r) // rows
    tol_rows = [_ATOL * (1.0 + max(map(abs, r[j:j + m]))) for j in range(0, len(r), m)]
    (w_lo, w_hi), (a_lo, a_hi) = w_dom, a_dom
    lo = list(map(max, w_lo.tolist(), a_lo.tolist()))
    hi = list(map(min, w_hi.tolist(), a_hi.tolist()))
    if any(l >= h for l, h in zip(lo, hi)):
        raise _disjoint()
    z = []
    for i, (interval, r_i) in enumerate(zip(zip(lo, hi), r)):
        w, dw, w_inv, w_inv_dom = wt.term(i)
        a, da, _, _ = at.term(i)
        g = lambda t, w=w, a=a: w(t) + gamma * a(t)
        dg = None
        if dw is not None and da is not None:
            dg = lambda t, dw=dw, da=da: dw(t) + gamma * da(t)
        # Start from the kernel term's inverse at r/(1+gamma).
        s = r_i / (1.0 + gamma)
        x0 = w_inv(s) if w_inv is not None and w_inv_dom[0] < s < w_inv_dom[1] else None
        z.append(solve_scalar_increasing(g, dg, interval, r_i, tol_rows[i // m], x0=x0))
    return np.array(z), np.array(tol_rows)


def _row_tol(v, rows):
    """The residual tolerance _ATOL * (1 + max |v_j|) of each of the
    ``rows`` equal blocks v_j of the vector v."""
    return _ATOL * (1.0 + np.abs(v).reshape(rows, -1).max(axis=1))


def _solve_separable(wt, at, gamma, rhs, tol, lo, hi):
    """The separable resolvent on the box (lo, hi), all coordinates in one
    elementwise solve, each started from the kernel term's inverse at
    r/(1+gamma) when it has one and that lands inside the box."""
    g = lambda z: wt.value(z) + gamma * at.value(z)
    dg = None
    if wt.deriv is not None and at.deriv is not None:
        dg = lambda z: wt.deriv(z) + gamma * at.deriv(z)
    x0 = None
    if wt.inverse is not None:
        s = rhs / (1.0 + gamma)
        usable = (wt.inv_lo < s) & (s < wt.inv_hi)
        if not usable.all():
            # Entries outside the inverse's interval evaluate it at an
            # interior point instead, and start from t = 0.
            s = np.where(usable, s, _array_chart(wt.inv_lo, wt.inv_hi)[0](np.zeros_like(s)))
        x0 = np.where(usable, wt.inverse(s), np.nan)
    return solve_increasing_elementwise(g, dg, lo, hi, rhs, tol, x0)


def _solve_newton(W, A, gamma, rhs, tol, lo, hi):
    """Damped Newton on W(z) + gamma*A(z) = rhs with the Jacobian W.jacobian +
    gamma*A.jacobian, from c(0) of each interval's chart and strictly inside
    the box (lo, hi), until each residual is within its entry of tol."""

    def F(z):
        return W._apply(z) + gamma * A._apply(z) - rhs

    z = _array_chart(lo, hi)[0](np.zeros_like(rhs))
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


def _row_residuals(wz, az, gamma, rhs, rows):
    """The infinity-norm residual of each of ``rows`` equal blocks of
    W(z) + gamma*A(z) = rhs, given W(z) and A(z)."""
    r = np.abs(wz + gamma * az - rhs)
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
    that lands inside the domain, else c(0) of the domain's chart. The
    problem checks gamma.
    """
    from .operators import GradientOp

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
