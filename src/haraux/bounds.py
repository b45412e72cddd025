"""Lower bounds on the Haraux function H_A and Fenchel-Young function
L_phi: pairing, modulus, Bregman, Legendre self-pair, and the baseline
resolvent/prox bounds."""

import math
from functools import partial

import numpy as np

from .core import DomainError, DualPair, check_gamma
from .functions import _SCALAR_CATALOG, SeparableFunction, _match_dim
from .operators import GradientOp, identity
from .solvers import (
    NoSolutionError,
    ResolventProblem,
    _prox,
    _row_residuals,
    _StackedProblem,
    solve_resolvent,
    solve_scalar_increasing,
)

# Floating-point noise below this magnitude is clamped to zero; anything
# more negative violates the nonnegativity guarantee for monotone kernels.
_CLAMP_TOL = 1e-12


class InternalConsistencyError(RuntimeError):
    """A bound came out more negative than floating-point noise allows."""


class BoundResult:
    """A bound's value, its auxiliary point z, the route that computed it,
    gamma, and a dict of diagnostics.

    A closed-form Bregman bound runs its generic solver cross-check on the
    first read of ``diagnostics``: until then ``_crosscheck`` holds it,
    and the read puts its keys ahead of those set with the bound. repr,
    copy and pickle read the diagnostics first.
    """

    def __init__(self, value, z, method, gamma, diagnostics=None):
        self.value, self.z, self.method, self.gamma = value, z, method, gamma
        self._diagnostics = {} if diagnostics is None else diagnostics
        self._crosscheck = None

    @property
    def diagnostics(self):
        if self._crosscheck is not None:
            self._diagnostics = {**self._crosscheck(), **self._diagnostics}
            self._crosscheck = None
        return self._diagnostics

    def __repr__(self):
        return (f"BoundResult(value={self.value!r}, z={self.z!r}, method={self.method!r}, "
                f"gamma={self.gamma!r}, diagnostics={self.diagnostics!r})")

    def __reduce__(self):
        return BoundResult, (self.value, self.z, self.method, self.gamma, self.diagnostics)


def _clamp(value, method, diagnostics):
    """value, with floating-point noise below zero clamped to zero and
    recorded as ``clamped_from``; anything more negative raises."""
    if value < 0.0:
        if value >= -_CLAMP_TOL:
            diagnostics["clamped_from"] = value
            return 0.0
        raise InternalConsistencyError(
            f"{method} bound evaluated to {value:.6e} < -{_CLAMP_TOL}"
        )
    return value


def _finalize(value, z, method, gamma, diagnostics):
    return BoundResult(value=_clamp(value, method, diagnostics), z=z, method=method,
                       gamma=gamma, diagnostics=diagnostics)


def _row_sums(terms, rows):
    """The sums of the per-coordinate terms over each of ``rows`` equal
    blocks of coordinates.

    Every bound here is a sum over coordinates, so k pairs of R^d are one
    pair of R^{kd} whose coordinates form k blocks: the public bounds are
    the case of one block, the batched suite of ``_fy_rows`` the case of k.
    """
    return terms.reshape(rows, -1).sum(axis=1)


def _rows(method, A, x, u, gamma, rows=1, W=None, f=None, phi=None, modulus=None):
    """The bound of ``method`` on each of ``rows`` equal blocks of the
    coordinates of x and u*: the block values, the auxiliary point z, the
    route, and the block residuals of the resolvent (None where none is
    solved).

    This is where each method picks its kernel W, and z is read off the
    resolvent z = (W + gamma*A)^{-1}(Wx + gamma*u*): pairing and strong
    take the identity unless W is given, carlier_haraux always, and
    bregman grad f, or the closed form of a catalog pair. legendre_self
    and carlier_fy take phi alone, with z = grad phi*((grad phi(x) +
    gamma*u*) / (1 + gamma)) and z = prox_{gamma phi}(x + gamma*u*).
    """
    check_gamma(gamma)
    if method == "legendre_self":
        x = _match_dim(x, phi.dim)
        if not phi._inside(x):
            raise DomainError("x must lie strictly inside dom phi")
        gx = phi._evaluate("deriv", x)
        # A sum that overflows lies outside the conjugate domain, which
        # _grad_conj_at reports.
        with np.errstate(over="ignore"):
            s = gx + gamma * u
        z = phi._grad_conj_at(s / (1.0 + gamma))
        return _row_sums((x - z) * (gx - u), rows) / (1.0 + gamma), z, method, None
    if method == "carlier_fy":
        z = _prox(phi, gamma, x + gamma * u, rows)
        d = x - z
        return _row_sums(d * d, rows) / gamma, z, method, None
    if method == "bregman":
        # (D_f(x,z) + D_f(z,x)) / gamma equals <x - z, grad f(x) - grad f(z)> / gamma.
        if f is None:
            raise ValueError("the bregman method needs a kernel function f")
        if not f._inside(_match_dim(x, f.dim)):
            raise DomainError("x must lie strictly inside dom f")
        # The closed forms hold for the catalog parts, not for any part of their name.
        kernel, op = (g.parts[0] if g is not None and len(g.groups) == 1 else None
                      for g in (f, A.f))
        if kernel is op is _SCALAR_CATALOG["burg"]:
            terms, z = _burg_self_terms(x, u, gamma)
            return _row_sums(terms, rows), z, "burg_closed", None
        if kernel is _SCALAR_CATALOG["fermi_dirac"] and op is _SCALAR_CATALOG["boltzmann_shannon"]:
            terms, z = _fermi_dirac_terms(x, u, gamma)
            return _row_sums(terms, rows) / gamma, z, "fermi_dirac_closed", None
        W = GradientOp(f)
    elif W is None or method == "carlier_haraux":
        W = identity(x.shape[0])
    route = method
    if method == "strong":
        modulus = modulus if modulus is not None else W.modulus
        if modulus is None:
            raise ValueError("no modulus declared for the kernel operator")
        route = "strong" if modulus.kind == "strong" else "modulus"
    # W.apply checks x against the kernel.
    wx = W.apply(x)
    problem = _StackedProblem(W, A, gamma, wx + gamma * u, rows)
    z = solve_resolvent(problem)
    if method == "strong":
        norms = np.linalg.norm((x - z).reshape(rows, -1), axis=1)
        values = np.array([modulus(t) for t in norms.tolist()])
    else:
        values = _row_sums((x - z) * (wx - problem.wz), rows)
    return values / gamma, z, route, problem.residuals


def _bound(method, A, p, gamma, W=None, f=None, phi=None, modulus=None):
    """The public bound of ``method`` at the pair p: the one-block case of
    ``_rows`` with its diagnostics, clamped.

    The closed-form Bregman values are authoritative. Their generic solver
    cross-check runs when the result's diagnostics are first read, on
    copies of x, u* and z taken here, so a caller who changes them later
    does not change it.
    """
    x, u = p.x, p.u_star
    values, z, route, residuals = _rows(method, A, x, u, gamma, 1, W, f, phi, modulus)
    if method == "bregman" and residuals is None:
        b = _finalize(float(values[0]), z, route, gamma, {})
        b._crosscheck = partial(_crosscheck, f, A, gamma, x.copy(), u.copy(), z.copy())
        return b
    diag = {} if residuals is None else {"residual": float(residuals[0])}
    if method == "bregman":
        diag["near_boundary"] = f._near_boundary(z)
    return _finalize(float(values[0]), z, route, gamma, diag)


def _crosscheck(f, A, gamma, x, u, z):
    """The diagnostics of a closed-form Bregman bound: the gap between
    its z and the generic solve of its resolvent, the residual of that
    solve, and whether z is near the boundary of dom f.

    A failure to set up or run the solve leaves the closed form standing:
    it is recorded as ``crosscheck_error``, and the residual is taken at
    the closed-form z. That residual is +inf when no right-hand side could
    be formed, or when z rounded onto an end of dom f, where the gradient
    is not evaluated.
    """
    W, problem = GradientOp(f), None
    try:
        # x passed the interior test of _rows.
        gx = f._evaluate("deriv", x)
        # ResolventProblem refuses a sum that overflows.
        with np.errstate(over="ignore"):
            rhs = gx + gamma * u
        problem = ResolventProblem(W, A, gamma, rhs)
        z_num = solve_resolvent(problem)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        residual = math.inf
        if problem is not None and f._inside(z):
            residual = float(_row_residuals(W._apply(z), A._apply(z), gamma, problem.rhs, 1)[0])
        diag = {"crosscheck_error": f"{type(exc).__name__}: {exc}", "residual": residual}
    else:
        diag = {"solver_z_gap": float(np.max(np.abs(z - z_num))),
                "residual": float(problem.residuals[0])}
    diag["near_boundary"] = f._near_boundary(z)
    return diag


def bound_pairing(W, A, p, gamma):
    """<x - z, Wx - Wz> / gamma with z = (W + gamma*A)^{-1}(Wx + gamma*u*)."""
    return _bound("pairing", A, p, gamma, W=W)


def bound_modulus(W, A, p, gamma, modulus=None):
    """phi(||x - z||) / gamma for a declared uniform-monotonicity modulus."""
    return _bound("strong", A, p, gamma, W=W, modulus=modulus)


def burg_self_bound_closed(x, u, gamma):
    """Closed form of the Bregman bound for the Burg self-pair. The
    resolvent has a solution only where 1 - gamma*x*u* > 0."""
    check_gamma(gamma)
    terms, z = _burg_self_terms(np.asarray(x, dtype=float), np.asarray(u, dtype=float), gamma)
    return float(np.sum(terms)), z


def _burg_self_terms(x, u, gamma):
    """The per-coordinate terms of burg_self_bound_closed, and z."""
    if np.any(1.0 - gamma * x * u <= 0.0):
        raise NoSolutionError("the Burg self-pair resolvent has no solution "
                              "where 1 - gamma*x*u* <= 0")
    z = (1.0 + gamma) * x / (1.0 - gamma * x * u)
    return gamma * (1.0 + x * u) ** 2 / ((1.0 + gamma) * (1.0 - gamma * x * u)), z


# r = x e^{gamma u} / (1 - x) is formed directly, and the gamma = 1 root
# taken in closed form, only for |log r| up to this bound. Beyond it r
# over- or underflows and the root cancels to 0 or 1, so the root is
# carried by log(zeta) and log(1 - zeta), computed from log r.
_FD_LOG_R_MAX = math.log(1e3)


def fermi_dirac_zeta(x, u, gamma):
    """Auxiliary point of the Fermi-Dirac kernel over the Boltzmann-Shannon
    entropy: the solution of

        ln(z/(1-z)) + gamma*ln(z) = ln(x/(1-x)) + gamma*u,

    coordinatewise on (0, 1). At gamma = 1 the equation is quadratic in z
    and solved in closed form; otherwise a safeguarded scalar solve is
    used, started from the gamma = 1 root."""
    check_gamma(gamma)
    return _fermi_dirac_root(np.asarray(x, dtype=float), np.asarray(u, dtype=float), gamma)[0]


def _fermi_dirac_root(x, u, gamma):
    """(zeta, band, log(zeta), log(1 - zeta)) at arrays x and u: ``band``
    masks the coordinates where zeta is the direct closed form, and the
    logs are given on the others (None when there are none)."""
    log_r = np.log(x) - np.log1p(-x) + gamma * u
    band = np.abs(log_r) <= _FD_LOG_R_MAX
    zeta = np.empty_like(log_r)
    xb = x[band]
    r = xb * np.exp(gamma * u[band]) / (1.0 - xb)
    zeta[band] = -r / 2.0 + np.sqrt(r * r / 4.0 + r)
    if gamma == 1.0 and band.all():
        return zeta, band, None, None
    tail = ~band
    # With s = sqrt(1 + 4/r): zeta = 2/(1 + s), 1 - zeta = (4/r)/(1 + s)^2.
    log_4_over_r = math.log(4.0) - log_r[tail]
    log_1ps = np.logaddexp(0.0, 0.5 * np.logaddexp(0.0, log_4_over_r))
    log_z = math.log(2.0) - log_1ps
    log_1mz = log_4_over_r - 2.0 * log_1ps
    zeta[tail] = np.exp(log_z)
    if gamma == 1.0:
        return zeta, band, log_z, log_1mz
    # The gamma = 1 root starts a scalar solve in t = logit(zeta), where
    # the equation reads t - gamma*log(1 + e^-t) = log r and stays well
    # conditioned up to both ends of (0, 1).
    start = np.empty_like(log_r)
    start[band] = np.log(zeta[band]) - np.log1p(-zeta[band])
    start[tail] = log_z - log_1mz
    logit = np.array([
        solve_scalar_increasing(
            lambda t: t - gamma * np.logaddexp(0.0, -t),
            lambda t: 1.0 + gamma * math.exp(-np.logaddexp(0.0, t)),
            (-math.inf, math.inf),
            target,
            1e-13 * (1.0 + abs(target)),
            x0=t0,
        )
        for target, t0 in zip(log_r.tolist(), start.tolist())
    ])
    log_z = -np.logaddexp(0.0, -logit)
    return np.exp(log_z), np.zeros_like(band), log_z, -np.logaddexp(0.0, logit)


def fermi_dirac_bound_closed(x, u, gamma):
    check_gamma(gamma)
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    terms, zeta = _fermi_dirac_terms(x, u, gamma)
    return float(np.sum(terms)) / gamma, zeta


def _fermi_dirac_terms(x, u, gamma):
    """The per-coordinate terms of fermi_dirac_bound_closed times gamma at
    arrays x and u, and zeta."""
    zeta, band, log_z, log_1mz = _fermi_dirac_root(x, u, gamma)
    terms = np.empty_like(zeta)
    xb, zb = x[band], zeta[band]
    terms[band] = (xb - zb) * np.log(xb * (1.0 - zb) / (zb * (1.0 - xb)))
    if log_z is not None:
        # x - zeta is taken through 1 - zeta when zeta is near 1, so it
        # does not cancel when x is near 1 too.
        xt, zt = x[~band], zeta[~band]
        diff = np.where(zt > 0.5, np.exp(log_1mz) - (1.0 - xt), xt - zt)
        terms[~band] = diff * (np.log(xt) + log_1mz - log_z - np.log1p(-xt))
    return terms, zeta


def bound_bregman(f, A, p, gamma):
    """(D_f(x,z) + D_f(z,x)) / gamma with z from the Bregman-type resolvent:
    the pairing bound with kernel grad f, or the closed form of a catalog
    pair (Burg self-pair, Fermi-Dirac over Boltzmann-Shannon)."""
    return _bound("bregman", A, p, gamma, f=f)


def bound_legendre_self(phi, p, gamma):
    """<x - z, grad phi(x) - u*> / (1 + gamma) with
    z = grad phi*((grad phi(x) + gamma*u*) / (1 + gamma))."""
    return _bound("legendre_self", None, p, gamma, phi=phi)


def bound_carlier_haraux(A, p, gamma):
    """Baseline ||x - J_{gamma A}(x + gamma*u*)||^2 / gamma: the pairing
    bound with kernel W = Id."""
    return _bound("carlier_haraux", A, p, gamma)


def bound_carlier_fy(phi, p, gamma):
    """Baseline ||x - prox_{gamma phi}(x + gamma*u*)||^2 / gamma."""
    return _bound("carlier_fy", None, p, gamma, phi=phi)


FY_METHODS = ("pairing", "strong", "bregman", "legendre_self", "carlier_fy")


def fy_bound_dispatch(phi, f, p, gamma, method):
    """Route a Fenchel-Young lower bound through the Haraux machinery with
    A = d(phi). ``f`` supplies the kernel for bregman/pairing methods."""
    if method == "carlier_fy":
        return bound_carlier_fy(phi, p, gamma)
    if method == "legendre_self":
        return bound_legendre_self(phi, p, gamma)
    if method not in FY_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "bregman" and f is None:
        f = phi
    W = GradientOp(f) if method == "pairing" and f is not None else None
    return _operator_bound(GradientOp(phi), p, gamma, method, W, f)


def _operator_bound(A, p, gamma, method, W=None, f=None):
    """The lower bounds on H_A(x, u*) read off a kernel resolvent: the
    kernel W of pairing and strong, and the function f of bregman."""
    if method == "pairing":
        return bound_pairing(W, A, p, gamma)
    if method == "strong":
        return bound_modulus(W, A, p, gamma)
    if method == "bregman":
        return bound_bregman(f, A, p, gamma)
    if method == "carlier_haraux":
        return bound_carlier_haraux(A, p, gamma)
    raise ValueError(
        f"method {method!r} needs a function phi; an operator A takes "
        "pairing, strong, bregman or carlier_haraux"
    )


def _fy_rows(phi, X, U, gamma, method, f=None):
    """fy_bound_dispatch(phi, f, DualPair(X[i], U[i]), gamma, method) for
    each row i of the (k, d) arrays X and U, evaluated as one pair of
    R^{kd}: returns the k values and the (k, d) auxiliary points.

    Each row's value is the public bound's per-coordinate terms summed
    over that row, and is clamped alone. Each row's resolvent or prox is
    solved to the tolerance of its unbatched call and checked against it.
    The interior and conjugate-domain tests run once on the whole batch,
    and an error is the one the first failing row raises at the first
    stage that fails. Only values and z are formed, so the diagnostics,
    with the solver cross-check of the closed-form Bregman bounds, are not.
    """
    k, d = X.shape
    for g in (phi, f):
        if g is not None and g.dim != d:
            raise DomainError(f"rows of dimension {d} for a function of dimension {g.dim}")
    if method not in FY_METHODS:
        raise ValueError(f"unknown method {method!r}")
    big = SeparableFunction(phi.parts * k)
    kernel = SeparableFunction(f.parts * k) if f is not None else big
    W = GradientOp(kernel) if method == "pairing" and f is not None else None
    p = DualPair(X.ravel(), U.ravel())
    values, z, route, _ = _rows(method, GradientOp(big), p.x, p.u_star, gamma, k,
                                W=W, f=kernel, phi=big)
    return np.array([_clamp(v, route, {}) for v in values.tolist()]), z.reshape(k, d)


def exact_fenchel_young(phi, p):
    """Closed-form L_phi(x, u*) for catalog functions."""
    return phi._fenchel_young_rows(_match_dim(p.x, phi.dim)[None], p.u_star[None])[0]
