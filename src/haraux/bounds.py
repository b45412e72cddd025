"""Lower bounds on the Haraux function H_A and Fenchel-Young function
L_phi: pairing, modulus, Bregman, Legendre self-pair, and the baseline
resolvent/prox bounds."""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DomainError, pairing
from .operators import GradientOp, identity
from .solvers import (
    ConvergenceError,
    NoSolutionError,
    ResolventProblem,
    prox,
    resolvent_residual,
    solve_resolvent,
    solve_scalar_increasing,
)

# Floating-point noise below this magnitude is clamped to zero; anything
# more negative violates the nonnegativity guarantee for monotone kernels.
_CLAMP_TOL = 1e-12


class InternalConsistencyError(RuntimeError):
    """A bound came out more negative than floating-point noise allows."""


@dataclass
class BoundResult:
    value: float
    z: np.ndarray
    method: str
    gamma: float
    diagnostics: dict = field(default_factory=dict)


def _finalize(value, z, method, gamma, diagnostics):
    if value < 0.0:
        if value >= -_CLAMP_TOL:
            diagnostics["clamped_from"] = value
            value = 0.0
        else:
            raise InternalConsistencyError(
                f"{method} bound evaluated to {value:.6e} < -{_CLAMP_TOL}"
            )
    return BoundResult(value=value, z=z, method=method, gamma=gamma,
                       diagnostics=diagnostics)


def _kernel_point(W, A, x, u, gamma):
    """Wx and the auxiliary point z = (W + gamma*A)^{-1}(Wx + gamma*u*)
    that every kernel bound is read off, with the residual of its
    resolvent equation as the diagnostics."""
    wx = W.apply(x)
    rhs = wx + gamma * u
    z = solve_resolvent(ResolventProblem(W, A, gamma, rhs))
    return wx, z, {"residual": resolvent_residual(W, A, gamma, z, rhs)}


def _pairing_value(W, A, x, u, gamma):
    """(<x - z, Wx - Wz> / gamma, z, diagnostics) at the auxiliary point z."""
    wx, z, diag = _kernel_point(W, A, x, u, gamma)
    return pairing(x - z, wx - W.apply(z)) / gamma, z, diag


def bound_pairing(W, A, p, gamma):
    """<x - z, Wx - Wz> / gamma with z = (W + gamma*A)^{-1}(Wx + gamma*u*)."""
    value, z, diag = _pairing_value(W, A, p.x, p.u_star, gamma)
    return _finalize(value, z, "pairing", gamma, diag)


def bound_modulus(W, A, p, gamma, modulus=None):
    """phi(||x - z||) / gamma for a declared uniform-monotonicity modulus."""
    modulus = modulus if modulus is not None else W.modulus
    if modulus is None:
        raise ValueError("no modulus declared for the kernel operator")
    x = p.x
    _, z, diag = _kernel_point(W, A, x, p.u_star, gamma)
    value = modulus(float(np.linalg.norm(x - z))) / gamma
    method = "strong" if modulus.kind == "strong" else "modulus"
    return _finalize(value, z, method, gamma, diag)


def _is_op_of(A, name):
    return A.f is not None and all(p.name == name for p in A.f.parts)


def burg_self_bound_closed(x, u, gamma):
    """Closed form of the Bregman bound for the Burg self-pair. The
    resolvent has a solution only where 1 - gamma*x*u* > 0."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(1.0 - gamma * x * u <= 0.0):
        raise NoSolutionError("the Burg self-pair resolvent has no solution "
                              "where 1 - gamma*x*u* <= 0")
    z = (1.0 + gamma) * x / (1.0 - gamma * x * u)
    value = float(
        np.sum(gamma * (1.0 + x * u) ** 2 / ((1.0 + gamma) * (1.0 - gamma * x * u)))
    )
    return value, z


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
    return _fermi_dirac_root(x, u, gamma)[0]


def _fermi_dirac_root(x, u, gamma):
    """(zeta, band, log(zeta), log(1 - zeta)): ``band`` masks the
    coordinates where zeta is the direct closed form, and the logs are
    given on the others (None when there are none)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
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
    x = np.asarray(x, dtype=float)
    zeta, band, log_z, log_1mz = _fermi_dirac_root(x, u, gamma)
    xb, zb = x[band], zeta[band]
    value = float(np.sum((xb - zb) * np.log(xb * (1.0 - zb) / (zb * (1.0 - xb)))))
    if log_z is not None:
        # x - zeta is taken through 1 - zeta when zeta is near 1, so it
        # does not cancel when x is near 1 too.
        xt, zt = x[~band], zeta[~band]
        diff = np.where(zt > 0.5, np.exp(log_1mz) - (1.0 - xt), xt - zt)
        value += float(np.sum(diff * (np.log(xt) + log_1mz - log_z - np.log1p(-xt))))
    return value / gamma, zeta


def bound_bregman(f, A, p, gamma):
    """(D_f(x,z) + D_f(z,x)) / gamma with z from the Bregman-type resolvent.

    The sum equals <x - z, grad f(x) - grad f(z)>, so the generic route is
    the pairing bound with kernel grad f. Catalog pairs (Burg self-pair,
    Fermi-Dirac over Boltzmann-Shannon) use their closed forms as the
    authoritative value; the generic solver result is recorded in the
    diagnostics as a cross-check, and so is its failure, which leaves the
    closed form standing.
    """
    x, u = p.x, p.u_star
    if not f.in_interior(x):
        raise DomainError("x must lie strictly inside dom f")
    W = GradientOp(f)
    if f.name == "burg" and _is_op_of(A, "burg"):
        (value, z), method = burg_self_bound_closed(x, u, gamma), "burg_closed"
    elif f.name == "fermi_dirac" and _is_op_of(A, "boltzmann_shannon"):
        (value, z), method = fermi_dirac_bound_closed(x, u, gamma), "fermi_dirac_closed"
    else:
        value, z, diag = _pairing_value(W, A, x, u, gamma)
        diag["near_boundary"] = not f.in_interior(z)
        return _finalize(value, z, "bregman", gamma, diag)

    rhs = f.gradient(x) + gamma * u
    diag = {}
    try:
        z_num = solve_resolvent(ResolventProblem(W, A, gamma, rhs))
        diag["solver_z_gap"] = float(np.max(np.abs(z - z_num)))
    except (NoSolutionError, ConvergenceError) as exc:
        diag["crosscheck_error"] = f"{type(exc).__name__}: {exc}"
        z_num = z
    # Without a cross-check the residual is taken at the closed-form z;
    # it is +inf when that z is within the boundary tolerance of dom f,
    # where the gradient is not evaluated.
    diag["residual"] = (resolvent_residual(W, A, gamma, z_num, rhs)
                        if f.in_interior(z_num) else math.inf)
    diag["near_boundary"] = not f.in_interior(z)
    return _finalize(value, z, method, gamma, diag)


def bound_legendre_self(phi, p, gamma):
    """<x - z, grad phi(x) - u*> / (1 + gamma) with
    z = grad phi*((grad phi(x) + gamma*u*) / (1 + gamma))."""
    x, u = p.x, p.u_star
    if not phi.in_interior(x):
        raise DomainError("x must lie strictly inside dom phi")
    gx = phi.gradient(x)
    z = phi.grad_conj((gx + gamma * u) / (1.0 + gamma))
    value = pairing(x - z, gx - u) / (1.0 + gamma)
    return _finalize(value, z, "legendre_self", gamma, {})


def bound_carlier_haraux(A, p, gamma):
    """Baseline ||x - J_{gamma A}(x + gamma*u*)||^2 / gamma: the pairing
    bound with kernel W = Id."""
    value, z, diag = _pairing_value(identity(p.dim), A, p.x, p.u_star, gamma)
    return _finalize(value, z, "carlier_haraux", gamma, diag)


def bound_carlier_fy(phi, p, gamma):
    """Baseline ||x - prox_{gamma phi}(x + gamma*u*)||^2 / gamma."""
    x, u = p.x, p.u_star
    z = prox(phi, gamma, x + gamma * u)
    value = float(np.dot(x - z, x - z)) / gamma
    return _finalize(value, z, "carlier_fy", gamma, {})


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
    """The lower bounds on H_A(x, u*) read off a kernel resolvent. The
    kernel W of pairing and strong defaults to the identity; bregman takes
    its kernel from the Legendre function f."""
    if method in ("pairing", "strong"):
        W = W if W is not None else identity(p.dim)
        if method == "pairing":
            return bound_pairing(W, A, p, gamma)
        return bound_modulus(W, A, p, gamma)
    if method == "bregman":
        if f is None:
            raise ValueError("the bregman method needs a kernel function f")
        return bound_bregman(f, A, p, gamma)
    if method == "carlier_haraux":
        return bound_carlier_haraux(A, p, gamma)
    raise ValueError(
        f"method {method!r} needs a function phi; an operator A takes "
        "pairing, strong, bregman or carlier_haraux"
    )


def exact_fenchel_young(phi, p):
    """Closed-form L_phi(x, u*) for catalog functions."""
    return phi.fenchel_young(p.x, p.u_star)
