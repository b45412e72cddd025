"""Residual gauges for composite inclusions 0 in Ax + Bx and for
primal-dual Kuhn-Tucker systems, built from warped resolvents.

Each gauge lower-bounds the Haraux-type membership function and vanishes
exactly on the solution set, so it can serve as a computable optimality
residual."""

from dataclasses import dataclass

import numpy as np

from .core import as_vector, pairing
from .functions import SeparableFunction
from .operators import (
    AffineOp,
    DiagonalOp,
    GradientOp,
    MonotoneOperator,
    SkewPDOp,
    SubdifferentialOp,
    UniformModulus,
)
from .solvers import (
    ResolventProblem,
    bregman_prox,
    resolvent_residual,
    solve_resolvent,
)
from .bounds import _finalize


@dataclass
class InclusionInstance:
    """Data for gauging membership of x in zer(A + B)."""

    A: MonotoneOperator
    B: MonotoneOperator
    W: MonotoneOperator
    gamma: float
    modulus: UniformModulus = None
    f: SeparableFunction = None

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        dims = {self.A.dim_in, self.B.dim_in, self.W.dim_in}
        if len(dims) != 1:
            raise ValueError("A, B and W must act on the same space")


@dataclass
class KTInstance:
    """Primal-dual data: C on the primal space, D^{-1} on the dual space,
    coupling matrix L, and single-valued kernels for each block."""

    C: MonotoneOperator
    D_inv: MonotoneOperator
    L: np.ndarray
    gamma: float
    W_X: MonotoneOperator
    W_Ystar: MonotoneOperator
    f: SeparableFunction = None
    g_star: SeparableFunction = None

    def __post_init__(self):
        self.L = np.atleast_2d(np.asarray(self.L, dtype=float))
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        m, n = self.L.shape
        if self.C.dim_in != n or self.W_X.dim_in != n:
            raise ValueError("primal block dimensions do not match L")
        if self.D_inv.dim_in != m or self.W_Ystar.dim_in != m:
            raise ValueError("dual block dimensions do not match L")


def primal_primal_bound(inst, x, y):
    """Lower bound on H_A(x, -B(y)), the two-argument membership function
    for the direct-sum operator; the diagonal y = x gives the gauge."""
    x = as_vector(x)
    y = as_vector(y)
    W, A, B, gamma = inst.W, inst.A, inst.B, inst.gamma
    u = -B.apply(y)
    rhs = W.apply(x) + gamma * u
    z = solve_resolvent(ResolventProblem(W, A, gamma, rhs))
    value = pairing(x - z, W.apply(x) - W.apply(z)) / gamma
    diag = {"residual": resolvent_residual(W, A, gamma, z, rhs)}
    if inst.modulus is not None:
        diag["modulus_value"] = inst.modulus(float(np.linalg.norm(x - z))) / gamma
    if inst.f is not None:
        diag["bregman_value"] = (
            inst.f.bregman(x, z) + inst.f.bregman(z, x)
        ) / gamma
    return _finalize(value, z, "theta", gamma, diag)


def theta_bound(inst, x):
    """Gauge of the membership of x in zer(A + B): the pairing bound at
    u* = -B(x), with z the warped resolvent of x."""
    return primal_primal_bound(inst, x, x)


def kt_gauge_bound(inst, x, y_star):
    """Sum of the two per-block pairing bounds, divided by gamma; zero
    exactly on the Kuhn-Tucker set."""
    x = as_vector(x)
    y_star = as_vector(y_star)
    gamma, L = inst.gamma, inst.L

    rhs_x = inst.W_X.apply(x) - gamma * (L.T @ y_star)
    zx = solve_resolvent(ResolventProblem(inst.W_X, inst.C, gamma, rhs_x))
    comp_x = pairing(x - zx, inst.W_X.apply(x) - inst.W_X.apply(zx)) / gamma

    rhs_y = inst.W_Ystar.apply(y_star) + gamma * (L @ x)
    zy = solve_resolvent(ResolventProblem(inst.W_Ystar, inst.D_inv, gamma, rhs_y))
    comp_y = pairing(
        y_star - zy, inst.W_Ystar.apply(y_star) - inst.W_Ystar.apply(zy)
    ) / gamma

    diag = {
        "component_primal": max(comp_x, 0.0),
        "component_dual": max(comp_y, 0.0),
        "residual": max(
            resolvent_residual(inst.W_X, inst.C, gamma, zx, rhs_x),
            resolvent_residual(inst.W_Ystar, inst.D_inv, gamma, zy, rhs_y),
        ),
    }
    return _finalize(
        comp_x + comp_y, np.concatenate([zx, zy]), "kt_gauge", gamma, diag
    )


def fr_gauge_bound(f, g_star, phi, psi_star, L, gamma, x, y_star):
    """Fenchel-Rockafellar gauge: symmetrized-Bregman sum over the primal
    block (kernel f, function phi) and the dual block (kernel g*,
    function psi*), divided by gamma."""
    L = np.atleast_2d(np.asarray(L, dtype=float))
    x = as_vector(x)
    y_star = as_vector(y_star)
    if gamma <= 0:
        raise ValueError("gamma must be positive")

    sx = f.gradient(x) - gamma * (L.T @ y_star)
    zx = bregman_prox(f, phi, gamma, sx)
    sy = g_star.gradient(y_star) + gamma * (L @ x)
    zy = bregman_prox(g_star, psi_star, gamma, sy)

    comp_x = (f.bregman(x, zx) + f.bregman(zx, x)) / gamma
    comp_y = (g_star.bregman(y_star, zy) + g_star.bregman(zy, y_star)) / gamma
    diag = {
        "component_primal": max(comp_x, 0.0),
        "component_dual": max(comp_y, 0.0),
        "near_boundary": not (f.in_interior(zx) and g_star.in_interior(zy)),
    }
    return _finalize(
        comp_x + comp_y, np.concatenate([zx, zy]), "fr_gauge", gamma, diag
    )


def stacked_inclusion(inst):
    """The product-space inclusion equivalent to a KT instance, for
    consistency checks: A = blockdiag(C, D^{-1}), B = the skew coupling,
    W = blockdiag of the kernels. Blocks must be affine or gradients of
    separable functions."""

    def _stack(op1, op2):
        aff1, aff2 = op1.as_affine(), op2.as_affine()
        if aff1 is not None and aff2 is not None:
            (M1, b1), (M2, b2) = aff1, aff2
            n, m = op1.dim_in, op2.dim_in
            M = np.zeros((n + m, n + m))
            M[:n, :n] = M1
            M[n:, n:] = M2
            return AffineOp(M, np.concatenate([b1, b2]), check=False)
        if isinstance(op1, GradientOp) and isinstance(op2, GradientOp):
            parts = list(op1.f.parts) + list(op2.f.parts)
            cls = SubdifferentialOp if isinstance(op1, SubdifferentialOp) else GradientOp
            return cls(SeparableFunction(parts))
        raise TypeError("can only stack affine or separable-gradient blocks")

    return InclusionInstance(
        A=_stack(inst.C, inst.D_inv),
        B=SkewPDOp(inst.L),
        W=_stack(inst.W_X, inst.W_Ystar),
        gamma=inst.gamma,
    )


def linear_quadratic_kt_instance(x_bar, y_bar, L, gamma=1.0):
    """Build a primal-dual instance whose Kuhn-Tucker point is known by
    construction: C = Id - c0 and D^{-1} = Id - d0 with offsets back-solved
    from the prescribed solution (x_bar, y_bar); every block is diagonal."""
    x_bar = as_vector(x_bar)
    y_bar = as_vector(y_bar)
    L = np.atleast_2d(np.asarray(L, dtype=float))
    m, n = L.shape
    c0 = x_bar + L.T @ y_bar
    d0 = y_bar - L @ x_bar
    return KTInstance(
        C=DiagonalOp(np.ones(n), -c0),
        D_inv=DiagonalOp(np.ones(m), -d0),
        L=L,
        gamma=gamma,
        W_X=DiagonalOp(np.ones(n)),
        W_Ystar=DiagonalOp(np.ones(m)),
    )
