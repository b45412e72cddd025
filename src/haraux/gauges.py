"""Residual gauges for composite inclusions 0 in Ax + Bx and for
primal-dual Kuhn-Tucker systems, built from warped resolvents.

Each gauge lower-bounds the Haraux-type membership function and vanishes
exactly on the solution set, so it can serve as a computable optimality
residual."""

from dataclasses import dataclass

import numpy as np

from .core import as_vector, check_gamma
from .functions import SeparableFunction, _match_dim
from .operators import (
    AffineOp,
    DiagonalOp,
    GradientOp,
    MonotoneOperator,
    SkewPDOp,
    UniformModulus,
)
from .bounds import _finalize, _rows


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
        check_gamma(self.gamma)
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

    def __post_init__(self):
        self.L = np.atleast_2d(np.asarray(self.L, dtype=float))
        check_gamma(self.gamma)
        m, n = self.L.shape
        if self.C.dim_in != n or self.W_X.dim_in != n:
            raise ValueError("primal block dimensions do not match L")
        if self.D_inv.dim_in != m or self.W_Ystar.dim_in != m:
            raise ValueError("dual block dimensions do not match L")


def primal_primal_bound(inst, x, y):
    """Lower bound on H_A(x, -B(y)), the two-argument membership function
    for the direct-sum operator; the diagonal y = x gives the gauge."""
    x = as_vector(x)
    gamma = inst.gamma
    values, z, _, residuals = _rows("pairing", inst.A, x, -inst.B.apply(y), gamma, W=inst.W)
    diag = {"residual": float(residuals[0])}
    if inst.modulus is not None:
        diag["modulus_value"] = inst.modulus(float(np.linalg.norm(x - z))) / gamma
    if inst.f is not None:
        # D_f(x, z) and D_f(z, x) as the two rows of one call.
        X = np.stack([_match_dim(x, inst.f.dim), z])
        terms = inst.f._bregman_rows(X, X[::-1])
        diag["bregman_value"] = float(terms[0] + terms[1]) / gamma
    return _finalize(float(values[0]), z, "theta", gamma, diag)


def theta_bound(inst, x):
    """Gauge of the membership of x in zer(A + B): the pairing bound at
    u* = -B(x), with z the warped resolvent of x."""
    return primal_primal_bound(inst, x, x)


def _kt_gauge(inst, x, y_star):
    """The unclamped KT gauge at (x, y*): its value, z and diagnostics."""
    x = as_vector(x)
    y_star = as_vector(y_star)
    gamma, L = inst.gamma, inst.L
    comp_x, zx, _, res_x = _rows("pairing", inst.C, x, -(L.T @ y_star), gamma, W=inst.W_X)
    comp_y, zy, _, res_y = _rows("pairing", inst.D_inv, y_star, L @ x, gamma, W=inst.W_Ystar)
    comp_x, comp_y = float(comp_x[0]), float(comp_y[0])
    diag = {
        "component_primal": max(comp_x, 0.0),
        "component_dual": max(comp_y, 0.0),
        "residual": float(max(res_x[0], res_y[0])),
    }
    return comp_x + comp_y, np.concatenate([zx, zy]), diag


def kt_gauge_bound(inst, x, y_star):
    """Sum of the two per-block pairing bounds, divided by gamma; zero
    exactly on the Kuhn-Tucker set."""
    value, z, diag = _kt_gauge(inst, x, y_star)
    return _finalize(value, z, "kt_gauge", inst.gamma, diag)


def fr_gauge_bound(f, g_star, phi, psi_star, L, gamma, x, y_star):
    """Fenchel-Rockafellar gauge: symmetrized-Bregman sum over the primal
    block (kernel f, function phi) and the dual block (kernel g*,
    function psi*), divided by gamma. It is the KT gauge with gradient
    blocks C = grad phi, D^{-1} = grad psi*, W_X = grad f, W_Y* = grad g*."""
    inst = KTInstance(C=GradientOp(phi), D_inv=GradientOp(psi_star), L=L, gamma=gamma,
                      W_X=GradientOp(f), W_Ystar=GradientOp(g_star))
    value, z, diag = _kt_gauge(inst, x, y_star)
    n = inst.L.shape[1]
    diag["near_boundary"] = f._near_boundary(z[:n]) or g_star._near_boundary(z[n:])
    return _finalize(value, z, "fr_gauge", gamma, diag)


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
            return AffineOp(M, np.concatenate([b1, b2]))
        if op1.f is not None and op2.f is not None:
            return GradientOp(SeparableFunction(list(op1.f.parts) + list(op2.f.parts)))
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
