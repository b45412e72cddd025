"""Runnable invariant suites backing the `haraux verify` command.

Each check returns a measured worst-case slack against its threshold, so
the CSV report documents how much margin the library actually has."""

import math

import numpy as np

from . import bounds, functions, oracle, solvers
from .core import DualPair, pairing
from .gauges import kt_gauge_bound, linear_quadratic_kt_instance, stacked_inclusion, theta_bound
from .operators import (
    GradientOp,
    Joca16Op,
    SkewPDOp,
    identity,
    monotonicity_probe,
)
from .solvers import bregman_prox, lambert_w, prox

# Interior sampling boxes for the catalog functions.
_SAMPLE_BOX = {
    "quadratic": (-5.0, 5.0),
    "burg": (0.05, 5.0),
    "boltzmann_shannon": (0.05, 5.0),
    "fermi_dirac": (0.01, 0.99),
}
_CONJ_BOX = {
    "quadratic": (-5.0, 5.0),
    "burg": (-5.0, -0.05),
    "boltzmann_shannon": (-3.0, 3.0),
    "fermi_dirac": (-3.0, 3.0),
}


def _row(module, check, measured, threshold, larger_is_worse=True):
    passed = measured <= threshold if larger_is_worse else measured >= threshold
    return {
        "module": module,
        "check": check,
        "passed": bool(passed),
        "measured": float(measured),
        "threshold": float(threshold),
    }


def _sample(rng, box, n):
    lo, hi = box
    return lo + (hi - lo) * rng.random(n)


def _core_checks(rng, rows):
    worst = 0.0
    for _ in range(50):
        x, y, u = rng.normal(size=(3, 4))
        a, b = rng.normal(size=2)
        lin = abs(pairing(a * x + b * y, u) - a * pairing(x, u) - b * pairing(y, u))
        sym = abs(pairing(x, u) - pairing(u, x))
        scale = 1.0 + abs(pairing(x, u))
        worst = max(worst, lin / scale, sym / scale)
    rows.append(_row("core", "pairing_bilinear_symmetric", worst, 1e-12))


def _function_checks(rng, rows, n=200):
    h = 1e-6
    worst_fd = 0.0
    worst_fy = 0.0
    worst_graph = 0.0
    worst_roundtrip = 0.0
    for name, box in _SAMPLE_BOX.items():
        f = functions.from_name(name)
        pts = _sample(rng, (box[0] + 2 * h, box[1] - 2 * h), n)
        for t in pts:
            g = f.gradient([t])[0]
            fd = (f([t + h]) - f([t - h])) / (2 * h)
            worst_fd = max(worst_fd, abs(g - fd))
            worst_graph = max(worst_graph, f.fenchel_young([t], [g]))
            worst_roundtrip = max(
                worst_roundtrip, abs(f.parts[0].deriv_inv(f.parts[0].deriv(t)) - t)
            )
        us = _sample(rng, _CONJ_BOX[name], n)
        for t, s in zip(pts, us):
            worst_fy = max(worst_fy, -f.fenchel_young([t], [s]))
    rows.append(_row("functions", "gradient_finite_difference", worst_fd, 1e-5))
    rows.append(_row("functions", "fenchel_young_nonnegative", worst_fy, 1e-12))
    rows.append(_row("functions", "fenchel_young_graph_zero", worst_graph, 1e-10))
    rows.append(_row("functions", "deriv_inv_roundtrip", worst_roundtrip, 1e-10))


def _operator_checks(rng, rows):
    worst = 0.0
    for name, box in _SAMPLE_BOX.items():
        op = GradientOp(functions.from_name(name))
        rep = monotonicity_probe(op, [box], n=100, seed=int(rng.integers(2**31)))
        worst = max(worst, -rep["min_pairing"])
    rows.append(_row("operators", "catalog_pairing_nonnegative", worst, 1e-9))

    skew = SkewPDOp(np.array([[1.0, 2.0], [0.5, -1.0]]))
    worst_skew = 0.0
    for _ in range(50):
        v = rng.normal(size=4)
        worst_skew = max(worst_skew, abs(pairing(v, skew.apply(v))))
    rows.append(_row("operators", "skew_pairing_zero", worst_skew, 1e-12))

    rot = Joca16Op(1.0, functions._quadratic_scalar())
    worst_rot = 0.0
    for _ in range(50):
        v = rng.normal(size=2)
        worst_rot = max(
            worst_rot,
            float(np.max(np.abs(rot.apply(v) - np.array([-v[1], v[0]])))),
        )
    rows.append(_row("operators", "rotation_reduction", worst_rot, 1e-14))


def _solver_checks(rng, rows, n=200):
    worst_lam = 0.0
    for t in np.concatenate([[0.0], np.logspace(-6, 6, 60)]):
        w = lambert_w(t)
        worst_lam = max(worst_lam, abs(w * math.exp(w) - t) / (1.0 + t))
    rows.append(_row("solvers", "lambert_roundtrip", worst_lam, 1e-13))

    # Closed-form vs generic-root-finder agreement on the catalog pairs.
    worst_agree = 0.0
    worst_res = 0.0
    burg = functions.burg()
    fd = functions.fermi_dirac()
    bs = functions.boltzmann_shannon()
    for _ in range(n):
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        xi = float(_sample(rng, (0.1, 5.0), 1)[0])
        mu = float(_sample(rng, (-5.0, -0.1), 1)[0])
        rhs = burg.gradient([xi]) + gamma * np.array([mu])
        z = bregman_prox(burg, burg, gamma, rhs)
        z_closed = (1.0 + gamma) * xi / (1.0 - gamma * xi * mu)
        worst_agree = max(worst_agree, abs(z[0] - z_closed))
        worst_res = max(
            worst_res,
            solvers.resolvent_residual(
                GradientOp(burg), GradientOp(burg), gamma, z, rhs
            )
            / (1.0 + float(np.max(np.abs(rhs)))),
        )

        xi = float(_sample(rng, (0.05, 0.95), 1)[0])
        mu = float(_sample(rng, (-3.0, 3.0), 1)[0])
        rhs = fd.gradient([xi]) + gamma * np.array([mu])
        z = bregman_prox(fd, bs, gamma, rhs)
        zeta = bounds.fermi_dirac_zeta([xi], [mu], gamma)
        worst_agree = max(worst_agree, abs(z[0] - zeta[0]))

        v = float(rng.normal())
        p_closed = bs.parts[0].prox_fn(v, gamma)
        g = lambda t: t + gamma * bs.parts[0].deriv(t)
        p_num = solvers.solve_scalar_increasing(
            g, lambda t: 1.0 + gamma / t, (0.0, math.inf), v, 1e-12 * (1 + abs(v))
        )
        worst_agree = max(worst_agree, abs(p_closed - p_num))
    rows.append(_row("solvers", "closed_form_numeric_agreement", worst_agree, 1e-8))
    rows.append(_row("solvers", "resolvent_residual_contract", worst_res, 1e-10))

    # Warped resolvent with W = Id equals the prox route.
    quad = functions.quadratic(2)
    A = GradientOp(functions.quadratic(2))
    B = GradientOp(quad)
    worst_warp = 0.0
    for _ in range(20):
        x = rng.normal(size=2)
        z1 = solvers.warped_resolvent(identity(2), A, B, 0.5, x)
        z2 = prox(functions.quadratic(2), 0.5, x - 0.5 * B.apply(x))
        worst_warp = max(worst_warp, float(np.max(np.abs(z1 - z2))))
    rows.append(_row("solvers", "warped_equals_prox", worst_warp, 1e-10))


def _bound_checks(rng, rows, n=300):
    worst_dom = -np.inf
    worst_zero = 0.0
    worst_chain = -np.inf
    for name in ("burg", "boltzmann_shannon", "quadratic"):
        phi = functions.from_name(name)
        box = _SAMPLE_BOX[name]
        cbox = _CONJ_BOX[name]
        for _ in range(n):
            p = DualPair(_sample(rng, box, 1), _sample(rng, cbox, 1))
            exact = bounds.exact_fenchel_young(phi, p)
            for method in ("carlier_fy", "legendre_self", "bregman"):
                b = bounds.fy_bound_dispatch(phi, None, p, 1.0, method)
                worst_dom = max(worst_dom, b.value - exact)
            # on-graph pair
            gx = phi.gradient(p.x)
            pg = DualPair(p.x, gx)
            worst_zero = max(
                worst_zero, bounds.fy_bound_dispatch(phi, None, pg, 1.0, "pairing").value
            )
            bp = bounds.fy_bound_dispatch(phi, None, p, 1.0, "pairing")
            bs_ = bounds.fy_bound_dispatch(phi, None, p, 1.0, "strong")
            worst_chain = max(worst_chain, bs_.value - bp.value)
    rows.append(_row("bounds", "dominated_by_exact", worst_dom, 1e-9))
    rows.append(_row("bounds", "graph_pairs_give_zero", worst_zero, 1e-10))
    rows.append(_row("bounds", "strong_below_pairing", worst_chain, 1e-10))

    # Closed-form equality of the catalog Bregman bounds.
    worst_closed = 0.0
    burg = functions.burg()
    for _ in range(n):
        p = DualPair(_sample(rng, (0.1, 5.0), 1), _sample(rng, (-5.0, -0.1), 1))
        b = bounds.bound_bregman(burg, GradientOp(burg), p, 1.0)
        z = b.z
        direct = (burg.bregman(p.x, z) + burg.bregman(z, p.x)) / 1.0
        worst_closed = max(worst_closed, abs(b.value - direct))
    rows.append(_row("bounds", "burg_closed_form_equality", worst_closed, 1e-10))


def _oracle_checks(rng, rows):
    A = GradientOp(functions.quadratic())
    p = DualPair([1.0], [0.0])
    worst_mono = 0.0
    prev = -np.inf
    # Nested grid sizes (k -> 2k - 1) so the supremum over the sampled
    # graph is monotone exactly, not just in the limit.
    for k in (16, 31, 61, 121, 241):
        s = oracle.sample_graph(A, [(-3.0, 3.0)], k)
        v = oracle.haraux_lower_approx(s, p)
        worst_mono = max(worst_mono, prev - v)
        prev = v
    rows.append(_row("oracle", "refinement_monotone", worst_mono, 0.0))

    s = oracle.sample_graph(A, [(-10.0, 10.0)], 4096)
    approx = oracle.haraux_lower_approx(s, p)
    analytic = (1.0 - 0.0) ** 2 / 4.0
    rows.append(_row("oracle", "dense_grid_convergence", abs(approx - analytic), 1e-3))


def _gauge_checks(rng, rows):
    L = np.array([[1.0, 0.5], [0.0, 1.0]])
    inst = linear_quadratic_kt_instance([1.0, -2.0], [0.5, 1.5], L)
    b0 = kt_gauge_bound(inst, [1.0, -2.0], [0.5, 1.5])
    rows.append(_row("gauges", "kt_point_gauge_zero", b0.value, 1e-9))
    b1 = kt_gauge_bound(inst, [1.1, -1.9], [0.6, 1.6])
    rows.append(_row("gauges", "displaced_gauge_positive", b1.value, 1e-6,
                     larger_is_worse=False))
    stacked = stacked_inclusion(inst)
    bt = theta_bound(stacked, np.array([1.1, -1.9, 0.6, 1.6]))
    rows.append(_row("gauges", "product_space_consistency",
                     abs(bt.value - b1.value), 1e-10))


def run_checks(seed=oracle.DEFAULT_SEED, corrupt=False):
    """Run every invariant suite; returns one report row per check.

    With corrupt=True the core tolerance is deliberately broken so the
    harness itself can be shown to fail (self-test mode)."""
    rng = np.random.default_rng(seed)
    rows = []
    _core_checks(rng, rows)
    _function_checks(rng, rows)
    _operator_checks(rng, rows)
    _solver_checks(rng, rows)
    _bound_checks(rng, rows)
    _oracle_checks(rng, rows)
    _gauge_checks(rng, rows)
    if corrupt:
        for r in rows:
            if r["check"] == "gradient_finite_difference":
                r["threshold"] = 1e-30
                r["passed"] = r["measured"] <= r["threshold"]
    return rows
