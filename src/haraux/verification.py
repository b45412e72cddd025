"""Runnable invariant suites backing the `haraux verify` command.

Each check returns a measured worst-case slack against its threshold, so
the CSV report documents how much margin the library actually has. A
sample that is NaN makes its row's slack NaN, so the row fails.

The suites draw their samples as the stream gives them and evaluate them
as stacked rows: the points of a function are one (n, 1) batch for its
gradient, values and Fenchel-Young kernel; the resolvent samples of one
gamma are one stacked problem, each row solved to the tolerance of its
unbatched call; the bound suite evaluates each function x method in one
batched call (``bounds._fy_rows``). The rows are the same, bit for bit,
as those of one library call per sample. The whole suite takes about
0.06 s on a 2-core x86_64 VM, against 0.26 s with one call per sample
in the function, solver and Bregman checks (scripts/bench_layers.py,
``run_checks`` and ``verify_suites`` in BENCH_verify_batched.json)."""

import math
from time import perf_counter

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
from .solvers import _StackedProblem, lambert_w, prox

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


def _worst(*samples):
    """The largest entry of the samples (floats or arrays) as ``max`` picks
    it among their maxima, or NaN if an entry is NaN: ``max`` drops a NaN
    that is not its first argument, and a NaN sample must fail its row."""
    worst = [float(np.max(s)) for s in samples]
    return math.nan if any(map(math.isnan, worst)) else max(worst)


def _scale(box, r):
    lo, hi = box
    return lo + (hi - lo) * r


def _sample(rng, box, n):
    return _scale(box, rng.random(n))


def _core_checks(rng, rows):
    worst = [0.0]
    for _ in range(50):
        x, y, u = rng.normal(size=(3, 4))
        a, b = rng.normal(size=2)
        lin = abs(pairing(a * x + b * y, u) - a * pairing(x, u) - b * pairing(y, u))
        sym = abs(pairing(x, u) - pairing(u, x))
        scale = 1.0 + abs(pairing(x, u))
        worst += [lin / scale, sym / scale]
    rows.append(_row("core", "pairing_bilinear_symmetric", _worst(worst), 1e-12))


def _function_checks(rng, rows, n=200):
    # Each function's points are one (n, 1) batch.
    h = 1e-6
    fd, fy, graph, roundtrip = [0.0], [0.0], [0.0], [0.0]
    for name, box in _SAMPLE_BOX.items():
        f = functions.from_name(name)
        part = f.parts[0]
        P = _sample(rng, (box[0] + 2 * h, box[1] - 2 * h), (n, 1))
        G = f._gradient_at(P)
        value = lambda X: np.array(functions._part_sums(f.parts, "eval", X))
        fd.append(np.abs(G[:, 0] - (value(P + h) - value(P - h)) / (2 * h)))
        graph.append(f._fenchel_young_rows(P, G))
        roundtrip.append([abs(part.deriv_inv(part.deriv(t)) - t) for t in P[:, 0].tolist()])
        fy.append(-np.array(f._fenchel_young_rows(P, _sample(rng, _CONJ_BOX[name], (n, 1)))))
    rows.append(_row("functions", "gradient_finite_difference", _worst(*fd), 1e-5))
    rows.append(_row("functions", "fenchel_young_nonnegative", _worst(*fy), 1e-12))
    rows.append(_row("functions", "fenchel_young_graph_zero", _worst(*graph), 1e-10))
    rows.append(_row("functions", "deriv_inv_roundtrip", _worst(*roundtrip), 1e-10))


def _operator_checks(rng, rows):
    worst = [0.0]
    for name, box in _SAMPLE_BOX.items():
        op = GradientOp(functions.from_name(name))
        rep = monotonicity_probe(op, [box], n=100, seed=int(rng.integers(2**31)))
        worst.append(-rep["min_pairing"])
    rows.append(_row("operators", "catalog_pairing_nonnegative", _worst(worst), 1e-9))

    skew = SkewPDOp(np.array([[1.0, 2.0], [0.5, -1.0]]))
    worst = [0.0] + [abs(pairing(v, skew.apply(v))) for v in rng.normal(size=(50, 4))]
    rows.append(_row("operators", "skew_pairing_zero", _worst(worst), 1e-12))

    rot = Joca16Op(1.0, functions._quadratic_scalar())
    worst = [0.0] + [np.abs(rot.apply(v) - np.array([-v[1], v[0]]))
                     for v in rng.normal(size=(50, 2))]
    rows.append(_row("operators", "rotation_reduction", _worst(*worst), 1e-14))


def _solver_checks(rng, rows, n=200):
    lam = [abs(w * math.exp(w) - t) / (1.0 + t)
           for t in [0.0] + np.logspace(-6, 6, 60).tolist() for w in [lambert_w(t)]]
    rows.append(_row("solvers", "lambert_roundtrip", _worst(0.0, lam), 1e-13))

    # Closed-form vs generic-root-finder agreement on the catalog pairs.
    # rng.choice and rng.normal consume the stream per call, so the draws
    # stay per iteration; the rows of each gamma are then solved stacked.
    draws = np.array([(rng.choice([0.5, 1.0, 2.0]), *rng.random(4), rng.normal())
                      for _ in range(n)])
    agree, res = [0.0], [0.0]
    bs = functions.boltzmann_shannon().parts[0]
    for gamma in sorted(set(draws[:, 0].tolist())):
        D = draws[draws[:, 0] == gamma]
        k = D.shape[0]
        xi, mu = _scale((0.1, 5.0), D[:, 1]), _scale((-5.0, -0.1), D[:, 2])
        burg = GradientOp(functions.burg(k))
        rhs = burg._apply(xi) + gamma * mu
        problem = _StackedProblem(burg, burg, gamma, rhs, k)
        z = solvers.solve_resolvent(problem)
        agree.append(np.abs(z - (1.0 + gamma) * xi / (1.0 - gamma * xi * mu)))
        res.append(problem.residuals / (1.0 + np.abs(rhs)))

        xi, mu = _scale((0.05, 0.95), D[:, 3]), _scale((-3.0, 3.0), D[:, 4])
        fd = GradientOp(functions.fermi_dirac(k))
        rhs = fd._apply(xi) + gamma * mu
        z = solvers.solve_resolvent(_StackedProblem(
            fd, GradientOp(functions.boltzmann_shannon(k)), gamma, rhs, k))
        agree.append(np.abs(z - bounds.fermi_dirac_zeta(xi, mu, gamma)))

        v = D[:, 5]
        p_num = solvers.solve_increasing_elementwise(
            lambda t: t + gamma * bs.arrays.deriv(t), lambda t: 1.0 + gamma / t,
            0.0, math.inf, v, 1e-12 * (1 + np.abs(v)))
        agree.append(np.abs([bs.prox_fn(t, gamma) for t in v.tolist()] - p_num))
    rows.append(_row("solvers", "closed_form_numeric_agreement", _worst(*agree), 1e-8))
    rows.append(_row("solvers", "resolvent_residual_contract", _worst(*res), 1e-10))

    # Warped resolvent with W = Id equals the prox route.
    quad = functions.quadratic(2)
    A = GradientOp(functions.quadratic(2))
    B = GradientOp(quad)
    warp = [0.0]
    for _ in range(20):
        x = rng.normal(size=2)
        z1 = solvers.warped_resolvent(identity(2), A, B, 0.5, x)
        z2 = prox(functions.quadratic(2), 0.5, x - 0.5 * B.apply(x))
        warp.append(np.abs(z1 - z2))
    rows.append(_row("solvers", "warped_equals_prox", _worst(*warp), 1e-10))


def _draw_pairs(rng, box, cbox, n):
    """n pairs (x, u*) of R^1, x in box and u* in cbox, as two (n, 1)
    arrays; one (n, 2) draw is the stream of n pairs drawn one at a time."""
    R = rng.random((n, 2))
    return _scale(box, R[:, :1]), _scale(cbox, R[:, 1:])


def _bregman_rows(f, X, Y):
    """f.bregman(X[i], Y[i]) for each row: +inf where Y[i] is not interior
    or f(X[i]) is +inf."""
    fx = np.array(functions._part_sums(f.parts, "eval", X))
    inside = ((f.dom_lo < Y) & (Y < f.dom_hi)).all(axis=1) & (fx < math.inf)
    out = np.full(len(X), math.inf)
    if inside.any():
        Xi, Yi = X[inside], Y[inside]
        # Row i of the stacked product is np.dot(Xi[i] - Yi[i], grad f(Yi[i])).
        dots = np.matmul((Xi - Yi)[:, None, :], f._gradient_at(Yi)[:, :, None])[:, 0, 0]
        out[inside] = fx[inside] - functions._part_sums(f.parts, "eval", Yi) - dots
    return out


def _bound_checks(rng, rows, n=300):
    # Each function x method is one batched call over the n drawn pairs,
    # and the exact values of a function are one call of its rows kernel.
    dom, zero, chain = [-math.inf], [0.0], [-math.inf]
    for name in ("burg", "boltzmann_shannon", "quadratic"):
        phi = functions.from_name(name)
        X, U = _draw_pairs(rng, _SAMPLE_BOX[name], _CONJ_BOX[name], n)
        exact = np.array(phi._fenchel_young_rows(X, U))
        for method in ("carlier_fy", "legendre_self", "bregman"):
            dom.append(bounds._fy_rows(phi, X, U, 1.0, method)[0] - exact)
        zero.append(bounds._fy_rows(phi, X, phi._gradient_at(X), 1.0, "pairing")[0])
        pairing_values = bounds._fy_rows(phi, X, U, 1.0, "pairing")[0]
        chain.append(bounds._fy_rows(phi, X, U, 1.0, "strong")[0] - pairing_values)
    rows.append(_row("bounds", "dominated_by_exact", _worst(*dom), 1e-9))
    rows.append(_row("bounds", "graph_pairs_give_zero", _worst(*zero), 1e-10))
    rows.append(_row("bounds", "strong_below_pairing", _worst(*chain), 1e-10))

    # Closed-form equality of the catalog Bregman bounds.
    burg = functions.burg()
    X, U = _draw_pairs(rng, (0.1, 5.0), (-5.0, -0.1), n)
    values, Z = bounds._fy_rows(burg, X, U, 1.0, "bregman")
    direct = _bregman_rows(burg, X, Z) + _bregman_rows(burg, Z, X)
    rows.append(_row("bounds", "burg_closed_form_equality", _worst(np.abs(values - direct)),
                     1e-10))


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

    Each row also carries the seed and, as ``suite_s``, the wall time of
    the suite that produced it. With corrupt=True the core tolerance is
    deliberately broken so the harness itself can be shown to fail
    (self-test mode)."""
    rng = np.random.default_rng(seed)
    rows = []
    for suite in (_core_checks, _function_checks, _operator_checks, _solver_checks,
                  _bound_checks, _oracle_checks, _gauge_checks):
        first, start = len(rows), perf_counter()
        suite(rng, rows)
        elapsed = perf_counter() - start
        for r in rows[first:]:
            r.update(seed=seed, suite_s=elapsed)
    if corrupt:
        for r in rows:
            if r["check"] == "gradient_finite_difference":
                r["threshold"] = 1e-30
                r["passed"] = r["measured"] <= r["threshold"]
    return rows
