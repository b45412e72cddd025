"""Seeded workloads of the haraux benchmark: inputs, ops and output checks.

An op is one timed call into the library. Each workload hands the runner
an endless sequence of blocks; a block is a fixed mix of ops, so a run
that completes whole blocks always measures the same mix whatever its
length. Inputs come only from the seed; the library sees nothing else.

Library functions are looked up as module attributes at call time
(``bounds.bound_pairing``), never bound to local names, so the traced run
sees its wrappers.
"""

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from haraux import bounds, cli, functions, operators, oracle, verification
from haraux.core import DualPair

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

GAMMA = 1.0
# A bound may exceed the exact value by this much (relative to 1+|exact|)
# before the output counts as wrong.
SLACK = 1e-9
# Reference comparison of floats that are not compared as CSV bytes.
REF_RTOL = 1e-9
REF_ATOL = 1e-12


@dataclass
class Op:
    """One timed call. ``check(result)`` returns a list of problems."""

    kind: str
    call: object
    check: object
    # Exceptions from a boundary op are the known defects the certify
    # workload measures; anywhere else an exception is a wrong output.
    boundary: bool = False


@dataclass
class Outcome:
    kind: str
    seconds: float
    problems: list = field(default_factory=list)
    exceptions: list = field(default_factory=list)
    runtime_warning: bool = False


def run_op(op, recorder=None, op_id=-1):
    """Run one op: time the call alone, then check its output.

    With a span recorder, spans of the call carry ``op_id``; spans of the
    check carry -1.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if recorder is not None:
            recorder.op_id = op_id
        t0 = perf_counter()
        try:
            result = op.call()
            exc = None
        except Exception as e:  # every library failure is recorded, never fatal
            exc = e
        t1 = perf_counter()
        if recorder is not None:
            recorder.op_id = -1
    out = Outcome(op.kind, t1 - t0,
                  runtime_warning=any(issubclass(w.category, RuntimeWarning) for w in caught))
    if exc is not None:
        out.exceptions.append(type(exc).__name__)
        if not op.boundary:
            out.problems.append(f"raised {type(exc).__name__}: {exc}")
        return out
    if op.boundary:
        out.exceptions.extend(type(b).__name__ for b in result if isinstance(b, Exception))
    out.problems.extend(op.check(result))
    return out


def _bound_ok(value, exact):
    """The domination check: 0 <= bound <= exact + slack."""
    if not math.isfinite(value) or value < 0.0:
        return False
    return value <= exact + SLACK * (1.0 + abs(exact)) if math.isfinite(exact) else True


def _close(a, b):
    return bool(np.allclose(a, b, rtol=REF_RTOL, atol=REF_ATOL))


def _fmt(v):
    # The CLI's CSV number format (17 significant digits).
    return f"{float(v):.17g}"


# --------------------------------------------------------------------------
# figure1: the four comparison panels at d = 1, plus one CLI call
# --------------------------------------------------------------------------

FIGURE1_PANELS = ("burg_gamma0.1", "burg_gamma1", "burg_gamma10", "boltzmann_shannon_gamma1")
_GRID_N = 201


def figure1_points():
    """(panel, row, x, u, gamma) for every point of the four panels, in the
    order the CLI writes them."""
    pts = []
    for panel, gamma in zip(FIGURE1_PANELS[:3], (0.1, 1.0, 10.0)):
        rows = [(x, -1.0) for x in np.linspace(0.05, 5.0, _GRID_N)]
        rows += [(1.0, u) for u in np.linspace(-5.0, -0.05, _GRID_N)]
        pts += [(panel, i, x, u, gamma) for i, (x, u) in enumerate(rows)]
    rows = [(x, u) for u in (1.0, -1.0) for x in np.linspace(0.01, 0.99, _GRID_N)]
    pts += [(FIGURE1_PANELS[3], i, x, u, 1.0) for i, (x, u) in enumerate(rows)]
    return pts


def load_figure1_reference():
    ref = {}
    for panel in FIGURE1_PANELS:
        with open(os.path.join(REFERENCE_DIR, "figure1", panel + ".csv"), "rb") as fh:
            ref[panel] = fh.read()
    return ref


def _burg_point(phi, x, u, gamma):
    p = DualPair([x], [u])
    new = bounds.bound_legendre_self(phi, p, gamma)
    carlier = bounds.bound_carlier_fy(phi, p, gamma)
    return new.value, carlier.value, bounds.exact_fenchel_young(phi, p)


def _bs_point(fd, A_bs, bs, x, u, gamma):
    p = DualPair([x], [u])
    new = bounds.bound_bregman(fd, A_bs, p, gamma)
    carlier = bounds.bound_carlier_fy(bs, p, gamma)
    return new.value, carlier.value, bounds.exact_fenchel_young(bs, p)


def _check_point(expected_row, x, u, result):
    new, carlier, exact = result
    problems = []
    row = ",".join(_fmt(v) for v in (x, u, new, carlier, exact))
    if row != expected_row:
        problems.append(f"row {row!r} differs from reference {expected_row!r}")
    for name, v in (("new", new), ("carlier", carlier)):
        if not _bound_ok(v, exact):
            problems.append(f"{name} bound {v!r} above exact {exact!r} + slack")
    return problems


def _figure1_cli(out_dir):
    return cli.main(["figure1", "--format", "csv", "--out", out_dir])


def _check_cli(reference, out_dir, code):
    if code != 0:
        return [f"figure1 CLI exited with {code}"]
    problems = []
    for panel in FIGURE1_PANELS:
        with open(os.path.join(out_dir, panel + ".csv"), "rb") as fh:
            if fh.read() != reference[panel]:
                problems.append(f"{panel}.csv differs from the reference bytes")
    return problems


class Figure1:
    """The 1608 points of the Figure 1 panels, in seeded order, and one
    ``figure1 --format csv`` CLI call per block."""

    name = "figure1"

    def __init__(self, out_dir, reference=None):
        self.out_dir = os.path.join(out_dir, "figure1-csv")
        os.makedirs(self.out_dir, exist_ok=True)
        self.reference = reference if reference is not None else load_figure1_reference()
        self.burg = functions.burg()
        self.bs = functions.boltzmann_shannon()
        self.fd = functions.fermi_dirac()
        self.A_bs = operators.SubdifferentialOp(self.bs)
        self.points = figure1_points()
        self.rows = {
            panel: text.decode().splitlines()[1:] for panel, text in self.reference.items()
        }

    def point_op(self, k):
        panel, i, x, u, gamma = self.points[k]
        if panel.startswith("burg"):
            call = partial(_burg_point, self.burg, x, u, gamma)
            kind = "burg_point"
        else:
            call = partial(_bs_point, self.fd, self.A_bs, self.bs, x, u, gamma)
            kind = "fermi_dirac_bs_point"
        return Op(kind, call, partial(_check_point, self.rows[panel][i], x, u))

    def cli_op(self):
        return Op("figure1_cli", partial(_figure1_cli, self.out_dir),
                  partial(_check_cli, self.reference, self.out_dir))

    def warm_up_op(self):
        return self.point_op(len(self.points) - 1)

    def gate_ops(self):
        return [self.cli_op()]

    def blocks(self, rng):
        while True:
            ops = [self.point_op(int(k)) for k in rng.permutation(len(self.points))]
            ops.insert(int(rng.integers(len(ops) + 1)), self.cli_op())
            yield ops


# --------------------------------------------------------------------------
# highdim: every bound method at d = 1000
# --------------------------------------------------------------------------

HIGHDIM_D = 1000
_X_BOX = {
    "burg": (0.05, 5.0),
    "boltzmann_shannon": (0.05, 5.0),
    "fermi_dirac": (0.01, 0.99),
    "quadratic": (-5.0, 5.0),
    "quad_plus:burg": (0.05, 5.0),
    "subdiff:burg": (0.05, 5.0),
}
_U_BOX = {
    "burg": (-5.0, -0.05),
    "boltzmann_shannon": (-3.0, 3.0),
    "fermi_dirac": (-3.0, 3.0),
    "quadratic": (-5.0, 5.0),
    "quad_plus:burg": (-5.0, 5.0),
    "subdiff:burg": (-5.0, -0.05),
}
HIGHDIM_KINDS = tuple(
    [(fn, m) for fn in ("burg", "boltzmann_shannon", "fermi_dirac", "quadratic")
     for m in bounds.FY_METHODS]
    + [("quad_plus:burg", "legendre_self"), ("quad_plus:burg", "carlier_fy"),
       ("subdiff:burg", "carlier_haraux")]
)
# Per block, each kind runs once except legendre_self, which runs this
# often. Latencies fall in classes: carlier_fy ~1 ms, legendre_self ~5 ms,
# bregman ~30-60 ms and the identity-kernel methods (pairing, strong,
# carlier_haraux) ~150 ms. With equal weights the median sits on the step
# between classes and jumps from run to run; this weight puts it inside the
# legendre_self class and the 90th percentile inside the slowest class.
LEGENDRE_SELF_WEIGHT = 6
HIGHDIM_REF_SEED = 20250821


def _highdim_point(rng, fn):
    x = rng.uniform(*_X_BOX[fn], size=HIGHDIM_D)
    u = rng.uniform(*_U_BOX[fn], size=HIGHDIM_D)
    return x, u


def _fy_bound(phi, method, x, u):
    return bounds.fy_bound_dispatch(phi, None, DualPair(x, u), GAMMA, method)


def _haraux_bound(A, x, u):
    return bounds.bound_carlier_haraux(A, DualPair(x, u), GAMMA)


def _check_highdim(phi, x, u, expected, result):
    problems = []
    value = float(result.value)
    z = np.asarray(result.z)
    exact = bounds.exact_fenchel_young(phi, DualPair(x, u))
    if not _bound_ok(value, exact):
        problems.append(f"bound {value!r} outside [0, exact {exact!r} + slack]")
    if z.shape != (HIGHDIM_D,) or not np.all(np.isfinite(z)):
        problems.append("auxiliary point z is not a finite vector of the input dimension")
    if expected is not None:
        ref_value, ref_z = expected
        if not _close(value, ref_value):
            problems.append(f"bound {value!r} differs from reference {float(ref_value)!r}")
        if z.shape != ref_z.shape or not _close(z, ref_z):
            problems.append("auxiliary point z differs from the reference")
    return problems


class HighDim:
    """Seeded interior points at d = 1000 for every FY method on the four
    separable catalog functions, the self-pair and Carlier bounds on
    ``quad_plus:burg``, and ``carlier_haraux`` with A = subdiff:burg."""

    name = "highdim"

    def __init__(self, out_dir=None, reference=None):
        self.phi = {fn: functions.from_name(fn, HIGHDIM_D) for fn in _X_BOX
                    if fn != "subdiff:burg"}
        self.A_burg = operators.SubdifferentialOp(functions.burg(HIGHDIM_D))
        self.reference = reference

    def kind_op(self, fn, method, x, u, expected=None):
        if method == "carlier_haraux":
            call = partial(_haraux_bound, self.A_burg, x, u)
            phi = self.phi["burg"]  # H_A <= L_phi for A = subdiff phi
        else:
            phi = self.phi[fn]
            call = partial(_fy_bound, phi, method, x, u)
        return Op(f"{fn}/{method}", call, partial(_check_highdim, phi, x, u, expected))

    def reference_inputs(self):
        rng = np.random.default_rng(HIGHDIM_REF_SEED)
        return [(fn, m) + _highdim_point(rng, fn) for fn, m in HIGHDIM_KINDS]

    def warm_up_op(self):
        x, u = _highdim_point(np.random.default_rng(0), "burg")
        return self.kind_op("burg", "pairing", x, u)

    def gate_ops(self):
        """One op per kind at the reference seed, checked against the
        reference values and auxiliary points."""
        ref = self.reference if self.reference is not None else load_highdim_reference()
        return [
            self.kind_op(fn, m, x, u, expected=(ref["value"][i], ref["z"][i]))
            for i, (fn, m, x, u) in enumerate(self.reference_inputs())
        ]

    def blocks(self, rng):
        mix = [k for k in HIGHDIM_KINDS
               for _ in range(LEGENDRE_SELF_WEIGHT if k[1] == "legendre_self" else 1)]
        while True:
            ops = []
            for j in rng.permutation(len(mix)):
                fn, method = mix[j]
                ops.append(self.kind_op(fn, method, *_highdim_point(rng, fn)))
            yield ops


def load_highdim_reference():
    with np.load(os.path.join(REFERENCE_DIR, "highdim.npz"), allow_pickle=False) as data:
        return {"value": data["value"], "z": data["z"], "kinds": data["kinds"]}


# --------------------------------------------------------------------------
# certify: verify suites, oracle certification and the boundary slice
# --------------------------------------------------------------------------

# The oracle grids: the 1-D default and a 129 x 129 grid in 2-D (one
# refinement to 257 x 257 at most).
CERT_N_1D = oracle.DEFAULT_N_1D
CERT_N_2D = 129
CERT_CAP_2D = 257
CERT_SLACK = 1e-6
# A = Joca16Op(2, quadratic) is the linear map JOCA_M, whose symmetric part
# is the identity. At u* = A x - v, H_A(x, u*) = |v|^2/4 and both bounds
# (pairing with W = Id, carlier_haraux) equal |v|^2/5, so the margin the
# oracle must resolve is |v|^2/20. Seeded 2-D points keep |v| in [1, 2],
# where the 129-point grid suffices; one fixed point per block, with
# |v| = 0.25, needs exactly one refinement to 257 points per axis.
JOCA_M = np.array([[1.0, -1.0], [1.0, 1.0]])
CERT_2D_V = (1.0, 2.0)
CERT_REFINE_X = np.array([0.5, -0.25])
CERT_REFINE_V = np.array([0.25, 0.0])
# Boundary slice: distance to an open boundary and |u*|, both log-uniform.
BOUNDARY_EDGES = (
    ("burg", 0.0),
    ("boltzmann_shannon", 0.0),
    ("fermi_dirac", 0.0),
    ("fermi_dirac", 1.0),
)
BOUNDARY_LOG10_DELTA = (-12.0, -1.0)
BOUNDARY_LOG10_U = (-3.0, 3.0)
# Boundary points per block and edge, next to one run_checks call and five
# certifications: the slow ops stay under 3% of a block, so the 90th
# percentile falls among boundary points. Within a block, log10 of the
# distance and of |u*| are stratified (one draw per stratum, strata paired
# at random) and the signs of u* are balanced, so every block holds the
# same mix of boundary cases whatever the seed.
BOUNDARY_PER_EDGE = 50
BOUNDARY_METHODS = bounds.FY_METHODS + ("fermi_dirac_over_bs",)


def load_verify_reference():
    with open(os.path.join(REFERENCE_DIR, "certify_verify_rows.json")) as fh:
        return json.load(fh)


def _run_checks():
    return verification.run_checks(seed=oracle.DEFAULT_SEED)


def _check_rows(reference, rows):
    problems = []
    if len(rows) != len(reference):
        return [f"{len(rows)} verify rows, reference has {len(reference)}"]
    for r, ref in zip(rows, reference):
        label = f"{ref['module']}.{ref['check']}"
        if not r["passed"]:
            problems.append(f"verify row {label} failed: measured {r['measured']!r}")
        if (r["module"], r["check"], r["passed"], r["threshold"]) != (
            ref["module"], ref["check"], ref["passed"], ref["threshold"]
        ):
            problems.append(f"verify row {label} differs from the reference")
        elif not math.isclose(r["measured"], ref["measured"], rel_tol=1e-6,
                              abs_tol=1e-3 * ref["threshold"]):
            problems.append(
                f"verify row {label} measured {r['measured']!r}, reference {ref['measured']!r}"
            )
    return problems


def _certify(A, method, x, u, n, cap):
    p = DualPair(x, u)
    if method == "pairing":
        b = bounds.bound_pairing(operators.identity(A.dim_in), A, p, GAMMA)
    else:
        b = bounds.bound_carlier_haraux(A, p, GAMMA)
    sample = oracle.sample_graph(A, oracle.default_box(A), n)
    return oracle.verify_bound(b, sample, CERT_SLACK, p=p, refinement_cap=cap)


def _check_certificate(report):
    if report["status"] != "consistent":
        return [f"oracle status {report['status']!r}: bound {report['bound']!r} "
                f"above sampled supremum {report['reference']!r}"]
    return []


def _boundary_point(phis, fd, A_bs, bs, name, x, u):
    """All five FY bounds and the Fermi-Dirac-over-entropy Bregman bound at
    one boundary point; a method that raises yields its exception."""
    p = DualPair([x], [u])
    out = []
    for method in BOUNDARY_METHODS:
        try:
            if method == "fermi_dirac_over_bs":
                out.append(bounds.bound_bregman(fd, A_bs, p, GAMMA))
            else:
                out.append(bounds.fy_bound_dispatch(phis[name], None, p, GAMMA, method))
        except Exception as exc:  # the defect is the measurement
            out.append(exc)
    return out


def _check_boundary(phis, bs, name, x, u, results):
    problems = []
    p = DualPair([x], [u])
    for method, b in zip(BOUNDARY_METHODS, results):
        if isinstance(b, Exception):
            continue
        phi = bs if method == "fermi_dirac_over_bs" else phis[name]
        try:
            exact = bounds.exact_fenchel_young(phi, p)
        except (OverflowError, ValueError):
            continue  # exact value not computable in floats: nothing to compare
        if not _bound_ok(b.value, exact):
            problems.append(f"{method} bound {b.value!r} above exact {exact!r} at x={x!r}, u*={u!r}")
    return problems


class Certify:
    """``run_checks``, oracle certifications (1-D subdiff:burg, 2-D
    Joca16Op(2, quadratic)) and boundary points of burg,
    boltzmann_shannon and fermi_dirac."""

    name = "certify"

    def __init__(self, out_dir=None, reference=None):
        self.reference = reference if reference is not None else load_verify_reference()
        self.phis = {name: functions.from_name(name) for name, _ in BOUNDARY_EDGES}
        self.fd = self.phis["fermi_dirac"]
        self.bs = self.phis["boltzmann_shannon"]
        self.A_bs = operators.SubdifferentialOp(self.bs)
        self.A_burg = operators.SubdifferentialOp(functions.burg(1))
        self.joca = operators.Joca16Op(2.0, functions.quadratic(1).parts[0])

    def run_checks_op(self):
        return Op("run_checks", _run_checks, partial(_check_rows, self.reference))

    def certification_op(self, rng, two_d, method):
        if two_d:
            x = rng.uniform(-2.0, 2.0, 2)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            v = rng.uniform(*CERT_2D_V) * np.array([np.cos(angle), np.sin(angle)])
            return self._joca_op("certify_2d/" + method, method, x, v)
        x, u = rng.uniform(0.2, 3.0, 1), rng.uniform(-3.0, -0.2, 1)
        call = partial(_certify, self.A_burg, method, x, u, CERT_N_1D, None)
        return Op("certify_1d/" + method, call, _check_certificate)

    def _joca_op(self, kind, method, x, v):
        call = partial(_certify, self.joca, method, x, JOCA_M @ x - v, CERT_N_2D, CERT_CAP_2D)
        return Op(kind, call, _check_certificate)

    def boundary_ops(self, rng):
        ops = []
        for name, edge in BOUNDARY_EDGES:
            n = BOUNDARY_PER_EDGE
            log_delta = _strata(rng, n, BOUNDARY_LOG10_DELTA)
            log_u = _strata(rng, n, BOUNDARY_LOG10_U)
            signs = rng.permutation(np.resize([-1.0, 1.0], n))
            for ld, lu, sign in zip(log_delta, log_u, signs):
                x = edge + 10.0 ** ld if edge == 0.0 else edge - 10.0 ** ld
                u = float(sign * 10.0 ** lu)
                call = partial(_boundary_point, self.phis, self.fd, self.A_bs, self.bs, name, x, u)
                ops.append(Op(f"boundary/{name}@{edge:g}", call,
                              partial(_check_boundary, self.phis, self.bs, name, x, u),
                              boundary=True))
        return ops

    def warm_up_op(self):
        # One boundary point: it runs every FY method (and LAPACK, through
        # the identity kernel's eigenvalue check) in about 20 ms, where a
        # 2-D certification would take most of the set-up time.
        return self.boundary_ops(np.random.default_rng(0))[0]

    def gate_ops(self):
        return []  # every run_checks op in a block is checked against the reference

    def blocks(self, rng):
        while True:
            ops = [self.run_checks_op(),
                   self._joca_op("certify_2d_refine/pairing", "pairing",
                                 CERT_REFINE_X, CERT_REFINE_V)]
            ops += [self.certification_op(rng, two_d, m)
                    for two_d in (False, True) for m in ("pairing", "carlier_haraux")]
            ops += self.boundary_ops(rng)
            yield [ops[int(k)] for k in rng.permutation(len(ops))]


def _strata(rng, n, interval):
    """One uniform draw in each of n equal strata of interval, shuffled."""
    lo, hi = interval
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


WORKLOADS = {"figure1": Figure1, "highdim": HighDim, "certify": Certify}
