"""Command-line front end: compute bounds, sweep gamma grids, run the
verification suites, reproduce the comparison figure, evaluate gauges.

All numeric CSV fields are written with 17 significant digits so 64-bit
floats round-trip exactly, and output is byte-identical for a fixed seed
and configuration, but for the wall times in the verify report's
``suite_s`` column.

The figure1 panels are evaluated as stacked rows: the 402 points of a
panel are (402, 1) arrays X, U, and each of its columns (new bound,
baseline, exact L_phi) is one array call, with the bytes of one call
per point."""

import argparse
import os
import sys

import numpy as np

from . import bounds, functions, verification
from .core import DomainError, DualPair
from .gauges import kt_gauge_bound, linear_quadratic_kt_instance
from .operators import AffineOp, GradientOp, Joca16Op, SkewPDOp
from .oracle import DEFAULT_SEED
from .solvers import ConvergenceError, NoSolutionError, UnsupportedOperatorError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

BOUND_HEADER = ["x", "u_star", "gamma", "method", "bound", "exact", "z", "residual"]
FIGURE_HEADER = ["x", "u_star", "new_bound", "carlier_bound", "exact_L"]
# seed is the resolved seed; suite_s the wall time of the suite behind the row.
VERIFY_HEADER = ["module", "check", "status", "measured", "threshold", "seed", "suite_s"]
GAUGE_HEADER = ["x", "y_star", "gauge_value", "component_primal", "component_dual"]
BOUND_METHODS = sorted(bounds.FY_METHODS + ("carlier_haraux",))
# The flags each route (--phi, else --op-a) reads besides its own, and the
# methods that read them; any other flag given is a configuration error.
_ROUTE_READS = {"phi": {"f": ("pairing", "bregman")},
               "op_a": {"f": ("bregman",), "op_w": ("pairing",)}}


class ConfigError(ValueError):
    pass


def _fmt(v):
    if v is None:
        return ""
    return f"{float(v):.17g}"


def _fmt_vec(v):
    return ";".join(_fmt(t) for t in np.atleast_1d(v))


def _parse_vec(text):
    try:
        return np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise ConfigError(f"cannot parse vector {text!r}") from None


def _parse_point(text):
    """A point "x;u" with ';' between the two vectors and ',' between
    coordinates, e.g. "1;-2" or "1,2;-1,-2"."""
    halves = text.split(";")
    if len(halves) != 2:
        raise ConfigError(f"point {text!r} must have the form 'x;u_star'")
    return _parse_vec(halves[0]), _parse_vec(halves[1])


def _parse_gammas(text):
    try:
        vals = [float(t) for t in text.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse gamma list {text!r}") from None
    if any(g <= 0 for g in vals):
        raise ConfigError("gamma values must be positive")
    return vals


def _load_matrix(path):
    try:
        return np.loadtxt(path, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file {path}: {exc}") from None


def _parse_operator(spec, dim):
    kind, _, rest = spec.partition(":")
    if kind in ("grad", "subdiff"):
        return GradientOp(functions.from_name(rest, dim))
    if kind == "affine":
        return AffineOp(_load_matrix(rest))
    if kind == "skew":
        return SkewPDOp(_load_matrix(rest))
    if kind == "joca16":
        beta_s, _, psi_name = rest.partition(",")
        psi = functions.from_name(psi_name, 1).parts[0]
        return Joca16Op(float(beta_s), psi)
    raise ConfigError(f"unknown operator spec {spec!r}")


def _write_file(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from None


def _write_rows(out, header, rows):
    lines = [",".join(header)]
    lines += [",".join(r) for r in rows]
    text = "\n".join(lines) + "\n"
    if out:
        _write_file(out, text)
    else:
        sys.stdout.write(text)


def _points_from_args(args):
    pts = []
    for text in args.point or []:
        x, u = _parse_point(text)
        pts.append(DualPair(x, u))
    if not pts:
        raise ConfigError("at least one --point is required")
    return pts


def _point_rows(phi, f, p, gammas, method, op_a=None, op_w=None):
    """The rows of one point, one per gamma. L_phi does not depend on gamma:
    it is computed once, after the point's first bound."""
    if phi is None and op_a is None:
        raise ConfigError("either --phi or --op-a is required")
    rows, exact = [], None
    for gamma in gammas:
        if phi is not None:
            b = bounds.fy_bound_dispatch(phi, f, p, gamma, method)
            if not rows:
                exact = bounds.exact_fenchel_young(phi, p)
                if not np.isfinite(exact):
                    exact = None
        else:
            b = bounds._operator_bound(op_a, p, gamma, method, op_w, f)
        rows.append([
            _fmt_vec(p.x),
            _fmt_vec(p.u_star),
            _fmt(gamma),
            b.method,
            _fmt(b.value),
            _fmt(exact),
            _fmt_vec(b.z),
            _fmt(b.diagnostics.get("residual", 0.0)),
        ])
    return rows


def cmd_bound(args):
    pts = _points_from_args(args)
    gammas = _parse_gammas(args.gamma)
    phi = functions.from_name(args.phi, pts[0].dim) if args.phi else None
    f = functions.from_name(args.f, pts[0].dim) if args.f else None
    op_a = _parse_operator(args.op_a, pts[0].dim) if args.op_a else None
    op_w = _parse_operator(args.op_w, pts[0].dim) if args.op_w else None
    rows = [row for p in pts for row in _point_rows(phi, f, p, gammas, args.method, op_a, op_w)]
    _write_rows(args.out, BOUND_HEADER, rows)
    return EXIT_OK


def cmd_verify(args):
    # Only verify samples. Its seed is --seed, else HARAUX_SEED, else the
    # fixed default.
    seed = args.seed
    if seed is None:
        env = os.environ.get("HARAUX_SEED")
        seed = int(env) if env is not None else DEFAULT_SEED
    rows = verification.run_checks(seed=seed, corrupt=args.self_test_corrupt)
    out_rows = [
        [
            r["module"],
            r["check"],
            "pass" if r["passed"] else "fail",
            _fmt(r["measured"]),
            _fmt(r["threshold"]),
            str(r["seed"]),
            _fmt(r["suite_s"]),
        ]
        for r in rows
    ]
    _write_rows(args.out, VERIFY_HEADER, out_rows)
    failed = [r for r in rows if not r["passed"]]
    for r in failed:
        print(f"FAILED: {r['module']}.{r['check']} "
              f"measured={r['measured']:.3e} threshold={r['threshold']:.3e}",
              file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# --------------------------------------------------------------------------
# Figure reproduction
# --------------------------------------------------------------------------

_GRID_N = 201


def _panel(phi, X, U, new, carlier):
    """The CSV rows of a panel from its (k, 1) arrays X, U and the k values
    of its two bounds; the exact L_phi column is one rows-kernel call."""
    exact = phi._fenchel_young_rows(X, U)
    columns = (X[:, 0].tolist(), U[:, 0].tolist(), new.tolist(), carlier.tolist(), exact)
    return [[_fmt(v) for v in row] for row in zip(*columns)]


def _burg_panel(gamma):
    burg = functions.burg()
    # x in 0.05..5 at u* = -1, then u* in -5..-0.05 at x = 1.
    X = np.concatenate([np.linspace(0.05, 5.0, _GRID_N), np.ones(_GRID_N)])[:, None]
    U = np.concatenate([np.full(_GRID_N, -1.0), np.linspace(-5.0, -0.05, _GRID_N)])[:, None]
    new, _ = bounds._fy_rows(burg, X, U, gamma, "legendre_self")
    carlier, _ = bounds._fy_rows(burg, X, U, gamma, "carlier_fy")
    return _panel(burg, X, U, new, carlier)


def _bs_panel(gamma):
    bs = functions.boltzmann_shannon()
    # x in 0.01..0.99 at u* = 1, then at u* = -1.
    X = np.tile(np.linspace(0.01, 0.99, _GRID_N), 2)[:, None]
    U = np.repeat([1.0, -1.0], _GRID_N)[:, None]
    new, _ = bounds._fy_rows(bs, X, U, gamma, "bregman", f=functions.fermi_dirac())
    carlier, _ = bounds._fy_rows(bs, X, U, gamma, "carlier_fy")
    return _panel(bs, X, U, new, carlier)


def _write_svg(path, title, rows):
    """Minimal self-contained line chart: new bound, baseline, exact."""
    width, height, margin = 640, 480, 50
    series = [
        ("new bound", "#1f77b4", [float(r[2]) for r in rows]),
        ("baseline bound", "#ff7f0e", [float(r[3]) for r in rows]),
        ("exact", "#2ca02c", [float(r[4]) for r in rows]),
    ]
    all_vals = [v for _, _, ys in series for v in ys if np.isfinite(v)]
    lo, hi = min(all_vals), max(all_vals)
    if hi <= lo:
        hi = lo + 1.0
    n = len(rows)

    def sx(i):
        return margin + (width - 2 * margin) * i / max(n - 1, 1)

    def sy(v):
        return height - margin - (height - 2 * margin) * (v - lo) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="20" text-anchor="middle">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 20}">grid index 0</text>',
        f'<text x="{width - margin}" y="{height - margin + 20}" '
        f'text-anchor="end">{n - 1}</text>',
        f'<text x="{margin - 5}" y="{height - margin}" text-anchor="end">{lo:.3g}</text>',
        f'<text x="{margin - 5}" y="{margin}" text-anchor="end">{hi:.3g}</text>',
    ]
    for k, (label, color, ys) in enumerate(series):
        pts = " ".join(
            f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(ys) if np.isfinite(v)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" points="{pts}"/>'
        )
        y_leg = margin + 18 * k
        parts.append(
            f'<line x1="{width - margin - 140}" y1="{y_leg}" '
            f'x2="{width - margin - 110}" y2="{y_leg}" stroke="{color}"/>'
        )
        parts.append(
            f'<text x="{width - margin - 104}" y="{y_leg + 4}">{label}</text>'
        )
    parts.append("</svg>")
    _write_file(path, "\n".join(parts) + "\n")


def cmd_figure1(args):
    out_dir = args.out or "figure1"
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from None
    panels = [
        ("burg_gamma0.1", "Burg entropy, gamma=0.1", _burg_panel(0.1)),
        ("burg_gamma1", "Burg entropy, gamma=1", _burg_panel(1.0)),
        ("burg_gamma10", "Burg entropy, gamma=10", _burg_panel(10.0)),
        ("boltzmann_shannon_gamma1",
         "Boltzmann-Shannon entropy, gamma=1", _bs_panel(1.0)),
    ]
    for name, title, rows in panels:
        _write_rows(os.path.join(out_dir, name + ".csv"), FIGURE_HEADER, rows)
        if args.format != "csv":
            _write_svg(os.path.join(out_dir, name + ".svg"), title, rows)
    return EXIT_OK


def _read_key_values(path, what):
    """(key, value) pairs of a key=value file; blank and '#' lines are
    skipped. ``what`` names the file in the error message."""
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from None
    pairs = []
    for line in lines:
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            pairs.append((key.strip(), value.strip()))
    return pairs


def _load_gauge_instance(path):
    cfg = dict(_read_key_values(path, "instance"))
    kind = cfg.get("type", "kt_linear_quadratic")
    if kind != "kt_linear_quadratic":
        raise ConfigError(f"unknown gauge instance type {kind!r}")
    try:
        if "L" in cfg and os.path.exists(cfg["L"]):
            L = _load_matrix(cfg["L"])
        else:
            L = np.array(
                [[float(t) for t in row.split()] for row in cfg["L"].split(";")]
            )
        x_bar = _parse_vec(cfg["x_bar"])
        y_bar = _parse_vec(cfg["y_bar"])
        gamma = float(cfg.get("gamma", "1"))
    except KeyError as exc:
        raise ConfigError(f"instance file is missing key {exc}") from None
    return linear_quadratic_kt_instance(x_bar, y_bar, L, gamma)


def cmd_gauge(args):
    inst = _load_gauge_instance(args.instance)
    n = inst.L.shape[1]
    rows = []
    for text in args.point or []:
        x, y_star = _parse_point(text)
        if x.shape[0] != n:
            raise ConfigError("point dimension does not match the instance")
        b = kt_gauge_bound(inst, x, y_star)
        rows.append([
            _fmt_vec(x),
            _fmt_vec(y_star),
            _fmt(b.value),
            _fmt(b.diagnostics["component_primal"]),
            _fmt(b.diagnostics["component_dual"]),
        ])
    if not rows:
        raise ConfigError("at least one --point is required")
    _write_rows(args.out, GAUGE_HEADER, rows)
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument plumbing
# --------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--phi", help="catalog function name for L_phi bounds")
    sub.add_argument("--f", help="kernel function for bregman/pairing methods")
    sub.add_argument("--op-a", dest="op_a", help="operator spec for H_A bounds")
    sub.add_argument("--op-w", dest="op_w", help="kernel operator spec")
    # gamma and method default to None so a --config file can fill them;
    # _resolve_bound_defaults applies the documented defaults afterwards.
    sub.add_argument("--method", choices=BOUND_METHODS,
                     help="bound method (default: legendre_self with --phi, "
                          "pairing with --op-a)")
    sub.add_argument("--gamma", help="step size or comma-separated grid (default: 1)")
    sub.add_argument("--point", action="append",
                     help="evaluation point 'x;u_star', ',' between coordinates")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="haraux",
        description="Lower bounds on Haraux and Fenchel-Young functions",
    )
    parser.add_argument("--config", help="key=value file mirroring the flags")
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("bound", "sweep"):
        sub = subs.add_parser(name)
        _add_common(sub)
        sub.add_argument("--out")

    sub = subs.add_parser("verify")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out")
    sub.add_argument("--self-test-corrupt", action="store_true",
                     help="deliberately break a tolerance (harness self-test)")

    sub = subs.add_parser("figure1")
    sub.add_argument("--out")
    sub.add_argument("--format", default="svg", choices=["csv", "svg"])

    sub = subs.add_parser("gauge")
    sub.add_argument("--instance", required=True)
    sub.add_argument("--point", action="append")
    sub.add_argument("--out")
    return parser


def _apply_config(args, path):
    for key, value in _read_key_values(path, "config"):
        key = key.replace("-", "_")
        if not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, key) is None:
            if key == "seed":
                value = int(value)
            elif key == "point":
                value = [value]
            setattr(args, key, value)


def _resolve_bound_defaults(args):
    if args.command not in ("bound", "sweep"):
        return
    if args.gamma is None:
        args.gamma = "1"
    if args.method is None:
        # The operator route has no phi for the self-pair bound.
        args.method = "pairing" if args.op_a and not args.phi else "legendre_self"
    if args.method not in BOUND_METHODS:
        raise ConfigError(f"unknown method {args.method!r}")
    if args.method == "carlier_haraux" and args.phi:
        raise ConfigError("method 'carlier_haraux' bounds H_A of an operator: "
                          "it needs --op-a in place of --phi")
    if args.method == "bregman" and args.op_a and not args.phi and not args.f:
        raise ConfigError("method 'bregman' on --op-a needs its kernel function: "
                          "pass --f")
    route = "phi" if args.phi else "op_a" if args.op_a else None
    for key in ("f", "op_a", "op_w") if route else ():
        reads = _ROUTE_READS[route].get(key, ())
        if key != route and getattr(args, key) and args.method not in reads:
            raise ConfigError(f"method {args.method!r} with --{route.replace('_', '-')} "
                              f"does not read --{key.replace('_', '-')}")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(args, args.config)
        _resolve_bound_defaults(args)
        handler = {
            "bound": cmd_bound,
            "sweep": cmd_bound,
            "verify": cmd_verify,
            "figure1": cmd_figure1,
            "gauge": cmd_gauge,
        }[args.command]
        return handler(args)
    except (ConfigError, ValueError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        print(f"error: numeric overflow at this input ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    except (NoSolutionError, ConvergenceError, UnsupportedOperatorError,
            bounds.InternalConsistencyError) as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
