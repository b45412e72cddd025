"""Pin the bits of the resolvent-based bounds.

    PYTHONPATH=src python3 scripts/pin_resolvent_bits.py --out tests/data/resolvent_bits.json

Runs each call of ``calls()`` in this process, with RuntimeWarning raised
as an error as the test suite raises it, and stores the ``repr`` of the
result's value, z, method and diagnostics (keys in order), or the type
and message of the exception it raises. The calls cover:

- seeded points (to 6 significant digits) at d = 1, 2, 10, 23 and 24, on both sides of the
  solvers' elementwise crossover (24 coordinates): at one point per
  function of PHIS, ``pairing``, ``strong`` and ``bregman`` through
  ``fy_bound_dispatch`` and ``carlier_haraux`` on subdiff(phi); at one
  more, ``bound_bregman`` of Fermi-Dirac over subdiff(Boltzmann-Shannon);
- one ``_fy_rows`` batch of 3 rows at d = 2 per function of PHIS, under
  each Fenchel-Young method;
- BOUNDARY_POINTS points of the benchmark's boundary slice (1e-12 to 1e-1
  from an open edge, |u*| from 1e-3 to 1e3, either sign), each under the
  five Fenchel-Young methods and Fermi-Dirac over Boltzmann-Shannon at
  gamma = 1.

``tests/test_resolvent_bits.py`` replays every call against the file.
"""

import argparse
import json
import sys
import warnings

import numpy as np

SEED = 20251022
PHIS = ("burg", "boltzmann_shannon", "fermi_dirac", "quadratic", "quad_plus:burg")
DIMS = (1, 2, 10, 23, 24)
GAMMAS = (0.3, 1.0, 4.0)
METHODS = ("pairing", "strong", "bregman")
FY_METHODS = ("pairing", "strong", "bregman", "legendre_self", "carlier_fy")
X_BOX = {"burg": (0.05, 5.0), "boltzmann_shannon": (0.05, 5.0), "fermi_dirac": (0.01, 0.99),
         "quadratic": (-5.0, 5.0), "quad_plus:burg": (0.05, 5.0)}
U_BOX = {"burg": (-5.0, -0.05), "boltzmann_shannon": (-3.0, 3.0), "fermi_dirac": (-3.0, 3.0),
         "quadratic": (-5.0, 5.0), "quad_plus:burg": (-3.0, 3.0)}
EDGES = (("burg", 0.0), ("boltzmann_shannon", 0.0), ("fermi_dirac", 0.0), ("fermi_dirac", 1.0))
BOUNDARY_POINTS = 40


def calls():
    rng = np.random.default_rng(SEED)
    out = []
    k = 0
    for d in DIMS:
        for name in PHIS + ("fd_bs",):
            box = "fermi_dirac" if name == "fd_bs" else name
            x = _digits(rng.uniform(*X_BOX[box], d))
            u = _digits(rng.uniform(*U_BOX["boltzmann_shannon" if name == "fd_bs" else name], d))
            gamma = GAMMAS[k % len(GAMMAS)]
            k += 1
            if name == "fd_bs":
                out.append({"call": "fd_bs", "gamma": gamma, "x": x, "u": u})
                continue
            out.append({"call": "point", "phi": name, "gamma": gamma, "x": x, "u": u})
    for name in PHIS:
        X, U = (rng.uniform(*box[name], (3, 2)).tolist() for box in (X_BOX, U_BOX))
        out.append({"call": "fy_rows", "phi": name, "gamma": 1.0, "x": X, "u": U})
    for i in range(BOUNDARY_POINTS):
        name, edge = EDGES[i % len(EDGES)]
        delta = 10.0 ** rng.uniform(-12.0, -1.0)
        u = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        out.append({"call": "boundary", "phi": name, "gamma": 1.0,
                    "x": [edge + delta if edge == 0.0 else edge - delta], "u": [u]})
    return out


def _digits(v):
    """The entries of v to 6 significant digits, as a list."""
    return [float(f"{t:.6g}") for t in v.tolist()]


def _repr(v):
    return repr(v.item() if isinstance(v, np.generic) else v)


def _outcome(fn):
    """The repr record of the BoundResult fn returns, or of what it raises."""
    try:
        b = fn()
    except Exception as exc:  # the exception is the pinned result
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"value": _repr(b.value), "z": [repr(t) for t in b.z.tolist()], "method": b.method,
            "diagnostics": [[key, _repr(v)] for key, v in b.diagnostics.items()]}


def _rows_outcome(phi, X, U, gamma, method):
    """The repr record of the values and z of one ``_fy_rows`` batch, or of what it raises."""
    from haraux import bounds

    try:
        values, Z = bounds._fy_rows(phi, X, U, gamma, method)
    except Exception as exc:  # the exception is the pinned result
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"values": [repr(v) for v in values.tolist()],
            "z": [[repr(t) for t in row] for row in Z.tolist()]}


def run(call):
    """The pinned record of one call of ``calls()``."""
    from haraux import bounds, functions, operators
    from haraux.core import DualPair

    gamma, name = call["gamma"], call.get("phi")
    if call["call"] == "fy_rows":
        return [_rows_outcome(functions.from_name(name, 2), np.array(call["x"]),
                              np.array(call["u"]), gamma, m) for m in FY_METHODS]
    d = len(call["x"])
    p = DualPair(call["x"], call["u"])
    fd = functions.fermi_dirac(d)
    A_bs = operators.GradientOp(functions.boltzmann_shannon(d))
    if call["call"] == "fd_bs":
        return _outcome(lambda: bounds.bound_bregman(fd, A_bs, p, gamma))
    phi = functions.from_name(name, d)
    methods = METHODS if call["call"] == "point" else FY_METHODS
    out = [_outcome(lambda m=m: bounds.fy_bound_dispatch(phi, None, p, gamma, m))
           for m in methods]
    if call["call"] == "point":
        A = operators.GradientOp(phi)
        return out + [_outcome(lambda: bounds.bound_carlier_haraux(A, p, gamma))]
    return out + [_outcome(lambda: bounds.bound_bregman(fd, A_bs, p, gamma))]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        entries = [dict(call, out=run(call)) for call in calls()]
    with open(args.out, "w") as fh:
        # One call per line.
        fh.write('{"calls": [\n' + ",\n".join(json.dumps(e, separators=(",", ":"))
                                                 for e in entries) + "\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
