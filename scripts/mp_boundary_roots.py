"""High-precision roots of the boundary calls that the chart solver is tested on.

    PYTHONPATH=/path/to/old/src python3 scripts/mp_boundary_roots.py \
        --out tests/data/boundary_roots.json

The calls are the ``pairing``, ``strong``, ``carlier_fy`` and ``bregman``
bounds at the certify boundary points of seeds 401-404 (see
``scripts/boundary_report.py``) on boltzmann_shannon and fermi_dirac that
raise on the haraux on sys.path. The committed file was written with the
sources of commit 0db0f3b, which clipped each open domain by 1e-13 before
solving. Each call solves one scalar equation at gamma = 1, with the
float right-hand side r that the library forms:

- pairing, strong and carlier_fy: z + gamma*phi'(z) = r = x + gamma*u;
- bregman (kernel phi itself): (1 + gamma)*phi'(z) = r = phi'(x) + gamma*u.

mpmath (60 digits) solves it in the chart coordinate of the domain and
records the root, its distance to the nearest end of the domain, and the
exact Fenchel-Young value L_phi(x, u), each to 40 digits, and a class:

- ``solvable``: a float strictly inside the domain, among the five floats
  nearest the root, has an exact residual within the solver's tolerance
  1e-12*(1 + |r|);
- ``edge``: none does, and the root lies between an end of the domain
  and the float inside the domain nearest that end;
- ``tolerance``: none does, and the root lies between two floats inside
  the domain.
"""

import argparse
import json
import os
import sys

import mpmath as mp
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SEEDS = (401, 402, 403, 404)
METHODS = ("pairing", "strong", "carlier_fy", "bregman")
FUNCTIONS = ("boltzmann_shannon", "fermi_dirac")
GAMMA = 1.0
ATOL = 1e-12
DIGITS = 40
mp.mp.dps = 60


def failing_calls():
    """(seed, edge, phi, method, x, u) of every selected call that raises
    on the haraux on sys.path."""
    sys.path.insert(0, PERFBENCH)
    import workloads
    from haraux import bounds
    from haraux.core import DualPair

    w = workloads.Certify(reference=[])
    out = []
    for seed in SEEDS:
        block = next(w.blocks(np.random.default_rng(seed)))
        for op in (op for op in block if op.boundary):
            name, x, u = op.call.args[-3:]
            if name not in FUNCTIONS:
                continue
            for method in METHODS:
                try:
                    bounds.fy_bound_dispatch(w.phis[name], None, DualPair([x], [u]),
                                             GAMMA, method)
                except Exception:  # the calls that raise are the ones recorded
                    out.append((seed, op.kind.split("/", 1)[1], name, method, x, u))
    return out


def float_rhs(name, method, x, u):
    """The right-hand side r as the library forms it in floats."""
    if method != "bregman":
        return x + GAMMA * u
    if name == "boltzmann_shannon":
        return float(np.log(x)) + GAMMA * u
    return float(np.log(x) - np.log(1.0 - x)) + GAMMA * u


def deriv(name, z):
    """phi'(z) in mpmath at a float or mpf z inside the domain."""
    z = mp.mpf(z)
    if name == "boltzmann_shannon":
        return mp.log(z)
    one_minus = 1 - z if z >= 0.5 else mp.exp(mp.log1p(-z))
    return mp.log(z) - mp.log(one_minus)


def solve(name, method, r):
    """The root in the chart coordinate t, with z = e^t on (0, inf) and
    z = 1/(1 + e^-t) on (0, 1), where phi'(z) = t."""
    r = mp.mpf(r)
    if method == "bregman":
        return r / (1 + GAMMA)
    if name == "boltzmann_shannon":
        h = lambda t: mp.exp(t) + GAMMA * t - r
    else:
        h = lambda t: 1 / (1 + mp.exp(-t)) + GAMMA * t - r
    a, b = mp.mpf(-1e5), mp.mpf(1e5)
    for _ in range(400):
        m = (a + b) / 2
        if h(m) > 0:
            b = m
        else:
            a = m
        if b - a < mp.mpf(10) ** (-55) * max(1, abs(m)):
            break
    return (a + b) / 2


def nearest_floats(name, t):
    """The float nearest the root z(t), as a float that may lie on an end
    of the domain, and the root's distance to the nearest end."""
    if name == "boltzmann_shannon":
        z = mp.exp(t)
        return float(z), z
    if t <= 0:
        z = 1 / (1 + mp.exp(-t))
        return float(z), z
    gap = 1 / (1 + mp.exp(t))
    # Floats in [0.5, 1) are k * 2^-53: round 1 - gap onto that grid.
    return 1.0 - int(mp.nint(gap * 2**53)) * 2.0**-53, gap


def exact_fenchel_young(name, x, u):
    x, u = mp.mpf(x), mp.mpf(u)
    if name == "boltzmann_shannon":
        return x * mp.log(x) - x + mp.exp(u) - x * u
    return x * mp.log(x) + (1 - x) * mp.log(1 - x) + mp.log1p(mp.exp(u)) - x * u


def classify(name, method, r, z0, gap):
    lo, hi = (0.0, mp.inf) if name == "boltzmann_shannon" else (0.0, 1.0)
    tol = ATOL * (1.0 + abs(r))
    cands = [z0]
    for direction in (-mp.inf, mp.inf):
        z = z0
        for _ in range(2):
            z = float(np.nextafter(z, float(direction)))
            cands.append(z)
    for z in cands:
        if lo < z < hi:
            if method == "bregman":
                g = (1 + GAMMA) * deriv(name, z)
            else:
                g = z + GAMMA * deriv(name, z)
            if abs(g - mp.mpf(r)) <= tol:
                return "solvable"
    # The first float inside the domain is 2^-1074 from 0, the last one
    # before 1 is 2^-53 from it.
    last = mp.mpf(2) ** (-1074 if z0 < 0.5 else -53)
    return "edge" if gap < last else "tolerance"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join("tests", "data", "boundary_roots.json"))
    args = ap.parse_args(argv)
    records = []
    for seed, edge, name, method, x, u in failing_calls():
        r = float_rhs(name, method, x, u)
        t = solve(name, method, r)
        z0, gap = nearest_floats(name, t)
        root = mp.exp(t) if name == "boltzmann_shannon" else 1 / (1 + mp.exp(-t))
        records.append({
            "seed": seed, "edge": edge, "phi": name, "method": method, "x": x, "u": u,
            "root": mp.nstr(root, DIGITS), "gap_to_edge": mp.nstr(gap, DIGITS),
            "exact": mp.nstr(exact_fenchel_young(name, x, u), DIGITS),
            "class": classify(name, method, r, z0, gap),
        })
    counts = {c: sum(r["class"] == c for r in records) for c in ("solvable", "edge", "tolerance")}
    head = json.dumps({"description": __doc__.split("\n\n")[0], "gamma": GAMMA,
                       "counts": counts})
    with open(args.out, "w") as fh:
        # One call per line.
        fh.write(head[:-1] + ', "calls": [\n' + ",\n".join(map(json.dumps, records))
                 + "\n]}\n")
    print(len(records), counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
