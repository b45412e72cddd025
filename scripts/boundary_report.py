"""Failure table of the benchmark's certify boundary slice, for one or more source trees.

    python3 scripts/boundary_report.py --tree parent=/path/to/old/src --tree change=src \
        --out BENCH_boundary.json [--seeds 401-404]

The boundary slice is the 200 boundary points of the first block of the
certify workload (``perfbench/workloads.py``) at each seed: 50 per open
edge (burg and boltzmann_shannon at 0, fermi_dirac at 0 and 1), each
running the five Fenchel-Young methods and the Fermi-Dirac-over-entropy
Bregman bound. Each tree is run in a fresh child process that imports
haraux from that tree and the workload from this checkout, with BLAS
pinned to one thread. For each tree the report gives:

- ``table``: edge -> method -> outcome -> count, where the outcome is
  ``ok`` or the name of the exception raised;
- ``messages``: the exception messages, with their numbers removed, and
  their counts;
- ``wrong``: the outputs the workload's own check rejects (a bound above
  the exact value plus slack);
- ``runtime_warnings``: the points whose calls emitted a RuntimeWarning;
- ``points_ok``: the points at which every call succeeded;
- ``wall_s``: the wall time of the whole slice (the sum over points);
- ``g_evaluations``: the number of scalar solves the slice runs
  (``solve_scalar_increasing`` calls) and the total and largest number of
  evaluations of g among them, counted by wrapping each solve's g.

Every tree after the first is compared with the first call by call:
``changed`` counts the calls whose outcome moved from one class to
another, and ``drift`` lists the calls that succeed on both trees with a
different method or a value that differs by more than rel 1e-9.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import warnings
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DRIFT_RTOL = 1e-9
_NUMBER = re.compile(r"-?\d[\w.+-]*")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _count_g_evaluations():
    """Wrap solve_scalar_increasing, where the haraux on sys.path binds it,
    so that each call appends the number of times it evaluates g to the
    returned list."""
    from haraux import bounds, solvers

    counts, solve = [], solvers.solve_scalar_increasing

    def counted(g, *args, **kwargs):
        n = 0

        def g_counted(z):
            nonlocal n
            n += 1
            return g(z)

        try:
            return solve(g_counted, *args, **kwargs)
        finally:
            counts.append(n)

    for module in (solvers, bounds):
        if getattr(module, "solve_scalar_increasing", None) is solve:
            module.solve_scalar_increasing = counted
    return counts


def measure(seeds):
    """Every call of the boundary slice at each seed, on the haraux on
    sys.path: a dict with the records, the slice's wall time and the g
    evaluations of its scalar solves."""
    sys.path.insert(0, PERFBENCH)
    import numpy as np
    import workloads

    evaluations = _count_g_evaluations()
    w = workloads.Certify(reference=[])
    calls, wrong, warned, wall = [], [], 0, 0.0
    for seed in seeds:
        block = next(w.blocks(np.random.default_rng(seed)))
        for op in (op for op in block if op.boundary):
            name, x, u = op.call.args[-3:]
            edge = op.kind.split("/", 1)[1]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = perf_counter()
                results = op.call()
                wall += perf_counter() - t0
                problems = op.check(results)
            warned += any(issubclass(c.category, RuntimeWarning) for c in caught)
            wrong += [f"seed {seed} {edge}: {p}" for p in problems]
            for method, r in zip(workloads.BOUNDARY_METHODS, results):
                rec = {"seed": seed, "edge": edge, "x": x, "u": u, "method": method}
                if isinstance(r, Exception):
                    rec.update(outcome=type(r).__name__, message=str(r))
                else:
                    rec.update(outcome="ok", route=r.method, value=float(r.value))
                calls.append(rec)
    return {"calls": calls, "wrong": wrong, "runtime_warnings": warned, "wall_s": wall,
            "g_evaluations": {"solves": len(evaluations), "total": sum(evaluations),
                              "max": max(evaluations, default=0)}}


def summarize(run):
    table, messages, points = {}, Counter(), {}
    for c in run["calls"]:
        cell = table.setdefault(c["edge"], {}).setdefault(c["method"], {})
        cell[c["outcome"]] = cell.get(c["outcome"], 0) + 1
        if c["outcome"] != "ok":
            messages[c["outcome"] + ": " + _NUMBER.sub("#", c["message"])] += 1
        key = (c["seed"], c["edge"], c["x"], c["u"])
        points[key] = points.get(key, True) and c["outcome"] == "ok"
    return {
        "calls": len(run["calls"]),
        "failed": sum(c["outcome"] != "ok" for c in run["calls"]),
        "points": len(points),
        "points_ok": sum(points.values()),
        "wrong": run["wrong"],
        "runtime_warnings": run["runtime_warnings"],
        "wall_s": run["wall_s"],
        "g_evaluations": run["g_evaluations"],
        "table": table,
        "messages": dict(messages.most_common()),
    }


def compare(base, other):
    changed, drift = Counter(), []
    for a, b in zip(base["calls"], other["calls"]):
        if a["outcome"] != b["outcome"]:
            changed[f"{a['outcome']} -> {b['outcome']}"] += 1
        elif a["outcome"] == "ok" and (
                a["route"] != b["route"]
                or abs(a["value"] - b["value"]) > DRIFT_RTOL * abs(a["value"])):
            drift.append({k: a[k] for k in ("seed", "edge", "x", "u", "method")}
                         | {"routes": [a["route"], b["route"]],
                            "values": [a["value"], b["value"]]})
    return {"changed": dict(changed.most_common()), "drift": drift}


def run_tree(src, seeds):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.update({var: "1" for var in THREAD_VARS})
    spec = f"{seeds[0]}-{seeds[-1]}"
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure",
                           "--seeds", spec], env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[], metavar="NAME=SRC",
                    help="a source tree (the directory holding haraux)")
    ap.add_argument("--seeds", default="401-404", help="seed range, e.g. 401-404")
    ap.add_argument("--out", default="BENCH_boundary.json")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    if args.measure:
        print(json.dumps(measure(seeds)))
        return 0
    if not args.tree:
        ap.error("give at least one --tree NAME=SRC")
    import numpy as np

    trees = [spec.partition("=")[::2] for spec in args.tree]
    runs = {name: run_tree(src, seeds) for name, src in trees}
    first = trees[0][0]
    result = {
        "description": __doc__.split("\n\n")[0],
        "seeds": seeds,
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "blas_threads": 1},
        "trees": {name: summarize(run) for name, run in runs.items()},
        "against_" + first: {name: compare(runs[first], run)
                             for name, run in runs.items() if name != first},
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
