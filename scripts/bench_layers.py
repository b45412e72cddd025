"""Layer costs of haraux at d = 1, 10, 100 and 1000, for one or more source trees.

    python3 scripts/bench_layers.py --tree parent=/path/to/old/src --tree change=src \
        --out BENCH_layers.json

Each tree is measured in a fresh child process that imports haraux from
that tree, with BLAS pinned to one thread; the trees take turns, 5 runs
each, each round in the reverse order of the round before, so drift in
machine speed reaches all trees alike. Every entry is the median of its 5
runs with their interquartile range beside it, ``{"median": ..., "iqr":
...}``, so that a move between trees can be read against their spread.
The layers are:

- ``as_vector``: validation of a float64 vector;
- ``scalar_root``: one ``solve_scalar_increasing`` call (the Fermi-Dirac
  prox equation z + ln(z/(1-z)) = t); it does not depend on d;
- ``resolvent``: ``solve_resolvent`` with the identity kernel and
  A = subdiff(phi), for each catalog phi;
- ``bound``: each Fenchel-Young method on each catalog phi, and
  ``carlier_haraux`` with A = subdiff(burg);
- ``bound_bregman_closed``: ``bound_bregman`` on its two closed-form
  routes, the Burg self-pair and Fermi-Dirac over Boltzmann-Shannon,
  whose diagnostics are not read; and, under ``<route>/residual``, the
  same call followed by a read of ``diagnostics["residual"]``, which
  runs the generic cross-check solve that fills the diagnostics;
- ``figure1_point``: the two point ops of the benchmark's figure1
  workload at d = 1, each a ``DualPair``, the new bound, ``carlier_fy``
  and the exact value at one point: ``burg`` (``legendre_self``) and
  ``fermi_dirac_bs`` (``bound_bregman`` with kernel Fermi-Dirac over
  subdiff(Boltzmann-Shannon)); they do not depend on d;
- ``boundary_point``: the boundary op of the benchmark's certify
  workload at d = 1, the five Fenchel-Young methods through
  ``fy_bound_dispatch`` and ``bound_bregman`` of Fermi-Dirac over
  subdiff(Boltzmann-Shannon) at gamma = 1, a method that raises caught as
  there; at one point per open edge of BOUNDARY_EDGES, at each distance of
  BOUNDARY_DELTAS from it, with u* = BOUNDARY_U; it does not depend on d;
- ``sample_graph``: the oracle grid of subdiff(burg); a d-dimensional grid
  has n^d points, so it is measured at d = 1 (4096 points), d = 2
  (129 x 129) and d = 10 (2 per axis) only; and, under the key
  ``joca16:quadratic``, the 257 x 257 grid of Joca16Op(2, quadratic), the
  refined grid of the 2-D oracle certification;
- ``run_checks``: the whole verify suite, ``verification.run_checks`` at
  its default seed; it does not depend on d;
- ``verify_suites``: each of the seven suites of ``run_checks``, run in
  order from the default seed as ``run_checks`` runs them, each timed
  alone; it does not depend on d;
- ``figure1_cli``: the whole ``haraux figure1 --format csv`` command,
  ``cli.main`` writing the four panel CSVs to a temporary directory; it
  does not depend on d.
- ``sweep_cli``: the whole ``haraux sweep`` command, ``cli.main`` writing
  a CSV to a temporary directory, on 100 seeded points of d = 10 times
  the 10 values of SWEEP_GAMMAS, for each of SWEEP_CASES: Fermi-Dirac
  ``pairing``, Boltzmann-Shannon ``carlier_fy`` and Burg ``bregman``; it
  is measured at d = 10 only.

Each tree also records ``src_lines``: the line count (as ``wc -l`` gives
it) of each module of the ``haraux`` package it imports, and their total.

A tree whose solvers have the private ``_ELEMENTWISE_MIN_DIM`` also gets
the resolvent crossover: the time of the coordinate-by-coordinate loop and
of the elementwise solve at each d of a sweep, both forced through that
constant and timed back to back (median of 5 rounds), and the smallest d
from which the elementwise solve costs less, summed over the catalog
functions, at that d and every larger one.

Within a run, every time is the median of 5 samples, in microseconds per
call; a sample times enough calls to last at least 20 ms.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

DIMS = (1, 10, 100, 1000)
SWEEP = (1, 2, 4, 8, 12, 16, 20, 24, 32, 48, 64, 128)
CATALOG = ("burg", "boltzmann_shannon", "fermi_dirac", "quadratic")
X_BOX = {"burg": (0.05, 5.0), "boltzmann_shannon": (0.05, 5.0),
         "fermi_dirac": (0.01, 0.99), "quadratic": (-5.0, 5.0)}
U_BOX = {"burg": (-5.0, -0.05), "boltzmann_shannon": (-3.0, 3.0),
         "fermi_dirac": (-3.0, 3.0), "quadratic": (-5.0, 5.0)}
SAMPLES = 5
SAMPLE_S = 0.02
CROSSOVER_ROUNDS = 5
TREE_ROUNDS = 5
SEED = 20251018
# The suites of verification.run_checks, in the order it runs them.
VERIFY_SUITES = ("core", "function", "operator", "solver", "bound", "oracle", "gauge")
SWEEP_CASES = (("fermi_dirac", "pairing"), ("boltzmann_shannon", "carlier_fy"),
               ("burg", "bregman"))
SWEEP_GAMMAS = "0.1,0.2,0.3,0.5,0.7,1,2,3,5,10"
SWEEP_POINTS, SWEEP_DIM = 100, 10
# The open domain edges of the certify workload's boundary slice.
BOUNDARY_EDGES = (("burg", 0.0), ("boltzmann_shannon", 0.0), ("fermi_dirac", 0.0),
                  ("fermi_dirac", 1.0))
BOUNDARY_DELTAS = (1e-12, 1e-6, 1e-1)
BOUNDARY_U = 1.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def time_call(fn):
    """Median over SAMPLES of the seconds per call of fn, in microseconds."""
    fn()
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - t0 >= SAMPLE_S:
            break
        n *= 2
    samples = []
    for _ in range(SAMPLES):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def suite_times(np, verification, seed):
    """Microseconds per call of each verify suite, the suites run in order
    from ``seed`` in each round; the median of SAMPLES rounds after one
    warm-up round."""
    rounds = {name: [] for name in VERIFY_SUITES}
    for _ in range(SAMPLES + 1):
        rng, rows = np.random.default_rng(seed), []
        for name in VERIFY_SUITES:
            suite = getattr(verification, f"_{name}_checks")
            t0 = perf_counter()
            suite(rng, rows)
            rounds[name].append((perf_counter() - t0) * 1e6)
    return {name: statistics.median(times[1:]) for name, times in rounds.items()}


def src_lines(package):
    """The newline count of each module in the directory ``package``, and their total."""
    modules = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                modules[name] = fh.read().count("\n")
    return {"total": sum(modules.values()), "modules": modules}


def measure():
    """The layer costs of the haraux on sys.path, as a dict."""
    import numpy as np

    import haraux
    from haraux import bounds, cli, core, functions, operators, oracle, solvers, verification
    from haraux.core import DualPair

    # Spin before the first sample, so it is not taken at a lower clock.
    t_end = perf_counter() + 0.5
    while perf_counter() < t_end:
        pass
    rng = np.random.default_rng(SEED)
    points = {fn: (rng.uniform(*X_BOX[fn], max(DIMS)), rng.uniform(*U_BOX[fn], max(DIMS)))
              for fn in CATALOG}
    out = {"as_vector": {}, "resolvent": {fn: {} for fn in CATALOG}, "bound": {},
           "sample_graph": {}}
    for d in DIMS:
        out["as_vector"][d] = time_call(lambda: core.as_vector(points["burg"][0][:d]))

    # The Fermi-Dirac prox equation with step 1, as the prox solves it.
    fd = functions.fermi_dirac().parts[0]
    out["scalar_root"] = time_call(lambda: solvers.solve_scalar_increasing(
        lambda z: z + fd.deriv(z), lambda z: 1.0 + fd.deriv2(z), fd.dom, 0.3, 1e-12))

    def resolvent(fn, d):
        x, u = points[fn]
        A = operators.SubdifferentialOp(functions.from_name(fn, d))
        problem = solvers.ResolventProblem(operators.identity(d), A, 1.0, x[:d] + u[:d])
        return lambda: solvers.solve_resolvent(problem)

    for fn in CATALOG:
        for d in DIMS:
            out["resolvent"][fn][d] = time_call(resolvent(fn, d))

    for fn in CATALOG:
        x, u = points[fn]
        for method in bounds.FY_METHODS:
            costs = out["bound"][f"{fn}/{method}"] = {}
            for d in DIMS:
                phi = functions.from_name(fn, d)
                p = DualPair(x[:d], u[:d])
                costs[d] = time_call(lambda: bounds.fy_bound_dispatch(phi, None, p, 1.0, method))
    costs = out["bound"]["subdiff:burg/carlier_haraux"] = {}
    x, u = points["burg"]
    for d in DIMS:
        A = operators.SubdifferentialOp(functions.burg(d))
        p = DualPair(x[:d], u[:d])
        costs[d] = time_call(lambda: bounds.bound_carlier_haraux(A, p, 1.0))

    out["bound_bregman_closed"] = {}
    for key, f, a in (("burg", "burg", "burg"),
                      ("fermi_dirac_bs", "fermi_dirac", "boltzmann_shannon")):
        costs = out["bound_bregman_closed"][key] = {}
        read = out["bound_bregman_closed"][f"{key}/residual"] = {}
        x, u = points[f]
        for d in DIMS:
            kernel = functions.from_name(f, d)
            A = operators.SubdifferentialOp(functions.from_name(a, d))
            p = DualPair(x[:d], u[:d])
            costs[d] = time_call(lambda: bounds.bound_bregman(kernel, A, p, 1.0))
            read[d] = time_call(
                lambda: bounds.bound_bregman(kernel, A, p, 1.0).diagnostics["residual"])

    # The figure1 point ops as the benchmark's workload calls them.
    burg, bs, fd = functions.burg(), functions.boltzmann_shannon(), functions.fermi_dirac()
    A_bs = operators.SubdifferentialOp(bs)

    def burg_point():
        p = DualPair([2.5], [-1.0])
        bounds.bound_legendre_self(burg, p, 1.0)
        bounds.bound_carlier_fy(burg, p, 1.0)
        bounds.exact_fenchel_young(burg, p)

    def fermi_dirac_bs_point():
        p = DualPair([0.5], [1.0])
        bounds.bound_bregman(fd, A_bs, p, 1.0)
        bounds.bound_carlier_fy(bs, p, 1.0)
        bounds.exact_fenchel_young(bs, p)

    out["figure1_point"] = {"burg": time_call(burg_point),
                            "fermi_dirac_bs": time_call(fermi_dirac_bs_point)}

    def boundary_point(phi, p):
        for method in bounds.FY_METHODS + ("fermi_dirac_over_bs",):
            try:
                if method == "fermi_dirac_over_bs":
                    bounds.bound_bregman(fd, A_bs, p, 1.0)
                else:
                    bounds.fy_bound_dispatch(phi, None, p, 1.0, method)
            except Exception:  # a failing method is part of the op, as in certify
                pass

    out["boundary_point"] = {}
    for name, edge in BOUNDARY_EDGES:
        phi = functions.from_name(name)
        costs = out["boundary_point"][f"{name}@{edge:g}"] = {}
        for delta in BOUNDARY_DELTAS:
            p = DualPair([edge + delta if edge == 0.0 else edge - delta], [BOUNDARY_U])
            costs[f"{delta:g}"] = time_call(lambda: boundary_point(phi, p))

    for d, n in ((1, oracle.DEFAULT_N_1D), (2, 129), (10, 2)):
        A = operators.SubdifferentialOp(functions.burg(d))
        box = oracle.default_box(A)
        out["sample_graph"][d] = {"n_per_dim": n,
                                  "us": time_call(lambda: oracle.sample_graph(A, box, n))}
    A = operators.Joca16Op(2.0, functions.quadratic(1).parts[0])
    box = oracle.default_box(A)
    out["sample_graph"]["joca16:quadratic"] = {
        "n_per_dim": 257, "us": time_call(lambda: oracle.sample_graph(A, box, 257))}

    out["run_checks"] = time_call(lambda: verification.run_checks(seed=oracle.DEFAULT_SEED))
    out["verify_suites"] = suite_times(np, verification, oracle.DEFAULT_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        out["figure1_cli"] = time_call(
            lambda: cli.main(["figure1", "--format", "csv", "--out", tmp]))
        out["sweep_cli"] = sweep_cli(np, cli, tmp)

    if hasattr(solvers, "_ELEMENTWISE_MIN_DIM"):
        out["crossover"] = crossover(solvers, resolvent)
    out["src_lines"] = src_lines(os.path.dirname(haraux.__file__))
    return out


def sweep_cli(np, cli, tmp):
    """Microseconds per ``haraux sweep`` call of each of SWEEP_CASES."""
    rng = np.random.default_rng(SEED + 1)
    out = {}
    for fn, method in SWEEP_CASES:
        points = [f"--point={','.join(map(repr, x.tolist()))};{','.join(map(repr, u.tolist()))}"
                  for x, u in zip(rng.uniform(*X_BOX[fn], (SWEEP_POINTS, SWEEP_DIM)),
                                  rng.uniform(*U_BOX[fn], (SWEEP_POINTS, SWEEP_DIM)))]
        argv = ["sweep", "--phi", fn, "--method", method, "--gamma", SWEEP_GAMMAS,
                "--out", os.path.join(tmp, "sweep.csv")] + points
        if cli.main(argv) != 0:
            raise RuntimeError(f"haraux sweep failed on {fn}/{method}")
        out[f"{fn}/{method}"] = time_call(lambda: cli.main(argv))
    return out


def crossover(solvers, resolvent):
    """Both resolvent paths over SWEEP. The two paths are timed back to
    back at each d and function, and each time is the median of
    CROSSOVER_ROUNDS such pairs, so drift in machine speed affects both."""
    kept = solvers._ELEMENTWISE_MIN_DIM
    paths = {"scalar_us": max(SWEEP) + 1, "elementwise_us": 1}
    rounds = {path: {fn: [[] for _ in SWEEP] for fn in CATALOG} for path in paths}
    try:
        for _ in range(CROSSOVER_ROUNDS):
            for k, d in enumerate(SWEEP):
                for fn in CATALOG:
                    for path, constant in paths.items():
                        solvers._ELEMENTWISE_MIN_DIM = constant
                        rounds[path][fn][k].append(time_call(resolvent(fn, d)))
    finally:
        solvers._ELEMENTWISE_MIN_DIM = kept
    result = {"d": list(SWEEP)}
    for path in paths:
        result[path] = {fn: [statistics.median(t) for t in rounds[path][fn]] for fn in CATALOG}
    return result


def add_crossover_d(result):
    """Totals over the catalog functions, and the smallest d of SWEEP from
    which the elementwise solve costs less at that d and every larger one."""
    for path in ("scalar", "elementwise"):
        per_fn = result[f"{path}_us"].values()
        result[f"total_{path}_us"] = [sum(t["median"] for t in times) for times in zip(*per_fn)]
    cheaper = [e < s for e, s in zip(result["total_elementwise_us"],
                                     result["total_scalar_us"])]
    result["crossover_d"] = next(
        (d for k, d in enumerate(SWEEP) if all(cheaper[k:])), None)


def summary_of(runs):
    """The entrywise median and interquartile range of equally shaped results."""
    first = runs[0]
    if isinstance(first, dict):
        return {k: summary_of([r[k] for r in runs]) for k in first}
    if isinstance(first, list):
        return [summary_of(list(entries)) for entries in zip(*runs)]
    if isinstance(first, float):
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        return {"median": statistics.median(runs), "iqr": q3 - q1}
    return first


def run_tree(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", required=False, default=[],
                    metavar="NAME=SRC", help="a source tree (the directory holding haraux)")
    ap.add_argument("--out", default="BENCH_layers.json")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if not args.tree:
        ap.error("give at least one --tree NAME=SRC")
    import numpy as np

    result = {
        "description": __doc__.split("\n\n")[0],
        "unit": f"us per call (median and interquartile range over {TREE_ROUNDS} runs of each "
                "tree, taken in alternating order, each run the median of 5 samples)",
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "blas_threads": 1},
        "trees": {},
    }
    trees = [spec.partition("=")[::2] for spec in args.tree]
    runs = {name: [] for name, _ in trees}
    for k in range(TREE_ROUNDS):
        for name, src in trees[::-1] if k % 2 else trees:
            runs[name].append(run_tree(src))
    for name, _ in trees:
        tree = result["trees"][name] = summary_of(runs[name])
        if "crossover" in tree:
            add_crossover_d(tree["crossover"])
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
