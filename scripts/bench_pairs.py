"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 scripts/bench_pairs.py --parent /path/to/parent --change . \
        --workloads certify figure1 highdim --pairs 10 --seconds 30 --out pairs.json

Each side is a checkout root and runs its own ``perfbench/run.py``, so
each measures its own sources. Pair i runs both sides with seed 100 + i;
the side that runs first alternates from pair to pair (the parent first
in even pairs), so drift in machine speed reaches both sides alike. The
workloads run one after the other, all pairs of one before the next.

The output holds, per workload, every run (the last JSON line of
``run.py``, its exit code and seed) and a summary per end-to-end metric
of the change root's ``BENCHMARK.json``: the median of each side, the
parent's interquartile range (numpy's linear percentiles), and how many
pairs the change wins and loses in the metric's direction. It is
rewritten after every pair, so an interrupted run leaves the pairs so far.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

SEED_BASE = 100
TIMEOUT_S = 600


def run_side(root, workload, seed, seconds):
    """One ``perfbench/run.py`` run in the checkout ``root``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "stderr": proc.stderr[-2000:]}
    return dict(result, exit=proc.returncode, seed=seed)


def summarize(runs, metrics):
    """Medians, parent IQR and wins/losses of the change for each metric."""
    out = {"pairs": len(runs),
           "exit_codes": sorted({r[side]["exit"] for r in runs for side in ("parent", "change")})}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [r[side].get("metrics", {}).get(name, {}).get("value")
                         for r in runs] for side in ("parent", "change")}
        pairs = [(p, c) for p, c in zip(values["parent"], values["change"])
                 if p is not None and c is not None]
        if not pairs:
            continue
        parent, change = zip(*pairs)
        q1, q3 = np.percentile(parent, [25, 75])
        out[name] = {
            "better": m["better"],
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": float(q3 - q1),
            "change_wins": sum((c < p) if lower else (c > p) for p, c in pairs),
            "change_losses": sum((c > p) if lower else (c < p) for p, c in pairs),
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout root of the parent")
    ap.add_argument("--change", required=True, help="checkout root of the change")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    result = {
        "description": (
            f"Alternating parent/change runs of `python3 perfbench/run.py --workload W "
            f"--seed N --seconds {args.seconds:g} --trace 0`, each side from its own "
            f"checkout; pair i uses seed {SEED_BASE} + i on both sides and the side that "
            "runs first alternates. wins/losses count the pairs where the change is "
            "better/worse in the metric's direction; parent_iqr is the distance between "
            "the quartiles of the parent's runs."),
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "blas_threads": 1},
        "summary": {},
        "runs": {},
    }
    for workload in args.workloads:
        runs = result["runs"][workload] = []
        for i in range(args.pairs):
            seed = SEED_BASE + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(roots[side], workload, seed, args.seconds)
            runs.append(pair)
            result["summary"][workload] = summarize(runs, metrics)
            with open(args.out, "w") as fh:
                json.dump(result, fh, indent=1)
                fh.write("\n")
            ops = {side: pair[side].get("metrics", {}).get("ops_per_s", {}).get("value")
                   for side in order}
            print(f"{workload} pair {i}: ops_per_s {ops}", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
