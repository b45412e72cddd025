"""The haraux benchmark: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload {figure1,highdim,certify} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload W --self-test-corrupt   # exits 1

Load is a closed loop: one caller in one process, single-threaded, BLAS
pinned to one thread. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps every layer in a span recorder and prints the
per-layer metrics. Every op's output is checked; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every output was correct, 1 when the
correctness gate failed and 2 when there is nothing to measure. With
``--self-test-corrupt`` the gate checks against a corrupted reference and
the exit code is 1 when it rejects it (3 when it wrongly accepts it).
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from time import perf_counter

import env

# Set-up probes before and after the timed loop: the machine's speed
# drifts over tens of seconds, and probes at both ends of the run see the
# same stretch of it as the timed ops.
SETUP_PROBES_BEFORE = 6
SETUP_PROBES_AFTER = 5
PROBE_TIMEOUT_S = 120
# The keys of workloads.WORKLOADS, which cannot be imported before the
# thread pins are set.
WORKLOAD_NAMES = ("figure1", "highdim", "certify")


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test-corrupt", action="store_true",
                    help="check against a corrupted reference; the gate must reject it")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def measure_setup(name, n):
    """Set-up times of ``n`` fresh processes (see setup_probe.py)."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    times = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, probe, name], capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, cwd=env.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if report["problems"]:
            raise RuntimeError(f"set-up warm-up op failed: {report['problems']}")
        times.append(report["setup_s"])
    return times


class Tally:
    """Aggregates op outcomes as they come, keeping no outcome objects:
    objects kept for the whole run would make the garbage collector's work,
    and so the measured latencies, grow with the run length."""

    def __init__(self):
        self.seconds = array("d")
        self.kind_id = array("i")
        self.kinds = {}
        self.wrong = 0  # ops whose output the gate rejects
        self.defects = 0  # boundary ops where some method raised
        self.exceptions = Counter()
        self.warned = 0
        self.problems = []

    def add(self, outcome):
        self.seconds.append(outcome.seconds)
        self.kind_id.append(self.kinds.setdefault(outcome.kind, len(self.kinds)))
        self.exceptions.update(outcome.exceptions)
        self.warned += outcome.runtime_warning
        if outcome.problems:
            self.wrong += 1
            if len(self.problems) < 10:
                self.problems.append(f"{outcome.kind}: {'; '.join(outcome.problems)}")
        elif outcome.exceptions:
            self.defects += 1

    def __len__(self):
        return len(self.seconds)

    def fail_frac(self):
        """Failed ops over attempted ops: wrong outputs plus defects."""
        return (self.wrong + self.defects) / len(self)

    def latency(self, np):
        lat = np.frombuffer(self.seconds, dtype=np.float64)
        p50, p90 = np.percentile(lat, [50, 90])
        return {
            "ops_per_s": len(lat) / float(lat.sum()),
            "op_p50_ms": 1e3 * float(p50),
            "op_p90_ms": 1e3 * float(p90),
            "samples": len(lat),
            "above_p90": int((lat > p90).sum()),
            "timed_s": float(lat.sum()),
        }

    def per_kind(self, np):
        lat = np.frombuffer(self.seconds, dtype=np.float64)
        ids = np.frombuffer(self.kind_id, dtype=np.int32)
        return {
            kind: {"n": int((ids == i).sum()), "p50_ms": 1e3 * float(np.median(lat[ids == i]))}
            for kind, i in sorted(self.kinds.items())
        }

    def counts(self):
        return {
            "attempted": len(self),
            "wrong_outputs": self.wrong,
            "defects": self.defects,
            "fail_frac": self.fail_frac(),
            "exceptions": dict(self.exceptions),
            "runtime_warning_ops": self.warned,
        }


def run_blocks(blocks, seconds, run_block):
    """Call ``run_block`` on whole blocks until ``seconds`` of wall time
    have passed; returns the number of blocks run."""
    n_blocks = 0
    deadline = perf_counter() + seconds
    for block in blocks:
        run_block(block)
        n_blocks += 1
        if perf_counter() >= deadline:
            return n_blocks


def git_commit():
    if not os.path.isdir(os.path.join(env.ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=env.ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(env.SRC, "haraux", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read(path):
    with open(path) as fh:
        return fh.read().strip()


def cache_sizes():
    sizes = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (_read(os.path.join(d, f)) for f in ("level", "type", "size"))
        except OSError:
            continue
        sizes[f"L{level}-{kind}"] = size
    return sizes


def metadata(np, args):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {k: os.environ.get(k) for k in env.THREAD_PINS},
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def self_test(args):
    """Feed the gate a corrupted reference; exit 1 when it rejects it."""
    import workloads

    if args.workload == "figure1":
        ref = workloads.load_figure1_reference()
        panel = workloads.FIGURE1_PANELS[0]
        ref[panel] = ref[panel].replace(b",", b";", 1)
        ops = workloads.Figure1(env.OUT_DIR, reference=ref).gate_ops()
    elif args.workload == "highdim":
        ref = workloads.load_highdim_reference()
        ref["value"] = ref["value"] * (1.0 + 1e-6)
        ops = workloads.HighDim(reference=ref).gate_ops()
    else:
        ref = workloads.load_verify_reference()
        ref[0] = dict(ref[0], threshold=ref[0]["threshold"] * 10.0)
        ops = [workloads.Certify(reference=ref).run_checks_op()]
    tally = Tally()
    for op in ops:
        tally.add(workloads.run_op(op))
    for line in tally.problems:
        print(f"self-test: {line}", file=sys.stderr)
    if tally.wrong:
        print(f"self-test: the gate rejected the corrupted {args.workload} reference "
              f"({tally.wrong} of {len(tally)} ops)")
        return 1
    print(f"self-test: the gate ACCEPTED a corrupted {args.workload} reference", file=sys.stderr)
    return 3


def main(argv=None):
    args = parse_args(argv)
    try:
        env.use_checkout()
    except env.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(env.OUT_DIR, exist_ok=True)
    if args.self_test_corrupt:
        return self_test(args)

    # The first set-up probes run while this process is still small.
    setup = measure_setup(args.workload, SETUP_PROBES_BEFORE) if not args.trace else None

    import numpy as np
    import spans
    import workloads

    w = workloads.WORKLOADS[args.workload](env.OUT_DIR)
    run_op = workloads.run_op
    checks = Tally()  # the warm-up and gate ops: checked, not timed
    checks.add(run_op(w.warm_up_op()))
    for op in w.gate_ops():
        checks.add(run_op(op))

    meta = metadata(np, args)
    tally = Tally()
    checked = [checks, tally]
    if not args.trace:
        def run_block(block):
            for op in block:
                tally.add(run_op(op))

        n_blocks = run_blocks(w.blocks(np.random.default_rng(args.seed)), args.seconds,
                              run_block)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += measure_setup(args.workload, SETUP_PROBES_AFTER)
        lat = tally.latency(np)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (lat["ops_per_s"], "1/s"),
            "op_p50_ms": (lat["op_p50_ms"], "ms"),
            "op_p90_ms": (lat["op_p90_ms"], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": (1.0 - tally.fail_frac(), "frac"),
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh processes, {SETUP_PROBES_BEFORE} before "
                       f"and {SETUP_PROBES_AFTER} after the timed ops: "
                       + ", ".join(f"{t:.4f}" for t in setup),
            "ops_per_s": f"{lat['samples']} ops in {lat['timed_s']:.3f} s of library time",
            "op_p50_ms": f"n={lat['samples']}",
            "op_p90_ms": f"n={lat['samples']}, {lat['above_p90']} above",
            "peak_rss_mb": "ru_maxrss of the workload process",
            "ok_frac": "1 - fail_frac (below)",
        }
    else:
        recorder = spans.SpanRecorder()
        inst = spans.Instrumentation(recorder)
        replay = Tally()

        def run_block(block):
            # Each block runs traced and then untraced, so that both see the
            # same stretch of the machine's speed drift.
            inst.install()
            try:
                leftover = inst.unwrapped_aliases()
                if leftover:
                    raise RuntimeError(f"unwrapped haraux aliases: {leftover}")
                for op in block:
                    tally.add(run_op(op, recorder, len(tally)))
            finally:
                inst.uninstall()
            for op in block:
                replay.add(run_op(op))

        n_blocks = run_blocks(w.blocks(np.random.default_rng(args.seed)), args.seconds,
                              run_block)
        traced_s, plain_s = sum(tally.seconds), sum(replay.seconds)
        layer, bases = spans.layer_metrics(recorder.columns(), recorder.names, len(tally))
        recorder.save(os.path.join(env.OUT_DIR, f"spans-{args.workload}.npz"))
        metrics = dict(layer)
        metrics["bounds.runtime_warnings"] = (tally.warned / len(tally), "frac")
        metrics["ops.fail_frac"] = (tally.fail_frac(), "frac")
        metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
        notes = {
            "solvers.scalar_per_resolvent": f"{bases['solve_scalar_increasing']} scalar solves / "
                                            f"{bases['solve_resolvent']} resolvents",
            "bounds.crosscheck_share": f"{bases['crosscheck_resolvents']} / "
                                       f"{bases['solve_resolvent']} resolvents",
            "bounds.runtime_warnings": f"{tally.warned} of {len(tally)} ops",
            "trace.overhead_frac": f"traced {traced_s:.3f} s vs untraced {plain_s:.3f} s, same ops",
        }
        meta["spans"] = bases["spans"]
        checked.append(replay)

    failed = sum(t.wrong for t in checked)
    for line in [line for t in checked for line in t.problems][:10]:
        print(f"wrong output: {line}", file=sys.stderr)
    counts = tally.counts()
    meta["ops"] = {"warm_up_and_gate": len(checks), "timed": len(tally), "blocks": n_blocks}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:<22.10g} {unit:<9} {notes.get(name, '')}")
    print(f"{'fail_frac':<40} {counts['fail_frac']:<22.10g} {'frac':<9} "
          f"{counts['wrong_outputs'] + counts['defects']} of {counts['attempted']} ops failed: "
          f"{counts['wrong_outputs']} wrong outputs, {counts['defects']} boundary points raised "
          f"{counts['exceptions']}")
    for kind, s in tally.per_kind(np).items():
        print(f"kind {kind:<38} n={s['n']:<7} p50_ms={s['p50_ms']:.4f}")

    result = {
        "correct": failed == 0,
        "attempted": sum(len(t) for t in checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(env.OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(result, meta=meta, counts=counts), fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
