"""The correctness gate accepts the reference outputs and rejects a
corrupted reference; the runner refuses to run without sources."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

import env
import run
import spans
import workloads

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")


def test_figure1_gate_accepts_reference_and_rejects_one_changed_byte():
    w = workloads.Figure1(env.OUT_DIR)
    assert workloads.run_op(w.cli_op()).problems == []
    point = w.point_op(0)
    assert workloads.run_op(point).problems == []

    ref = dict(w.reference)
    panel = workloads.FIGURE1_PANELS[0]
    ref[panel] = ref[panel].replace(b"\n0.050000000000000003,", b"\n0.050000000000000004,", 1)
    assert ref[panel] != w.reference[panel]
    bad = workloads.Figure1(env.OUT_DIR, reference=ref)
    assert workloads.run_op(bad.cli_op()).problems
    assert workloads.run_op(bad.point_op(0)).problems


def test_highdim_check_rejects_a_perturbed_reference():
    ref = workloads.load_highdim_reference()
    assert list(ref["kinds"]) == [f"{fn}/{m}" for fn, m in workloads.HIGHDIM_KINDS]
    hd = workloads.HighDim()
    fn, method, x, u = hd.reference_inputs()[3]  # burg/legendre_self: a fast kind
    good = hd.kind_op(fn, method, x, u, expected=(ref["value"][3], ref["z"][3]))
    assert workloads.run_op(good).problems == []
    z_bad = ref["z"][3].copy()
    z_bad[17] *= 1.0 + 1e-6
    bad = hd.kind_op(fn, method, x, u, expected=(ref["value"][3], z_bad))
    assert workloads.run_op(bad).problems == ["auxiliary point z differs from the reference"]


def test_verify_rows_check_rejects_a_corrupted_reference():
    ref = workloads.load_verify_reference()
    assert workloads._check_rows(ref, [dict(r) for r in ref]) == []
    corrupt = [dict(r) for r in ref]
    largest = max(range(len(ref)), key=lambda i: abs(ref[i]["measured"]))
    corrupt[largest]["measured"] *= 2.0
    assert workloads._check_rows(corrupt, [dict(r) for r in ref])
    failing = [dict(r) for r in ref]
    failing[0]["passed"] = False
    assert workloads._check_rows(ref, failing)


def test_self_test_mode_exits_nonzero():
    proc = subprocess.run([sys.executable, RUN, "--workload", "certify", "--self-test-corrupt"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "rejected" in proc.stdout


def test_without_sources_the_runner_fails_and_prints_no_result(tmp_path):
    shutil.copytree(os.path.dirname(RUN), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figure1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    rec = spans.SpanRecorder()
    rec.intern("core.as_vector")
    cols = {"name_id": np.zeros(1, np.int32), "start": np.zeros(1), "end": np.ones(1),
            "parent": np.full(1, -1), "op": np.zeros(1, np.int64), "error": np.zeros(1, np.int8)}
    layer, _ = spans.layer_metrics(cols, rec.names, n_ops=1)
    traced = {name: unit for name, (_, unit) in layer.items()}
    traced.update({"bounds.runtime_warnings": "frac", "ops.fail_frac": "frac",
                   "trace.overhead_frac": "frac"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "ok_frac"]
