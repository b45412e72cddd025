"""Capture the correctness references the benchmark checks against.

Run once at the commit whose outputs define "correct", from the root of a
checkout:

    python3 perfbench/capture_reference.py

It writes perfbench/reference/: the figure1 CSV bytes, the highdim bound
values and auxiliary points at the reference seed, and the rows of
``verification.run_checks`` at the default seed.
"""

import json
import os
import sys

import env


def main():
    env.use_checkout()
    import numpy as np
    import workloads
    from haraux import cli, oracle, verification

    ref_dir = workloads.REFERENCE_DIR
    fig_dir = os.path.join(ref_dir, "figure1")
    os.makedirs(fig_dir, exist_ok=True)
    if cli.main(["figure1", "--format", "csv", "--out", fig_dir]) != 0:
        sys.exit("figure1 failed")

    hd = workloads.HighDim()
    values, zs = [], []
    for fn, method, x, u in hd.reference_inputs():
        b = hd.kind_op(fn, method, x, u).call()
        values.append(b.value)
        zs.append(b.z)
    np.savez_compressed(
        os.path.join(ref_dir, "highdim.npz"),
        kinds=np.array([f"{fn}/{m}" for fn, m in workloads.HIGHDIM_KINDS]),
        value=np.array(values),
        z=np.array(zs),
    )

    rows = verification.run_checks(seed=oracle.DEFAULT_SEED)
    with open(os.path.join(ref_dir, "certify_verify_rows.json"), "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
