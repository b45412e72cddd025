"""Time one workload set-up in a fresh process and print it as JSON.

Set-up is ``import haraux`` (and numpy with it), building the workload's
functions and operators through public constructors, and one warm-up op.

    python3 perfbench/setup_probe.py <workload>
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import env  # noqa: E402


def main(name):
    env.use_checkout()
    import workloads

    w = workloads.WORKLOADS[name](env.OUT_DIR)
    outcome = workloads.run_op(w.warm_up_op())
    setup_s = perf_counter() - T0
    print(json.dumps({"setup_s": setup_s, "problems": outcome.problems}))


if __name__ == "__main__":
    main(sys.argv[1])
