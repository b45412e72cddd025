"""Pin the bytes of default ``haraux bound``/``sweep`` calls.

    PYTHONPATH=src python3 scripts/pin_bound_cli.py --out tests/data/bound_cli_bytes.json

Runs each call of ``calls()`` through ``cli.main`` in this process and
stores its exit code, stderr and stdout; a stdout over STDOUT_MAX bytes
is stored as its sha256. The calls cover:

- the ``--phi`` route on each of PHIS under every method, as ``bound`` at
  d = 1, ``sweep --gamma 0.1,1,10`` at d = 1 and the same sweep at d = 10,
  at one seeded interior point (three at d = 10);
- the ``--f`` kernels of ``pairing`` and ``bregman``, among them the
  closed-form routes (Fermi-Dirac over Boltzmann-Shannon, Burg over Burg);
- the ``--op-a`` route: ``grad:``/``subdiff:`` catalog operators,
  ``joca16:2,quadratic`` and an ``affine:`` matrix file, the latter also
  with an ``--op-w`` kernel;
- a point outside the domain (exit 2) and a Fermi-Dirac point 1e-12 from
  an edge with a large |u*| (exit 3).

The files the calls read are stored too: an argument ``{name}`` stands
for the path of the file ``name`` of the ``files`` map, which the reader
writes to a directory of its own. ``tests/test_cli_bytes.py`` replays
every call against the file.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

SEED = 20251021
STDOUT_MAX = 4096
PHIS = ("burg", "boltzmann_shannon", "fermi_dirac", "quadratic", "quad_plus:burg")
PHI_METHODS = ("pairing", "strong", "bregman", "legendre_self", "carlier_fy")
X_BOX = {"burg": (0.05, 5.0), "boltzmann_shannon": (0.05, 5.0), "fermi_dirac": (0.01, 0.99),
         "quadratic": (-5.0, 5.0), "quad_plus:burg": (0.05, 5.0)}
U_BOX = {"burg": (-5.0, -0.05), "boltzmann_shannon": (-3.0, 3.0), "fermi_dirac": (-3.0, 3.0),
         "quadratic": (-5.0, 5.0), "quad_plus:burg": (-3.0, 3.0)}
# (phi or operator function, kernel f): x is drawn from the box of the
# narrower domain.
F_KERNELS = (("boltzmann_shannon", "fermi_dirac"), ("burg", "burg"), ("burg", "quadratic"),
             ("fermi_dirac", "boltzmann_shannon"), ("quadratic", "quadratic"))
OP_NAMES = ("burg", "boltzmann_shannon", "fermi_dirac", "quadratic")
OP_METHODS = ("pairing", "strong", "carlier_haraux")
FILES = {"affine.txt": "2 1\n-1 3\n", "kernel.txt": "1 0\n0 2\n"}


def _points(rng, x_name, u_name, dim, n=2):
    """n ``--point=x;u`` flags with x and u* uniform in their boxes, to 6
    significant digits."""
    out = []
    for _ in range(n):
        x = rng.uniform(*X_BOX[x_name], dim)
        u = rng.uniform(*U_BOX[u_name], dim)
        out.append("--point=" + ";".join(",".join(f"{t:.6g}" for t in v) for v in (x, u)))
    return out


def _forms(rng, flags, x_name, u_name, dims=(1, 10)):
    """``bound`` at d = 1, and the gamma sweep at each d of dims: one
    point at d = 1, three at d = 10."""
    calls = [["bound"] + flags + _points(rng, x_name, u_name, 1, n=1)]
    for d in dims:
        calls.append(["sweep", "--gamma", "0.1,1,10"] + flags
                     + _points(rng, x_name, u_name, d, n=1 if d == 1 else 3))
    return calls


def calls():
    rng = np.random.default_rng(SEED)
    out = []
    for name in PHIS:
        for method in PHI_METHODS:
            out += _forms(rng, ["--phi", name, "--method", method], name, name)
    for name, f in F_KERNELS:
        x_name = "fermi_dirac" if "fermi_dirac" in (name, f) else name
        for method in ("pairing", "bregman"):
            out += _forms(rng, ["--phi", name, "--f", f, "--method", method], x_name, name)
    for kind in ("grad", "subdiff"):
        for name in OP_NAMES:
            for method in OP_METHODS:
                out += _forms(rng, ["--op-a", f"{kind}:{name}", "--method", method],
                              name, name, dims=(1,))
            out += _forms(rng, ["--op-a", f"{kind}:{name}", "--f", name, "--method", "bregman"],
                          name, name, dims=(1,))
    for spec in ("joca16:2,quadratic", "affine:{affine.txt}"):
        for method in OP_METHODS:
            out.append(["sweep", "--gamma", "0.1,1,10", "--op-a", spec, "--method", method]
                       + _points(rng, "quadratic", "quadratic", 2))
    for method in ("pairing", "strong"):
        out.append(["sweep", "--gamma", "0.1,1,10", "--op-a", "affine:{affine.txt}",
                    "--op-w", "affine:{kernel.txt}", "--method", method]
                   + _points(rng, "quadratic", "quadratic", 2))
    out.append(["bound", "--phi", "burg", "--point=-1;-0.5", "--method", "legendre_self"])
    out.append(["bound", "--phi", "fermi_dirac", "--point=0.999999999999;-1000",
                "--method", "pairing"])
    return out


def run(argv, paths):
    """(exit code, stdout, stderr) of cli.main on argv, its ``{name}``
    arguments replaced by their paths."""
    from haraux import cli

    for name, path in paths.items():
        argv = [a.replace("{" + name + "}", path) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def record(code, stdout, stderr):
    entry = {"exit": code, "stderr": stderr}
    if len(stdout.encode()) > STDOUT_MAX:
        entry["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
    else:
        entry["stdout"] = stdout
    return entry


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in FILES.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w") as fh:
                fh.write(text)
        for argv_ in calls():
            entries.append(dict(argv=argv_, **record(*run(argv_, paths))))
    with open(args.out, "w") as fh:
        # One call per line.
        fh.write('{"files": %s,\n"calls": [\n' % json.dumps(FILES))
        fh.write(",\n".join(json.dumps(e) for e in entries))
        fh.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
