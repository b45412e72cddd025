"""Where the benchmark finds the library, and the environment it pins.

The benchmark measures the haraux sources of the checkout it sits in
(``<root>/src/haraux``), never an installed copy. BLAS and OpenMP are
pinned to one thread before numpy is imported: the load is one caller in
one process, and default BLAS threading makes the first LAPACK call cost
about a second on a two-core machine.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class MissingSource(RuntimeError):
    """The checkout holds no haraux sources to measure."""


def use_checkout():
    """Pin threads and make ``import haraux`` load ``<root>/src/haraux``.

    Call before numpy is imported. Raises MissingSource when the checkout
    has no sources or another haraux is already imported.
    """
    pkg = os.path.join(SRC, "haraux")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise MissingSource(f"no haraux sources at {pkg}")
    os.environ.update(THREAD_PINS)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import haraux

    if os.path.dirname(os.path.abspath(haraux.__file__)) != pkg:
        raise MissingSource(f"haraux was imported from {haraux.__file__}, not {pkg}")
    return haraux
