"""Independent verification: brute-force supremum of the graph pairing
over sampled operator graphs, with one-sided consistency checks.

Finite sampling of a supremum only ever yields a lower approximation, so
every comparison here is phrased with explicit slack and escalates the
sample before declaring failure.
"""

from dataclasses import dataclass

import numpy as np

from .core import INF, as_vector

DEFAULT_SEED = 0x48415241
# Dense-grid defaults; escalation doubles n_per_dim up to the cap.
DEFAULT_N_1D = 4096
DEFAULT_N_2D = 257
ESCALATION_CAP_1D = 2**16
_BOX_CLIP = 10.0
_BOX_SHRINK = 1e-6


@dataclass
class GraphSample:
    """Finite certified subset of gra A: y_star[k] = A(y[k]) by construction."""

    y: np.ndarray
    y_star: np.ndarray
    source: str
    box: list
    n_per_dim: int
    operator: object = None


def default_box(A):
    """Operator domain (the intervals of its separable terms, else R^N)
    intersected with [-10, 10]^N, shrunk off open boundaries."""
    terms = A.separable_terms()
    if terms is None:
        intervals = [(-INF, INF)] * A.dim_in
    else:
        intervals = [t[2] for t in terms]
    return [
        (max(lo, -_BOX_CLIP) + _BOX_SHRINK, min(hi, _BOX_CLIP) - _BOX_SHRINK)
        for lo, hi in intervals
    ]


def sample_graph(A, box, n_per_dim):
    """Uniform grid over box, each point paired with its operator value."""
    if n_per_dim < 2:
        raise ValueError("n_per_dim must be >= 2")
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != A.dim_in:
        raise ValueError("box dimension does not match the operator")
    axes = [np.linspace(lo, hi, n_per_dim) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    y = np.stack([m.ravel() for m in mesh], axis=-1)
    y_star = np.array([A.apply(pt) for pt in y])
    return GraphSample(
        y=y,
        y_star=y_star,
        source=getattr(A, "tag", type(A).__name__),
        box=box,
        n_per_dim=n_per_dim,
        operator=A,
    )


def haraux_lower_approx(sample, p):
    """max over the sample of <x - y, y* - u*>: a lower approximation of
    H_A(x, u*) that never decreases under sample refinement."""
    if sample.y.shape[0] == 0:
        raise ValueError("empty graph sample")
    x = as_vector(p.x)
    u = as_vector(p.u_star)
    vals = np.einsum("kj,kj->k", x[None, :] - sample.y, sample.y_star - u[None, :])
    return float(vals.max())


def refine(sample):
    """Refine to 2n - 1 points per dimension, which keeps the old grid
    nodes as a subset so the sampled supremum can never decrease."""
    if sample.operator is None:
        raise ValueError("sample does not carry its operator; cannot refine")
    return sample_graph(sample.operator, sample.box, 2 * sample.n_per_dim - 1)


def verify_bound(bound, exact, slack, p=None, max_refinements=4, refinement_cap=None):
    """One-sided consistency check: bound.value <= exact + slack.

    ``exact`` is either a number (closed form) or a GraphSample; the
    latter needs the evaluation pair ``p`` and treats a violation as
    'inconclusive' first, refining the sample up to the cap before
    failure is declared.
    """
    if isinstance(exact, GraphSample):
        if p is None:
            raise ValueError("graph-sample comparison needs the evaluation pair")
        sample = exact
        cap = refinement_cap if refinement_cap is not None else ESCALATION_CAP_1D
        refinements = 0
        while True:
            approx = haraux_lower_approx(sample, p)
            if bound.value <= approx + slack:
                return {
                    "status": "consistent",
                    "bound": bound.value,
                    "reference": approx,
                    "slack": slack,
                    "measured": bound.value - approx,
                    "n_per_dim": sample.n_per_dim,
                }
            if refinements >= max_refinements or 2 * sample.n_per_dim - 1 > cap:
                return {
                    "status": "fail",
                    "bound": bound.value,
                    "reference": approx,
                    "slack": slack,
                    "measured": bound.value - approx,
                    "n_per_dim": sample.n_per_dim,
                }
            sample = refine(sample)
            refinements += 1
    exact = float(exact)
    passed = bound.value <= exact + slack
    return {
        "status": "pass" if passed else "fail",
        "bound": bound.value,
        "reference": exact,
        "slack": slack,
        "measured": bound.value - exact,
    }
