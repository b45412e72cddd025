"""Independent verification: brute-force supremum of the graph pairing
over sampled operator graphs, with one-sided consistency checks.

Finite sampling of a supremum only ever yields a lower approximation, so
every comparison here is phrased with explicit slack and escalates the
sample before declaring failure.
"""

from dataclasses import dataclass

import numpy as np


DEFAULT_SEED = 0x48415241
# Dense-grid default; each escalation refines n_per_dim to 2n - 1, up to the cap.
DEFAULT_N_1D = 4096
ESCALATION_CAP_1D = 2**16
_BOX_CLIP = 10.0
_BOX_SHRINK = 1e-6


@dataclass
class GraphSample:
    """Finite certified subset of gra A: y_star[k] = A(y[k]) by construction."""

    y: np.ndarray
    y_star: np.ndarray
    box: list
    n_per_dim: int
    operator: object


def default_box(A):
    """Operator domain intersected with [-10, 10]^N, shrunk off open
    boundaries."""
    lo, hi = A.domain()
    return [
        (max(a, -_BOX_CLIP) + _BOX_SHRINK, min(b, _BOX_CLIP) - _BOX_SHRINK)
        for a, b in zip(lo.tolist(), hi.tolist())
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
    y_star = A.apply_rows(y)
    return GraphSample(
        y=y,
        y_star=y_star,
        box=box,
        n_per_dim=n_per_dim,
        operator=A,
    )


def haraux_lower_approx(sample, p):
    """max over the sample of <x - y, y* - u*> at the DualPair p: a lower
    approximation of H_A(x, u*) that never decreases under sample
    refinement."""
    if sample.y.shape[0] == 0:
        raise ValueError("empty graph sample")
    vals = np.einsum("kj,kj->k", p.x[None, :] - sample.y, sample.y_star - p.u_star[None, :])
    return float(vals.max())


def refine(sample):
    """Refine to 2n - 1 points per dimension, which keeps the old grid
    nodes as a subset so the sampled supremum can never decrease."""
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
        reference = haraux_lower_approx(sample, p)
        for _ in range(max_refinements):
            if bound.value <= reference + slack or 2 * sample.n_per_dim - 1 > cap:
                break
            sample = refine(sample)
            reference = haraux_lower_approx(sample, p)
        status = "consistent" if bound.value <= reference + slack else "fail"
        extra = {"n_per_dim": sample.n_per_dim}
    else:
        reference = float(exact)
        status = "pass" if bound.value <= reference + slack else "fail"
        extra = {}
    return {"status": status, "bound": bound.value, "reference": reference, "slack": slack,
            "measured": bound.value - reference, **extra}
