"""Vectors, extended reals and the duality pairing used by every formula."""

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf


class DimensionMismatchError(ValueError):
    """Raised when two vectors of different dimension are combined."""


class DomainError(ValueError):
    """Raised when a point lies outside the domain required by an operation."""


def as_vector(x):
    """Validate and return a 1-D float array of finite entries.

    Scalars are promoted to dimension 1. NaN or infinite entries are
    rejected: vectors always live in R^N.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("vectors must have positive dimension")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


def pairing(x, u_star):
    """Euclidean duality pairing <x, u*>."""
    x = as_vector(x)
    u = as_vector(u_star)
    if x.shape[0] != u.shape[0]:
        raise DimensionMismatchError(
            f"pairing of dimensions {x.shape[0]} and {u.shape[0]}"
        )
    return float(np.dot(x, u))


def xadd(*terms):
    """Extended-real sum with +inf absorbing.

    -inf and NaN are errors: every function handled here is proper, so a
    value of -inf signals a bug upstream, not a legitimate result.
    """
    total = 0.0
    for t in terms:
        t = float(t)
        if math.isnan(t):
            raise ValueError("NaN in extended-real sum")
        if t == -INF:
            raise ValueError("-inf is not a member of the extended reals used here")
        if t == INF or total == INF:
            total = INF
        else:
            total += t
    return total


@dataclass(frozen=True)
class DualPair:
    """A primal-dual evaluation point (x, u*) in R^N x R^N."""

    x: np.ndarray
    u_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x))
        object.__setattr__(self, "u_star", as_vector(self.u_star))
        if self.x.shape[0] != self.u_star.shape[0]:
            raise DimensionMismatchError(
                f"x has dimension {self.x.shape[0]}, "
                f"u* has dimension {self.u_star.shape[0]}"
            )

    @property
    def dim(self):
        return self.x.shape[0]
