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
    # A 1-D float64 array is already a vector: only its entries are checked.
    if not (type(x) is np.ndarray and x.dtype == np.float64 and x.ndim == 1 and x.shape[0]):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {x.shape}")
        if x.size == 0:
            raise ValueError("vectors must have positive dimension")
    if not np.isfinite(x).all():
        raise ValueError("vector entries must be finite")
    return x


def check_gamma(gamma):
    """Raise ValueError unless the step gamma is positive and finite."""
    if not 0.0 < gamma < INF:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")


def pairing(x, u_star):
    """Euclidean duality pairing <x, u*>."""
    x = as_vector(x)
    u = as_vector(u_star)
    if x.shape[0] != u.shape[0]:
        raise DimensionMismatchError(
            f"pairing of dimensions {x.shape[0]} and {u.shape[0]}"
        )
    return float(np.dot(x, u))


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
