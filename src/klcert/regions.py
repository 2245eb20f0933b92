"""Stable region descriptors for certificates.

A region says where a certificate is claimed to hold.  Regions know how to
test membership of points of shape (..., n) and how to draw uniform samples
of themselves, which is what the sampling-based verification checks consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from klcert.convex import (Array, as_point, batch_norms, minus_point,
                           row_sums)
from klcert.tracefmt import NUMBER, VECTOR, Records


@dataclass(frozen=True)
class L1Ball:
    """{x : ||x||_1 <= radius}."""

    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def contains(self, x, tol: float = 1e-9):
        x = np.asarray(x, dtype=float)
        return row_sums(np.abs(x)) <= self.radius + tol

    def sample(self, rng: np.random.Generator, dimension: int, count: int) -> Array:
        # Dirichlet magnitudes give a uniform simplex point; random signs and
        # a U^(1/n) radial factor make the draw uniform in the l1 ball.
        mags = rng.dirichlet(np.ones(dimension), size=count)
        signs = rng.choice([-1.0, 1.0], size=(count, dimension))
        radial = rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / dimension)
        return self.radius * radial * signs * mags


@dataclass(frozen=True)
class MetricBall:
    """{x : ||x - center|| <= radius}."""

    center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def contains(self, x, tol: float = 1e-9):
        d = minus_point(np.asarray(x, dtype=float), self.center)
        return np.sqrt(np.vecdot(d, d)) <= self.radius + tol

    def sample(self, rng: np.random.Generator, dimension: int, count: int) -> Array:
        if dimension != self.dimension:
            raise ValueError("dimension does not match the center")
        # center + radius * radial * g / |g| row by row, from the same
        # draws, but one coordinate column at a time: numpy then loops over
        # the samples rather than over the few coordinates of each
        g = rng.standard_normal((count, dimension))
        norms = np.maximum(batch_norms(g), 1e-300)
        radial = rng.uniform(0.0, 1.0, size=count) ** (1.0 / dimension)
        scale = self.radius * radial
        out = np.empty((count, dimension))
        for j in range(dimension):
            out[:, j] = self.center[j] + scale * (g[:, j] / norms)
        return out


@dataclass(frozen=True)
class WholeSpace:
    """No geometric restriction; sampling needs an explicit anchor and scale."""

    def contains(self, x, tol: float = 1e-9):
        return np.ones(np.shape(x)[:-1], dtype=bool)


# per region kind: the region a certificate.json record reads as, and its
# keys besides "kind"
REGIONS = Records("kind", {
    "l1-ball": (L1Ball, {"radius": NUMBER}),
    "metric-ball": (MetricBall, {"center": VECTOR, "radius": NUMBER}),
    "whole-space": (WholeSpace, {}),
})
