"""Stable region descriptors for certificates.

A region says where a certificate is claimed to hold.  Regions test
membership of points of shape (..., n); the bounded ones, `L1Ball` and
`convex.Ball`, also draw uniform samples of themselves, which is what the
sampling-based verification checks consume.  `WholeSpace` is the region
of a certificate with no geometric restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from klcert.convex import Array, Ball, row_sums
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
class WholeSpace:
    """No geometric restriction: every point is in the region."""

    def contains(self, x, tol: float = 1e-9):
        return np.ones(np.shape(x)[:-1], dtype=bool)


# per region kind: the region a certificate.json record reads as, and its
# keys besides "kind"
REGIONS = Records("kind", {
    "l1-ball": (L1Ball, {"radius": NUMBER}),
    "metric-ball": (Ball, {"center": VECTOR, "radius": NUMBER}),
    "whole-space": (WholeSpace, {}),
})
