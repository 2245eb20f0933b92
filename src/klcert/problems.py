"""Reproducible test-problem generators with trustworthy minimum values.

Every generated instance is desk-scale by design: small enough that the
minimum value can be pinned down independently of the solver under test
(a proximal-gradient polish to a bitwise fixed point for l1-regularized
least squares, exact geometry for feasibility and quadratic families).
Stored minima are always values of feasible points, so they overestimate
the true minimum — the safe direction for every certified inequality
downstream.

This module alone knows the instance.json format (schema 2): `PAYLOADS`
gives each family's payload keys and what each holds, `SET_RECORDS` the
set kinds, and every builder reads its payload, generated or stored,
through `GeneratedInstance.values()` with `tracefmt`'s record reader, which
refuses a missing or extra key at any level, a leaf that is not a finite
number and a ragged matrix (ValueError naming the key).

The l1 reference minimizer is the polish's fixed point from the origin,
at every n; convexity makes any fixed point a global minimizer.  The
polish can end in a last-bit cycle instead of a fixed point.  A
Brent-style check with one saved state finds the cycle and jumps to the
state the loop would reach at its update cap; the caller logs a warning
naming the period.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Optional, get_args

import numpy as np

from klcert.convex import (
    Array,
    Ball,
    Halfspace,
    NotConvergedError,
    soft_threshold,
)
from klcert.error_bounds import LassoInstance, LinearSystemPair
from klcert.tracefmt import (
    MATRIX,
    NUMBER,
    VECTOR,
    Listed,
    Records,
    read_fields,
    read_json,
    require,
    require_type,
    write_json,
    write_value,
)

# update cap of the polish; an instance whose polish ends in a cycle stores
# the cycle state reached at this cap, so the stored bits depend on it
POLISH_CAP = 200000


def _require_positive(value: float, name: str) -> None:
    """Refuse a family parameter that is not a positive finite number;
    generators call this before their first random draw, so a refusal
    never shifts the bits of a valid seed."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"need {name} > 0 and finite, not {value!r}")


# ---------------------------------------------------------------------------
# l1-regularized least squares
# ---------------------------------------------------------------------------


def lasso_polish(A: Array, y: Array, mu: float
                 ) -> tuple[Array, Optional[int]]:
    """Reference minimizer of the l1 problem and the period of the polish's
    last-bit cycle (None when the polish stops).

    Iterates x <- soft_threshold(x - grad/L, mu/L) from the origin until
    the update stops moving in double precision; convexity makes any fixed
    point a global minimizer.  Returns the point and None, or, when the
    updates cycle in the last bits instead, the state the loop would reach
    at POLISH_CAP updates and the cycle's period.  Cycles are found
    Brent's way: one saved state, re-saved after 1, 2, 4, ... updates, is
    compared bitwise with each new state, and a match p updates later
    makes the loop periodic with period p, so the remaining updates reduce
    modulo p.  A cycle is found within about twice the updates it takes to
    enter it.  Raises NotConvergedError when the cap ends the loop before
    a stop or a found cycle.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x = np.zeros(A.shape[1])
    L = float(np.linalg.norm(A, 2)) ** 2
    if L == 0.0:
        return x, None
    lam = 1.0 / L
    AtA = A.T @ A
    Aty = A.T @ y

    def update(x):
        return soft_threshold(x - lam * (AtA @ x - Aty), lam * mu)

    saved, saved_at, power = x.tobytes(), -1, 1
    for k in range(POLISH_CAP):
        xn = update(x)
        if np.array_equal(xn, x):
            return x, None
        x = xn
        # x is the state after update k
        since = k - saved_at
        if x.tobytes() == saved:
            for _ in range((POLISH_CAP - 1 - k) % since):
                x = update(x)
            return x, since
        if since == power:
            saved, saved_at, power = x.tobytes(), k, 2 * power
    raise NotConvergedError(
        f"lasso polish neither stopped nor was found to cycle in "
        f"{POLISH_CAP} updates")


def generate_lasso_instance(n: int = 2, m: Optional[int] = None,
                            mu: Optional[float] = None, seed: int = 0
                            ) -> "GeneratedInstance":
    """Random well-posed instance with a reference minimizer.

    m >= n keeps the quadratic part strictly convex (unique minimizer, so
    the solution set is an honest singleton); the reference minimizer is
    `lasso_polish`'s, from the origin, at any n and mu.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if m is None:
        m = n + 1
    if m < n:
        raise ValueError("need m >= n so the minimizer is unique")
    if mu is not None:
        _require_positive(mu, "mu")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    A /= max(1.0, float(np.linalg.norm(A, 2)))
    x_true = rng.uniform(-0.5, 0.5, n)
    y = A @ x_true + 0.1 * rng.standard_normal(m)
    norm_y = float(np.linalg.norm(y))
    target = rng.uniform(0.8, 1.2)
    if norm_y > 0:
        y *= target / norm_y
    if mu is None:
        mu = float(rng.uniform(0.45, 0.9) if n <= 2 else rng.uniform(0.6, 0.9))
    x0 = rng.uniform(-1.0, 1.0, n)
    xstar, period = lasso_polish(A, y, mu)
    if period is not None:
        # imported here: no other path logs, and the CLI starts without it
        import logging

        logging.getLogger("klcert").warning(
            "lasso seed %d: the reference polish cycles with period %d in "
            "the last bits; the stored minimizer is its state at the "
            "%d-update cap", seed, period, POLISH_CAP)
    payload = {
        "A": A.tolist(),
        "y": y.tolist(),
        "mu": mu,
        "x0": x0.tolist(),
        "minimizer": xstar.tolist(),
        "min_value": LassoInstance(A, y, mu, x0).composite.value(xstar),
    }
    return GeneratedInstance(family="lasso", seed=seed, payload=payload)


# ---------------------------------------------------------------------------
# convex feasibility
# ---------------------------------------------------------------------------


def generate_feasibility_instance(dim: int = 2, num_sets: int = 2,
                                  seed: int = 0, geometry: str = "generic"
                                  ) -> "GeneratedInstance":
    """Balls/halfspaces built around a declared inner ball B(xbar, R).

    Construction guarantees B(xbar, R) sits inside every set with slack; the
    start is pushed far enough out that the feasibility objective is
    strictly positive at x0 (a zero initial gap has nothing to certify).

    geometry="lens" instead builds two large balls facing each other whose
    boundaries meet at a shallow wedge, with the start beside the wedge rim
    — deep overlaps make alternating projections finish in a step or two,
    while the lens makes them crawl, which is the regime worth watching.
    A lens refuses any num_sets but 2.
    """
    if dim < 1:
        raise ValueError("need dim >= 1")
    if geometry == "lens":
        if num_sets != 2:
            raise ValueError("need num_sets = 2 for a lens, which is two balls")
        return _lens_feasibility_instance(dim, seed)
    if geometry != "generic":
        raise ValueError(f"unknown geometry {geometry!r}")
    if num_sets < 2:
        raise ValueError("need at least two sets")
    rng = np.random.default_rng(seed)
    # If one set swallows the others (P_1(x) always lands in C_2, say) no
    # start gives the alternating variant a positive gap; redraw the whole
    # geometry rather than fight it.
    for _ in range(64):
        xbar = rng.uniform(-1.0, 1.0, dim)
        R = float(rng.uniform(0.3, 0.8))
        sets = []
        for i in range(num_sets):
            kind = ("ball", "halfspace")[int(rng.integers(2))]
            slack = float(rng.uniform(0.05, 0.5))
            if kind == "ball":
                direction = rng.standard_normal(dim)
                direction /= max(float(np.linalg.norm(direction)), 1e-12)
                shift = float(rng.uniform(0.0, 1.0))
                center = xbar + shift * direction
                sets.append(Ball(center, shift + R + slack))
            else:
                normal = rng.standard_normal(dim)
                normal /= max(float(np.linalg.norm(normal)), 1e-12)
                sets.append(Halfspace(normal, float(normal @ xbar) + R + slack))
        w = rng.uniform(0.5, 1.5, num_sets)
        w /= w.sum()

        x0 = None
        for _ in range(64):
            direction = rng.standard_normal(dim)
            direction /= max(float(np.linalg.norm(direction)), 1e-12)
            t = float(rng.uniform(1.5 * R, 4.0 * R))
            candidate = xbar + t * direction
            # Barycentric needs a positive objective at x0; alternating needs
            # a positive distance to the second set after landing in the
            # first.
            worst = max(float(np.atleast_1d(s.distance(candidate))[0])
                        for s in sets)
            dist_second = float(np.atleast_1d(sets[1].distance(
                sets[0].project(candidate)))[0])
            if worst > 1e-3 and dist_second > 1e-3:
                x0 = candidate
                break
        if x0 is not None:
            return _feasibility_instance(seed, sets, xbar, R, w, x0)
    raise RuntimeError("could not place a start with a positive gap")


def _lens_feasibility_instance(dim: int, seed: int) -> "GeneratedInstance":
    """Two balls of radius a + R centered at xbar -/+ a e: both contain
    B(xbar, R) tangentially, and for a >> R their boundaries cross at a
    wedge of half-angle about sqrt(2 R / a).  Starting beside the wedge rim
    sends alternating projections zigzagging toward the vertex."""
    rng = np.random.default_rng(seed)
    xbar = rng.uniform(-1.0, 1.0, dim)
    R = float(rng.uniform(0.05, 0.12))
    a = R * float(rng.uniform(20.0, 40.0))
    e = rng.standard_normal(dim)
    e /= max(float(np.linalg.norm(e)), 1e-12)
    sets = (Ball(xbar - a * e, a + R), Ball(xbar + a * e, a + R))
    w = rng.uniform(0.5, 1.5, 2)
    f = rng.standard_normal(dim)
    f -= (f @ e) * e
    f /= max(float(np.linalg.norm(f)), 1e-12)
    rim = math.sqrt(2.0 * a * R + R * R)  # transverse rim radius
    x0 = xbar + (rim + R * float(rng.uniform(0.5, 1.5))) * f
    return _feasibility_instance(seed, sets, xbar, R, w / w.sum(), x0)


def _feasibility_instance(seed: int, sets, xbar: Array, R: float,
                          weights: Array, x0: Array) -> "GeneratedInstance":
    payload = {"sets": write_value(sets, SETS), "xbar": xbar.tolist(),
               "R": R, "weights": weights.tolist(), "x0": x0.tolist()}
    return GeneratedInstance(family="feasibility", seed=seed, payload=payload)


def tight_quadratic_instance(dim: int = 2, seed: int = 0) -> "GeneratedInstance":
    """One ball C: f = 0.5 dist(., C)^2, whose quadratic growth constant is
    exactly 1.  The matching hand certificate has zero margin everywhere,
    so any inflation of its constant must flip the sampling checks — the
    canonical falsification probe."""
    if dim < 1:
        raise ValueError("need dim >= 1")
    rng = np.random.default_rng(seed)
    center = rng.uniform(-1.0, 1.0, dim)
    radius = float(rng.uniform(0.4, 1.0))
    direction = rng.standard_normal(dim)
    direction /= max(float(np.linalg.norm(direction)), 1e-12)
    x0 = center + radius * float(rng.uniform(1.5, 3.0)) * direction
    payload = {"center": center.tolist(), "radius": radius, "x0": x0.tolist()}
    return GeneratedInstance(family="tight-quadratic", seed=seed,
                             payload=payload)


# ---------------------------------------------------------------------------
# uniformly convex quadratics
# ---------------------------------------------------------------------------


def generate_uniformly_convex_instance(n: int = 3,
                                       weight: Optional[float] = None,
                                       seed: int = 0) -> "GeneratedInstance":
    """f(x) = w ||x - center||^2: 2-uniformly convex with modulus 2w and an
    exact known minimizer."""
    if n < 1:
        raise ValueError("need n >= 1")
    if weight is not None:
        _require_positive(weight, "weight")
    rng = np.random.default_rng(seed)
    center = rng.uniform(-1.0, 1.0, n)
    if weight is None:
        weight = float(rng.uniform(0.5, 2.0))
    direction = rng.standard_normal(n)
    direction /= max(float(np.linalg.norm(direction)), 1e-12)
    x0 = center + float(rng.uniform(0.5, 2.0)) * direction
    payload = {
        "center": center.tolist(),
        "weight": weight,
        "x0": x0.tolist(),
    }
    return GeneratedInstance(family="uniformly-convex", seed=seed,
                             payload=payload)


# ---------------------------------------------------------------------------
# random polyhedral pairs (Hoffman-bound cross-checks)
# ---------------------------------------------------------------------------


def generate_linear_system_pair(dim: int = 3, num_ineq: int = 3,
                                num_eq: int = 1, seed: int = 0
                                ) -> LinearSystemPair:
    """Random feasible pair: witness first, constraints placed around it."""
    if not (1 <= num_eq <= dim):
        raise ValueError("need 1 <= num_eq <= dim")
    rng = np.random.default_rng(seed)
    witness = rng.uniform(-1.0, 1.0, dim)
    E = rng.standard_normal((num_eq, dim))
    e = E @ witness
    A = rng.standard_normal((num_ineq, dim))
    a = A @ witness + rng.uniform(0.1, 1.0, num_ineq)
    return LinearSystemPair(A=A, a=a, E=E, e=e, witness=witness)


# ---------------------------------------------------------------------------
# serialization wrapper
# ---------------------------------------------------------------------------


GENERATORS = {
    "lasso": generate_lasso_instance,
    "feasibility": generate_feasibility_instance,
    "uniformly-convex": generate_uniformly_convex_instance,
    "tight-quadratic": tight_quadratic_instance,
}
FAMILIES = tuple(GENERATORS)

# the keys of an instance.json record besides its schema version
INSTANCE_FIELDS = ("family", "seed", "payload")
# per set kind: the set it reads as, and its keys besides "kind"
SET_RECORDS = {
    "ball": (Ball, {"center": VECTOR, "radius": NUMBER}),
    "halfspace": (Halfspace, {"normal": VECTOR, "offset": NUMBER}),
}
SETS = Listed(Records("kind", SET_RECORDS))
# every payload key of each family, with what it holds
PAYLOADS = {
    "lasso": {"A": MATRIX, "y": VECTOR, "mu": NUMBER, "x0": VECTOR,
              "minimizer": VECTOR, "min_value": NUMBER},
    "feasibility": {"sets": SETS, "xbar": VECTOR, "R": NUMBER,
                    "weights": VECTOR, "x0": VECTOR},
    "uniformly-convex": {"center": VECTOR, "weight": NUMBER, "x0": VECTOR},
    "tight-quadratic": {"center": VECTOR, "radius": NUMBER, "x0": VECTOR},
}


@dataclass(frozen=True)
class GeneratedInstance:
    family: str
    seed: int
    payload: dict

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    def to_dict(self) -> dict:
        return {
            "schema_version": 2,
            "family": self.family,
            "seed": self.seed,
            "payload": self.payload,
        }

    def to_json(self, path) -> None:
        write_json(path, self.to_dict())

    def values(self) -> dict:
        """The payload read as PAYLOADS gives it, by key: floats, arrays
        and tuples of sets.  Any other key, shape or leaf is refused
        (ValueError naming the key), never converted."""
        return read_fields(self.payload, PAYLOADS[self.family],
                           f"{self.family} payload")

    @staticmethod
    def from_dict(data: dict) -> "GeneratedInstance":
        """Inverse of to_dict: a schema-2 record with exactly its fields, a
        family name, an integer seed and an object payload, or ValueError.
        values() checks the payload when a builder reads it."""
        require(data, ("schema_version",) + INSTANCE_FIELDS, "instance",
                version=2, exact=True)
        require_type(data["family"], str, "instance family")
        require_type(data["seed"], int, "instance seed")
        require_type(data["payload"], dict, "instance payload")
        return GeneratedInstance(family=data["family"], seed=data["seed"],
                                 payload=data["payload"])

    @staticmethod
    def from_json(path) -> "GeneratedInstance":
        return GeneratedInstance.from_dict(read_json(path))


@functools.cache
def generator_parameters() -> dict:
    """Per family, each generator parameter's (type, whether None is
    accepted, default), read from GENERATORS' signatures on the first call:
    what generate_instance checks and `klcert generate`'s flags."""
    table = {family: {} for family in GENERATORS}
    for family, generator in GENERATORS.items():
        for key, p in inspect.signature(generator,
                                        eval_str=True).parameters.items():
            kinds = get_args(p.annotation) or (p.annotation,)
            table[family][key] = (kinds[0], type(None) in kinds, p.default)
    return table


def generate_instance(family: str, seed: int = 0, **dims) -> GeneratedInstance:
    """Single entry point used by the command line.  The seed and every
    keyword must be parameters of the family's generator, of the type its
    annotation gives (None only where that is Optional); anything else
    raises ValueError."""
    require_type(family, str, "instance family")
    if family not in GENERATORS:
        raise ValueError(f"unknown family {family!r}")
    parameters = generator_parameters()[family]
    unknown = sorted(set(dims) - set(parameters))
    if unknown:
        raise ValueError(f"{family} instances take no {', '.join(unknown)}")
    for key, value in dict(dims, seed=seed).items():
        kind, nullable, _ = parameters[key]
        if value is not None or not nullable:
            require_type(value, kind, f"{family} instance {key}")
    return GENERATORS[family](seed=seed, **dims)
