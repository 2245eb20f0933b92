"""Shared vocabulary for finite-dimensional convex optimization.

Objectives are bundles of oracles (value, least-norm subgradient, proximal
map, gradient).  Value and subgradient oracles act on float64 arrays of
shape (..., n): a 1-D point is the case without batch axes.  Values are
floats, +inf outside the domain and never NaN; a NaN row of a subgradient
marks an empty subdifferential.  Row i of a batched call equals the call on
point i bit for bit, which is why the builders use `np.vecdot` and stacked
matrix-vector products (both reproduce the 1-D BLAS results) rather than
`x @ A.T` or `.sum(-1)` of products.  A single point's product takes
`A.dot(x)` where A is one C- or F-ordered block: the same BLAS gemv as
matmul at less than half the cost of matmul's 1-D path, which the descent
loop pays at every step.

Euclidean norms follow one of two conventions, named by whose bits they
give.  `row_norms` gives each row the single-point norm np.linalg.norm(v)
(a BLAS dot); the oracles and the descent record use it, so that a batch
row matches the call on its point.  `batch_norms` gives the batch norm
np.linalg.norm(d, axis=-1) (a sum of squares); the sets' distances and
projections, Dykstra's moves and the sampling code use it.  The sets
keep the batch-row rule all the same, since numpy reduces a 1-D point as
it reduces each row of a batch.  IntersectionSet is the exception to the
rule: Dykstra runs a batch until its slowest row converges (see the note
above Ball).  On a batch, `row_sums` (which `batch_norms` and the l1
sums use), `minus_point`, `Ball.project`, `Ball.sample` and
`Halfspace.project` work one coordinate column at a time, so that numpy
loops over the rows rather than over a short last axis, with the bits of
the reductions and broadcast expressions they replace.

The objective builders give the parts of composites h + g: smooth least
squares, quadratics and (weighted) squared distances, and nonsmooth scaled
l1 norms, indicators and zero.  Each problem is written once, as its
composite, and `CompositeObjective.objective` derives from it the one
function that the descent minimizes and the checks sample: the value
g + h, and the least-norm subgradient from grad h and the nonsmooth part's
shifted subgradient oracle.  Projectable convex sets (balls,
halfspaces, affine sets and their intersections) live here as well, since
they back both feasibility objectives and exact distance computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


class UnsupportedOracleError(RuntimeError):
    """Raised when an operation requires an oracle the objective lacks."""


class NotConvergedError(RuntimeError):
    """An iterative solver reached its cap before its stopping test held."""


def as_points(x, dimension: Optional[int] = None) -> Array:
    """Validate points: float64 array of shape (..., n) with finite entries."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(arr).all():
        raise ValueError("point has non-finite entries")
    if dimension is not None and arr.shape[-1] != dimension:
        raise ValueError(
            f"dimension mismatch: expected {dimension}, got {arr.shape[-1]}"
        )
    return arr


def as_point(x, dimension: Optional[int] = None) -> Array:
    """Validate a point: 1-D float64 array with finite entries."""
    arr = as_points(x, dimension)
    if arr.ndim != 1:
        raise ValueError(f"point must be 1-D, got shape {arr.shape}")
    return arr


def plain(v) -> float | Array:
    """A Python float for a single point, an array for a batch."""
    v = np.asarray(v, dtype=float)
    return float(v) if v.ndim == 0 else v


def row_norms(v) -> Array:
    """Euclidean norms over the last axis; entry i has the bits of
    np.linalg.norm(v[i]), the single-point norm (BLAS dot)."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(np.vecdot(v, v))


# below this many coordinates numpy's add.reduce over a contiguous last axis
# adds left to right; from it on, pairwise in blocks of eight
_PAIRWISE_FROM = 8


def row_sums(v) -> Array:
    """Sums over the last axis of nonnegative terms (magnitudes, squares)
    with the bits of v.sum(axis=-1).

    Below 8 coordinates that reduction adds left to right, so adding the
    columns gives its bits while numpy loops over the rows, not over a
    short last axis.  At 8 or more, where numpy sums pairwise, and for a
    single 1-D point, numpy's sum itself is called.  (The terms are
    nonnegative because numpy versions differ on the sign of a sum of
    negative zeros.)"""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    if v.ndim == 1 or not 0 < n < _PAIRWISE_FROM:
        return v.sum(axis=-1)
    total = v[..., 0] + v[..., 1] if n > 1 else v[..., 0].copy()
    for j in range(2, n):
        total += v[..., j]
    return total


def batch_norms(d) -> Array:
    """Euclidean norms over the last axis with the bits of
    np.linalg.norm(d, axis=-1), the batch norm: the square root of the
    add.reduce of the squares, taken by `row_sums`."""
    d = np.asarray(d, dtype=float)
    return np.sqrt(row_sums(d * d))


def minus_point(x: Array, point: Array) -> Array:
    """x - point, bit for bit, for points x of shape (..., n).  A batch is
    taken one coordinate column at a time, so that numpy loops over the
    rows rather than broadcast point over a short last axis."""
    if x.ndim == 1:
        return x - point
    out = np.empty(x.shape)
    for j in range(x.shape[-1]):
        np.subtract(x[..., j], point[j], out=out[..., j])
    return out


def _point_product(A: Array) -> Callable[[Array], Array]:
    """x -> A x for one point x, with the bits of a row of the stacked
    product.  When A is one C- or F-ordered block, that is A.dot: it calls
    the same BLAS gemv as matmul, in 0.44 against 1.1 us for matmul's 1-D
    path on a 4 x 3 matrix (numpy 2.4).  Any other layout takes A @ x,
    since dot would first copy A to C order, which can change the gemv
    kernel and so the bits."""
    return A.dot if A.flags.forc else A.__matmul__


def _matvec(A: Array, x: Array) -> Array:
    """A x for each row of x.  A single point takes `_point_product`; a
    batch is stacked, which gives every row the bits of matmul's 1-D
    product."""
    if x.ndim == 1:
        return _point_product(A)(x)
    return (A @ x[..., None])[..., 0]


# ---------------------------------------------------------------------------
# projectable convex sets
# ---------------------------------------------------------------------------
#
# Each set implements project(x), distance(x) and contains(x, tol), all of
# which broadcast over leading batch axes.  Ball, Halfspace and AffineSet
# give each batch row the bits of the single-point call, whatever the batch
# size; dykstra_projection relies on that when it drops from its batch the
# rows at a fixed point or on a 2-cycle, and when it measures distances for
# only some rows.  IntersectionSet does not: its batch runs until the
# slowest row meets the stopping test.


@dataclass(frozen=True)
class Ball:
    """Euclidean ball {x : ||x - center|| <= radius}.

    The one Euclidean ball: a projectable set, a certificate region (it
    also draws uniform samples of itself) and, at radius 0, a single point,
    whose distance is ||x - center|| to the bit."""

    center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def project(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if self.radius == 0.0:
            # the center itself: near it, the squared norm below would
            # underflow to 0 and leave the point where it is
            return np.broadcast_to(self.center, x.shape).copy()
        d = minus_point(x, self.center)
        nrm = batch_norms(d)
        scale = np.where(nrm > self.radius, self.radius / np.maximum(nrm, 1e-300), 1.0)
        if d.ndim == 1:
            return self.center + scale * d
        # center + scale * d, one column at a time as in minus_point
        for j in range(d.shape[-1]):
            column = d[..., j]
            np.multiply(scale, column, out=column)
            np.add(self.center[j], column, out=column)
        return d

    def distance(self, x: Array) -> float | Array:
        x = np.asarray(x, dtype=float)
        nrm = batch_norms(minus_point(x, self.center))
        return np.maximum(nrm - self.radius, 0.0)

    def contains(self, x: Array, tol: float = 1e-9):
        return self.distance(x) <= tol

    def sample(self, rng: np.random.Generator, dimension: int, count: int) -> Array:
        """count points drawn uniformly from the ball, shape (count, n)."""
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

    def boundary_normal(self, x: Array) -> Array:
        d = np.asarray(x, dtype=float) - self.center
        n = np.sqrt(np.vecdot(d, d))
        if np.any(n == 0.0):
            raise ValueError("normal undefined at the center")
        return d / n[..., None]


@dataclass(frozen=True)
class Halfspace:
    """Halfspace {x : <normal, x> <= offset}."""

    normal: Array
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", as_point(self.normal))
        if np.linalg.norm(self.normal) == 0.0:
            raise ValueError("normal must be nonzero")

    @property
    def dimension(self) -> int:
        return self.normal.shape[0]

    def project(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        slack = np.vecdot(x, self.normal) - self.offset
        excess = np.maximum(slack, 0.0) / (self.normal @ self.normal)
        if x.ndim == 1:
            return x - excess * self.normal
        # x - excess * normal, one column at a time as in minus_point
        out = np.empty(x.shape)
        for j in range(x.shape[-1]):
            column = out[..., j]
            np.multiply(excess, self.normal[j], out=column)
            np.subtract(x[..., j], column, out=column)
        return out

    def distance(self, x: Array) -> float | Array:
        x = np.asarray(x, dtype=float)
        slack = np.vecdot(x, self.normal) - self.offset
        return np.maximum(slack, 0.0) / np.linalg.norm(self.normal)

    def contains(self, x: Array, tol: float = 1e-9):
        return self.distance(x) <= tol

    def boundary_normal(self, x: Array) -> Array:
        return self.normal / np.linalg.norm(self.normal)


@dataclass(frozen=True)
class AffineSet:
    """Affine set {x : E x = e}; projection via the pseudoinverse."""

    matrix: Array
    rhs: Array

    def __post_init__(self):
        E = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        e = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        if E.shape[0] != e.shape[0]:
            raise ValueError("matrix/rhs row mismatch")
        object.__setattr__(self, "matrix", E)
        object.__setattr__(self, "rhs", e)

    @cached_property
    def _pinv(self) -> Array:
        return np.linalg.pinv(self.matrix)

    def project(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        resid = _matvec(self.matrix, x) - self.rhs
        return x - _matvec(self._pinv, resid)

    def distance(self, x: Array) -> float | Array:
        x = np.asarray(x, dtype=float)
        return batch_norms(x - self.project(x))

    def contains(self, x: Array, tol: float = 1e-9):
        return self.distance(x) <= tol


def _same_row_bits(a: Array, b: Array) -> Array:
    """Per row of two (k, n) arrays: whether the rows agree to the bit.
    One column at a time: n elementwise comparisons of the int64 views cost
    less than a reduction over a short last axis."""
    a, b = a.view(np.int64), b.view(np.int64)
    same = np.ones(a.shape[0], dtype=bool)
    for j in range(a.shape[1]):
        same &= a[:, j] == b[:, j]
    return same


def _same_state(y: Array, increments, earlier) -> Array:
    """Per row: whether y and every increment equal an earlier
    (y, increments) to the bit."""
    same = _same_row_bits(y, earlier[0])
    for increment, old in zip(increments, earlier[1]):
        if not same.any():
            break
        same &= _same_row_bits(increment, old)
    return same


def _max_distance(sets: Sequence, y: Array) -> Array:
    """Per row of y: its largest distance to a member set."""
    return np.maximum.reduce([s.distance(y) for s in sets])


def dykstra_projection(
    sets: Sequence,
    x: Array,
    tol: float = 1e-12,
    max_cycles: int = 5000,
) -> Array:
    """Project onto the intersection of convex sets with Dykstra's scheme.

    Plain cyclic projections converge to *some* intersection point; the
    Dykstra correction terms are what make the limit the nearest one, which
    is required whenever the returned point feeds an exact distance.
    Broadcasts over leading batch axes; a single point is a batch of one
    row.  Raises NotConvergedError when max_cycles cycles end without
    meeting the stopping test, rather than return a point that is not the
    projection.

    A cycle is a deterministic function of a row's state (y, increments),
    since Ball, Halfspace and AffineSet project a batch row to the bits of
    the single-point call.  So a row whose state comes back bit for bit
    after one cycle sits at an exact fixed point, and a row whose state
    comes back after two cycles alternates between two states for ever.
    Such a row is frozen: it leaves the working batch with its y
    of each cycle parity, and the output takes the one of the stopping
    cycle's parity.  Its move in every later cycle is its move of this
    one (0 at a fixed point; the norm of v and of -v in a 2-cycle), and
    its distances alternate with its y, so running maxima of them, one per
    parity, keep it in the stopping test.  The distances of the live rows
    are computed only on a cycle whose move passes tol, and on the cycle a
    row freezes.  The stopping cycle, every output bit and the error
    message are therefore those of cycling the whole batch, while the rows
    that settle early stop costing work.  Once every row is frozen, only
    the next cycle can still meet the test: if it does not, no later one
    will, and NotConvergedError is raised at once.
    """
    if not sets:
        raise ValueError("need at least one set")
    if max_cycles < 1:
        raise ValueError("need at least one cycle")
    x = np.asarray(x, dtype=float)
    # the projections return new arrays, so y is never written in place
    y = x.reshape(-1, x.shape[-1])
    rows = np.arange(y.shape[0])
    # one array of zeros serves every set: increments are replaced, never
    # written in place
    increments = [np.zeros_like(y)] * len(sets)
    # the live rows' state two cycles back, and the frozen rows' y for
    # even and for odd cycles, their move and their largest distances
    earlier = None
    frozen_rows, frozen_ys = [], ([], [])
    frozen_move, frozen_violation = 0.0, [0.0, 0.0]

    def output(parity):
        out = np.empty(x.shape)
        flat = out.reshape(-1, x.shape[-1])
        flat[np.concatenate(frozen_rows + [rows])] = np.concatenate(
            frozen_ys[parity] + [y])
        return out

    for cycle in range(1, max_cycles + 1):
        parity = cycle % 2
        start, previous = y, increments
        increments = []
        for s, increment in zip(sets, previous):
            target = y + increment
            y = s.project(target)
            increments.append(target - y)
        fixed = _same_state(y, increments, (start, previous))
        cycling = (_same_state(y, increments, earlier) if earlier
                   else np.zeros_like(fixed))
        # the input state is not held for the whole batch: a row that comes
        # back to it is caught a cycle later, against cycle 1's
        earlier = (start, previous) if cycle > 1 else None
        del previous
        freeze = fixed | cycling
        if freeze.any():
            two = cycling[freeze]
            now, two_start = y[freeze], start[cycling]
            frozen_rows.append(rows[freeze])
            live = ~freeze
            rows, y, start = rows[live], y[live], start[live]
            increments = [inc[live] for inc in increments]
            if earlier:
                earlier = (start, [inc[live] for inc in earlier[1]])
            # the frozen rows' y and distances on cycles of this parity and
            # of the other: a fixed row's own, a 2-cycle row's start's
            d_now = _max_distance(sets, now)
            then, d_then = now, d_now
            if two.any():
                then, d_then = now.copy(), d_now.copy()
                then[two] = two_start
                d_then[two] = _max_distance(sets, two_start)
                frozen_move = batch_norms(now[two] - two_start).max(
                    initial=frozen_move)
            frozen_ys[parity].append(now)
            frozen_ys[1 - parity].append(then)
            frozen_violation[parity] = d_now.max(
                initial=frozen_violation[parity])
            frozen_violation[1 - parity] = d_then.max(
                initial=frozen_violation[1 - parity])
        move = batch_norms(y - start).max(initial=frozen_move)
        if move <= tol:
            violation = _max_distance(sets, y).max(
                initial=frozen_violation[parity])
            if violation <= 10 * tol:
                return output(parity)
        if not rows.size:
            # every row is frozen: the move stays and the violation
            # alternates, so only the next cycle can still stop
            if (cycle < max_cycles and move <= tol
                    and frozen_violation[1 - parity] <= 10 * tol):
                return output(1 - parity)
            break
    violation = _max_distance(sets, y).max(
        initial=frozen_violation[max_cycles % 2])
    raise NotConvergedError(
        f"Dykstra projection did not converge in {max_cycles} cycles "
        f"(last move {move:.3e}, violation {violation:.3e})")


@dataclass(frozen=True)
class IntersectionSet:
    """Intersection of projectable convex sets; projection via Dykstra.
    No member is an intersection: Dykstra's freeze needs members whose
    batch rows keep the bits of single-point calls."""

    sets: tuple

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        if any(isinstance(s, IntersectionSet) for s in self.sets):
            raise ValueError("an intersection cannot hold an intersection")

    def project(self, x: Array) -> Array:
        return dykstra_projection(self.sets, x)

    def distance(self, x: Array) -> float | Array:
        x = np.asarray(x, dtype=float)
        return batch_norms(x - self.project(x))

    def contains(self, x: Array, tol: float = 1e-9):
        return np.logical_and.reduce([s.contains(x, tol) for s in self.sets])


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexObjective:
    """A proper closed convex function given through oracles.

    value_fn maps points of shape (..., n) to floats of shape (...), +inf
    outside the domain.  subgradient_fn returns the least-norm element of
    the subdifferential, shape (..., n), with a row of NaN where the
    subdifferential is empty.  prox_fn maps a point x and a step to
    argmin_z f(z) + ||z - x||^2 / (2 step): a 1-D point and a 0-d float64
    array step in the descent loop, a float step in `prox`, and a (T, n)
    batch with the same 0-d step when `DescentRun.from_metadata_dict`
    replays stored iterates, each row with the bits of the single-point
    call.  Where the map is the identity, prox_fn may return its argument
    itself: no caller mutates a prox result, and the descent loop and the
    replay pass fresh temporaries.
    shifted_subgradient_fn, given by the nonsmooth parts of composites, maps
    points x and vectors v of the same shape to the least-norm element of
    v + subdiff f(x), NaN rows where the subdifferential is empty; with
    v = grad h(x) it is the least-norm subgradient of h + f.  The minimum
    value is stored, not recomputed: tiny instances carry an exact or
    brute-force minimum so that value gaps stay trustworthy at high
    accuracy.
    gradient_data, when given, is the pair (s, c) of a Python float and a
    point such that gradient_fn(x) is s * (x - c), one rounded product of
    one rounded difference in every entry: `quadratic_objective` builds
    its gradient from it, and `forward_backward` runs its steps one
    coordinate at a time from it.
    """

    dimension: int
    value_fn: Callable[[Array], float | Array]
    min_value: float = 0.0
    subgradient_fn: Optional[Callable[[Array], Array]] = None
    prox_fn: Optional[Callable[[Array, float], Array]] = None
    gradient_fn: Optional[Callable[[Array], Array]] = None
    lipschitz: Optional[float] = None
    name: str = ""
    shifted_subgradient_fn: Optional[Callable[[Array, Array], Array]] = None
    gradient_data: Optional[tuple[float, Array]] = None


def evaluate(obj: ConvexObjective, x) -> float | Array:
    """Objective values at the points x, +inf outside the domain."""
    x = as_points(x, obj.dimension)
    v = plain(obj.value_fn(x))
    # NaN and -inf are the values that fail v > -inf
    if not (v > -math.inf if isinstance(v, float) else (v > -math.inf).all()):
        raise ValueError("value oracle returned NaN or -inf")
    return v


def value_gap(obj: ConvexObjective, x) -> float | Array:
    """f(x) - min f, +inf outside the domain."""
    return evaluate(obj, x) - obj.min_value


def min_norm_subgradient(obj: ConvexObjective, x) -> Array:
    """Least-norm subgradients at x; NaN rows where x is outside dom(subdiff)."""
    x = as_points(x, obj.dimension)
    if obj.subgradient_fn is not None:
        return obj.subgradient_fn(x)
    if obj.gradient_fn is not None:
        return obj.gradient_fn(x)
    raise UnsupportedOracleError(
        f"objective {obj.name or '<anonymous>'} provides no subgradient oracle"
    )


def subgradient_norm(obj: ConvexObjective, x) -> float | Array:
    """||least-norm subgradient||; +inf sentinel outside dom(subdiff)."""
    norm = row_norms(min_norm_subgradient(obj, x))
    return plain(np.where(np.isnan(norm), math.inf, norm))


def prox(obj: ConvexObjective, x, step: float) -> Array:
    """Proximal map of obj at x with the given positive step; x itself
    when the map is the identity."""
    x = as_point(x, obj.dimension)
    if step <= 0:
        raise ValueError("prox step must be positive")
    if obj.prox_fn is None:
        raise UnsupportedOracleError(
            f"objective {obj.name or '<anonymous>'} provides no prox oracle"
        )
    return obj.prox_fn(x, float(step))


@dataclass(frozen=True)
class CompositeObjective:
    """Sum h + g with h smooth (gradient, Lipschitz constant) and g prox-friendly."""

    smooth: ConvexObjective
    nonsmooth: ConvexObjective

    def __post_init__(self):
        if self.smooth.dimension != self.nonsmooth.dimension:
            raise ValueError("smooth/nonsmooth dimension mismatch")
        if self.smooth.gradient_fn is None:
            raise ValueError("smooth part needs a gradient oracle")
        if self.smooth.lipschitz is None or self.smooth.lipschitz < 0:
            raise ValueError("smooth part needs a nonnegative Lipschitz constant")
        if self.nonsmooth.prox_fn is None:
            raise ValueError("nonsmooth part needs a prox oracle")

    @property
    def dimension(self) -> int:
        return self.smooth.dimension

    @property
    def lipschitz(self) -> float:
        return float(self.smooth.lipschitz)

    def _sum(self, x: Array) -> Array:
        # the smooth part is finite everywhere, so +inf stays +inf
        return self.nonsmooth.value_fn(x) + self.smooth.value_fn(x)

    def value(self, x) -> float | Array:
        """g(x) + h(x), +inf outside the domain of g."""
        return evaluate(ConvexObjective(self.dimension, self._sum), x)

    def objective(self, min_value: float = 0.0) -> ConvexObjective:
        """F = h + g as one objective, the function the descent minimizes:
        its value g(x) + h(x) and its least-norm subgradient, grad h(x) plus
        the element of subdiff g(x) nearest to -grad h(x).  ValueError when
        g gives no shifted subgradient oracle."""
        g = self.nonsmooth
        if g.shifted_subgradient_fn is None:
            raise ValueError(
                f"the nonsmooth part {g.name or '<anonymous>'!r} gives no "
                "least-norm subgradient of a sum (an indicator gives one for "
                "a Ball or a Halfspace only)")
        gradient = self.smooth.gradient_fn
        return ConvexObjective(
            dimension=self.dimension, value_fn=self._sum,
            min_value=min_value,
            subgradient_fn=lambda x: g.shifted_subgradient_fn(x, gradient(x)),
            name=f"{self.smooth.name}+{g.name}")


# ---------------------------------------------------------------------------
# standard building blocks
# ---------------------------------------------------------------------------


def quadratic_objective(center, weight: float = 0.5, min_value: float = 0.0) -> ConvexObjective:
    """f(x) = weight * ||x - center||^2 with exact oracles."""
    c = as_point(center)
    w = float(weight)
    if w <= 0:
        raise ValueError("weight must be positive")

    def val(x):
        d = minus_point(x, c)
        return w * np.vecdot(d, d) + min_value

    # the gradient 2w (x - c), given by its data
    data = (2.0 * w, c)
    # 2w as a 0-d array: numpy scales an array by one faster than by a
    # Python float, to the same bits, and a batch of points still in one
    # loop over all its entries
    two_w = np.asarray(data[0])

    def grad(x):
        # called once per step of the descent loop: no helper call
        return two_w * (x - c)

    def prx(x, step):
        return (x + 2.0 * w * step * c) / (1.0 + 2.0 * w * step)

    return ConvexObjective(
        dimension=c.shape[0], value_fn=val, min_value=min_value,
        gradient_fn=grad, subgradient_fn=grad, prox_fn=prx,
        lipschitz=2.0 * w, name="quadratic", gradient_data=data,
    )


# a 0-d zero: numpy takes a Python float operand slower than an array
_ZERO = np.zeros(())


def soft_threshold(x: Array, threshold) -> Array:
    """Componentwise shrinkage, the prox of threshold * ||.||_1; threshold
    is a float or an array that broadcasts against x."""
    return np.sign(x) * np.maximum(np.abs(x) - threshold, _ZERO)


def scaled_l1(dimension: int, weight: float) -> ConvexObjective:
    """f(x) = weight * ||x||_1."""
    w = float(weight)
    if w < 0:
        raise ValueError("weight must be nonnegative")
    # the weight as an array, so that the descent loop's prox call, whose
    # step is a 0-d array, passes soft_threshold an array threshold
    weights = np.full(dimension, w)

    def val(x):
        return w * row_sums(np.abs(x))

    def shifted(x, v):
        # v + weight*sign on the support; off it, v plus the point of
        # [-weight, weight] nearest to -v, which is v shrunk by weight
        return np.where(x != 0.0, v + w * np.sign(x), soft_threshold(v, w))

    def prx(x, step):
        return soft_threshold(x, weights * step)

    return ConvexObjective(
        dimension=dimension, value_fn=val, min_value=0.0,
        subgradient_fn=lambda x: shifted(x, np.zeros_like(x)), prox_fn=prx,
        name="l1", shifted_subgradient_fn=shifted,
    )


def indicator(set_, dimension: int) -> ConvexObjective:
    """Indicator of a projectable convex set; prox is the projection.

    The shifted subgradient needs the normal cone at the boundary, so only
    a Ball or a Halfspace (the boundary geometries exposed here) gives one.
    """

    def val(x):
        return np.where(set_.contains(x, tol=1e-12), 0.0, math.inf)

    def subgrad(x):
        # 0 is always the least-norm element of the normal cone on the set.
        inside = np.asarray(set_.contains(x, tol=1e-12))[..., None]
        return np.where(inside, 0.0, np.full_like(x, math.nan))

    def prx(x, step):
        return set_.project(x)

    def shifted(x, v):
        # distance(x) is zero on all of C, so detect the boundary by slack
        if isinstance(set_, Ball):
            d = x - set_.center
            slack = set_.radius - np.sqrt(np.vecdot(d, d))
        else:
            slack = ((set_.offset - np.vecdot(x, set_.normal))
                     / np.linalg.norm(set_.normal))
        inside = np.asarray(set_.contains(x, tol=1e-12))
        out = np.where(inside[..., None], v, math.nan)
        # on the boundary, add the normal-cone multiple that minimizes norm
        boundary = inside & (slack <= 1e-12)
        vb = out[boundary]
        n = np.broadcast_to(set_.boundary_normal(x[boundary]), vb.shape)
        t = np.maximum(0.0, -np.vecdot(vb, n))
        out[boundary] = vb + t[..., None] * n
        return out

    return ConvexObjective(
        dimension=dimension, value_fn=val, min_value=0.0,
        subgradient_fn=subgrad, prox_fn=prx, name="indicator",
        shifted_subgradient_fn=(shifted if isinstance(set_, (Ball, Halfspace))
                                else None),
    )


def least_squares(A, y) -> ConvexObjective:
    """h(x) = 0.5 * ||A x - y||^2; Lipschitz constant is ||A||_2^2."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if A.shape[0] != y.shape[0]:
        raise ValueError("A/y row mismatch")
    spectral = float(np.linalg.norm(A, 2)) if A.size else 0.0

    def val(x):
        r = _matvec(A, x) - y
        return 0.5 * np.vecdot(r, r)

    At = A.T
    # the descent loop calls grad on one point per step: its products take
    # _matvec's point path with the layout test made once, here
    times_A, times_At = _point_product(A), _point_product(At)

    def grad(x):
        if x.ndim == 1:
            return times_At(times_A(x) - y)
        return _matvec(At, _matvec(A, x) - y)

    return ConvexObjective(
        dimension=A.shape[1], value_fn=val, min_value=0.0,
        gradient_fn=grad, subgradient_fn=grad,
        lipschitz=spectral ** 2, name="least-squares",
    )


def identity_prox(x: Array, step) -> Array:
    """The zero function's prox: x itself."""
    return x


def zero_objective(dimension: int) -> ConvexObjective:
    """The zero function: smooth with L = 0 and identity prox."""
    return ConvexObjective(
        dimension=dimension,
        value_fn=lambda x: np.zeros(x.shape[:-1]),
        min_value=0.0,
        gradient_fn=np.zeros_like,
        subgradient_fn=np.zeros_like,
        prox_fn=identity_prox,
        lipschitz=0.0,
        name="zero",
        shifted_subgradient_fn=lambda x, v: v,
    )


def lasso_composite(A, y, mu: float) -> CompositeObjective:
    """Least-squares plus scaled l1, the standard composite split."""
    h = least_squares(A, y)
    g = scaled_l1(h.dimension, mu)
    return CompositeObjective(smooth=h, nonsmooth=g)


def feasibility_objective(sets: Sequence, weights,
                          dimension: int) -> ConvexObjective:
    """f(x) = 0.5 * sum_i w_i dist^2(x, C_i); gradient is x - sum_i w_i P_i(x)."""
    sets = tuple(sets)
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if len(sets) != w.shape[0]:
        raise ValueError("one weight per set required")
    if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be positive and sum to one")

    def val(x):
        return 0.5 * sum(wi * np.asarray(s.distance(x)) ** 2
                         for wi, s in zip(w, sets))

    def grad(x):
        out = np.zeros_like(x)
        for wi, s in zip(w, sets):
            out += wi * (x - s.project(x))
        return out

    return ConvexObjective(
        dimension=dimension, value_fn=val, min_value=0.0,
        gradient_fn=grad, subgradient_fn=grad, lipschitz=1.0,
        name="feasibility",
    )


def half_squared_distance(set_, dimension: int) -> ConvexObjective:
    """h(x) = 0.5 dist^2(x, C): smooth with gradient x - P_C(x) and L = 1."""

    def val(x):
        return 0.5 * np.asarray(set_.distance(x)) ** 2

    def grad(x):
        return x - set_.project(x)

    return ConvexObjective(
        dimension=dimension, value_fn=val, min_value=0.0,
        gradient_fn=grad, subgradient_fn=grad, lipschitz=1.0,
        name="half-squared-distance",
    )
