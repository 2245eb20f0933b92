"""The one descent method, forward-backward, certifying its own step
inequalities.

Every shipped method is a forward-backward step on some composite h + g:
ISTA, gradient descent, projection-gradient, and averaged and alternating
projections (unit steps on 0.5 sum_i w_i dist^2(., C_i), or on
indicator(C_1) + 0.5 dist^2(., C_2)).  Each family's pipeline builds its
composite, start and step, and `forward_backward` runs them all.

Every run records, per step, the composite's value (the objective the
sampling checks test, `CompositeObjective.objective`), the step norm, and
the norm of an explicit subgradient witness, so that the two certificate
inequalities can be audited after the fact:

  sufficient decrease   f(x_k) + a ||x_k - x_{k-1}||^2 <= f(x_{k-1})
  relative error        ||w_k|| <= b ||x_k - x_{k-1}||,  w_k in subdiff f(x_k)

For the forward-backward step x_+ = prox_{lam g}(x - lam grad h(x)) with
one step size lam < 2/L for the whole run, the constants are
a = 1/lam - L/2 and b = 1/lam + L; the witness comes exactly from the
prox optimality inclusion, w_+ = (x - x_+)/lam - grad h(x) + grad h(x_+).
A step of norm exactly zero means stationarity: the run ends before it and
is marked converged.  The loop tests no norm: it ends when a step gives
back the bits of its point, and the batched record then cuts the run at
its first zero-norm step.  That step need not give back the same bits (a
signed zero may flip, or a move's squares underflow), so the loop may run
past it, up to its budget.  The record is still bit for bit the one a
per-step norm test makes: its rows are those of the shorter run, and no
oracle raises on a finite point or takes it to a non-finite one, so the
steps past the cut change nothing.  The loop keeps each point as the
bytes its stop test takes, and the (T+1, n) matrix of iterates is built
once from their join.  A quadratic w ||x - c||^2 with the zero nonsmooth
part takes no array loop: each coordinate runs its own scalar recurrence
in Python floats, to its own bitwise fixed point, and the matrix pads
each column with its last value.  That matrix has the array loop's bits:
numpy rounds each ufunc call once and fuses none, as Python float
operators do, so the same operations in the same order give the same
bits; every step has the same size, so a coordinate that gives back its
bits keeps them, and the array loop stops at the largest of the
coordinates' stops; and the scalar stop test is the byte test, signed
zeros and NaN included (`forward_backward` gives the proof).
A run is stored as its iterates; all else is derived.
It holds no method name and no step size: the config names both.
iterates.bin holds the iterates' row-major little-endian float64 bytes,
the exact bits `certify` replays, and run.json (schema 4) their
dimension, which is all it takes to read them back: the file's size is
checked against the dimension and the step budget before it is read, into
a bytearray that the replay views as its writable matrix.  trace.csv is
the readable per-step record.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from klcert.convex import (
    Array,
    CompositeObjective,
    as_point,
    identity_prox,
    row_norms,
)
from klcert.tracefmt import require, require_type, write_bytes, write_json


@dataclass(frozen=True)
class DescentCertificateParams:
    """Constants (a, b) of the two step inequalities."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("certificate constants must be positive")


def step_over_lipschitz(d: float, lipschitz: float) -> float:
    """The step d / L for a relative step size d in (0, 2): ValueError
    unless L > 0 and d / L is a positive, finite float."""
    if not (0.0 < d < 2.0):
        raise ValueError("relative step size must lie in (0, 2)")
    if not lipschitz > 0:
        raise ValueError("Lipschitz constant must be positive")
    lam = d / lipschitz
    if not (0.0 < lam < math.inf):
        raise ValueError(f"step {d!r} / {lipschitz!r} is not a positive, "
                         "finite float")
    return lam


def certificate_params(lam: float,
                       lipschitz: float) -> DescentCertificateParams:
    """(a, b) = (1/lam - L/2, 1/lam + L) of the step lam on a smooth part
    with Lipschitz constant L: ValueError unless lam is positive and
    finite and, for L > 0, strictly below 2/L, and unless b * b, which
    the rates divide by, is a finite float (then so are a and b)."""
    L = float(lipschitz)
    if not (0.0 < lam < math.inf):
        raise ValueError("step must be positive and finite")
    if not L >= 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    if L > 0 and lam >= 2.0 / L:
        raise ValueError("step must stay strictly below 2/L")
    a, b = 1.0 / lam - L / 2.0, 1.0 / lam + L
    # 0 < a <= b, and b * b is inf when b is
    if not b * b < math.inf:
        raise ValueError(f"step {lam!r} is too small: b * b = (1/step + L)^2 "
                         "is beyond the range of a float")
    return DescentCertificateParams(a=a, b=b)


# every key of a run.json record, and the only keys it may hold
RUN_FIELDS = ("schema_version", "dimension")
# iterates.bin's bytes: float64, little-endian on every host
ITERATE_DTYPE = "<f8"


@dataclass
class DescentRun:
    """Record of a descent trajectory and its certificate ingredients.

    raw_values holds f(x_k) (math.inf allowed at k = 0 for indicator-type
    objectives started outside the domain; it is a record, not an operand).
    """

    params: DescentCertificateParams
    iterates: Array            # (T+1, n)
    raw_values: Array          # (T+1,)
    step_norms: Array          # (T,)
    witness_norms: Array       # (T,)
    min_value: Optional[float] = None
    converged: bool = False

    @property
    def num_steps(self) -> int:
        return len(self.step_norms)

    @property
    def gaps(self) -> Array:
        """f(x_k) - min f; requires a stored minimum value."""
        if self.min_value is None:
            raise ValueError("run has no stored minimum value")
        return self.raw_values - self.min_value

    def settled_point(self) -> Optional[Array]:
        """The last iterate when the run has settled (it converged, or its
        last step is below 1e-10), else None."""
        if self.converged or (self.num_steps > 0
                              and float(self.step_norms[-1]) < 1e-10):
            return self.iterates[-1]
        return None

    def h1_violation(self) -> float:
        """max_k of f(x_k) + a ||step_k||^2 - f(x_{k-1}) over finite pairs."""
        prev = self.raw_values[:-1]
        excess = (self.raw_values[1:] + self.params.a * self.step_norms ** 2
                  - prev)[~np.isinf(prev)]
        return float(np.max(excess, initial=-math.inf))

    def h2_violation(self) -> float:
        """max_k of ||w_k|| - b ||step_k||."""
        if self.num_steps == 0:
            return -math.inf
        return float(np.max(self.witness_norms - self.params.b * self.step_norms))

    @staticmethod
    def from_iterates(composite: CompositeObjective, iterates: Array,
                      lam: Array, params: DescentCertificateParams,
                      min_value: Optional[float] = None,
                      converged: bool = False,
                      gradients: Optional[Array] = None) -> "DescentRun":
        """The record of the run X = iterates, every step of size lam (a
        0-d array), computed in one batch; gradients, when given, is
        grad h(X)."""
        # w_k = (x_{k-1} - x_k) / lam - grad h(x_{k-1}) + grad h(x_k); the
        # batched gradient has the bits of the calls made in the loop, and
        # row_norms those of np.linalg.norm on each step
        X = iterates
        G = composite.smooth.gradient_fn(X) if gradients is None else gradients
        witnesses = (X[:-1] - X[1:]) / lam - G[:-1] + G[1:]
        return DescentRun(
            params=params,
            iterates=X,
            raw_values=composite.value(X),
            step_norms=row_norms(X[1:] - X[:-1]),
            witness_norms=row_norms(witnesses),
            min_value=min_value,
            converged=converged,
        )

    def to_metadata_dict(self) -> dict:
        """run.json's record: the dimension of the iterates in iterates.bin."""
        return {"schema_version": 4, "dimension": self.iterates.shape[1]}

    def write(self, run_path, iterates_path) -> None:
        """Store the run: the iterates' row-major ITERATE_DTYPE bytes at
        iterates_path, and their run.json record at run_path."""
        write_json(run_path, self.to_metadata_dict())
        write_bytes(iterates_path,
                    np.ascontiguousarray(self.iterates, ITERATE_DTYPE))

    @staticmethod
    def from_metadata_dict(data: dict, iterates_path,
                           composite: CompositeObjective, x0, step: float,
                           steps: int, min_value: Optional[float] = None
                           ) -> "DescentRun":
        """The run forward_backward(composite, x0, step, steps, ...)
        records, from a run.json record and the iterates.bin `write` stored
        with it: ValueError unless the record holds the problem's
        dimension, the file holds one or more whole finite points, at most
        steps + 1 of them (told from its size, before it is read), and, bit
        for bit, they begin at the start, each is the method's nonzero step
        from the one before, and a run shorter than its budget stops where
        the loop would."""
        require(data, RUN_FIELDS, "run", version=4, exact=True)
        dimension = data["dimension"]
        require_type(dimension, int, "run dimension")
        if dimension != composite.dimension:
            raise ValueError(f"run dimension is {dimension}, not the "
                             f"problem's {composite.dimension}")
        point = 8 * dimension
        with open(iterates_path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if not size or size % point:
                raise ValueError(f"{iterates_path} holds {size} bytes, not "
                                 "one or more float64 points in dimension "
                                 f"{dimension}")
            if size > point * (steps + 1):
                raise ValueError(f"{iterates_path} holds {size // point - 1} "
                                 f"steps, more than the budget of {steps}")
            # a bytearray gives a writable matrix, native without a copy
            # on a little-endian host
            raw = bytearray(size)
            if fh.readinto(raw) != size:
                raise ValueError(f"{iterates_path} shrank while it was read")
        X = np.frombuffer(raw, ITERATE_DTYPE).reshape(-1, dimension)
        if not np.isfinite(X).all():
            raise ValueError("run iterates must be finite")
        X, num_steps = X.astype(float, copy=False), len(X) - 1
        if not np.array_equal(X[0], as_point(x0, composite.dimension)):
            raise ValueError("run iterates must begin at the start")
        params = certificate_params(step, composite.lipschitz)
        # row k of G has the bits of the loop's gradient call at x_k
        lam, G = np.array(step), composite.smooth.gradient_fn(X)
        run = DescentRun.from_iterates(
            composite, X, lam, params, min_value=min_value,
            converged=num_steps < steps, gradients=G)
        # every stored step is the loop's, and the loop stores no zero step
        prox_fn = composite.nonsmooth.prox_fn
        stepped = prox_fn(X[:-1] - lam * G[:-1], lam)
        if not np.array_equal(stepped, X[1:]) or (run.step_norms == 0).any():
            raise ValueError("run iterates are not the method's steps")
        if run.converged:
            move = prox_fn(X[-1] - lam * G[-1], lam) - X[-1]
            if move.dot(move) != 0.0:
                raise ValueError("run stops before its budget where the "
                                 "method still moves")
        return run


def _array_iterates(composite: CompositeObjective, x: Array, lam: Array,
                    steps: int) -> Array:
    """The (T+1, n) iterates of the loop from x, up to its first step that
    gives back its point's bits or to its budget.  The loop keeps the
    bytes of each point, which its stop test takes anyway, and the matrix
    is built once from their join."""
    grad, prox_fn = composite.smooth.gradient_fn, composite.nonsmooth.prox_fn
    chunks = [x.tobytes()]
    gx, last = grad(x), chunks[0]
    for _ in range(steps):
        xn = prox_fn(x - lam * gx, lam)
        now = xn.tobytes()
        # a step back onto the same bits is a zero step: the run ends
        if now == last:
            break
        chunks.append(now)
        x, gx, last = xn, grad(xn), now

    # a bytearray's buffer gives a writable, C-contiguous matrix
    return np.frombuffer(bytearray().join(chunks)).reshape(-1, len(x))


def _coordinate_iterates(x: float, c: float, scale: float, lam: float,
                         steps: int) -> list:
    """x, then x <- x - lam * (scale * (x - c)) in Python floats, up to
    the first step that gives back x's bits or to the budget."""
    out = [x]
    append = out.append
    for _ in range(steps):
        xn = x - lam * (scale * (x - c))
        # equal numbers have equal bits, but for zeros of unlike signs
        if xn == x and (xn or math.copysign(1.0, xn) == math.copysign(1.0, x)):
            return out
        append(xn)
        x = xn
    if x != x:
        # a NaN, unequal to itself, steps back onto its own bits: the
        # coordinate stops at its first one
        del out[next(k for k, v in enumerate(out) if v != v) + 1:]
    return out


def _scalar_iterates(x: Array, data: tuple[float, Array], lam: float,
                     steps: int) -> Array:
    """`_array_iterates` of x under the gradient with data (s, c), the
    identity prox and the constant step lam: each coordinate runs its own
    recurrence to its end, and its column is padded with its last value
    to the longest column's length."""
    scale, center = data
    columns = [_coordinate_iterates(xi, ci, scale, lam, steps)
               for xi, ci in zip(x.tolist(), center.tolist())]
    X = np.empty((max(map(len, columns)), len(columns)))
    for j, column in enumerate(columns):
        X[:len(column), j] = column
        X[len(column):, j] = column[-1]
    return X


def forward_backward(composite: CompositeObjective, x0, step: float,
                     steps: int, min_value: Optional[float] = None
                     ) -> DescentRun:
    """Proximal-gradient iteration with exact certificate witnesses, every
    step of size step; the start and the step are validated once, before
    the loop.  The run ends, converged, before its first step of norm
    zero: the loop stops at a step that gives back its point's bits, and
    the record of every step taken, computed in one batch, is cut at its
    first zero step norm.  ValueError, naming the step, when an iterate
    is not finite.

    Where the smooth part gives gradient data (s, c) and the nonsmooth
    part's prox is `identity_prox`, the step is x - lam * (s * (x - c)) in
    every entry, and each coordinate runs that recurrence alone, in Python
    floats (`_scalar_iterates`); the matrix of iterates has the bits of the
    array loop's, for three reasons.
      - Same bits per step.  numpy computes each ufunc call in correctly
        rounded binary64 and never fuses two calls; a Python float
        operator is one C operation on two doubles, correctly rounded too,
        in the same thread and so the same floating-point environment.
        The same operations on the same operands in the same order
        (difference, product by s, product by lam, difference) give the
        same bits, NaN payloads included: a NaN made from infinities is
        the hardware's default NaN on either side, and a NaN operand is
        the only one, or both operands are the same NaN.
      - Same stop.  Every step has the same size, so a coordinate's next
        value depends on its own value alone, and a coordinate whose step
        gives back its bits keeps them at every later step.  The array
        loop stops at the first step that gives back every coordinate's
        bits: the largest of the coordinates' own stops, or the budget.
        Each column padded with its last value is the array loop's column.
      - Same stop test.  Two floats other than NaN have the same bits
        exactly when they compare equal and are nonzero or zeros of one
        sign.  A NaN compares unequal to itself, but it gives back its
        bits at every step (above), so a coordinate that turns NaN stops
        at its first NaN.
    Every other composite takes the array loop: a gradient with a matrix
    product (ISTA's BLAS gemv) sums in an order Python floats cannot
    follow."""
    if steps < 1:
        raise ValueError("need at least one step")
    params = certificate_params(step, composite.lipschitz)
    x = as_point(x0, composite.dimension)
    # numpy scales an array by a 0-d array faster than by a Python float
    # or an np.float64, to the same bits
    lam, data = np.array(step), composite.smooth.gradient_data
    if data is not None and composite.nonsmooth.prox_fn is identity_prox:
        X = _scalar_iterates(x, data, float(step), steps)
    else:
        X = _array_iterates(composite, x, lam, steps)
    try:
        run = DescentRun.from_iterates(
            composite, X, lam, params,
            min_value=min_value, converged=len(X) <= steps)
    except ValueError:
        # the record refuses a non-finite point; the start is finite
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if not bad.size:
            raise
        raise ValueError(f"descent diverged: the iterate of step "
                         f"{int(bad[0])} has non-finite entries") from None
    # the run ends at its first zero-norm step, also where that step is no
    # bitwise fixed point: a signed zero that flips, or a move whose squares
    # underflow.  Rows of the batched record are those of the shorter run.
    zero = np.flatnonzero(run.step_norms == 0.0)
    if zero.size:
        k = int(zero[0])
        run = replace(run, iterates=X[:k + 1],
                      raw_values=run.raw_values[:k + 1],
                      step_norms=run.step_norms[:k],
                      witness_norms=run.witness_norms[:k], converged=True)
    return run
