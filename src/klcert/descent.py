"""The one descent method, forward-backward, certifying its own step
inequalities.

Every shipped method is a forward-backward step on some composite h + g:
ISTA, gradient descent, projection-gradient, and averaged and alternating
projections (unit steps on 0.5 sum_i w_i dist^2(., C_i), or on
indicator(C_1) + 0.5 dist^2(., C_2)).  Each family's pipeline builds its
composite, start and step schedule, and `forward_backward` runs them all.

Every run records, per step, the composite's value (the objective the
sampling checks test, `CompositeObjective.objective`), the step norm, and
the norm of an explicit subgradient witness, so that the two certificate
inequalities can be audited after the fact:

  sufficient decrease   f(x_k) + a ||x_k - x_{k-1}||^2 <= f(x_{k-1})
  relative error        ||w_k|| <= b ||x_k - x_{k-1}||,  w_k in subdiff f(x_k)

For the forward-backward step x_+ = prox_{lam g}(x - lam grad h(x)) with
step sizes in [lam_lo, lam_hi], lam_hi < 2/L, the constants are
a = 1/lam_hi - L/2 and b = 1/lam_lo + L; the witness comes exactly from the
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
part under a constant step takes no array loop: each coordinate runs its
own scalar recurrence in Python floats, to its own bitwise fixed point,
and the matrix pads each column with its last value.  That matrix has
the array loop's bits: numpy rounds each ufunc call once and fuses none,
as Python float operators do, so the same operations in the same order
give the same bits; a coordinate that gives back its bits under a
constant step keeps them, so the array loop stops at the largest of the
coordinates' stops; and the scalar stop test is the byte test, signed
zeros and NaN included (`forward_backward` gives the proof).
A run is stored as its iterates; all else is derived.
It holds no method name and no step sizes: the config names the method,
and the schedule gives the sizes.  run.json (schema 3) holds the iterates
as the strict base64 text of their row-major little-endian float64 bytes,
beside their dimension: the exact bits `certify` replays, read without
parsing number text.  `decode_canonical_base64` reads that text two
characters at a time: each pair, as one little-endian uint16, indexes a
cached table of its two digits' 12 bits, so a block of text is checked
and decoded by a few array operations, not one step per character, and
its bytes land in a bytearray that the replay views as its writable
matrix.  trace.csv is the readable per-step record.
"""

from __future__ import annotations

import base64
import functools
import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from klcert.convex import (
    Array,
    CompositeObjective,
    as_point,
    identity_prox,
    row_norms,
)
from klcert.tracefmt import require, require_type, write_json


@dataclass(frozen=True)
class DescentCertificateParams:
    """Constants (a, b) of the two step inequalities."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("certificate constants must be positive")


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes lam_k with certified bounds lam_lo <= lam_k <= lam_hi."""

    lambda_min: float
    lambda_max: float
    fn: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        if not (0.0 < self.lambda_min <= self.lambda_max):
            raise ValueError("need 0 < lambda_min <= lambda_max")

    def step(self, k: int) -> float:
        """lam_k, refused unless it lies within one ulp of [lambda_min,
        lambda_max], so that a size computed inside the bounds, such as
        lo + (hi - lo) * t, is not refused for its last rounding.

        The slack is harmless.  For bounds of at least 2**-1022 (normal
        floats) one ulp is at most 2**-52 of the bound, so an accepted
        lam <= lambda_max (1 + 2**-52) has the sufficient-decrease constant
        1/lam - L/2 >= a - 2**-52 / lambda_max, and an accepted
        lam >= lambda_min (1 - 2**-52) the relative-error constant
        1/lam + L <= b + 2**-51 / lambda_min: the certified (a, b)
        overstate the step's own by at most four ulps of the 1/lambda_max
        and 1/lambda_min they are computed from, the order of the rounding
        that computing them carries anyway.  A slack of fixed size is not
        harmless: 1e-15 let a step of 5e-16 through bounds of 1e-20, for
        which a = b = 1e20 certify nothing."""
        lam = self.lambda_min if self.fn is None else float(self.fn(k))
        if not (0.0 < lam and math.nextafter(self.lambda_min, 0.0) <= lam
                <= math.nextafter(self.lambda_max, math.inf)):
            raise ValueError(f"schedule value {lam} escapes its declared bounds")
        return lam

    def sizes(self, steps: int) -> Array:
        """lam_0, ..., lam_{steps-1} as one float64 array that broadcasts
        to (steps,).  A constant schedule gives its one size as a 0-d
        array: it needs no check, and numpy scales a (steps, n) matrix by
        it in one loop over all the entries, to the bits of a (steps, 1)
        column of copies.  A schedule with fn gives the (steps,) array of
        its sizes, every one checked against the bounds."""
        if self.fn is None:
            return np.array(self.lambda_min)
        return np.array([self.step(k) for k in range(steps)], dtype=float)

    @staticmethod
    def constant(lam: float) -> "StepSchedule":
        return StepSchedule(lambda_min=lam, lambda_max=lam)

    @staticmethod
    def over_lipschitz(d: float, lipschitz: float) -> "StepSchedule":
        """Constant step d / L for a relative step size d in (0, 2)."""
        if not (0.0 < d < 2.0):
            raise ValueError("relative step size must lie in (0, 2)")
        if lipschitz <= 0:
            raise ValueError("Lipschitz constant must be positive")
        return StepSchedule.constant(d / lipschitz)


def certificate_params(schedule: StepSchedule, lipschitz: float) -> DescentCertificateParams:
    """(a, b) implied by the schedule bounds and the smooth Lipschitz constant."""
    L = float(lipschitz)
    if L < 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    if L > 0 and schedule.lambda_max >= 2.0 / L:
        raise ValueError("largest step must stay strictly below 2/L")
    a = 1.0 / schedule.lambda_max - L / 2.0
    b = 1.0 / schedule.lambda_min + L
    return DescentCertificateParams(a=a, b=b)


# every key of a run.json record, and the only keys it may hold
RUN_FIELDS = ("schema_version", "dimension", "iterates")
# the stored iterates' bytes: float64, little-endian on every host
ITERATE_DTYPE = "<f8"

_BASE64_DIGITS = (b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                  b"0123456789+/")
# character pairs decoded at once: np.take copies its index to intp, 8
# bytes a pair and the block's largest temporary, so 8192 pairs (64 KiB)
# stay below glibc's 128 KiB mmap threshold, as tracefmt's _BLOCK does,
# where 16384 (128 KiB) would reach it
_PAIRS = 8192


@functools.cache
def _pair_table() -> np.ndarray:
    """By the little-endian uint16 of two ASCII characters c0 c1, the 12
    bits d(c0) << 6 | d(c1) of their base64 digits, or 0xFFFF when either
    is not a digit; little-endian on every host.  ASCII keeps c1 below
    128, so 32768 entries (64 KiB) suffice.  Built with intp arithmetic,
    whose numpy loops other code already keeps resident."""
    table = np.full((128, 256), 0xFFFF, "<u2")
    codes = np.frombuffer(_BASE64_DIGITS, np.uint8)
    digit = np.arange(64)
    # row c1, column c0
    table[np.ix_(codes, codes)] = digit * 64 + digit[:, None]
    return table.ravel()


def _decode_quanta(pairs: np.ndarray, out: np.ndarray) -> bool:
    """Write the bytes of the quanta whose character pairs are pairs, as
    '<u2', into the rows of the (quanta, 3) uint8 matrix out; False,
    writing nothing, when a pair is outside the alphabet."""
    value = np.take(_pair_table(), pairs)
    if value.max() > 0xFFF:
        return False
    # a quantum's pairs a, b as a | b << 16; x then holds a << 12 | b in
    # its low 24 bits, the quantum's bytes, and the uint8 casts drop the
    # bits of b that the shift left carries past bit 27.  The sum is the
    # bitwise or, as no bits overlap, and runs a numpy loop that other
    # code already keeps resident, where | added 64 KiB of code pages.
    w = value.view("<u4")
    x = w << 12
    x += w >> 16
    out[:, 2] = x
    x >>= 8
    out[:, 1] = x
    x >>= 8
    out[:, 0] = x
    return True


def decode_canonical_base64(text: str) -> bytearray:
    """The bytes whose base64 encoding is text, or an empty bytearray when
    text is not the one encoding of any bytes.

    That encoding has length 4 * ceil(len / 3); it holds alphabet digits
    alone, but for one or two "=" that end its last quantum; and the last
    data digit's bits past the final byte are zero.  Each quantum of four
    characters is two pairs, and each pair, read as a little-endian
    uint16, indexes one cached table of its digits' 12 bits, 0xFFFF for
    a pair outside the alphabet, so a block of _PAIRS pairs is checked
    and decoded by a few array operations, where binascii takes each
    character in turn: 0.25 ms against 0.44 ms for a 5000-step run.json's
    160032 characters (2 CPUs, numpy 2.4.6).  The last quantum's "=" read
    as "A", whose digit is zero, so its bytes past the ones it keeps are
    zero exactly when the unused bits are."""
    try:
        encoded = text.encode("ascii")
    except UnicodeEncodeError:
        return bytearray()
    if len(encoded) % 4:
        return bytearray()
    pads = 2 if encoded.endswith(b"==") else int(encoded.endswith(b"="))
    quanta = len(encoded) // 4 - (pads > 0)    # those with no "="
    # and the 3 - pads bytes a padded last quantum keeps
    raw = bytearray(3 * quanta + (3 - pads) % 3)
    out = np.frombuffer(raw, np.uint8)
    pairs = np.frombuffer(encoded, "<u2")
    for start in range(0, quanta, _PAIRS // 2):
        stop = min(start + _PAIRS // 2, quanta)
        if not _decode_quanta(pairs[2 * start:2 * stop],
                              out[3 * start:3 * stop].reshape(-1, 3)):
            return bytearray()
    if pads:
        last = np.empty((1, 3), np.uint8)
        final = encoded[-4:len(encoded) - pads] + b"A" * pads
        if (not _decode_quanta(np.frombuffer(final, "<u2"), last)
                or last[0, 3 - pads:].any()):
            return bytearray()
        out[3 * quanta:] = last[0, :3 - pads]
    return raw


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
                      step_sizes: Array, params: DescentCertificateParams,
                      min_value: Optional[float] = None,
                      converged: bool = False,
                      gradients: Optional[Array] = None) -> "DescentRun":
        """The record of the run X = iterates, step k of size step_sizes[k]
        (a 0-d step_sizes, as a constant schedule's `sizes` gives it, is
        the size of every step), computed in one batch; gradients, when
        given, is grad h(X)."""
        # w_k = (x_{k-1} - x_k) / lam_k - grad h(x_{k-1}) + grad h(x_k); the
        # batched gradient has the bits of the calls made in the loop, and
        # row_norms those of np.linalg.norm on each step
        X, lam = iterates, _per_row(step_sizes)
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
        raw = self.iterates.astype(ITERATE_DTYPE, copy=False).tobytes()
        return {"schema_version": 3, "dimension": self.iterates.shape[1],
                "iterates": base64.b64encode(raw).decode("ascii")}

    def to_metadata_json(self, path) -> None:
        write_json(path, self.to_metadata_dict())

    @staticmethod
    def from_metadata_dict(data: dict, composite: CompositeObjective, x0,
                           schedule: StepSchedule, steps: int,
                           min_value: Optional[float] = None) -> "DescentRun":
        """The run forward_backward(composite, x0, schedule, steps, ...)
        records, from the iterates of a run.json record: ValueError unless,
        bit for bit, they begin at the start, each is the method's nonzero
        step from the one before, and a run shorter than its budget stops
        where the loop would."""
        require(data, RUN_FIELDS, "run", version=3, exact=True)
        dimension, text = data["dimension"], data["iterates"]
        require_type(dimension, int, "run dimension")
        if dimension != composite.dimension:
            raise ValueError(f"run dimension is {dimension}, not the "
                             f"problem's {composite.dimension}")
        require_type(text, str, "run iterates")
        raw = decode_canonical_base64(text)
        if not raw or len(raw) % (8 * dimension):
            raise ValueError("run iterates must be the base64 text of one or "
                             f"more float64 points in dimension {dimension}")
        # the decoder's bytearray gives a writable matrix, native without
        # a copy on a little-endian host
        X = np.frombuffer(raw, ITERATE_DTYPE).reshape(-1, dimension)
        if not np.isfinite(X).all():
            raise ValueError("run iterates must be finite")
        X, num_steps = X.astype(float, copy=False), len(X) - 1
        if not (num_steps <= steps and np.array_equal(
                X[0], as_point(x0, composite.dimension))):
            raise ValueError("run iterates must begin at the start and take "
                             f"at most {steps} steps")
        sizes = schedule.sizes(min(num_steps + 1, steps))
        # row k of G has the bits of the loop's gradient call at x_k
        lam, G = _first(sizes, num_steps), composite.smooth.gradient_fn(X)
        params = certificate_params(schedule, composite.lipschitz)
        run = DescentRun.from_iterates(
            composite, X, lam, params, min_value=min_value,
            converged=num_steps < steps, gradients=G)
        # every stored step is the loop's, and the loop stores no zero step
        prox_fn, lam = composite.nonsmooth.prox_fn, _per_row(lam)
        stepped = prox_fn(X[:-1] - lam * G[:-1], lam)
        if not np.array_equal(stepped, X[1:]) or (run.step_norms == 0).any():
            raise ValueError("run iterates are not the method's steps")
        if run.converged:
            last = sizes if sizes.ndim == 0 else sizes[-1]
            move = prox_fn(X[-1] - last * G[-1], last) - X[-1]
            if move.dot(move) != 0.0:
                raise ValueError("run stops before its budget where the "
                                 "method still moves")
        return run


def _first(sizes: Array, count: int) -> Array:
    """The sizes of the first count steps, of those `StepSchedule.sizes`
    gives: a 0-d size stands for every step."""
    return sizes if sizes.ndim == 0 else sizes[:count]


def _per_row(sizes: Array) -> Array:
    """Step sizes as an operand of the (T, n) rows of a record: a 0-d size
    as it is, a (T,) array as a (T, 1) column."""
    return sizes if sizes.ndim == 0 else sizes[:, None]


def _array_iterates(composite: CompositeObjective, x: Array, sizes: Array,
                    steps: int) -> Array:
    """The (T+1, n) iterates of the loop from x, up to its first step that
    gives back its point's bits or to its budget.  The loop keeps the
    bytes of each point, which its stop test takes anyway, and the matrix
    is built once from their join."""
    grad, prox_fn = composite.smooth.gradient_fn, composite.nonsmooth.prox_fn
    # every step's size as a 0-d array: numpy scales an array by a 0-d
    # array faster than by a Python float or an np.float64, to the same bits
    per_step = (repeat(sizes, steps) if sizes.ndim == 0
                else map(np.asarray, sizes.tolist()))

    chunks = [x.tobytes()]
    gx, last = grad(x), chunks[0]
    for lam in per_step:
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


def forward_backward(composite: CompositeObjective, x0, schedule: StepSchedule,
                     steps: int, min_value: Optional[float] = None
                     ) -> DescentRun:
    """Proximal-gradient iteration with exact certificate witnesses; the
    start and the schedule are validated once, before the loop.  The run
    ends, converged, before its first step of norm zero: the loop stops at
    a step that gives back its point's bits, and the record of every step
    taken, computed in one batch, is cut at its first zero step norm.

    Where the smooth part gives gradient data (s, c), the nonsmooth part's
    prox is `identity_prox` and the schedule is constant, the step is
    x - lam * (s * (x - c)) in every entry, and each coordinate runs that
    recurrence alone, in Python floats (`_scalar_iterates`); the matrix of
    iterates has the bits of the array loop's, for three reasons.
      - Same bits per step.  numpy computes each ufunc call in correctly
        rounded binary64 and never fuses two calls; a Python float
        operator is one C operation on two doubles, correctly rounded too,
        in the same thread and so the same floating-point environment.
        The same operations on the same operands in the same order
        (difference, product by s, product by lam, difference) give the
        same bits, NaN payloads included: a NaN made from infinities is
        the hardware's default NaN on either side, and a NaN operand is
        the only one, or both operands are the same NaN.
      - Same stop.  Under a constant step a coordinate's next value
        depends on its own value alone, so a coordinate whose step gives
        back its bits keeps them at every later step.  The array loop
        stops at the first step that gives back every coordinate's bits:
        the largest of the coordinates' own stops, or the budget.  Each
        column padded with its last value is the array loop's column.
      - Same stop test.  Two floats other than NaN have the same bits
        exactly when they compare equal and are nonzero or zeros of one
        sign.  A NaN compares unequal to itself, but it gives back its
        bits at every step (above), so a coordinate that turns NaN stops
        at its first NaN.
    A schedule with fn is left to the array loop: a coordinate fixed
    under lam_k may move again under lam_{k+1}.  So is every other
    composite: a gradient with a matrix product (ISTA's BLAS gemv) sums in
    an order Python floats cannot follow."""
    if steps < 1:
        raise ValueError("need at least one step")
    params = certificate_params(schedule, composite.lipschitz)
    x = as_point(x0, composite.dimension)
    sizes = schedule.sizes(steps)
    data = composite.smooth.gradient_data
    if (data is not None and schedule.fn is None
            and composite.nonsmooth.prox_fn is identity_prox):
        X = _scalar_iterates(x, data, schedule.lambda_min, steps)
    else:
        X = _array_iterates(composite, x, sizes, steps)
    run = DescentRun.from_iterates(
        composite, X, _first(sizes, len(X) - 1), params,
        min_value=min_value, converged=len(X) <= steps)
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
