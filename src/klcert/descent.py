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
run.json (schema 3) holds the iterates as the strict base64 text of their
row-major little-endian float64 bytes, beside their dimension: the exact
bits `certify` replays, read without parsing number text.
`decode_canonical_base64` reads that text two characters at a time: each
pair, as one little-endian uint16, indexes a cached table of its two
digits' 12 bits, so a block of text is checked and decoded by a few array
operations, not one step per character, and its bytes land in a bytearray
that the replay views as its writable matrix.  trace.csv is the readable
per-step record.
"""

from __future__ import annotations

import base64
import functools
import math
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
from klcert.tracefmt import require, require_type, write_json


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
    finite and, for L > 0, strictly below 2/L."""
    L = float(lipschitz)
    if not (0.0 < lam < math.inf):
        raise ValueError("step must be positive and finite")
    if not L >= 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    if L > 0 and lam >= 2.0 / L:
        raise ValueError("step must stay strictly below 2/L")
    return DescentCertificateParams(a=1.0 / lam - L / 2.0, b=1.0 / lam + L)


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
        raw = self.iterates.astype(ITERATE_DTYPE, copy=False).tobytes()
        return {"schema_version": 3, "dimension": self.iterates.shape[1],
                "iterates": base64.b64encode(raw).decode("ascii")}

    def to_metadata_json(self, path) -> None:
        write_json(path, self.to_metadata_dict())

    @staticmethod
    def from_metadata_dict(data: dict, composite: CompositeObjective, x0,
                           step: float, steps: int,
                           min_value: Optional[float] = None) -> "DescentRun":
        """The run forward_backward(composite, x0, step, steps, ...)
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
