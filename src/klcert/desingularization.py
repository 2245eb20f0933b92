"""Desingularizing functions and their conversion to and from error bounds.

A desingularizer phi lives on a value band [0, r0): it is continuous,
concave, increasing, phi(0) = 0, and certifies phi'(f(x) - min f) *
||least-norm subgradient|| >= 1 on its region.  Its inverse psi is the
worst-case value profile consumed by the majorant machinery.

Residual certificates say dist(x, argmin) <= omega(f(x) - min f).  Power
residuals omega(s) = (s / gamma)^(1/p) are moderate with constant c = 1/p
(s * omega'(s) >= c * omega(s)), so (1/c) * omega is a desingularizer; the
same rescale works for the two-regime residual (s + s^(1/p)) / gamma0.
Residuals without a derivable moderation constant are refused, since the
conversion may fail for flat residuals.

One calling convention covers phi, phi_prime, psi, psi_prime and the
residual: a float gives a float, an array gives an array of the same shape,
and entry i of a batched call has the bits of the call on entry i alone.
Powers go through libm's pow (`libm_pow`): np.float_power calls it per
element, so a batch gets the bits that Python's ** gets one float at a time,
where np.power's SIMD loops round differently on some inputs.
`DESINGULARIZERS` gives certificate.json's record of each stored form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from klcert.convex import (
    ConvexObjective,
    as_points,
    plain,
    subgradient_norm,
    value_gap,
)
from klcert.regions import REGIONS, WholeSpace
from klcert.tracefmt import NUMBER, Nullable, Records


class NonModerateResidualError(ValueError):
    """Residual has no derivable moderation constant; equivalence may fail."""


def _operand(x, what: Optional[str] = None):
    """x as a float (one point) or a float64 array (a batch).

    When `what` names the function, negative entries are refused.  Python
    floats stay floats, so the scalar recursions of the majorant (one psi'
    call per bisection step) skip numpy's per-call overhead.
    """
    if type(x) is not float:
        x = float(x) if isinstance(x, (int, float)) else plain(x)
    if what is not None and (x < 0 if type(x) is float else (x < 0).any()):
        raise ValueError(f"{what} needs a nonnegative argument")
    return x


def libm_pow(base, exponent):
    """base ** exponent elementwise through the platform's libm pow.

    A float base and exponent give Python's **.  An array goes through
    np.float_power, whose float64 loop calls libm pow per element with no
    SIMD dispatch (np.power takes a sqrt at exponent 0.5 and, on AVX-512,
    its own pow, each rounding differently on some inputs).  CPython's
    float ** calls the same pow wherever it does not raise, so a finite
    result has its bits.  Where any entry is not finite, the call is redone
    with float ** per element (an object loop), which gives the same values
    and raises where ** raises: ZeroDivisionError for 0 to a negative
    power, OverflowError past the largest float, and a TypeError for a
    negative base's complex power.
    """
    if isinstance(exponent, float):
        if isinstance(base, float):
            return float(base) ** float(exponent)
        exponent = float(exponent)
    else:
        exponent = np.asarray(exponent, dtype=float)
    base = np.asarray(base, dtype=float)
    with np.errstate(all="ignore"):
        out = np.float_power(base, exponent)
    if np.isfinite(out).all():
        return out
    return np.asarray(np.power(base.astype(object), exponent), dtype=float)


def _power(base: float, exponent: float) -> float:
    """base ** exponent in Python floats, +inf where it overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _piecewise(x, inside, inner, outer):
    """inner(x) where `inside` holds and outer(x) elsewhere, each branch
    called on its own entries only; a float for a float x."""
    if not isinstance(x, np.ndarray):
        return inner(x) if inside else outer(x)
    out = np.empty(x.shape)
    out[inside] = inner(x[inside])
    out[~inside] = outer(x[~inside])
    return out


def _map_floats(fn, s):
    """fn applied to each entry of s as a Python float (for black boxes)."""
    if isinstance(s, float):
        return float(fn(s))
    return np.array([float(fn(v)) for v in s.ravel().tolist()]).reshape(s.shape)


# the relative bracket width and the step cap of _invert_increasing
_INVERT_TOL = 1e-12
_INVERT_MAX_ITER = 200


def _invert_increasing(fn, target: float, hi0: float) -> float:
    """Solve fn(s) = target for increasing fn with fn(0) <= target, by bisection."""
    if target <= 0.0:
        return 0.0
    hi = hi0
    for _ in range(400):
        if fn(hi) >= target:
            break
        hi *= 2.0
    else:
        raise ValueError("could not bracket the inverse")
    lo = 0.0
    for _ in range(_INVERT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if fn(mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= _INVERT_TOL * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


class Desingularizer:
    """Common contract: phi, phi_prime, psi, psi_prime on [0, r0).

    Each acts elementwise: a float for a float, an array for an array, and
    entry i of a batched call has the bits of the call on entry i alone.
    """

    r0: float
    region: object
    ell: Optional[float]

    def phi(self, s):
        raise NotImplementedError

    def phi_prime(self, s):
        raise NotImplementedError

    def psi(self, alpha):
        raise NotImplementedError

    def psi_prime(self, alpha):
        """Derivative of the inverse: 1 / phi'(psi(alpha))."""
        def at_zero(_):
            d = self.phi_prime(1e-300)
            return 0.0 if not math.isfinite(d) else 1.0 / d

        alpha = _operand(alpha)
        return _piecewise(alpha, alpha != 0.0,
                          lambda a: 1.0 / self.phi_prime(self.psi(a)), at_zero)

    def alpha0(self) -> float:
        """phi(r0); +inf when the band is unbounded and phi is."""
        if math.isinf(self.r0):
            return math.inf
        return self.phi(self.r0)

    def psi_prime_lipschitz(self, cap: float) -> Optional[float]:
        """Lipschitz constant of psi' on [0, cap], or None when unavailable."""
        return self.ell


class PowerDesingularizer(Desingularizer):
    """phi(s) = scale * s^(1/p) with p >= 1; psi(a) = (a / scale)^p.

    The p = 2 case is the quadratic-inverse profile psi(s) = ell s^2 / 2 with
    ell = 2 / scale^2, the workhorse of linear-rate certificates.
    """

    def __init__(self, scale: float, exponent: float, r0: float = math.inf,
                 region=WholeSpace(), ell: Optional[float] = None):
        if scale <= 0:
            raise ValueError("scale must be positive")
        if exponent < 1:
            raise ValueError("exponent must be at least 1")
        if r0 <= 0:
            raise ValueError("r0 must be positive")
        if not 0.0 < _power(float(scale), float(exponent)) < math.inf:
            # psi' divides by scale ** exponent
            raise ValueError(f"desingularizer scale ** exponent ({scale:g} ** "
                             f"{exponent:g}) is beyond the range of a float")
        self.scale = float(scale)
        self.exponent = float(exponent)
        self.r0 = float(r0)
        self.region = region
        self.ell = (ell if ell is not None
                    else self.psi_prime_lipschitz(self.alpha0()))

    def phi(self, s):
        s = _operand(s, "phi")
        return self.scale * libm_pow(s, 1.0 / self.exponent)

    def phi_prime(self, s):
        s = _operand(s)
        at_zero = math.inf if self.exponent > 1 else self.scale
        return _piecewise(
            s, s > 0,
            lambda v: self.scale / self.exponent * libm_pow(
                v, 1.0 / self.exponent - 1.0),
            lambda v: at_zero)

    def psi(self, alpha):
        alpha = _operand(alpha, "psi")
        return libm_pow(alpha / self.scale, self.exponent)

    def psi_prime(self, alpha):
        # 0^(p-1) is 0 for p > 1 and 1 for p = 1, so alpha = 0 needs no branch
        p = self.exponent
        return p * libm_pow(_operand(alpha, "psi'"), p - 1.0) / self.scale ** p

    def psi_prime_lipschitz(self, cap: float) -> Optional[float]:
        p = self.exponent
        if p == 2.0:
            return 2.0 / self.scale ** 2
        if p > 2.0:
            if not math.isfinite(cap):
                return None
            ell = p * (p - 1.0) * _power(cap, p - 2.0) / self.scale ** p
            if not math.isfinite(ell):
                raise ValueError(
                    f"desingularizer exponent {p:g} with scale "
                    f"{self.scale:g} puts the Lipschitz constant of psi' on "
                    f"[0, {cap:g}] beyond the range of a float")
            return ell
        if p == 1.0:
            return 0.0  # psi' is constant, but psi'(0) != 0 still breaks (A)
        return None


class GlobalizedDesingularizer(Desingularizer):
    """Piecewise-affine extension: phi below the junction, its tangent above.

    The extension is C^1 at the junction, concave, and desingularizing on the
    whole space whenever the base was on its band.
    """

    def __init__(self, base: Desingularizer, junction: float):
        if not (0.0 < junction < base.r0):
            raise ValueError("junction must lie strictly inside (0, r0)")
        self.base = base
        self.junction = float(junction)
        self.alpha_junction = base.phi(self.junction)
        self.slope = base.phi_prime(self.junction)
        if not math.isfinite(self.slope) or self.slope <= 0:
            raise ValueError("base slope at the junction must be finite positive")
        self.r0 = math.inf
        self.region = base.region
        self.ell = base.psi_prime_lipschitz(self.alpha_junction)

    def phi(self, s):
        s = _operand(s, "phi")
        return _piecewise(
            s, s <= self.junction, self.base.phi,
            lambda v: self.alpha_junction + (v - self.junction) * self.slope)

    def phi_prime(self, s):
        s = _operand(s)
        return _piecewise(s, s <= self.junction, self.base.phi_prime,
                          lambda v: self.slope)

    def psi(self, alpha):
        alpha = _operand(alpha, "psi")
        return _piecewise(
            alpha, alpha <= self.alpha_junction, self.base.psi,
            lambda a: self.junction + (a - self.alpha_junction) / self.slope)

    def psi_prime(self, alpha):
        alpha = _operand(alpha)
        return _piecewise(alpha, alpha <= self.alpha_junction,
                          self.base.psi_prime, lambda a: 1.0 / self.slope)

    def psi_prime_lipschitz(self, cap: float) -> Optional[float]:
        # psi' is constant past the junction, so the base constant on the
        # truncated interval bounds the whole thing.
        return self.base.psi_prime_lipschitz(min(cap, self.alpha_junction))


class TabulatedDesingularizer(Desingularizer):
    """phi given as callables; psi recovered by bisection to 1e-12."""

    def __init__(self, phi_fn: Callable[[float], float],
                 phi_prime_fn: Callable[[float], float],
                 r0: float, region=WholeSpace(),
                 ell: Optional[float] = None):
        if r0 <= 0:
            raise ValueError("r0 must be positive")
        self._phi_fn = phi_fn
        self._phi_prime_fn = phi_prime_fn
        self.r0 = float(r0)
        self.region = region
        self.ell = ell

    def phi(self, s):
        s = _operand(s, "phi")
        return _piecewise(s, s > 0, lambda v: _map_floats(self._phi_fn, v),
                          lambda v: 0.0)

    def phi_prime(self, s):
        return _map_floats(self._phi_prime_fn, _operand(s))

    def psi(self, alpha):
        alpha = _operand(alpha, "psi")
        a0 = self.alpha0()
        if math.isfinite(a0) and np.any(alpha > a0 * (1.0 + 1e-12)):
            raise ValueError("psi argument beyond phi(r0)")
        hi0 = min(self.r0, 1.0) if math.isfinite(self.r0) else 1.0
        return _map_floats(lambda a: _invert_increasing(self.phi, a, hi0),
                           alpha)


# ---------------------------------------------------------------------------
# residual certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBoundCertificate:
    """dist(x, argmin f) <= residual(f(x) - min f) on the region, for values
    in [0, r0).

    Forms: "power" with omega(s) = (s / gamma)^(1/p); "two-regime" with
    omega(s) = (s + s^(1/p)) / gamma0; "general" wraps an arbitrary callable,
    which the conversion refuses.
    """

    form: str
    p: float
    gamma: Optional[float] = None
    gamma0: Optional[float] = None
    r0: float = math.inf
    region: object = WholeSpace()
    residual_fn: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.form == "power":
            if self.gamma is None or self.gamma <= 0:
                raise ValueError("power residual needs gamma > 0")
        elif self.form == "two-regime":
            if self.gamma0 is None or self.gamma0 <= 0:
                raise ValueError("two-regime residual needs gamma0 > 0")
        elif self.form == "general":
            if self.residual_fn is None:
                raise ValueError("general residual needs a callable")
        else:
            raise ValueError(f"unknown residual form {self.form!r}")
        if self.form in ("power", "two-regime") and self.p < 1:
            raise ValueError("residual exponent p must be at least 1")

    def residual(self, s):
        """omega elementwise: a float for a float, an array for an array."""
        s = _operand(s, "residual")
        if self.form == "power":
            return libm_pow(s / self.gamma, 1.0 / self.p)
        if self.form == "two-regime":
            return (s + libm_pow(s, 1.0 / self.p)) / self.gamma0
        return _map_floats(self.residual_fn, s)


# per form: the desingularizer a certificate.json record reads as, and its
# keys besides "form"; a null r0 stands for +inf and a null ell for the one
# the constructor computes, and a globalized record's base is itself a
# desingularizer record
DESINGULARIZERS = Records("form", {
    "power": (PowerDesingularizer, {
        "scale": NUMBER, "exponent": NUMBER, "r0": Nullable(NUMBER, math.inf),
        "ell": Nullable(NUMBER), "region": REGIONS}),
})
DESINGULARIZERS.kinds["globalized"] = (
    GlobalizedDesingularizer, {"junction": NUMBER, "base": DESINGULARIZERS})


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def from_error_bound(cert: ErrorBoundCertificate) -> Desingularizer:
    """Rescale a moderate residual into a desingularizer: phi = (1/c) omega.

    Power and two-regime residuals are moderate with c = 1/p; anything else
    is refused because the equivalence may fail for flat residuals.
    """
    if cert.form == "power":
        p = cert.p
        scale = p * cert.gamma ** (-1.0 / p)
        return PowerDesingularizer(scale=scale, exponent=p, r0=cert.r0,
                                   region=cert.region)
    if cert.form == "two-regime":
        p = cert.p
        g0 = cert.gamma0

        def phi_fn(s: float) -> float:
            return p * (s + s ** (1.0 / p)) / g0

        def phi_prime_fn(s: float) -> float:
            if s <= 0:
                return math.inf if p > 1 else 2.0 / g0
            return (p + s ** ((1.0 - p) / p)) / g0

        return TabulatedDesingularizer(phi_fn, phi_prime_fn, r0=cert.r0,
                                       region=cert.region)
    raise NonModerateResidualError(
        "residual has no derivable moderation constant; the error-bound to "
        "desingularizer equivalence may fail for flat residuals"
    )


def to_error_bound(d: Desingularizer) -> ErrorBoundCertificate:
    """Every desingularizer is itself a residual: dist <= phi(f - min f)."""
    if isinstance(d, PowerDesingularizer):
        gamma = d.scale ** (-d.exponent)
        return ErrorBoundCertificate(form="power", p=d.exponent, gamma=gamma,
                                     r0=d.r0, region=d.region)
    return ErrorBoundCertificate(form="general", p=1.0, residual_fn=d.phi,
                                 r0=d.r0, region=d.region)


def globalize(d: Desingularizer, junction: Optional[float] = None) -> Desingularizer:
    """Extend a desingularizer past its band by its tangent at the junction.

    Default junction: half the validity radius.
    """
    if junction is None:
        if not math.isfinite(d.r0):
            raise ValueError("junction required when the band is unbounded")
        junction = 0.5 * d.r0
    return GlobalizedDesingularizer(d, junction)


def extend_error_bound_globally(gamma: float, p: float, r0: float):
    """Turn a local power bound f >= gamma * dist^p on [f <= r0] into the
    global two-regime residual omega(s) = (s + s^(1/p)) / gamma0.

    Returns (gamma0, certificate) with gamma0 = 2 gamma for p = 1 and
    gamma0 = gamma^(1/p) * min(1, r0^((p-1)/p)) for p > 1, the largest
    gamma0 for which omega bounds dist(x, argmin f) <= omega(f(x) - min f)
    for every convex f that satisfies the local bound.  Write
    s = f(x) - min f and g = gamma^(-1/p).
      - For s <= r0 the local bound gives dist <= g s^(1/p), attained by
        f = gamma |x|^p.  omega(s) >= g s^(1/p) for all such s means
        gamma0 <= (1 + s^((p-1)/p)) / g, whose infimum, s -> 0, is 1/g
        for p > 1 and 2/g for p = 1.
      - For s > r0, let y be the point at fraction t = r0 / s of the
        segment from the projection of x onto argmin f to x.  By
        convexity f(y) - min f <= t s = r0, and dist(y) = t dist(x), so
        gamma (t dist)^p <= r0 and dist <= g r0^(1/p - 1) s, attained by
        f = (r0 / rho) |x| with rho = (r0 / gamma)^(1/p).  omega(s) >= g r0^(1/p - 1) s for all
        such s means gamma0 <= r0^((p-1)/p) (1 + s^((1-p)/p)) / g, whose
        infimum, s -> inf, is r0^((p-1)/p) / g for p > 1 and 2/g for p = 1.
    """
    if gamma <= 0 or p < 1 or r0 <= 0 or not math.isfinite(r0):
        raise ValueError("need gamma > 0, p >= 1 and finite r0 > 0")
    if p == 1.0:
        gamma0 = 2.0 * gamma
    else:
        gamma0 = gamma ** (1.0 / p) * min(1.0, r0 ** ((p - 1.0) / p))
    cert = ErrorBoundCertificate(form="two-regime", p=p, gamma0=gamma0,
                                 r0=math.inf)
    return gamma0, cert


def kl_gap(d: Desingularizer, obj: ConvexObjective, x):
    """phi'(f(x) - min f) * ||least-norm subgradient|| - 1 at each point.

    Points of shape (..., n) give gaps of shape (...).  A gap is NaN where
    the point does not count: outside the domain, the value band (0, r0) or
    the certified region (not a failure, just out of domain).  It is +inf
    where the subdifferential is empty, which certifies trivially.
    """
    x = as_points(x, obj.dimension)
    gap = np.asarray(value_gap(obj, x))
    counts = (np.isfinite(gap) & (gap > 0.0) & (gap < d.r0)
              & np.asarray(d.region.contains(x)))
    if counts.all():
        # every point counts: no copies of the counted rows, no scatter
        norm = np.asarray(subgradient_norm(obj, x))
        slope = np.asarray(d.phi_prime(gap))
        return plain(np.where(np.isinf(norm), math.inf, slope * norm - 1.0))
    norm = np.asarray(subgradient_norm(obj, x[counts]))
    slope = np.asarray(d.phi_prime(gap[counts]))
    out = np.full(gap.shape, math.nan)
    out[counts] = np.where(np.isinf(norm), math.inf, slope * norm - 1.0)
    return plain(out)
