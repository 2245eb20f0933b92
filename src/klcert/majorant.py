"""One-dimensional worst-case proximal majorants and complexity constants.

Given step-inequality constants (a, b) and a desingularizer whose inverse
profile psi has an ell-Lipschitz derivative with psi'(0) = 0, the scalar
sequence

    alpha_{k+1} = argmin_u { psi(u) + (u - alpha_k)^2 / (2 zeta) },
    alpha_0 = phi(f(x_0) - min f),

majorizes every certified run: f(x_k) - min f <= psi(alpha_k).  The prox
step zeta is the positive root of b^2 (z + (ell/2) z^2) = a.  For a
quadratic profile psi(s) = ell s^2 / 2 the recursion collapses to
alpha_{k+1} = alpha_k / (1 + ell zeta), which yields the linear rate
q = (1 + ell zeta)^2 = 1 + 2 a sigma with sigma = ell / b^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from klcert.descent import DescentCertificateParams
from klcert.desingularization import Desingularizer, PowerDesingularizer


class AssumptionViolationError(ValueError):
    """The inverse profile psi is not smooth enough for the majorant:
    psi' must be Lipschitz on [0, alpha_0] and vanish at 0."""


def zeta(a: float, b: float, ell: float) -> float:
    """Positive root of b^2 (z + (ell/2) z^2) = a.

    Written in the rationalized form 2a / (b^2 (sqrt(1 + 2 ell a b^-2) + 1)):
    equivalent to (sqrt(1 + 2 ell a b^-2) - 1)/ell but immune to the
    cancellation that kills the naive form for small ell a / b^2, and with
    the correct limit a / b^2 at ell = 0.
    """
    if a <= 0 or b <= 0:
        raise ValueError("need a > 0 and b > 0")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    t = 2.0 * ell * a / (b * b)
    return 2.0 * a / (b * b * (math.sqrt(1.0 + t) + 1.0))


def _assumption_ell(d: Desingularizer, alpha0: float) -> float:
    """Lipschitz constant of psi' on [0, alpha0], validating psi'(0+) ~ 0."""
    ell = d.ell
    if ell is None:
        ell = d.psi_prime_lipschitz(alpha0)
    if ell is None or not math.isfinite(ell) or ell < 0:
        raise AssumptionViolationError(
            "no finite Lipschitz bound for psi' on [0, alpha0]; profiles "
            "with exponent below 2 (including sharp ones) are outside the "
            "majorant's smoothness assumption")
    scale = alpha0 if (math.isfinite(alpha0) and alpha0 > 0) else 1.0
    u = 1e-9 * min(scale, 1.0)
    slope = d.psi_prime(u)
    if slope > ell * u * (1.0 + 1e-6) + 1e-12 * max(1.0, ell):
        raise AssumptionViolationError(
            f"psi'({u:g}) = {slope:g} exceeds ell*u = {ell * u:g}: psi' "
            "does not vanish at 0, so the scalar prox recursion has no "
            "strictly decreasing majorant")
    return float(ell)


def _prox_point(psi_prime, alpha: float, step: float) -> float:
    """Unique root of u + step * psi'(u) = alpha on [0, alpha].

    The map is strictly increasing, negative at 0 (psi'(0) = 0) and
    nonnegative at alpha, so plain bisection converges.  It stops when the
    midpoint stops moving in double precision, which takes at most about
    2100 halvings.
    """
    if alpha <= 0.0:
        return 0.0
    lo, hi = 0.0, alpha
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        h = mid + step * psi_prime(mid) - alpha
        if h < 0.0:
            lo = mid
        elif h > 0.0:
            hi = mid
        else:
            return mid


@dataclass(frozen=True)
class QuadraticComplexity:
    """Closed-form rate for quadratic profiles: value gap f0 / q^k and
    distance C sqrt(f0) / q^((k-1)/2)."""

    q: float
    C: float
    sigma: float
    zeta: float
    f0: float

    def value_bound(self, k: int) -> float:
        return self.f0 / self.q ** k

    def distance_bound(self, k: int) -> float:
        if k < 1:
            raise ValueError("distance bound starts at k = 1")
        return self.C * math.sqrt(self.f0) / self.q ** ((k - 1) / 2.0)


def quadratic_complexity(ell: float, params: DescentCertificateParams,
                         f0: float) -> QuadraticComplexity:
    """Rate constants for psi = ell s^2 / 2: q = 1 + 2 a sigma and the
    distance factor C = (1/sqrt(a)) (1 + 1/(a sigma sqrt(1 + 1/(2 a sigma)))).
    """
    if ell <= 0:
        raise ValueError("quadratic profile needs ell > 0")
    a, b = params.a, params.b
    sigma = ell / (b * b)
    asig = a * sigma
    q = 1.0 + 2.0 * asig
    C = (1.0 / math.sqrt(a)) * (
        1.0 + 1.0 / (asig * math.sqrt(1.0 + 1.0 / (2.0 * asig))))
    return QuadraticComplexity(q=q, C=C, sigma=sigma,
                               zeta=zeta(a, b, ell), f0=f0)


@dataclass
class MajorantSequence:
    """The scalar sequence alpha_k with its profile values psi(alpha_k),
    which bound the value gaps, and the distance bounds they imply."""

    zeta: float
    alpha: np.ndarray        # (K+1,)
    psi_values: np.ndarray   # (K+1,), psi_values[0] = initial value gap
    params: DescentCertificateParams
    ell: float
    closed_form: Optional[QuadraticComplexity] = None

    @property
    def num_steps(self) -> int:
        return len(self.alpha) - 1

    @property
    def distance_bounds(self) -> np.ndarray:
        """(b/a) alpha_k + sqrt(psi(alpha_{k-1}) / a) for k = 1..K, at k - 1."""
        a, b = self.params.a, self.params.b
        return (b / a) * self.alpha[1:] + np.sqrt(
            np.maximum(self.psi_values[:-1], 0.0) / a)

    def prox_residuals(self, d: Desingularizer) -> np.ndarray:
        """|alpha_{k+1} + zeta psi'(alpha_{k+1}) - alpha_k| per step."""
        nxt = self.alpha[1:]
        return np.abs(nxt + self.zeta * d.psi_prime(nxt) - self.alpha[:-1])


def worst_case_sequence(d: Desingularizer, r0: float,
                        params: DescentCertificateParams, steps: int,
                        force_bisection: bool = False) -> MajorantSequence:
    """Majorant started at alpha_0 = phi(r0), r0 the initial value gap.

    Quadratic profiles use the exact recursion alpha_{k+1} =
    alpha_k / (1 + ell zeta); anything else (or force_bisection) solves the
    scalar prox by bisection.  Refuses profiles violating the smoothness
    assumption, and initial gaps beyond the certificate radius.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if r0 <= 0:
        raise ValueError("initial value gap must be positive")
    if r0 > d.r0 * (1.0 + 1e-12):
        raise ValueError(
            "initial value gap exceeds the certificate's validity radius; "
            "globalize the desingularizer first")
    alpha0 = float(d.phi(min(r0, d.r0)))
    ell = _assumption_ell(d, alpha0)
    z = zeta(params.a, params.b, ell)

    quadratic = isinstance(d, PowerDesingularizer) and d.exponent == 2.0
    if quadratic and not force_bisection:
        # alpha_{k+1} = alpha_k * ratio, multiplied in the loop's order
        factors = np.full(steps + 1, 1.0 / (1.0 + ell * z))
        factors[0] = alpha0
        alpha = np.multiply.accumulate(factors)
    else:
        alphas = [alpha0]
        psi_prime = d.psi_prime
        for _ in range(steps):
            alphas.append(_prox_point(psi_prime, alphas[-1], z))
        alpha = np.asarray(alphas)
    psi_values = d.psi(alpha)
    closed = quadratic_complexity(ell, params, f0=r0) if quadratic else None
    return MajorantSequence(zeta=z, alpha=alpha, psi_values=psi_values,
                            params=params, ell=ell, closed_form=closed)


def prox_sequence(d: Desingularizer, step_values: Sequence[float],
                  beta0: float) -> np.ndarray:
    """Scalar prox trajectory beta_{k+1} = prox_{lam_k psi}(beta_k).

    Pointwise-larger steps give pointwise-smaller trajectories from equal
    starts; this is the comparison principle behind the s_k >= zeta bound.
    """
    if beta0 < 0:
        raise ValueError("start must be nonnegative")
    beta = [float(beta0)]
    for lam in step_values:
        if lam <= 0:
            raise ValueError("prox steps must be positive")
        beta.append(_prox_point(d.psi_prime, beta[-1], float(lam)))
    return np.asarray(beta)


def empirical_prox_steps(gaps: Sequence[float], d: Desingularizer):
    """s_k = (beta_{k-1} - beta_k) / psi'(beta_k) with beta_k = phi(gap_k).

    Certified runs satisfy s_k >= zeta while the gaps are meaningful.  A
    step is skipped when either gap is at or below 1e-12: beta is
    undefined at an exact minimum, and below the floor the subtraction
    f(x_k) - min f is rounding noise.  Steps with psi'(beta_k) <= 0 are
    skipped too.  Returns (indices, values) as arrays.
    """
    g = np.asarray(gaps, dtype=float)
    above = ~(g <= 1e-12)
    beta = np.full(g.shape, math.nan)
    beta[above] = d.phi(g[above])
    k = np.flatnonzero(above[1:] & above[:-1]) + 1
    slope = d.psi_prime(beta[k])
    kept = ~(slope <= 0.0)
    k = k[kept]
    return k, (beta[k - 1] - beta[k]) / slope[kept]


def steps_to_epsilon(q: float, f0: float, eps: float) -> int:
    """Smallest k with f0 / q^k <= eps."""
    if q <= 1.0:
        raise ValueError("rate q must exceed 1")
    if f0 <= 0 or eps <= 0:
        raise ValueError("gaps must be positive")
    if eps >= f0:
        return 0
    target = math.log(f0 / eps)
    logq = math.log(q)
    k = max(int(math.ceil(target / logq)), 1)
    while k > 1 and (k - 1) * logq >= target:
        k -= 1
    while k * logq < target:
        k += 1
    return k
