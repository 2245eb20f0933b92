"""Cross-checks between descent runs and their certificates.

Each check produces a CheckResult with one of five statuses:

  pass             worst violation within tolerance
  fail             the certificate's claim is violated where it applies
  region-violated  iterates left the certified region, so the claim is mute
  skipped          prerequisite missing (e.g. no converged minimizer)
  inconclusive     nothing to measure (no valid samples)

Only "fail" counts against a report; the other non-pass statuses mean the
certificate was never contradicted.  Sampling checks are falsification
tools, not proofs: they hunt for counterexamples with seeded, reproducible
draws.  Each check's absolute tolerance tol, which its result reports, is a
module constant: MAJORIZATION_TOL, DISTANCE_BOUND_TOL, PROX_STEP_TOL,
KL_TOL and ERROR_BOUND_TOL, in the order of the checks below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from klcert.convex import (
    AffineSet,
    Ball,
    ConvexObjective,
    Halfspace,
    IntersectionSet,
    row_norms,
    value_gap,
)
from klcert.descent import DescentRun
from klcert.desingularization import (
    Desingularizer,
    ErrorBoundCertificate,
    PowerDesingularizer,
    kl_gap,
)
from klcert.majorant import MajorantSequence, empirical_prox_steps
from klcert.tracefmt import write_json

STATUSES = ("pass", "fail", "region-violated", "skipped", "inconclusive")

MAJORIZATION_TOL = 1e-9
DISTANCE_BOUND_TOL = 1e-7
PROX_STEP_TOL = 1e-9
KL_TOL = 1e-9
ERROR_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    worst_violation: Optional[float] = None
    samples: int = 0
    tolerance: float = 0.0
    detail: str = ""

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "worst_violation": self.worst_violation,
                "samples": self.samples, "tolerance": self.tolerance,
                "detail": self.detail}


@dataclass
class CertificationReport:
    checks: list = field(default_factory=list)
    run_id: str = ""
    certificate_id: str = ""

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "run_id": self.run_id,
            "certificate_id": self.certificate_id,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self, path) -> None:
        write_json(path, self.to_dict())

    def format_table(self) -> str:
        header = f"{'check':<28} {'status':<16} {'worst':>13} {'n':>7} {'tol':>9}"
        lines = [header, "-" * len(header)]
        for c in self.checks:
            worst = "" if c.worst_violation is None else f"{c.worst_violation:+.3e}"
            lines.append(
                f"{c.name:<28} {c.status:<16} {worst:>13} {c.samples:>7} "
                f"{c.tolerance:>9.1e}"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# trajectory checks
# ---------------------------------------------------------------------------


def _first_max(values: np.ndarray) -> tuple[int, float]:
    """Index and value of the first largest entry; a NaN entry never wins."""
    values = np.where(np.isnan(values), -np.inf, values)
    at = int(np.argmax(values))
    return at, float(values[at])


def _first_region_exit(region, iterates: np.ndarray) -> Optional[int]:
    outside = ~np.asarray(region.contains(iterates))
    return int(np.argmax(outside)) if outside.any() else None


def check_majorization(run: DescentRun, maj: MajorantSequence,
                       d: Desingularizer) -> CheckResult:
    """f(x_k) - min f <= psi(alpha_k) for every k both traces cover.

    A genuine excess inside the certified region fails the check; iterates
    escaping the region downgrade it instead, since the guarantee only
    speaks on the region.
    """
    name, tol = "majorization", MAJORIZATION_TOL
    if run.min_value is None:
        return CheckResult(name, "skipped", tolerance=tol,
                           detail="run has no stored minimum value")
    gaps = run.gaps
    count = min(len(gaps), len(maj.psi_values))
    exit_k = _first_region_exit(d.region, run.iterates[:count])
    upto = count if exit_k is None else exit_k
    if upto == 0:
        return CheckResult(name, "region-violated", samples=0, tolerance=tol,
                           detail="start already outside the certified region")
    at, worst = _first_max(gaps[:upto] - maj.psi_values[:upto])
    if worst > tol:
        return CheckResult(name, "fail", worst_violation=worst, samples=upto,
                           tolerance=tol, detail=f"worst excess at k={at}")
    if exit_k is not None:
        return CheckResult(
            name, "region-violated", worst_violation=worst, samples=upto,
            tolerance=tol,
            detail=f"iterate {exit_k} left the certified region; "
                   f"bound held on the in-region prefix")
    return CheckResult(name, "pass", worst_violation=worst, samples=upto,
                       tolerance=tol)


def check_distance_bound(run: DescentRun, maj: MajorantSequence,
                         xstar=None) -> CheckResult:
    """||x_k - x*|| <= (b/a) alpha_k + sqrt(psi(alpha_{k-1}) / a), k >= 1.

    x* is the supplied minimizer, or the run's own limit when the trajectory
    has numerically stopped (final step below 1e-10 or exact stationarity).
    """
    name, tol = "distance-bound", DISTANCE_BOUND_TOL
    if xstar is None:
        xstar = run.settled_point()
    if xstar is None:
        return CheckResult(name, "skipped", tolerance=tol,
                           detail="run did not converge and no minimizer "
                                  "was supplied")
    count = min(len(run.iterates), len(maj.alpha))
    if count < 2:
        return CheckResult(name, "skipped", tolerance=tol,
                           detail="need at least one step")
    dist = row_norms(run.iterates[1:count] - np.asarray(xstar, dtype=float))
    at, worst = _first_max(dist - maj.distance_bounds[:count - 1])
    status = "pass" if worst <= tol else "fail"
    return CheckResult(name, status, worst_violation=worst, samples=count - 1,
                       tolerance=tol, detail=f"worst at k={at + 1}")


def check_prox_step_domination(run: DescentRun, d: Desingularizer,
                               zeta_value: float) -> CheckResult:
    """Empirical scalar steps s_k of the run dominate the certified zeta."""
    name, tol = "prox-step-domination", PROX_STEP_TOL
    if run.min_value is None:
        return CheckResult(name, "skipped", tolerance=tol,
                           detail="run has no stored minimum value")
    _, s = empirical_prox_steps(run.gaps, d)
    if s.size == 0:
        return CheckResult(name, "inconclusive", tolerance=tol,
                           detail="no steps above the gap floor")
    worst = zeta_value - float(np.min(s))
    status = "pass" if worst <= tol else "fail"
    return CheckResult(name, status, worst_violation=worst,
                       samples=int(s.size), tolerance=tol,
                       detail=f"min s_k = {float(np.min(s)):.6g} "
                              f"vs zeta = {zeta_value:.6g}")


def trajectory_checks(run: DescentRun, maj: MajorantSequence,
                      desing: Desingularizer, xstar=None) -> list:
    """The checks that need only the run and its certificate, in report
    order; `klcert run` and `klcert certify` both make them through here,
    so they reach one verdict on the same artifacts."""
    return [check_majorization(run, maj, desing),
            check_distance_bound(run, maj, xstar=xstar),
            check_prox_step_domination(run, desing, maj.zeta)]


# ---------------------------------------------------------------------------
# sampling checks
# ---------------------------------------------------------------------------


def check_kl_sampling(d: Desingularizer, obj: ConvexObjective,
                      region, n_samples: int = 10000,
                      seed: int = 0) -> CheckResult:
    """min over samples of phi'(f(x) - min f) ||subgradient|| - 1 >= -tol.

    The samples are uniform draws from region (an L1Ball or a Ball).
    Samples outside the value band, the objective's domain or d's region
    do not count; they are neither evidence for nor against the
    certificate.
    """
    name, tol = "kl-sampling", KL_TOL
    rng = np.random.default_rng(seed)
    gaps = kl_gap(d, obj, region.sample(rng, obj.dimension, n_samples))
    counted = gaps[~np.isnan(gaps)]
    valid = int(counted.size)
    if valid == 0:
        return CheckResult(name, "inconclusive", samples=0, tolerance=tol,
                           detail="no sample landed in the certified band")
    worst_gap = float(np.min(counted))
    status = "pass" if worst_gap >= -tol else "fail"
    return CheckResult(name, status, worst_violation=-worst_gap,
                       samples=valid, tolerance=tol,
                       detail=f"min gap {worst_gap:.3e} over {valid} samples")


_EXACT_DISTANCE_SETS = (Ball, Halfspace, AffineSet, IntersectionSet)


def check_error_bound_sampling(cert: ErrorBoundCertificate,
                               obj: ConvexObjective, solution_set,
                               region, n_samples: int = 10000,
                               seed: int = 0) -> CheckResult:
    """min over samples of residual(f(x) - min f) - dist(x, argmin) >= -tol,
    the samples being uniform draws from region (an L1Ball or a Ball)."""
    name, tol = "error-bound-sampling", ERROR_BOUND_TOL
    if not isinstance(solution_set, _EXACT_DISTANCE_SETS):
        return CheckResult(name, "inconclusive", tolerance=tol,
                           detail="solution set has no exact distance oracle")
    rng = np.random.default_rng(seed)
    pts = region.sample(rng, obj.dimension, n_samples)
    dists = np.atleast_1d(solution_set.distance(pts))
    gaps = np.maximum(value_gap(obj, pts), 0.0)
    counted = np.isfinite(gaps) & (gaps < cert.r0)
    valid = int(np.count_nonzero(counted))
    if valid == 0:
        return CheckResult(name, "inconclusive", samples=0, tolerance=tol,
                           detail="no sample landed in the certified band")
    worst = float(np.min(cert.residual(gaps[counted]) - dists[counted]))
    status = "pass" if worst >= -tol else "fail"
    return CheckResult(name, status, worst_violation=-worst, samples=valid,
                       tolerance=tol,
                       detail=f"min margin {worst:.3e} over {valid} samples")


# ---------------------------------------------------------------------------
# falsification helpers
# ---------------------------------------------------------------------------


def scale_desingularizer(d: PowerDesingularizer,
                         factor: float) -> PowerDesingularizer:
    """Same certificate with the growth constant gamma scaled by factor.

    gamma scales as scale^(-p), so the new scale is scale * factor^(-1/p);
    for quadratic profiles this multiplies ell by factor.  Scaling a tight
    certificate up must flip a sampling check — that is the falsification
    harness's probe that the checkers can detect bad constants.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    return PowerDesingularizer(
        scale=d.scale * factor ** (-1.0 / d.exponent),
        exponent=d.exponent,
        r0=d.r0,
        region=d.region,
    )


def scale_certificate(cert: ErrorBoundCertificate,
                      factor: float) -> ErrorBoundCertificate:
    """Power certificate with gamma scaled by factor (claims grow with it)."""
    if cert.form != "power":
        raise ValueError("only power certificates support constant scaling")
    if factor <= 0:
        raise ValueError("factor must be positive")
    return ErrorBoundCertificate(form="power", p=cert.p,
                                 gamma=cert.gamma * factor, r0=cert.r0,
                                 region=cert.region)
