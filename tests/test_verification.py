"""Certificate checks: trajectory bounds, sampling audits, falsification."""

import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from klcert.convex import (
    Ball,
    CompositeObjective,
    ConvexObjective,
    evaluate,
    min_norm_subgradient,
    quadratic_objective,
    subgradient_norm,
    value_gap,
    zero_objective,
)
from klcert.descent import StepSchedule, forward_backward
from klcert.desingularization import (
    ErrorBoundCertificate,
    PowerDesingularizer,
    kl_gap,
    to_error_bound,
)
from klcert.error_bounds import uniformly_convex_profile
from klcert.experiments import (
    MAJORANT_COLUMNS,
    PRESET_NAMES,
    ExperimentConfig,
    build_pipeline,
    load_instance,
    preset_configs,
    run_experiment,
    trace_columns,
)
from klcert.majorant import (
    MajorantSequence,
    empirical_prox_steps,
    worst_case_sequence,
)
from klcert.regions import L1Ball
from klcert.tracefmt import TRACE_COLUMNS
from klcert.verification import (
    CertificationReport,
    CheckResult,
    check_distance_bound,
    check_error_bound_sampling,
    check_kl_sampling,
    check_majorization,
    check_prox_step_domination,
    scale_certificate,
    scale_desingularizer,
)


# ---------------------------------------------------------------------------
# results and reports
# ---------------------------------------------------------------------------


def test_check_result_round_trip():
    c = CheckResult(name="x", status="pass", worst_violation=-1e-12,
                    samples=7, tolerance=1e-9, detail="d")
    assert c.to_dict() == {"name": "x", "status": "pass",
                           "worst_violation": -1e-12, "samples": 7,
                           "tolerance": 1e-9, "detail": "d"}
    with pytest.raises(ValueError):
        CheckResult(name="x", status="maybe")


def test_report_pass_semantics_and_table(tmp_path):
    report = CertificationReport(run_id="r", certificate_id="c")
    report.add(CheckResult(name="one", status="pass", worst_violation=-1e-12))
    report.add(CheckResult(name="two", status="inconclusive"))
    report.add(CheckResult(name="three", status="region-violated"))
    assert report.passed
    table = report.format_table()
    assert "overall: PASS" in table and "one" in table

    report.add(CheckResult(name="four", status="fail", worst_violation=0.5))
    assert not report.passed
    assert "overall: FAIL" in report.format_table()

    path = tmp_path / "report.json"
    report.to_json(path)
    doc = json.loads(path.read_text())
    assert doc["run_id"] == "r" and doc["passed"] is False
    assert [c["name"] for c in doc["checks"]] == ["one", "two", "three", "four"]
    assert doc["checks"][3] == report.checks[3].to_dict()


# ---------------------------------------------------------------------------
# trajectory checks on a tight quadratic bundle
# ---------------------------------------------------------------------------

CENTER = np.array([0.4, -0.2])


def _quadratic_bundle(steps=60):
    # f = 0.5 ||x - c||^2 is 2-uniformly convex with modulus 1
    comp = CompositeObjective(smooth=quadratic_objective(CENTER, weight=0.5),
                              nonsmooth=zero_objective(2))
    run = forward_backward(comp, np.array([2.0, 1.5]),
                           StepSchedule.constant(0.5), steps, min_value=0.0)
    d = uniformly_convex_profile(sigma=1.0, p=2.0, alpha0=1.0)
    maj = worst_case_sequence(d, float(run.gaps[0]), run.params,
                              max(run.num_steps, 1))
    return run, d, maj


def test_trajectory_checks_pass_on_certified_bundle():
    run, d, maj = _quadratic_bundle()
    c1 = check_majorization(run, maj, d)
    assert c1.status == "pass" and c1.worst_violation <= 1e-9
    c2 = check_distance_bound(run, maj, xstar=CENTER)
    assert c2.status == "pass"
    c3 = check_prox_step_domination(run, d, maj.zeta)
    assert c3.status == "pass" and c3.samples > 0


def test_majorization_fails_on_deflated_majorant():
    run, d, maj = _quadratic_bundle()
    fake = MajorantSequence(zeta=maj.zeta, alpha=maj.alpha,
                            psi_values=maj.psi_values * 1e-12,
                            params=maj.params, ell=maj.ell)
    c = check_majorization(run, fake, d)
    assert c.status == "fail"
    assert c.worst_violation > 0
    assert "k=" in c.detail


def test_majorization_requires_min_value():
    run, d, maj = _quadratic_bundle()
    run.min_value = None
    assert check_majorization(run, maj, d).status == "skipped"
    assert check_prox_step_domination(run, d, maj.zeta).status == "skipped"


def test_majorization_respects_region():
    run, d, maj = _quadratic_bundle()
    off = PowerDesingularizer(scale=d.scale, exponent=2.0,
                              region=Ball(np.array([50.0, 50.0]), 0.1))
    c = check_majorization(run, maj, off)
    assert c.status == "region-violated"
    assert "outside the certified region" in c.detail
    # region exits do not fail a report on their own
    report = CertificationReport(checks=[c])
    assert report.passed


def test_majorization_region_exit_after_the_start():
    # the region holds the start but not iterate 1, which halves the
    # distance 2.33 to the center: the bound is checked on the prefix
    run, d, maj = _quadratic_bundle()
    near = PowerDesingularizer(scale=d.scale, exponent=2.0,
                               region=Ball(np.array([2.0, 1.5]), 1.0))
    c = check_majorization(run, maj, near)
    assert c.status == "region-violated"
    assert c.samples == 1 and c.worst_violation <= c.tolerance
    assert c.detail.startswith("iterate 1 left the certified region")
    assert CertificationReport(checks=[c]).passed


def test_distance_bound_skipped_with_one_iterate():
    run, _, maj = _quadratic_bundle()
    start_only = replace(maj, alpha=maj.alpha[:1],
                         psi_values=maj.psi_values[:1])
    c = check_distance_bound(run, start_only, xstar=CENTER)
    assert (c.status, c.detail) == ("skipped", "need at least one step")


def test_distance_bound_skipped_without_limit():
    run, _, maj = _quadratic_bundle(steps=3)
    assert not run.converged
    c = check_distance_bound(run, maj)  # no xstar, run not settled
    assert c.status == "skipped"
    assert check_distance_bound(run, maj, xstar=CENTER).status == "pass"


def test_prox_step_domination_inconclusive_at_floor():
    # one exact step to the minimizer: the only transition ends at gap 0
    comp = CompositeObjective(smooth=quadratic_objective([0.0], weight=0.5),
                              nonsmooth=zero_objective(1))
    run = forward_backward(comp, [1.0], StepSchedule.constant(1.0), steps=5,
                           min_value=0.0)
    d = uniformly_convex_profile(sigma=1.0, p=2.0, alpha0=1.0)
    c = check_prox_step_domination(run, d, zeta_value=0.1)
    assert c.status == "inconclusive"


# ---------------------------------------------------------------------------
# sampling checks
# ---------------------------------------------------------------------------


def _square_objective():
    return quadratic_objective([0.0], weight=1.0)  # f = x^2, min 0


def test_kl_sampling_pass_and_fail():
    obj = _square_objective()
    exact = PowerDesingularizer(scale=1.0, exponent=2.0)  # phi'(f)|f'| = 1
    region = Ball(np.zeros(1), 2.0)
    c = check_kl_sampling(exact, obj, region, n_samples=500, seed=3)
    assert c.status == "pass"
    assert abs(c.worst_violation) <= 1e-12
    # quadrupling gamma halves phi': the inequality fails by 1/2 everywhere
    bad = scale_desingularizer(exact, 4.0)
    c = check_kl_sampling(bad, obj, region, n_samples=500, seed=3)
    assert c.status == "fail"
    assert c.worst_violation == pytest.approx(0.5, abs=1e-12)


def test_kl_sampling_inconclusive_outside_region():
    obj = _square_objective()
    banded = PowerDesingularizer(scale=1.0, exponent=2.0,
                                 region=Ball(np.zeros(1), 0.5))
    far = Ball(np.array([50.0]), 0.1)
    c = check_kl_sampling(banded, obj, far, n_samples=100, seed=0)
    assert c.status == "inconclusive" and c.samples == 0


def test_kl_sampling_is_deterministic():
    obj = _square_objective()
    d = PowerDesingularizer(scale=1.0, exponent=2.0)
    region = Ball(np.zeros(1), 2.0)
    a = check_kl_sampling(d, obj, region, n_samples=300, seed=11)
    b = check_kl_sampling(d, obj, region, n_samples=300, seed=11)
    assert a.to_dict() == b.to_dict()


def test_error_bound_sampling_pass_and_fail():
    obj = _square_objective()
    sol = Ball(np.zeros(1), 0.0)
    region = Ball(np.zeros(1), 2.0)
    tight = ErrorBoundCertificate(form="power", p=2.0, gamma=1.0)
    c = check_error_bound_sampling(tight, obj, sol, region,
                                   n_samples=500, seed=5)
    assert c.status == "pass"
    assert abs(c.worst_violation) <= 1e-9
    inflated = scale_certificate(tight, 4.0)
    c = check_error_bound_sampling(inflated, obj, sol, region,
                                   n_samples=500, seed=5)
    assert c.status == "fail"


def test_error_bound_sampling_edge_statuses():
    obj = _square_objective()
    region = Ball(np.array([3.0]), 0.5)
    narrow = ErrorBoundCertificate(form="power", p=2.0, gamma=1.0, r0=0.01)
    c = check_error_bound_sampling(narrow, obj, Ball(np.zeros(1), 0.0),
                                   region, n_samples=100, seed=0)
    assert c.status == "inconclusive"  # every gap beyond the band

    class Opaque:
        def distance(self, x):
            return 0.0

    cert = ErrorBoundCertificate(form="power", p=2.0, gamma=1.0)
    c = check_error_bound_sampling(cert, obj, Opaque(), region,
                                   n_samples=10, seed=0)
    assert c.status == "inconclusive"
    assert "no exact distance oracle" in c.detail


def _pointwise_kl_sampling(d, obj, pts):
    """The check's reference: one kl_gap call per sample."""
    gaps = [kl_gap(d, obj, x) for x in pts]
    counted = [g for g in gaps if not math.isnan(g)]
    return len(counted), min(counted)


def _pointwise_error_bound_sampling(cert, obj, dists, pts):
    """The check's reference: one value_gap and residual call per sample."""
    margins = []
    for x, dist in zip(pts, dists):
        gap = value_gap(obj, x)
        if math.isinf(gap) or max(gap, 0.0) >= cert.r0:
            continue
        margins.append(cert.residual(max(gap, 0.0)) - float(dist))
    return len(margins), min(margins)


@pytest.mark.parametrize("config", [
    c for p in ("tiny-lasso", "feasibility", "uniformly-convex",
                "tight-quadratic") for c in preset_configs(p)],
    ids=lambda c: c.name)
def test_sampling_checks_match_pointwise_reference(config):
    bundle = build_pipeline(load_instance(config), config)
    d, cert = bundle.desingularizer, bundle.certificate
    obj = bundle.composite.objective(bundle.min_value)
    region = bundle.sample_region
    for factor in (1.0, 2.0):  # 2.0 fails the tight-quadratic certificate
        d_f = scale_desingularizer(d, factor)
        cert_f = scale_certificate(cert, factor)
        pts = region.sample(np.random.default_rng(4), obj.dimension, 400)
        valid, worst = _pointwise_kl_sampling(d_f, obj, pts)
        c = check_kl_sampling(d_f, obj, region, n_samples=400, seed=4)
        assert (c.samples, c.worst_violation) == (valid, -worst)

        pts = region.sample(np.random.default_rng(5), obj.dimension, 400)
        dists = np.atleast_1d(bundle.solution_set.distance(pts))
        valid, worst = _pointwise_error_bound_sampling(
            cert_f, obj, dists, pts)
        c = check_error_bound_sampling(cert_f, obj,
                                       bundle.solution_set, region,
                                       n_samples=400, seed=5)
        assert (c.samples, c.worst_violation) == (valid, -worst)


def _reference_lasso(A, y, mu, min_value) -> ConvexObjective:
    """0.5 ||A x - y||^2 + mu ||x||_1 written by hand in one formula, the
    way the sampling checks' lasso objective was before it was derived
    from the composite."""
    A, y = np.asarray(A, dtype=float), np.asarray(y, dtype=float)

    def residual(x):
        return (A @ x[..., None])[..., 0] - y

    def val(x):
        r = residual(x)
        return 0.5 * np.vecdot(r, r) + mu * np.abs(x).sum(axis=-1)

    def subgrad(x):
        g = (A.T @ residual(x)[..., None])[..., 0]
        return np.where(x != 0.0, g + mu * np.sign(x),
                        np.sign(g) * np.maximum(np.abs(g) - mu, 0.0))

    return ConvexObjective(dimension=A.shape[1], value_fn=val,
                           min_value=min_value, subgradient_fn=subgrad)


def _reference_alternating(c1, c2, dimension) -> ConvexObjective:
    """indicator(C1) + 0.5 dist^2(., C2) written by hand, for a Ball or a
    Halfspace C1, the way the alternating objective was before it was
    derived from the composite."""

    def val(x):
        inside = c1.contains(x, tol=1e-12)
        return np.where(inside, 0.5 * np.asarray(c2.distance(x)) ** 2,
                        math.inf)

    def subgrad(x):
        v = x - c2.project(x)
        if isinstance(c1, Ball):
            d = x - c1.center
            slack = c1.radius - np.sqrt(np.vecdot(d, d))
        else:
            slack = ((c1.offset - np.vecdot(x, c1.normal))
                     / np.linalg.norm(c1.normal))
        boundary = np.asarray(slack <= 1e-12)
        vb = v[boundary]
        n = np.broadcast_to(c1.boundary_normal(x[boundary]), vb.shape)
        t = np.maximum(0.0, -np.vecdot(vb, n))
        v[boundary] = vb + t[..., None] * n
        inside = np.asarray(c1.contains(x, tol=1e-12))[..., None]
        return np.where(inside, v, math.nan)

    return ConvexObjective(dimension=dimension, value_fn=val,
                           subgradient_fn=subgrad)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("config", [
    c for p in PRESET_NAMES for c in preset_configs(p)] + [
    ExperimentConfig(name=f"lasso-{400 + i}",
                     instance={"family": "lasso", "n": 2 + i % 2,
                               "seed": 400 + i},
                     checks={"seed": i}) for i in range(20)],
    ids=lambda c: c.name)
def test_derived_objective_matches_hand_written_references(config):
    # the objective the sampling checks test, derived from the composite,
    # has the bits of the hand-written objectives it replaced, on the
    # checks' own draws, the start and the origin
    gi = load_instance(config)
    bundle = build_pipeline(gi, config)
    derived = bundle.composite.objective(bundle.min_value)
    if gi.family == "lasso":
        reference = _reference_lasso(gi.payload["A"], gi.payload["y"],
                                     gi.payload["mu"], bundle.min_value)
    elif config.setting("method", "name") == "alternating":
        reference = _reference_alternating(*bundle.solution_set.sets,
                                           bundle.composite.dimension)
    else:
        # g = 0: the checks tested the smooth part alone
        assert bundle.composite.nonsmooth.name == "zero"
        reference = replace(bundle.composite.smooth,
                            min_value=bundle.min_value)
    # as many draws as the benchmark's falsify battery makes per check
    seed = config.setting("checks", "seed")
    pts = np.concatenate([bundle.sample_region.sample(
                              np.random.default_rng(s), len(bundle.start),
                              20000) for s in (seed, seed + 1)]
                         + [[bundle.start, np.zeros_like(bundle.start)]])
    for oracle in (evaluate, value_gap, min_norm_subgradient,
                   subgradient_norm):
        assert _same_bits(oracle(derived, pts), oracle(reference, pts)), (
            oracle.__name__)
        for x in pts[-2:]:
            assert _same_bits(oracle(derived, x), oracle(reference, x)), (
                oracle.__name__)


def _first_max_scan(pairs):
    """The trajectory checks' reference scan: the first strict maximum."""
    worst, at = -math.inf, -1
    for k, v in pairs:
        if v > worst:
            worst, at = v, k
    return worst, at


def _per_step_distance_bound(maj, k):
    a, b = maj.params.a, maj.params.b
    return (b / a) * float(maj.alpha[k]) + math.sqrt(
        max(float(maj.psi_values[k - 1]), 0.0) / a)


def _per_step_trace_rows(run, maj, xstar):
    """The trace's reference: one row built per step from scalar calls."""
    rows = []
    for k in range(len(run.raw_values)):
        row = {"k": k}
        if not math.isinf(run.raw_values[k]):
            row["value_gap"] = float(run.raw_values[k]) - run.min_value
        row["value_bound"] = float(maj.psi_values[k])
        if k >= 1:
            row["step_norm"] = float(run.step_norms[k - 1])
            row["witness_norm"] = float(run.witness_norms[k - 1])
            row["distance_bound"] = _per_step_distance_bound(maj, k)
        row["distance_to_xstar"] = float(np.linalg.norm(run.iterates[k]
                                                        - xstar))
        rows.append(row)
    return rows


def _filled_cells(columns, names=TRACE_COLUMNS):
    """The rows of trace columns (first row, values) by name, as dicts of
    the named columns' cells without the empty ones, which write_table
    leaves blank."""
    rows = [{} for _ in columns["k"][1]]
    for name in names:
        first, values = columns.get(name, (0, ()))
        for k, v in enumerate(values, start=first):
            if v is not None:
                rows[k][name] = v
    return rows


def _per_step_prox_steps(gaps, d, gap_floor=1e-12):
    idx, vals = [], []
    for k in range(1, len(gaps)):
        if gaps[k] <= gap_floor or gaps[k - 1] <= gap_floor:
            continue
        beta_prev, beta = d.phi(float(gaps[k - 1])), d.phi(float(gaps[k]))
        idx.append(k)
        vals.append((beta_prev - beta) / d.psi_prime(beta))
    return idx, vals


@pytest.mark.parametrize("config", [
    c for p in PRESET_NAMES for c in preset_configs(p)], ids=lambda c: c.name)
def test_trajectory_quantities_match_per_step_reference(config):
    config.checks["samples"] = 10
    result = run_experiment(config)
    run, maj, d = result.run, result.majorant, result.bundle.desingularizer
    xstar = result.bundle.minimizer
    if xstar is None:
        xstar = run.iterates[-1]

    c = check_majorization(run, maj, d)
    worst, at = _first_max_scan(
        (k, float(run.gaps[k]) - float(maj.psi_values[k]))
        for k in range(c.samples))
    assert c.worst_violation == worst
    assert c.status != "fail" or c.detail == f"worst excess at k={at}"

    c = check_distance_bound(run, maj, xstar=xstar)
    worst, at = _first_max_scan(
        (k, float(np.linalg.norm(run.iterates[k] - xstar))
         - _per_step_distance_bound(maj, k))
        for k in range(1, len(run.iterates)))
    assert (c.worst_violation, c.detail) == (worst, f"worst at k={at}")

    idx, vals = empirical_prox_steps(run.gaps, d)
    assert (idx.tolist(), vals.tolist()) == _per_step_prox_steps(run.gaps, d)

    columns = trace_columns(run, maj, xstar)
    assert _filled_cells(columns) == _per_step_trace_rows(run, maj, xstar)
    # majorant.csv writes these columns' cells again
    assert _filled_cells(columns, MAJORANT_COLUMNS) == [
        {"k": 0, "value_bound": float(maj.psi_values[0])}] + [
        {"k": k, "value_bound": float(maj.psi_values[k]),
         "distance_bound": _per_step_distance_bound(maj, k)}
        for k in range(1, len(maj.alpha))]


def test_region_samples_respect_geometry(rng):
    ball = Ball(np.array([1.0, 1.0]), 0.3)
    pts = ball.sample(rng, 2, 200)
    assert pts.shape == (200, 2)
    assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= 0.3 + 1e-12)
    with pytest.raises(ValueError, match="dimension"):
        ball.sample(rng, 3, 200)
    l1 = L1Ball(0.4)
    pts = l1.sample(rng, 3, 200)
    assert pts.shape == (200, 3)
    assert np.all(np.abs(pts).sum(axis=1) <= 0.4 + 1e-12)


def _old_metric_ball_contains(ball, x, tol=1e-9):
    """Membership of the metric ball as the region wrote it before the
    region became a Ball: a BLAS-dot norm against radius + tol."""
    d = np.asarray(x, dtype=float) - ball.center
    return np.sqrt(np.vecdot(d, d)) <= ball.radius + tol


@pytest.mark.parametrize("config", preset_configs("feasibility"),
                         ids=lambda c: c.name)
def test_ball_region_membership_matches_the_old_formula(config):
    """Ball.contains (distance <= tol) and the old formula can differ only
    within rounding of radius + tol; on the feasibility presets' sample
    batches at the benchmark's 20000 draws and on every iterate of their
    runs they give the same booleans."""
    config = copy.deepcopy(config)
    config.checks["samples"] = 20000
    result = run_experiment(config)
    region = result.bundle.desingularizer.region
    assert isinstance(region, Ball)
    seed = config.setting("checks", "seed")
    pts = np.concatenate([region.sample(np.random.default_rng(s),
                                        region.dimension, 20000)
                          for s in (seed, seed + 1)]
                         + [result.run.iterates])
    got = region.contains(pts)
    assert np.array_equal(got, _old_metric_ball_contains(region, pts))
    assert got.all()
    for x in result.run.iterates:
        assert region.contains(x) == _old_metric_ball_contains(region, x)


# ---------------------------------------------------------------------------
# falsification helpers
# ---------------------------------------------------------------------------


def test_scale_desingularizer_scales_gamma():
    d = PowerDesingularizer(scale=2.0, exponent=2.0, r0=1.5)
    scaled = scale_desingularizer(d, 4.0)
    assert to_error_bound(scaled).gamma == pytest.approx(
        4.0 * to_error_bound(d).gamma, rel=1e-12)
    assert scaled.r0 == d.r0
    # quadratic profile: ell scales linearly with gamma
    assert scaled.ell == pytest.approx(4.0 * d.ell, rel=1e-12)
    with pytest.raises(ValueError):
        scale_desingularizer(d, 0.0)


def test_scale_certificate_scales_residual():
    cert = ErrorBoundCertificate(form="power", p=2.0, gamma=0.5)
    scaled = scale_certificate(cert, 9.0)
    assert scaled.gamma == pytest.approx(4.5, rel=1e-14)
    assert scaled.residual(1.0) == pytest.approx(cert.residual(1.0) / 3.0,
                                                 rel=1e-12)
    two_regime = ErrorBoundCertificate(form="two-regime", p=2.0, gamma0=1.0)
    with pytest.raises(ValueError):
        scale_certificate(two_regime, 2.0)
