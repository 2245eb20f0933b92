"""End-to-end acceptance battery.

Ten numbered criteria covering the whole pipeline: scalar majorant algebra,
descent-inequality certification, certified rates on generated l1 and
feasibility instances, sampling checks on the shipped presets, and the
falsification probes.  Each test prints a single PASS/FAIL summary line with
its decisive statistic on the real stdout (so the battery reads as a
checklist even under pytest capture) and then asserts; stated runtime
budgets are asserted alongside the numerics.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from klcert.convex import (
    Ball,
    CompositeObjective,
    indicator,
    least_squares,
    scaled_l1,
    zero_objective,
)
from klcert.descent import (
    DescentCertificateParams,
    forward_backward,
)
from klcert.desingularization import PowerDesingularizer
from klcert.error_bounds import (
    FeasibilityInstance,
    LassoInstance,
    hoffman_constant,
    lasso_sign_system,
)
from klcert.experiments import (
    ExperimentConfig,
    build_pipeline,
    load_instance,
    preset_configs,
    run_experiment,
    sweep_relative_step,
)
from klcert.majorant import (
    empirical_prox_steps,
    prox_sequence,
    worst_case_sequence,
    zeta,
)
from klcert.problems import (
    generate_feasibility_instance,
    generate_lasso_instance,
    generate_linear_system_pair,
)

GOOD_PRESETS = ("tiny-lasso", "feasibility", "uniformly-convex",
                "tight-quadratic")

_CACHE: dict = {}

# One line per criterion; conftest echoes these after the test summary so
# the battery reads as a checklist even under captured output.
SUMMARY_LINES: list = []


def _report(num: int, name: str, ok: bool, detail: str, started: float) -> None:
    elapsed = time.perf_counter() - started
    line = (f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}) [{elapsed:.2f}s]")
    SUMMARY_LINES.append(line)
    print(line, flush=True)


# ---------------------------------------------------------------------------
# 1-2: scalar majorant algebra
# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_matches_prox_iterated_majorant():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        a = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.3, 3.0))
        scale = float(rng.uniform(0.5, 2.2))  # quadratic profile: ell = 2/scale^2
        r0 = float(rng.uniform(0.2, 4.0))
        d = PowerDesingularizer(scale=scale, exponent=2.0)
        params = DescentCertificateParams(a=a, b=b)
        closed = worst_case_sequence(d, r0, params, steps=200)
        iterated = worst_case_sequence(d, r0, params, steps=200,
                                       force_bisection=True)
        worst = max(worst, float(np.max(np.abs(closed.alpha - iterated.alpha))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, "closed-form vs prox-iterated majorant", ok,
            f"max |alpha dev| {worst:.2e} over 50 triples x 200 steps",
            started)
    assert worst <= 1e-12
    assert elapsed < 1.0, f"budget 1 s exceeded: {elapsed:.2f}s"


def test_criterion_02_zeta_root_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(1000):
        a = float(10.0 ** rng.uniform(-3.0, 1.0))
        b = float(10.0 ** rng.uniform(-2.0, 1.0))
        ell = 0.0 if i % 10 == 0 else float(10.0 ** rng.uniform(-6.0, 1.0))
        z = zeta(a, b, ell)
        resid = abs(b * b * (z + 0.5 * ell * z * z) - a) / max(1.0, a)
        worst = max(worst, resid)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(2, "zeta root identity", ok,
            f"max |b^2(z + ell z^2/2) - a| {worst:.2e} over 1000 triples",
            started)
    assert worst <= 1e-12
    assert elapsed < 1.0, f"budget 1 s exceeded: {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 3: per-step certification of the proximal gradient loop
# ---------------------------------------------------------------------------


def _random_composite(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 21))
    m = n + int(rng.integers(1, 4))
    A = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    smooth = least_squares(A, y)
    kind = seed % 3
    if kind == 0:
        nonsmooth = scaled_l1(n, float(rng.uniform(0.05, 0.6)))
        x0 = rng.uniform(-2.0, 2.0, n)
    elif kind == 1:
        center = rng.uniform(-1.0, 1.0, n)
        radius = float(rng.uniform(0.5, 2.0))
        nonsmooth = indicator(Ball(center, radius), n)
        u = rng.standard_normal(n)
        u *= rng.uniform(0.0, 0.8) * radius / max(float(np.linalg.norm(u)), 1e-12)
        x0 = center + u  # keep the start feasible so f(x0) is finite
    else:
        nonsmooth = zero_objective(n)
        x0 = rng.uniform(-2.0, 2.0, n)
    return CompositeObjective(smooth=smooth, nonsmooth=nonsmooth), x0


def test_criterion_03_descent_inequality_certification():
    started = time.perf_counter()
    worst_h1 = 0.0
    worst_h2 = 0.0
    for i in range(100):
        comp, x0 = _random_composite(300 + i)
        L = comp.lipschitz
        # one step per run, cycling over seven from 0.4/L to 1.7/L
        lam = float(np.linspace(0.4, 1.7, 7)[i % 7]) / L
        run = forward_backward(comp, x0, lam, steps=500)
        assert run.params.a == 1.0 / lam - L / 2.0
        assert run.params.b == 1.0 / lam + L
        scale = max(1.0, abs(float(run.raw_values[0])))
        worst_h1 = max(worst_h1, run.h1_violation() / scale)
        worst_h2 = max(worst_h2, run.h2_violation() / scale)
    elapsed = time.perf_counter() - started
    ok = worst_h1 <= 1e-9 and worst_h2 <= 1e-9 and elapsed < 10.0
    _report(3, "sufficient-decrease / relative-error certification", ok,
            f"100 composites (n<=20, K=500): worst scaled violations "
            f"H1 {worst_h1:.2e}, H2 {worst_h2:.2e}", started)
    assert worst_h1 <= 1e-9
    assert worst_h2 <= 1e-9
    assert elapsed < 10.0, f"budget 10 s exceeded: {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 4-6: certified rates on generated instances
# ---------------------------------------------------------------------------


def _pipeline_run(gi, config):
    """The family's problem from build_pipeline, run by the one
    forward_backward call of run_experiment, without the sampling checks."""
    bundle = build_pipeline(gi, config)
    run = forward_backward(bundle.composite, bundle.start, bundle.step,
                           config.method["steps"], min_value=bundle.min_value)
    bundle.guard(run)
    return bundle, run


def _lasso_records() -> list[dict]:
    if "lasso" in _CACHE:
        return _CACHE["lasso"]
    records = []
    for i in range(20):
        n = 2 + (i % 2)
        config = ExperimentConfig(
            instance={"family": "lasso", "n": n, "seed": 400 + i},
            method={"name": "ista", "relative_step": 0.5, "steps": 2000},
        )
        gi = load_instance(config)
        # criterion 04's fleet holds n = 2 and n = 3 instances only
        assert len(gi.values()["x0"]) <= 3
        bundle, run = _pipeline_run(gi, config)
        params = run.params
        # the certificate's gamma is 2 gamma_R
        q = 1.0 + params.a * bundle.certificate.gamma / params.b ** 2
        maj = worst_case_sequence(bundle.desingularizer, float(run.gaps[0]),
                                  params, steps=1)
        records.append({
            "label": f"lasso(n={n}, seed={400 + i})",
            "run": run,
            "desingularizer": bundle.desingularizer,
            "q": q,
            "closed_q": maj.closed_form.q,
            "zeta": maj.zeta,
        })
    _CACHE["lasso"] = records
    return records


def test_criterion_04_l1_certified_linear_rate():
    started = time.perf_counter()
    records = _lasso_records()
    worst_slack = -math.inf
    worst_tail = -math.inf  # same margin excluding the trivially tight k = 0
    worst_q_dev = 0.0
    for rec in records:
        run = rec["run"]
        gaps = np.asarray(run.gaps, dtype=float)
        f0 = float(gaps[0])
        assert f0 > 0.0, rec["label"]
        assert run.converged or run.num_steps == 2000, rec["label"]
        q = rec["q"]
        worst_q_dev = max(worst_q_dev, abs(q / rec["closed_q"] - 1.0))
        ks = np.arange(gaps.size)
        slack = (gaps - f0 / q ** ks) / f0
        worst_slack = max(worst_slack, float(np.max(slack)))
        if slack.size > 1:
            worst_tail = max(worst_tail, float(np.max(slack[1:])))
    elapsed = time.perf_counter() - started
    ok = worst_slack <= 1e-9 and worst_q_dev <= 1e-12 and elapsed < 60.0
    _report(4, "l1 solver certified rate q = 1 + 2 a gamma_R / b^2", ok,
            f"20 instances, k<=2000: max (gap - f0/q^k)/f0 = {worst_slack:.2e}"
            f" ({worst_tail:.2e} for k>=1), q vs closed form dev "
            f"{worst_q_dev:.1e}", started)
    assert worst_slack <= 1e-9
    assert worst_q_dev <= 1e-12
    assert elapsed < 60.0, f"budget 60 s exceeded: {elapsed:.2f}s"


def _feasibility_records() -> list[dict]:
    if "feasibility" in _CACHE:
        return _CACHE["feasibility"]
    records = []
    for i in range(20):
        geometry = "lens" if i >= 16 else "generic"
        gi = generate_feasibility_instance(dim=2, seed=500 + i,
                                           geometry=geometry)
        v = gi.values()
        inst = FeasibilityInstance(v["sets"], v["xbar"], v["R"], v["weights"])
        for variant in ("barycentric", "alternating"):
            bundle, run = _pipeline_run(gi, ExperimentConfig(
                instance={"family": "feasibility"},
                method={"name": variant, "steps": 2000}))
            desing = bundle.desingularizer
            M = float(desing.ell)
            records.append({
                "label": f"feasibility(seed={500 + i}, {geometry}, {variant})",
                "inst": inst,
                "run": run,
                "desingularizer": desing,
                "variant": variant,
                "M": M,
                "q": 1.0 + M / 4.0,
                "zeta": zeta(run.params.a, run.params.b, M),
            })
    _CACHE["feasibility"] = records
    return records


def test_criterion_05_feasibility_certified_rates():
    started = time.perf_counter()
    records = _feasibility_records()
    worst_bary = -math.inf
    worst_alt = -math.inf
    tail_bary = -math.inf
    tail_alt = -math.inf
    for rec in records:
        run = rec["run"]
        q = rec["q"]
        assert run.params.a == 0.5 and run.params.b == 2.0, rec["label"]
        if rec["variant"] == "barycentric":
            gaps = np.asarray(run.gaps, dtype=float)
            f0 = float(gaps[0])
            assert f0 > 0.0, rec["label"]
            ks = np.arange(gaps.size)
            slack = (gaps - f0 / q ** ks) / max(1.0, f0)
            worst_bary = max(worst_bary, float(np.max(slack)))
            if slack.size > 1:
                tail_bary = max(tail_bary, float(np.max(slack[1:])))
        else:
            second = rec["inst"].sets[1]
            dists = np.atleast_1d(second.distance(
                np.asarray(run.iterates, dtype=float)))
            d0 = float(dists[0])
            assert d0 > 0.0, rec["label"]
            ks = np.arange(dists.size)
            slack = (dists - d0 / q ** (ks / 2.0)) / max(1.0, d0)
            worst_alt = max(worst_alt, float(np.max(slack)))
            if slack.size > 1:
                tail_alt = max(tail_alt, float(np.max(slack[1:])))
    elapsed = time.perf_counter() - started
    ok = worst_bary <= 1e-9 and worst_alt <= 1e-9 and elapsed < 10.0
    _report(5, "feasibility rates 1 + M/4 (value) and (1 + M'/4)^(k/2) (dist)",
            ok, f"20 instances, k<=2000: worst value slack {worst_bary:.2e} "
            f"({tail_bary:.2e} for k>=1), worst distance slack "
            f"{worst_alt:.2e} ({tail_alt:.2e} for k>=1)", started)
    assert worst_bary <= 1e-9
    assert worst_alt <= 1e-9
    assert elapsed < 10.0, f"budget 10 s exceeded: {elapsed:.2f}s"


def test_criterion_06_empirical_prox_steps_dominate_zeta():
    started = time.perf_counter()
    records = _lasso_records() + _feasibility_records()
    total = 0
    worst_margin = math.inf
    for rec in records:
        gaps = np.asarray(rec["run"].gaps, dtype=float)
        _, vals = empirical_prox_steps(gaps, rec["desingularizer"])
        if vals.size == 0:
            continue
        total += int(vals.size)
        worst_margin = min(worst_margin, float(np.min(vals)) - rec["zeta"])
        assert float(np.min(vals)) >= rec["zeta"] - 1e-9, rec["label"]
    ok = total > 0 and worst_margin >= -1e-9
    _report(6, "empirical scalar steps s_k >= zeta", ok,
            f"{total} transitions over {len(records)} certified runs, "
            f"min s_k - zeta = {worst_margin:.2e}", started)
    assert total > 0
    assert worst_margin >= -1e-9


# ---------------------------------------------------------------------------
# 7: sampled inequalities behind every shipped certificate
# ---------------------------------------------------------------------------


def test_criterion_07_sampling_and_constant_bounds():
    started = time.perf_counter()
    worst_kl = math.inf
    worst_eb = math.inf
    bundles = 0
    all_pass = True
    for preset in GOOD_PRESETS:
        for config in preset_configs(preset):
            config.checks["samples"] = 10000
            result = run_experiment(config)
            by_name = {c.name: c for c in result.report.checks}
            kl = by_name["kl-sampling"]
            eb = by_name["error-bound-sampling"]
            bundles += 1
            all_pass = all_pass and kl.status == "pass" and eb.status == "pass"
            if kl.worst_violation is not None:
                worst_kl = min(worst_kl, -kl.worst_violation)
            if eb.worst_violation is not None:
                worst_eb = min(worst_eb, -eb.worst_violation)

    systems = 0
    for seed in range(20):
        dim = 2 + seed % 3
        pair = generate_linear_system_pair(dim=dim, num_ineq=2 + seed % 2,
                                           num_eq=1 + seed % 2,
                                           seed=700 + seed)
        upper = hoffman_constant(pair, mode="exact")
        lower = hoffman_constant(pair, mode="sampled", samples=200, seed=seed)
        assert lower <= upper * (1.0 + 1e-9) + 1e-12, f"system seed {seed}"
        systems += 1
    for i in range(3):
        gi = generate_lasso_instance(n=2, seed=400 + i)
        v = gi.values()
        system = lasso_sign_system(LassoInstance(v["A"], v["y"], v["mu"],
                                                 v["x0"]))
        upper = hoffman_constant(system, mode="exact")
        lower = hoffman_constant(system, mode="sampled", samples=120,
                                 seed=800 + i)
        assert lower <= upper * (1.0 + 1e-9) + 1e-12, f"sign system {i}"
        systems += 1

    ok = all_pass and worst_kl >= -1e-9 and worst_eb >= -1e-9
    _report(7, "sampled KL / error-bound / Hoffman inequalities", ok,
            f"{bundles} shipped certificates x 10000 samples: min KL gap "
            f"{worst_kl:.2e}, min residual margin {worst_eb:.2e}; sampled "
            f"lower <= enumerated upper on {systems} systems", started)
    assert all_pass
    assert worst_kl >= -1e-9
    assert worst_eb >= -1e-9


# ---------------------------------------------------------------------------
# 8-9: falsification probe and step-size sweep
# ---------------------------------------------------------------------------


def test_criterion_08_doubled_constant_flips_a_check():
    started = time.perf_counter()
    control = run_experiment(preset_configs("tight-quadratic")[0])
    assert control.report.passed, "control run must pass before the probe"
    probe = run_experiment(preset_configs("broken-certificate")[0])
    failed = [c.name for c in probe.report.checks if c.status == "fail"]
    ok = (not probe.report.passed) and len(failed) >= 1 \
        and "*scaled(2)" in probe.bundle.certificate_id
    _report(8, "doubled growth constant flips a check", ok,
            f"tight instance: pass -> fail on {failed}", started)
    assert not probe.report.passed
    assert len(failed) >= 1
    assert "*scaled(2)" in probe.bundle.certificate_id


def test_criterion_09_relative_step_sweep_peaks_at_half():
    started = time.perf_counter()
    config = preset_configs("tiny-lasso")[0]
    grid = [round(0.1 * i, 1) for i in range(1, 20)]
    rows = sweep_relative_step(config, grid)
    qs = [row["q"] for row in rows]
    best = int(np.argmax(qs))
    unique = all(qs[best] > qs[j] for j in range(len(qs)) if j != best)
    ok = rows[best]["relative_step"] == 0.5 and unique
    _report(9, "certified rate over d in {0.1..1.9} peaks at 0.5", ok,
            f"argmax d = {rows[best]['relative_step']:g}, "
            f"q = {qs[best]:.10g}", started)
    assert rows[best]["relative_step"] == 0.5
    assert unique


# ---------------------------------------------------------------------------
# 10: comparison principle for the scalar prox recursion
# ---------------------------------------------------------------------------


def test_criterion_10_prox_comparison_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    profiles = (PowerDesingularizer(scale=1.3, exponent=2.0),
                PowerDesingularizer(scale=0.9, exponent=4.0))
    worst = -math.inf
    pairs = 0
    for d in profiles:
        for _ in range(5):
            base = rng.uniform(0.05, 1.2, 200)
            factor = rng.uniform(1.0, 3.0, 200)
            beta0 = float(rng.uniform(0.3, 2.5))
            slow = prox_sequence(d, base, beta0)
            fast = prox_sequence(d, base * factor, beta0)
            worst = max(worst, float(np.max(fast - slow)))
            pairs += 1
        # constant-step pair: the doubled step must stay below pointwise
        z = zeta(0.5, 2.0, 1.0)
        slow = prox_sequence(d, np.full(200, z), 1.7)
        fast = prox_sequence(d, np.full(200, 2.0 * z), 1.7)
        worst = max(worst, float(np.max(fast - slow)))
        pairs += 1
    ok = worst <= 1e-12
    _report(10, "dominated prox steps give dominated trajectories", ok,
            f"{pairs} step pairs, quadratic+quartic profiles, 200 steps: "
            f"max (fast - slow) = {worst:.2e}", started)
    assert worst <= 1e-12
