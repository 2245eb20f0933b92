"""Descent runs and their recorded step inequalities."""

import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klcert.descent

from klcert.convex import (
    Ball,
    CompositeObjective,
    Halfspace,
    half_squared_distance,
    indicator,
    least_squares,
    prox,
    quadratic_objective,
    row_norms,
    scaled_l1,
    zero_objective,
)
from klcert.cli import main
from klcert.descent import (
    RUN_FIELDS,
    DescentRun,
    certificate_params,
    forward_backward,
    step_over_lipschitz,
)
from klcert.experiments import (
    ExperimentConfig,
    build_pipeline,
    load_instance,
    pipeline_settings,
)
from klcert.problems import GeneratedInstance, generate_instance


# ---------------------------------------------------------------------------
# steps and constants
# ---------------------------------------------------------------------------


def test_certificate_params_frozen():
    # lam = 1/2, L = 1: a = 2 - 1/2 = 3/2, b = 2 + 1 = 3
    p = certificate_params(0.5, 1.0)
    assert p.a == pytest.approx(1.5, rel=1e-14)
    assert p.b == pytest.approx(3.0, rel=1e-14)


def test_certificate_params_rejects_large_steps():
    with pytest.raises(ValueError, match="2/L"):
        certificate_params(2.0, 1.0)
    # L = 0 imposes no ceiling
    p = certificate_params(4.0, 0.0)
    assert p.a == pytest.approx(0.25) and p.b == pytest.approx(0.25)


def test_step_validation():
    # the largest float below 2/L is a step, 2/L is not
    for L in (1.0, 3.0, 7.0):
        lam = math.nextafter(2.0 / L, 0.0)
        p = certificate_params(lam, L)
        assert (p.a, p.b) == (1.0 / lam - L / 2.0, 1.0 / lam + L)
        assert p.a > 0.0
        with pytest.raises(ValueError, match="2/L"):
            certificate_params(2.0 / L, L)
    for lam in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            certificate_params(lam, 1.0)
    with pytest.raises(ValueError, match="Lipschitz"):
        certificate_params(0.5, math.nan)
    # a step so small that b * b overflows (b too, at 1e-320) is named
    for lam in (1e-160, 1e-300, 1e-320):
        with pytest.raises(ValueError, match=f"step {lam!r} is too small"):
            certificate_params(lam, 1.0)
    p = certificate_params(1e-154, 1.0)
    assert p.b * p.b < math.inf
    assert step_over_lipschitz(0.5, 4.0) == 0.125
    for d in (0.0, 2.0, math.nan):
        with pytest.raises(ValueError, match="relative step"):
            step_over_lipschitz(d, 1.0)
    for L in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="Lipschitz"):
            step_over_lipschitz(0.5, L)
    # d / L that is zero (L = inf or an underflow) or overflows to inf
    for d, L in ((0.5, math.inf), (1e-300, 1e300), (1.0, 1e-320)):
        with pytest.raises(ValueError, match="positive, finite"):
            step_over_lipschitz(d, L)


# ---------------------------------------------------------------------------
# forward-backward
# ---------------------------------------------------------------------------


def _half_square():
    # h = 0.5 x^2, L = 1, zero nonsmooth part
    return CompositeObjective(smooth=quadratic_objective([0.0], weight=0.5),
                              nonsmooth=zero_objective(1))


def test_forward_backward_hand_case():
    # unit step from x0 = 1 lands on the minimizer in one move:
    # f(x1) + a * 1^2 = 0 + 1/2 = f(x0) exactly, and the witness is 0.
    run = forward_backward(_half_square(), [1.0], 1.0, steps=5,
                           min_value=0.0)
    assert run.converged
    np.testing.assert_allclose(run.settled_point(), [0.0], atol=0.0)
    assert run.params.a == pytest.approx(0.5) and run.params.b == pytest.approx(2.0)
    assert run.h1_violation() == 0.0
    assert run.witness_norms[0] == 0.0
    assert run.h2_violation() <= 0.0


def test_forward_backward_witness_is_gradient_without_nonsmooth_part(rng):
    # with g = 0 the prox inclusion collapses to w_+ = grad h(x_+): the run
    # certifies (H2) with the plain gradient norm.
    A = rng.normal(size=(4, 3))
    h = least_squares(A, rng.normal(size=4))
    comp = CompositeObjective(smooth=h, nonsmooth=zero_objective(3))
    lam = step_over_lipschitz(0.7, h.lipschitz)
    run = forward_backward(comp, rng.normal(size=3), lam, steps=30)
    for k in range(run.num_steps):
        g = np.linalg.norm(h.gradient_fn(run.iterates[k + 1]))
        assert run.witness_norms[k] == pytest.approx(g, rel=1e-12)


def test_forward_backward_inequalities_on_random_composites(rng):
    # (H1)/(H2) hold exactly in exact arithmetic; 1e-9 absorbs roundoff
    for trial in range(20):
        n = int(rng.integers(1, 6))
        m = n + int(rng.integers(0, 3))
        A = rng.normal(size=(m, n))
        h = least_squares(A, rng.normal(size=m))
        g = scaled_l1(n, float(rng.uniform(0.1, 1.0)))
        comp = CompositeObjective(smooth=h, nonsmooth=g)
        L = max(comp.lipschitz, 1e-3)
        # one step per run, cycling over seven from 0.4/L to 1.5/L
        lam = float(np.linspace(0.4, 1.5, 7)[trial % 7]) / L
        run = forward_backward(comp, rng.normal(size=n), lam, steps=80)
        assert run.params.a == 1.0 / lam - comp.lipschitz / 2.0
        assert run.params.b == 1.0 / lam + comp.lipschitz
        scale = 1.0 + abs(run.raw_values[0])
        assert run.h1_violation() <= 1e-9 * scale, trial
        assert run.h2_violation() <= 1e-9 * scale, trial


def _per_step_record(composite, x0, lam, steps):
    """The run record's reference: one prox call, value and witness norm
    per step."""
    x = np.asarray(x0, dtype=float)
    grad = composite.smooth.gradient_fn
    gx = grad(x)
    rows = [x]
    record = {"raw_values": [composite.value(x)],
              "step_norms": [], "witness_norms": [], "converged": False}
    for _ in range(steps):
        xn = prox(composite.nonsmooth, x - lam * gx, lam)
        move = float(np.linalg.norm(xn - x))
        if move == 0.0:
            record["converged"] = True
            break
        gxn = grad(xn)
        rows.append(xn)
        record["raw_values"].append(composite.value(xn))
        record["step_norms"].append(move)
        record["witness_norms"].append(
            float(np.linalg.norm((x - xn) / lam - gx + gxn)))
        x, gx = xn, gxn
    # iterates.bin's bytes: the rows' little-endian float64 bytes, so
    # records compare bit for bit (-0.0 is not 0.0)
    record["iterates"] = np.array(rows, dtype="<f8").tobytes()
    return record


def _stored(run, composite, x0, step, steps, min_value=None):
    """run as DescentRun.from_metadata_dict reads it back from the files
    run.write stored."""
    with tempfile.TemporaryDirectory() as directory:
        paths = [os.path.join(directory, name)
                 for name in ("run.json", "iterates.bin")]
        run.write(*paths)
        with open(paths[0], "rb") as fh:
            doc = json.load(fh)
        return DescentRun.from_metadata_dict(doc, paths[1], composite, x0,
                                             step, steps, min_value=min_value)


def _run_record(run):
    return {"iterates": run.iterates.astype("<f8").tobytes(),
            "raw_values": run.raw_values.tolist(),
            "step_norms": run.step_norms.tolist(),
            "witness_norms": run.witness_norms.tolist(),
            "converged": run.converged}


def test_forward_backward_record_matches_per_step_reference(rng):
    cases = []
    for _ in range(5):
        n = int(rng.integers(1, 12))
        A = rng.normal(size=(n + 2, n))
        cases.append((CompositeObjective(
            smooth=least_squares(A, rng.normal(size=n + 2)),
            nonsmooth=scaled_l1(n, float(rng.uniform(0.1, 1.0)))),
            rng.normal(size=n), None))
    # exact stops before the budget: l1 shrinkage lands on 0 after one
    # step, and a step of 5e-171 whose squared norm underflows to 0
    cases.append((CompositeObjective(
        smooth=least_squares(np.eye(2), np.zeros(2)),
        nonsmooth=scaled_l1(2, 1.0)), np.array([0.3, -0.2]), 1))
    cases.append((CompositeObjective(
        smooth=zero_objective(1), nonsmooth=quadratic_objective([1e-170])),
        np.zeros(1), 0))
    # alternating projections started outside C_1: f(x_0) = +inf
    c1, c2 = Ball(np.zeros(2), 1.0), Halfspace(np.array([1.0, 1.0]), 0.5)
    cases.append((CompositeObjective(smooth=half_squared_distance(c2, 2),
                                     nonsmooth=indicator(c1, 2)),
                  np.array([3.0, 0.5]), None))
    for comp, x0, stop in cases:
        L = max(comp.lipschitz, 1e-3)
        for lam in (1.5 / L, 0.4 / L):
            run = forward_backward(comp, x0, lam, steps=60)
            assert _run_record(run) == _per_step_record(comp, x0, lam, 60)
            # the stored iterates pass certify's replay, early stops too
            back = _stored(run, comp, x0, lam, 60)
            assert _run_record(back) == _run_record(run)
            if stop is not None:
                assert run.converged and run.num_steps == stop
    # the last run: alternating projections at the smaller step
    assert math.isinf(run.raw_values[0])
    prev = run.raw_values[:-1]
    h1 = max(run.raw_values[k + 1] + run.params.a * run.step_norms[k] ** 2
             - prev[k] for k in range(run.num_steps) if math.isfinite(prev[k]))
    assert run.h1_violation() == pytest.approx(h1, rel=1e-12, abs=1e-15)


def _stacked(M, v):
    """M v as the stacked product, which every call once took."""
    return (M @ v[..., None])[..., 0]


def _reference_oracles(gi, composite):
    """The gradient and prox of gi's composite as they were written with
    Python-float operands and stacked products; the oracles of the other
    families are the composite's own."""
    v = gi.values()
    if gi.family == "lasso":
        A, y, mu = v["A"], v["y"], v["mu"]
        return (lambda x: _stacked(A.T, _stacked(A, x) - y),
                lambda x, lam: np.sign(x) * np.maximum(
                    np.abs(x) - mu * lam, 0.0))
    if gi.family == "uniformly-convex":
        c, w = v["center"], v["weight"]
        return lambda x: 2.0 * w * (x - c), lambda x, lam: x
    return composite.smooth.gradient_fn, composite.nonsmooth.prox_fn


def _reference_iterates(grad, prox_fn, x0, lam, steps):
    """The descent loop with a Python-float step size, cut at its first
    zero-norm step as forward_backward cuts its record."""
    x = np.asarray(x0, dtype=float)
    iterates, gx, last = [x], grad(x), x.tobytes()
    for _ in range(steps):
        xn = prox_fn(x - lam * gx, lam)
        if xn.tobytes() == last:
            break
        iterates.append(xn)
        x, gx, last = xn, grad(xn), xn.tobytes()
    X = np.asarray(iterates)
    zero = np.flatnonzero(row_norms(X[1:] - X[:-1]) == 0.0)
    return X[:zero[0] + 1] if zero.size else X


@pytest.mark.parametrize("instance, method", [
    ({"family": "lasso", "n": 2, "m": 3, "seed": 7},
     {"name": "ista", "relative_step": 0.02, "steps": 2000}),
    ({"family": "lasso", "n": 3, "seed": 401},
     {"name": "ista", "relative_step": 0.5, "steps": 2000}),
    ({"family": "uniformly-convex", "n": 3, "seed": 5},
     {"name": "gradient", "relative_step": 0.005, "steps": 5000}),
    ({"family": "tight-quadratic", "dim": 2, "seed": 9}, {"steps": 50}),
    ({"family": "feasibility", "dim": 2, "seed": 3},
     {"name": "barycentric", "steps": 600}),
    ({"family": "feasibility", "dim": 2, "seed": 3, "geometry": "lens"},
     {"name": "alternating", "steps": 600}),
], ids=["tiny-lasso", "lasso-401", "uniformly-convex", "tight-quadratic",
        "barycentric", "alternating"])
def test_forward_backward_iterates_match_the_float_operand_loop(instance,
                                                                method):
    # the loop scales by a 0-d step array and the oracles by arrays, a
    # point takes A @ x directly: every iterate keeps its bits
    config = ExperimentConfig(name="bits", instance=instance, method=method)
    gi = load_instance(config)
    steps = pipeline_settings(gi.family, config)[1]
    bundle = build_pipeline(gi, config)
    comp = bundle.composite
    grad, prox_fn = _reference_oracles(gi, comp)
    run = forward_backward(comp, bundle.start, bundle.step, steps)
    want = _reference_iterates(grad, prox_fn, bundle.start, bundle.step,
                               steps)
    assert run.iterates.shape == want.shape
    assert run.iterates.tobytes() == want.tobytes()


def _gives_back_its_bits(composite, x, lam):
    """Whether the step of size lam from x lands on x's own bits."""
    xn = composite.nonsmooth.prox_fn(
        x - lam * composite.smooth.gradient_fn(x), lam)
    return xn.tobytes() == x.tobytes()


@pytest.mark.parametrize("comp, x0, stop, fixed", [
    # shrinkage lands on (-0, -0); the next step flips the second zero's
    # sign, as lasso seed 404's step 1 does: a zero step off its bits
    (CompositeObjective(
        smooth=least_squares(np.eye(2), np.array([-0.1, 0.1])),
        nonsmooth=scaled_l1(2, 1.0)), np.array([-0.5, -0.5]), 1, False),
    # a step of about 3e-201, whose squared norm underflows to 0
    (CompositeObjective(
        smooth=zero_objective(1), nonsmooth=quadratic_objective([1e-200])),
     np.zeros(1), 0, False),
    # shrinkage lands on (0, 0), and the next step keeps its bits
    (CompositeObjective(
        smooth=least_squares(np.eye(2), np.zeros(2)),
        nonsmooth=scaled_l1(2, 1.0)), np.array([0.3, 0.2]), 1, True),
], ids=["signed-zero-flip", "underflowing-move", "bitwise-fixed-point"])
def test_forward_backward_stops_at_the_first_zero_step(comp, x0, stop, fixed):
    lam = 0.4
    whole = forward_backward(comp, x0, lam, steps=60)
    assert _run_record(whole) == _per_step_record(comp, x0, lam, 60)
    assert whole.converged and whole.num_steps == stop
    assert _gives_back_its_bits(comp, whole.iterates[-1], lam) is fixed
    # budgets that end at, before and after the zero step
    for steps in (1, 2, 3):
        run = forward_backward(comp, x0, lam, steps=steps)
        assert _run_record(run) == _per_step_record(comp, x0, lam, steps)
    # the sweep's calls: chunks of 1, 2, 4, ... steps, each started from
    # the last iterate of the one before, until one stops converged
    x, chunk = x0, 1
    while True:
        run = forward_backward(comp, x, lam, steps=chunk)
        assert _run_record(run) == _per_step_record(comp, x, lam, chunk)
        if run.converged:
            break
        x, chunk = run.iterates[-1], 2 * chunk
    assert run.iterates[-1].tobytes() == whole.iterates[-1].tobytes()


def test_zero_prox_run_holds_one_fresh_array_of_iterates():
    comp = _half_square()
    x0 = np.array([1.0])
    # the identity prox hands back its argument, not a copy
    assert comp.nonsmooth.prox_fn(x0, 0.5) is x0
    run = forward_backward(comp, x0, 0.5, steps=4)
    assert run.iterates.shape == (5, 1)
    assert not np.shares_memory(run.iterates, x0)
    assert run.iterates.flags.writeable and run.iterates.flags.c_contiguous
    x0[0] = 7.0
    assert run.iterates.tolist() == [[1.0], [0.5], [0.25], [0.125], [0.0625]]


def _record_bits(run):
    return (run.iterates.tobytes(), run.raw_values.tobytes(),
            run.step_norms.tobytes(), run.witness_norms.tobytes(),
            run.params, run.converged)


def _quadratic(center, weight):
    """w ||x - c||^2 with the zero nonsmooth part."""
    return CompositeObjective(smooth=quadratic_objective(center, weight),
                              nonsmooth=zero_objective(len(center)))


def _array_loop(comp):
    """comp with its smooth part's gradient data stripped: the same
    function and oracles, which forward_backward runs by its array loop."""
    return CompositeObjective(
        smooth=dataclasses.replace(comp.smooth, gradient_data=None),
        nonsmooth=comp.nonsmooth)


def _matches_the_array_loop(center, weight, x0, d, steps):
    """The run of w ||x - c||^2 from x0 at the constant step d / L, which
    must have the bits of the array loop's run and of its stored record's
    replay."""
    comp = _quadratic(center, weight)
    lam = step_over_lipschitz(d, comp.lipschitz)
    run = forward_backward(comp, x0, lam, steps)
    array = forward_backward(_array_loop(comp), x0, lam, steps)
    assert _record_bits(run) == _record_bits(array)
    back = _stored(run, comp, x0, lam, steps)
    assert _record_bits(back) == _record_bits(run)
    return run


# zeros of both signs and subnormals among them
COORDINATES = st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def quadratic_runs(draw):
    n = draw(st.integers(1, 8))
    center = draw(st.lists(COORDINATES, min_size=n, max_size=n))
    # some coordinates start at their center
    x0 = [draw(st.one_of(COORDINATES, st.just(c))) for c in center]
    return (center, draw(st.floats(1e-3, 1e3)), x0,
            draw(st.floats(1e-6, 1.999)), draw(st.integers(1, 600)))


@given(quadratic_runs())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_per_coordinate_path_has_the_array_loops_bits(case):
    _matches_the_array_loop(*case)


def _last_moves(X):
    """Per column, the last step that changes its bits."""
    moved = X[1:].view(np.uint64) != X[:-1].view(np.uint64)
    return [int(np.flatnonzero(column)[-1]) if column.any() else -1
            for column in moved.T]


def test_per_coordinate_path_hand_cases():
    # the first and third coordinates start at their centers and never move
    run = _matches_the_array_loop([1.0, -2.0, 0.5], 0.7, [1.0, 7.0, 0.5],
                                  0.3, 400)
    assert run.num_steps > 0 and _last_moves(run.iterates)[::2] == [-1, -1]
    # -0.0 against a +0.0 center: the first step gives +0.0, a zero step
    # off its bits, and alone it ends the run there with no step
    run = _matches_the_array_loop([0.0], 0.5, [-0.0], 0.5, 50)
    assert run.converged and run.num_steps == 0
    assert math.copysign(1.0, run.iterates[0, 0]) == -1.0
    run = _matches_the_array_loop([0.0, 1.0], 0.5, [-0.0, 3.0], 0.5, 50)
    assert math.copysign(1.0, run.iterates[1, 0]) == 1.0
    assert _last_moves(run.iterates)[0] == 0 and run.num_steps > 1
    # coordinates that settle at different steps, and an early stop: the
    # run is as long as its slowest coordinate
    run = _matches_the_array_loop([1.0, 1.0], 0.5, [1.5, 1e3], 0.5, 600)
    first, last = _last_moves(run.iterates)
    assert run.converged and first < last == run.num_steps - 1 < 599
    # a budget of 1
    run = _matches_the_array_loop([0.3, -1.7], 2.0, [5.0, 4.0], 1.2, 1)
    assert run.num_steps == 1 and not run.converged


def test_per_coordinate_path_keeps_the_array_loops_bits_past_overflow():
    # 1e308 - (-1e308) overflows: the coordinate goes to -inf, then to the
    # NaN of -inf - (-inf), which every later step gives back, so the
    # loop stops there; the other coordinate starts at its center
    comp = _quadratic([-1e308, 2.0], 0.5)
    x0, lam, steps = np.array([1e308, 2.0]), 0.5, 10
    X = klcert.descent._scalar_iterates(
        x0, comp.smooth.gradient_data, lam, steps)
    with np.errstate(over="ignore", invalid="ignore"):
        want = klcert.descent._array_iterates(comp, x0, np.array(lam), steps)
    assert X.shape == (3, 2) and X.tobytes() == want.tobytes()
    assert X[1, 0] == -math.inf and np.isnan(X[2, 0])
    # the run is refused at its first non-finite iterate, on either path
    messages = set()
    for c in (comp, _array_loop(comp)):
        with pytest.raises(ValueError) as raised, np.errstate(
                over="ignore", invalid="ignore"):
            forward_backward(c, x0, lam, steps)
        messages.add(str(raised.value))
    assert messages == {
        "descent diverged: the iterate of step 1 has non-finite entries"}


def test_only_a_quadratic_under_a_constant_step_leaves_the_array_loop(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("the array loop ran")

    monkeypatch.setattr(klcert.descent, "_array_iterates", refuse)
    quad = _quadratic([0.5, -1.0], 0.7)
    x0 = np.array([2.0, 3.0])
    assert forward_backward(quad, x0, 0.5, 100).num_steps > 0
    # a stripped gradient, a prox that is not the identity's and a
    # least-squares gradient all take the array loop
    shrunk = CompositeObjective(smooth=quad.smooth,
                                nonsmooth=scaled_l1(2, 0.1))
    lasso = CompositeObjective(smooth=least_squares(np.eye(2), x0),
                               nonsmooth=zero_objective(2))
    for comp in (_array_loop(quad), shrunk, lasso):
        with pytest.raises(AssertionError, match="the array loop ran"):
            forward_backward(comp, x0, 0.5, 100)


def test_forward_backward_values_monotone(rng):
    A = rng.normal(size=(5, 4))
    comp = CompositeObjective(smooth=least_squares(A, rng.normal(size=5)),
                              nonsmooth=scaled_l1(4, 0.5))
    lam = step_over_lipschitz(0.9, comp.lipschitz)
    run = forward_backward(comp, rng.normal(size=4), lam, steps=100)
    assert np.all(np.diff(run.raw_values) <= 1e-12)


def test_forward_backward_rejects_zero_steps():
    with pytest.raises(ValueError):
        forward_backward(_half_square(), [1.0], 1.0, steps=0)


def test_gaps_need_min_value():
    run = forward_backward(_half_square(), [1.0], 1.0, steps=2)
    with pytest.raises(ValueError):
        run.gaps


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _assert_same_run(back, run):
    for name in ("iterates", "raw_values", "step_norms", "witness_norms"):
        np.testing.assert_array_equal(getattr(back, name), getattr(run, name))
    assert (back.params, back.min_value, back.converged) == (
        run.params, run.min_value, run.converged)


def test_metadata_round_trip_is_exact(rng, tmp_path):
    # iterates.bin stores the iterates and run.json their dimension; the
    # rest is recomputed from them and the problem, to the bit
    A = rng.normal(size=(3, 2))
    comp = CompositeObjective(smooth=least_squares(A, rng.normal(size=3)),
                              nonsmooth=scaled_l1(2, 0.7))
    x0 = rng.normal(size=2)
    lam = step_over_lipschitz(0.5, comp.lipschitz)
    run = forward_backward(comp, x0, lam, steps=25, min_value=0.0)
    path = tmp_path / "iterates.bin"
    run.write(tmp_path / "run.json", path)
    doc = json.loads((tmp_path / "run.json").read_text())
    assert sorted(doc) == sorted(RUN_FIELDS)
    assert doc == run.to_metadata_dict() == {"schema_version": 4,
                                             "dimension": 2}
    assert path.stat().st_size == 8 * run.iterates.size
    back = DescentRun.from_metadata_dict(doc, path, comp, x0, lam, 25,
                                         min_value=0.0)
    _assert_same_run(back, run)


def _int64_view(X):
    return np.asarray(X, dtype=float).view(np.int64)


def test_metadata_round_trip_keeps_negative_zero_and_subnormals():
    # the start holds a subnormal, and shrinkage sends it to -0.0: both
    # come back with their bits, and the replay matches them bit for bit
    comp = CompositeObjective(smooth=least_squares(np.eye(2), np.zeros(2)),
                              nonsmooth=scaled_l1(2, 0.1))
    x0, lam = np.array([0.5, -1e-310]), 0.5
    run = forward_backward(comp, x0, lam, steps=40)
    X = run.iterates
    assert np.any((X == 0.0) & np.signbit(X))
    assert np.any((X != 0.0) & (np.abs(X) < np.finfo(float).tiny))
    back = _stored(run, comp, x0, lam, 40)
    np.testing.assert_array_equal(_int64_view(back.iterates), _int64_view(X))
    _assert_same_run(back, run)


def test_metadata_iterates_are_little_endian_float64(tmp_path):
    # pinned bytes: 1.0, -0.0, the least subnormal and -2.5, row by row,
    # each as 8 little-endian bytes, whatever the host's byte order
    X = np.array([[1.0, -0.0], [5e-324, -2.5]])
    run = DescentRun(params=certificate_params(1.0, 1.0),
                     iterates=X, raw_values=np.zeros(2),
                     step_norms=np.zeros(1), witness_norms=np.zeros(1))
    run.write(tmp_path / "run.json", tmp_path / "iterates.bin")
    assert (tmp_path / "iterates.bin").read_bytes() == bytes.fromhex(
        "000000000000f03f" "0000000000000080"
        "0100000000000000" "00000000000004c0")
    # README's one-line read
    d = tmp_path
    back = np.fromfile(f"{d}/iterates.bin", "<f8").reshape(
        -1, json.load(open(f"{d}/run.json"))["dimension"])
    np.testing.assert_array_equal(_int64_view(back), _int64_view(X))


@pytest.mark.parametrize("dimension, steps", [(3, 5000), (1, 1), (1, 3)])
def test_stored_iterates_come_back_writable_with_their_bits(dimension, steps,
                                                            tmp_path):
    # each comes back as a writable, C-contiguous float64 matrix holding
    # the stored bits
    comp = CompositeObjective(
        smooth=quadratic_objective(np.ones(dimension), weight=0.5),
        nonsmooth=zero_objective(dimension))
    x0, lam = np.linspace(-2.0, 3.0, dimension), 1e-3
    run = forward_backward(comp, x0, lam, steps=steps)
    path = tmp_path / "iterates.bin"
    run.write(tmp_path / "run.json", path)
    back = DescentRun.from_metadata_dict(run.to_metadata_dict(), path, comp,
                                         x0, lam, steps)
    X = back.iterates
    assert X.shape == (steps + 1, dimension) and X.dtype == np.float64
    assert X.flags.writeable and X.flags.c_contiguous
    np.testing.assert_array_equal(_int64_view(X), _int64_view(run.iterates))
    X[0, 0] = 7.0
    assert back.iterates[0, 0] == 7.0


def test_infinite_start_value_survives_round_trip():
    # alternating projections started outside C_1 have f(x_0) = +inf; the
    # stored start is outside the domain, and the recomputed value is +inf
    c1, c2 = Ball(np.array([-0.5, 0.0]), 1.5), Ball(np.array([0.5, 0.0]), 1.5)
    comp = CompositeObjective(smooth=half_squared_distance(c2, 2),
                              nonsmooth=indicator(c1, 2))
    x0, lam = np.array([3.0, 0.0]), 1.0
    run = forward_backward(comp, x0, lam, steps=10)
    assert math.isinf(run.raw_values[0])
    back = _stored(run, comp, x0, lam, 10)
    _assert_same_run(back, run)


# ---------------------------------------------------------------------------
# the shipped methods, as run_experiment runs them
# ---------------------------------------------------------------------------


def _pipeline_run(gi, method, steps):
    """The family's problem from build_pipeline, run by the one
    forward_backward call of run_experiment, without the sampling checks."""
    config = ExperimentConfig(instance={"family": gi.family},
                              method={"name": method})
    bundle = build_pipeline(gi, config)
    run = forward_backward(bundle.composite, bundle.start, bundle.step,
                           steps, min_value=bundle.min_value)
    bundle.guard(run)
    return bundle, run


def test_ista_iterates_stay_in_the_l1_ball():
    bundle, run = _pipeline_run(generate_instance("lasso", seed=7, n=2, m=3),
                                "ista", 200)
    R = bundle.certificate.region.radius
    assert np.max(np.abs(run.iterates).sum(axis=-1)) <= R + 1e-9


def test_ista_reaches_high_accuracy():
    bundle, run = _pipeline_run(generate_instance("lasso", seed=7, n=2, m=3),
                                "ista", 3000)
    # the instance's reference minimum, not the run's own best value
    assert run.gaps[-1] <= 1e-8 * (1 + abs(bundle.min_value))


XBAR = np.zeros(2)


def _two_ball_instance(x0):
    balls = [{"kind": "ball", "center": [c, 0.0], "radius": 1.5}
             for c in (-0.5, 0.5)]
    return GeneratedInstance(family="feasibility", seed=0, payload={
        "sets": balls, "xbar": XBAR.tolist(), "R": 1.0,
        "weights": [0.5, 0.5], "x0": list(x0)})


def test_barycentric_projection_decreases_and_stays_fejer():
    _, run = _pipeline_run(_two_ball_instance([1.4, 0.8]), "barycentric", 400)
    assert (run.params.a, run.params.b) == (0.5, 2.0)
    assert np.all(np.diff(run.raw_values) <= 1e-15)
    # Fejer monotonicity keeps the run in B(xbar, ||x0 - xbar||)
    assert np.all(np.diff(row_norms(run.iterates - XBAR)) <= 1e-12)
    assert run.h1_violation() <= 1e-12
    assert run.h2_violation() <= 1e-12


def test_alternating_projection_projects_start_and_converges():
    x0 = np.array([3.0, 0.0])
    bundle, run = _pipeline_run(_two_ball_instance(x0), "alternating", 200)
    c1, c2 = bundle.solution_set.sets
    assert not c1.contains(x0, tol=1e-12)
    np.testing.assert_array_equal(run.iterates[0], c1.project(x0))
    assert np.all(c1.contains(run.iterates, tol=1e-12))
    assert (run.params.a, run.params.b) == (0.5, 2.0)
    # after the start projection every iterate sits in C1 with finite value
    assert np.all(np.isfinite(run.raw_values))
    assert np.all(np.diff(row_norms(run.iterates - XBAR)) <= 1e-12)
    assert float(c2.distance(run.iterates[-1])) <= 1e-8
    assert run.h1_violation() <= 1e-12
    assert run.h2_violation() <= 1e-12


def test_alternating_projection_two_sets_only(tmp_path, capsys):
    generate_instance("feasibility", seed=0, dim=2, num_sets=3).to_json(
        tmp_path / "instance.json")
    (tmp_path / "config.json").write_text(json.dumps({
        "instance": {"path": str(tmp_path / "instance.json")},
        "method": {"name": "alternating", "steps": 5}}))
    assert main(["run", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "two sets" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exact_stationarity_stops_the_run():
    run = forward_backward(_half_square(), [0.0], 1.0, steps=7)
    assert run.converged
    assert run.num_steps == 0
    assert math.isfinite(run.raw_values[0])
