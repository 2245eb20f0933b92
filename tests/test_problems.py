"""Instance generators: determinism, stored reference minima, geometry."""

import json
import math

import numpy as np
import pytest

from klcert.convex import Ball, evaluate, min_norm_subgradient, soft_threshold
from klcert.descent import alternating_projection
from klcert.problems import (
    FAMILIES,
    GeneratedInstance,
    feasibility_from_payload,
    generate_instance,
    generate_linear_system_pair,
    lasso_from_payload,
    tight_quadratic_instance,
)


# ---------------------------------------------------------------------------
# determinism and serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_generation_is_deterministic(family):
    a = generate_instance(family, seed=3)
    b = generate_instance(family, seed=3)
    assert json.dumps(a.to_dict(), sort_keys=True) == \
        json.dumps(b.to_dict(), sort_keys=True)
    c = generate_instance(family, seed=4)
    assert json.dumps(a.to_dict()) != json.dumps(c.to_dict())


@pytest.mark.parametrize("family", FAMILIES)
def test_instance_json_round_trip(family, tmp_path):
    inst = generate_instance(family, seed=7)
    path = tmp_path / "inst.json"
    inst.to_json(path)
    back = GeneratedInstance.from_json(path)
    assert back.family == family and back.seed == 7
    assert back.payload == inst.payload


def test_unknown_family_is_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        generate_instance("typo", seed=0)
    with pytest.raises(ValueError, match="unsupported instance schema"):
        GeneratedInstance.from_dict({"schema_version": 2, "family": "lasso",
                                     "payload": {}})


# ---------------------------------------------------------------------------
# stored lasso minima against an independent solver
# ---------------------------------------------------------------------------


def _coordinate_descent(A, y, mu, x, sweeps=4000):
    # exact single-coordinate minimization, written here so the check does
    # not share code with the generator's own reference solver
    A = np.asarray(A, dtype=float)
    cols = np.sum(A * A, axis=0)
    x = np.array(x, dtype=float)
    r = A @ x - y
    for _ in range(sweeps):
        for i in range(len(x)):
            if cols[i] == 0.0:
                continue
            old = x[i]
            rho = old - float(A[:, i] @ r) / cols[i]
            new = float(soft_threshold(np.array([rho]), mu / cols[i])[0])
            if new != old:
                r += (new - old) * A[:, i]
                x[i] = new
    return x


@pytest.mark.parametrize("seed", range(5))
def test_lasso_stored_minimum_matches_coordinate_descent(seed):
    gen = generate_instance("lasso", seed=seed, n=2, m=3)
    inst, min_value, minimizer = lasso_from_payload(gen.payload)
    assert gen.payload["grid_certified"]
    # the stored pair is consistent
    assert inst.value(minimizer) == pytest.approx(min_value, abs=1e-12)
    # first-order optimality at the stored minimizer
    g = min_norm_subgradient(inst.objective(), minimizer)
    assert float(np.linalg.norm(g)) <= 1e-7
    # independent solver cannot find anything lower
    for start in (inst.x0, np.zeros(inst.dimension)):
        x_cd = _coordinate_descent(inst.A, inst.y, inst.mu, start)
        v_cd = inst.value(x_cd)
        assert v_cd >= min_value - 1e-9
        assert v_cd <= min_value + 1e-7


def test_lasso_generator_shapes_and_conditioning():
    gen = generate_instance("lasso", seed=1, n=3, m=5)
    inst, _, _ = lasso_from_payload(gen.payload)
    assert inst.A.shape == (5, 3)
    assert np.linalg.norm(inst.A, 2) <= 1.0 + 1e-12
    assert inst.mu > 0
    with pytest.raises(ValueError):
        generate_instance("lasso", seed=0, n=3, m=2)


# ---------------------------------------------------------------------------
# feasibility geometry
# ---------------------------------------------------------------------------


def test_generic_feasibility_has_inner_ball_and_positive_gap():
    for seed in range(12):
        gen = generate_instance("feasibility", seed=seed, dim=2)
        inst, x0 = feasibility_from_payload(gen.payload)
        assert inst.check_inner_ball(), seed
        gap = evaluate(inst.objective(), x0)
        assert gap > 1e-12, seed


def test_feasibility_generation_survives_many_seeds():
    # regression guard: some draws produce swallowing geometry on the first
    # try and must fall back to a redraw instead of erroring out
    for seed in range(60):
        generate_instance("feasibility", seed=seed, dim=2)


def test_lens_geometry_produces_slow_alternating_runs():
    gen = generate_instance("feasibility", seed=3, dim=2, geometry="lens")
    inst, x0 = feasibility_from_payload(gen.payload)
    assert len(inst.sets) == 2
    assert all(isinstance(s, Ball) for s in inst.sets)
    assert inst.check_inner_ball()
    # the start sits outside both balls, beside the lens rim
    for s in inst.sets:
        assert float(s.distance(x0)) > 1e-9
    run = alternating_projection(inst, x0, steps=600)
    assert run.metadata["dist_to_c2"][-1] <= 1e-9
    assert run.num_steps > 20  # the wedge forces a long zigzag


def test_lens_geometry_unknown_name_rejected():
    with pytest.raises(ValueError, match="geometry"):
        generate_instance("feasibility", seed=0, dim=2, geometry="typo")


# ---------------------------------------------------------------------------
# tight quadratic and uniformly convex instances
# ---------------------------------------------------------------------------


def test_tight_quadratic_growth_is_exactly_one():
    gen = tight_quadratic_instance(dim=2, seed=9)
    assert gen.payload["growth_constant"] == 1.0
    inst, x0 = feasibility_from_payload(gen.payload)
    ball = inst.sets[0]
    # two copies of one ball
    np.testing.assert_array_equal(inst.sets[1].center, ball.center)
    assert inst.sets[1].radius == ball.radius
    assert float(ball.distance(x0)) > 0
    # f = 0.5 dist^2 makes sqrt(2 f) = dist with zero slack everywhere
    rng = np.random.default_rng(1)
    from klcert.convex import half_squared_distance

    obj = half_squared_distance(ball, 2)
    for _ in range(100):
        x = ball.center + rng.normal(size=2) * 2.0
        gap = evaluate(obj, x)
        assert math.sqrt(2.0 * gap) == pytest.approx(
            float(ball.distance(x)), abs=1e-12)


def test_uniformly_convex_instance_payload():
    gen = generate_instance("uniformly-convex", seed=5, n=3)
    p = gen.payload
    assert p["weight"] > 0 and p["min_value"] == 0.0
    assert len(p["center"]) == 3 and len(p["x0"]) == 3
    assert np.linalg.norm(np.array(p["x0"]) - np.array(p["center"])) > 0.1


# ---------------------------------------------------------------------------
# random polyhedral pairs
# ---------------------------------------------------------------------------


def test_linear_system_pair_generator():
    sys = generate_linear_system_pair(dim=3, num_ineq=3, num_eq=1, seed=2)
    assert sys.dimension == 3
    assert sys.stacked().shape == (4, 3)
    # witness validity is enforced by the constructor; regenerate degenerately
    with pytest.raises(ValueError):
        generate_linear_system_pair(dim=2, num_ineq=1, num_eq=3, seed=0)
