"""Instance generators: determinism, stored reference minima, geometry."""

import json
import logging
import math

import numpy as np
import pytest

from klcert import problems
from klcert.cli import main
from klcert.convex import (
    Ball,
    NotConvergedError,
    evaluate,
    min_norm_subgradient,
    soft_threshold,
)
from klcert.error_bounds import FeasibilityInstance, LassoInstance
from klcert.experiments import ExperimentConfig, run_experiment
from klcert.problems import (
    FAMILIES,
    PAYLOADS,
    POLISH_CAP,
    SET_RECORDS,
    GeneratedInstance,
    generate_instance,
    generate_linear_system_pair,
    lasso_polish,
    tight_quadratic_instance,
)


def _lasso(gen):
    """The instance, minimum value and minimizer a lasso payload holds."""
    v = gen.values()
    return (LassoInstance(v["A"], v["y"], v["mu"], v["x0"]), v["min_value"],
            v["minimizer"])


def _feasibility(gen):
    """The instance and start a feasibility payload holds."""
    v = gen.values()
    return (FeasibilityInstance(v["sets"], v["xbar"], v["R"], v["weights"]),
            v["x0"])


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


@pytest.mark.parametrize("family,dims", [
    ("lasso", {}), ("feasibility", {}), ("feasibility", {"geometry": "lens"}),
    ("uniformly-convex", {}), ("tight-quadratic", {})])
def test_generators_write_exactly_their_payload_keys(family, dims):
    gen = generate_instance(family, seed=3, **dims)
    assert set(gen.payload) == set(PAYLOADS[family])
    for record in gen.payload.get("sets", ()):
        assert set(record) == {"kind", *SET_RECORDS[record["kind"]][1]}
    assert set(gen.values()) == set(PAYLOADS[family])


def test_unknown_family_is_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        generate_instance("typo", seed=0)
    with pytest.raises(ValueError, match="unsupported instance schema"):
        GeneratedInstance.from_dict({"schema_version": 1, "family": "lasso",
                                     "seed": 0, "payload": {}})


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
    inst, min_value, minimizer = _lasso(gen)
    # a small instance, which the solver below settles within its sweeps
    assert inst.dimension <= 3
    # the stored pair is consistent
    assert inst.composite.value(minimizer) == pytest.approx(min_value,
                                                            abs=1e-12)
    # first-order optimality at the stored minimizer
    g = min_norm_subgradient(inst.composite.objective(), minimizer)
    assert float(np.linalg.norm(g)) <= 1e-7
    # independent solver cannot find anything lower
    for start in (inst.x0, np.zeros(inst.dimension)):
        x_cd = _coordinate_descent(inst.A, inst.y, inst.mu, start)
        v_cd = inst.composite.value(x_cd)
        assert v_cd >= min_value - 1e-9
        assert v_cd <= min_value + 1e-7


def test_lasso_generator_shapes_and_conditioning():
    gen = generate_instance("lasso", seed=1, n=3, m=5)
    inst, _, _ = _lasso(gen)
    assert inst.A.shape == (5, 3)
    assert np.linalg.norm(inst.A, 2) <= 1.0 + 1e-12
    assert inst.mu > 0
    with pytest.raises(ValueError):
        generate_instance("lasso", seed=0, n=3, m=2)


# ---------------------------------------------------------------------------
# the cycle-jumping polish against the full loop, and a dual certificate
# ---------------------------------------------------------------------------


def _full_polish(A, y, mu, cap=POLISH_CAP):
    # every update from the origin up to the cap: the loop the cycle jump
    # must match
    L = float(np.linalg.norm(A, 2)) ** 2
    lam = 1.0 / L
    AtA = A.T @ A
    Aty = A.T @ y
    x = np.zeros(A.shape[1])
    for _ in range(cap):
        xn = soft_threshold(x - lam * (AtA @ x - Aty), lam * mu)
        if np.array_equal(xn, x):
            break
        if np.max(np.abs(xn - x)) < 1e-17 * max(1.0, float(np.max(np.abs(x)))):
            x = xn
            break
        x = xn
    return x


def _assert_certified(A, y, mu, x, value):
    # the duality gap value - D(theta) for the residual scaled into the dual
    # feasible set {||A^T theta||_inf <= mu} (Fercoq, Gramfort and Salmon,
    # ICML 2015), D(theta) = -||theta||^2 / 2 - theta^T y; weak duality puts
    # the true minimum between D(theta) and value
    r = A @ x - y
    top = float(np.max(np.abs(A.T @ r)))
    theta = r * (mu / top if top > mu else 1.0)
    gap = value - (-0.5 * float(theta @ theta) - float(theta @ y))
    assert abs(gap) <= 1e-14 * (1.0 + abs(value)), gap


def _rank_deficient(equal):
    # two equal columns: the minimizer is not unique, but the gap still
    # closes at the polish's fixed point
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 3))
    A[:, equal[1]] = A[:, equal[0]]
    A /= float(np.linalg.norm(A, 2))
    y = rng.standard_normal(4)
    return A, y / float(np.linalg.norm(y)), 0.7


REFERENCE_CASES = (
    [pytest.param({"n": 2 + i % 2, "seed": 400 + i}, id=f"seed{400 + i}")
     for i in range(20)]
    + [pytest.param({"n": 2, "m": 3, "seed": 7}, id="tiny-lasso")]
    + [pytest.param({"n": 1, "seed": seed}, id=f"n1-seed{seed}")
       for seed in (0, 1, 2)]
    + [pytest.param((1, 2), id="equal-columns-1-2"),
       pytest.param((0, 1), id="equal-columns-0-1")]
)


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_reference_minimum_matches_brute_force_bits(case):
    # the brute force is the polish's full loop, which the cycle jump must
    # match bit for bit; the duality gap certifies the minimum it reaches
    if isinstance(case, tuple):
        A, y, mu = _rank_deficient(case)
        x, _ = lasso_polish(A, y, mu)
        value = LassoInstance(A, y, mu, np.zeros(3)).composite.value(x)
    else:
        inst, value, x = _lasso(generate_instance("lasso", **case))
        A, y, mu = inst.A, inst.y, inst.mu
    assert x.tobytes() == _full_polish(A, y, mu).tobytes()
    _assert_certified(A, y, mu, x, value)


def test_generate_takes_a_small_mu_and_a_large_n(tmp_path):
    # no grid, so no box that grows as 1 / mu and no limit on n
    for n, mu in ((3, ["--mu", "0.01"]), (8, [])):
        out = tmp_path / f"n{n}.json"
        assert main(["generate", "--family", "lasso", "--n", str(n), *mu,
                     "--out", str(out)]) == 0
        inst, value, x = _lasso(GeneratedInstance.from_json(out))
        assert inst.dimension == n
        _assert_certified(inst.A, inst.y, inst.mu, x, value)


def test_polish_cycle_jump_lands_on_the_cap_state(monkeypatch):
    # from the origin, seed 402 cycles with period 2 from about update 16
    # on: below the first cap at which the cycle is found the polish must
    # raise, and at every cap from there on it must return the full loop's
    # final state
    inst, _, _ = _lasso(generate_instance("lasso", seed=402, n=2))
    A, y, mu = inst.A, inst.y, inst.mu
    raised = []
    for cap in list(range(1, 40)) + [1000, 1001]:
        monkeypatch.setattr(problems, "POLISH_CAP", cap)
        try:
            xstar, period = lasso_polish(A, y, mu)
        except NotConvergedError:
            raised.append(cap)
            continue
        assert period == 2
        assert xstar.tobytes() == _full_polish(A, y, mu, cap).tobytes()
    assert raised == list(range(1, len(raised) + 1))
    assert 13 <= len(raised) < 30


def test_polish_raises_when_the_cap_ends_it_unconverged(monkeypatch):
    inst, _, _ = _lasso(generate_instance("lasso", seed=400, n=2))
    monkeypatch.setattr(problems, "POLISH_CAP", 3)
    with pytest.raises(NotConvergedError, match="3 updates"):
        lasso_polish(inst.A, inst.y, inst.mu)


def test_polish_cycle_is_reported(caplog):
    with caplog.at_level(logging.WARNING, logger="klcert"):
        generate_instance("lasso", seed=402, n=2)
    (record,) = caplog.records
    assert record.name == "klcert" and record.levelno == logging.WARNING
    message = record.getMessage()
    assert "seed 402" in message and "period 2" in message
    assert f"{POLISH_CAP}-update cap" in message
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="klcert"):
        generate_instance("lasso", seed=400, n=2)
    assert not caplog.records


# ---------------------------------------------------------------------------
# feasibility geometry
# ---------------------------------------------------------------------------


def test_generic_feasibility_has_inner_ball_and_positive_gap():
    for seed in range(12):
        gen = generate_instance("feasibility", seed=seed, dim=2)
        inst, x0 = _feasibility(gen)
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
    inst, x0 = _feasibility(gen)
    assert len(inst.sets) == 2
    assert all(isinstance(s, Ball) for s in inst.sets)
    assert inst.check_inner_ball()
    # the start sits outside both balls, beside the lens rim
    for s in inst.sets:
        assert float(s.distance(x0)) > 1e-9
    config = ExperimentConfig(
        instance={"family": "feasibility", "seed": 3, "dim": 2,
                  "geometry": "lens"},
        method={"name": "alternating", "steps": 600}, checks={"samples": 10})
    run = run_experiment(config).run
    assert float(inst.sets[1].distance(run.iterates[-1])) <= 1e-9
    assert run.num_steps > 20  # the wedge forces a long zigzag


def test_lens_geometry_unknown_name_rejected():
    with pytest.raises(ValueError, match="geometry"):
        generate_instance("feasibility", seed=0, dim=2, geometry="typo")


# ---------------------------------------------------------------------------
# tight quadratic and uniformly convex instances
# ---------------------------------------------------------------------------


def test_tight_quadratic_growth_is_exactly_one():
    v = tight_quadratic_instance(dim=2, seed=9).values()
    ball, x0 = Ball(v["center"], v["radius"]), v["x0"]
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
    assert p["weight"] > 0
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
