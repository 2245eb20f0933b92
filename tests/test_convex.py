"""Geometry and oracle layer: sets, projections, prox, objective builders."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klcert.convex import (
    AffineSet,
    Ball,
    CompositeObjective,
    ConvexObjective,
    Halfspace,
    IntersectionSet,
    NotConvergedError,
    UnsupportedOracleError,
    _matvec,
    _same_row_bits,
    as_point,
    batch_norms,
    dykstra_projection,
    evaluate,
    feasibility_objective,
    half_squared_distance,
    indicator,
    lasso_composite,
    least_squares,
    min_norm_subgradient,
    minus_point,
    prox,
    quadratic_objective,
    row_sums,
    scaled_l1,
    soft_threshold,
    subgradient_norm,
    value_gap,
    zero_objective,
)
from klcert.desingularization import PowerDesingularizer, globalize, kl_gap

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# values in (-inf, +inf] and point validation
# ---------------------------------------------------------------------------


def test_value_gap_is_inf_outside_domain():
    # +inf is a plain float: subtracting min f keeps it +inf, never NaN
    ball = indicator(Ball(np.zeros(2), 1.0), dimension=2)
    obj = ConvexObjective(dimension=2, value_fn=ball.value_fn, min_value=5.0)
    assert value_gap(obj, np.array([3.0, 0.0])) == math.inf
    inside = value_gap(obj, np.array([0.5, 0.0]))
    assert isinstance(inside, float) and inside == -5.0
    gaps = value_gap(obj, np.array([[0.5, 0.0], [3.0, 0.0]]))
    np.testing.assert_array_equal(gaps, [-5.0, math.inf])


def _alternating(c1, c2, dimension: int) -> ConvexObjective:
    """indicator(C1) + 0.5 dist^2(., C2), the alternating-projections sum."""
    return CompositeObjective(smooth=half_squared_distance(c2, dimension),
                              nonsmooth=indicator(c1, dimension)).objective()


def test_value_gap_orders_infinity_above_finite_values():
    obj = _alternating(Ball(np.zeros(2), 1.0),
                       Halfspace(np.array([1.0, 0.0]), 0.0), 2)
    pts = np.array([[0.5, 0.0], [2.0, 0.0], [0.9, 0.0], [0.0, 0.0]])
    gaps = value_gap(obj, pts)
    assert not np.any(np.isnan(gaps))
    assert list(np.argsort(gaps)) == [3, 0, 2, 1]
    assert np.min(gaps) == 0.0 and np.max(gaps) == math.inf


def test_evaluate_rejects_nan_and_minus_inf_values():
    for bad in (math.nan, -math.inf):
        obj = ConvexObjective(
            dimension=1, value_fn=lambda x, b=bad: np.full(x.shape[:-1], b))
        with pytest.raises(ValueError):
            evaluate(obj, np.zeros(1))
    with pytest.raises(ValueError):
        evaluate(quadratic_objective([0.0]), np.array([math.inf]))


def test_as_point_validation():
    x = as_point([1.0, 2.0])
    assert x.shape == (2,) and x.dtype == float
    with pytest.raises(ValueError):
        as_point(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_point([1.0, math.nan])
    with pytest.raises(ValueError):
        as_point([1.0, 2.0], dimension=3)


# ---------------------------------------------------------------------------
# sets and projections
# ---------------------------------------------------------------------------


def _sample_sets():
    return [
        Ball(center=np.array([0.5, -1.0]), radius=2.0),
        Halfspace(normal=np.array([1.0, 2.0]), offset=0.5),
        AffineSet(matrix=np.array([[1.0, 1.0]]), rhs=np.array([1.0])),
        Ball(center=np.array([0.3, 0.7]), radius=0.0),
    ]


@given(st.lists(finite_floats, min_size=2, max_size=2),
       st.lists(finite_floats, min_size=2, max_size=2))
@settings(max_examples=200)
def test_projection_idempotent_and_nonexpansive(xs, ys):
    x = np.asarray(xs)
    y = np.asarray(ys)
    for s in _sample_sets():
        px, py = s.project(x), s.project(y)
        assert s.contains(px, tol=1e-7)
        assert np.linalg.norm(s.project(px) - px) <= 1e-9 * (1 + np.linalg.norm(px))
        # firm nonexpansiveness implies plain nonexpansiveness
        assert (np.linalg.norm(px - py)
                <= np.linalg.norm(x - y) + 1e-9 * (1 + np.linalg.norm(x - y)))


def test_projection_is_nearest_point_of_set():
    # dist(x, C) <= ||x - z|| for random z in C, with equality only at P(x)
    rng = np.random.default_rng(3)
    for s in _sample_sets():
        for _ in range(50):
            x = rng.normal(size=2) * 3.0
            px = s.project(x)
            z = s.project(rng.normal(size=2) * 3.0)
            assert np.linalg.norm(x - px) <= np.linalg.norm(x - z) + 1e-9


_BALL = Ball(np.array([0.2, -0.1, 0.4]), 1.1)
_HALF = Halfspace(np.array([1.0, -2.0, 0.5]), 0.3)


def _set_zoo() -> dict:
    rng = np.random.default_rng(19)
    return {
        "ball": _BALL,
        "halfspace": _HALF,
        "singleton": Ball(np.array([0.3, 0.7, -0.2]), 0.0),
        "affine": AffineSet(rng.normal(size=(2, 3)), rng.normal(size=2)),
        "intersection": IntersectionSet((_BALL, _HALF)),
    }


@pytest.mark.parametrize("kind", sorted(_set_zoo()))
def test_set_batches_keep_point_bits(kind):
    s = _set_zoo()[kind]
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(80, 3)) * 2.0
    pts[::9] = s.project(pts[::9])
    for method in (s.project, s.distance):
        full = method(pts)
        one = [method(x) for x in pts]
        for i in range(len(pts)):
            # a point and a one-row batch take the same path
            assert _same_bits(method(pts[i:i + 1]), np.asarray(one[i])[None])
        perm = rng.permutation(len(pts))
        assert _same_bits(method(pts[perm]), full[perm])
        if kind == "intersection":
            # Dykstra runs a batch until its slowest row meets the stopping
            # test, so a row's last bits depend on the rows beside it
            continue
        for i in range(len(pts)):
            assert _same_bits(full[i], one[i]), (kind, i)
        for size in (1, 2, 17, 64):
            rows = rng.choice(len(pts), size=size, replace=False)
            assert _same_bits(method(pts[rows]), full[rows]), (kind, size)


def test_boundary_normal_is_unit():
    ball = Ball(center=np.zeros(2), radius=2.0)
    n = ball.boundary_normal(np.array([2.0, 0.0]))
    np.testing.assert_allclose(n, [1.0, 0.0], atol=1e-14)
    half = Halfspace(normal=np.array([0.0, 3.0]), offset=0.0)
    n = half.boundary_normal(np.array([5.0, 0.0]))
    np.testing.assert_allclose(n, [0.0, 1.0], atol=1e-14)


def test_dykstra_orthant_is_componentwise_clamp():
    sets = [Halfspace(np.array([1.0, 0.0]), 0.0),
            Halfspace(np.array([0.0, 1.0]), 0.0)]
    p = dykstra_projection(sets, np.array([1.5, 2.5]))
    np.testing.assert_allclose(p, [0.0, 0.0], atol=1e-10)
    p = dykstra_projection(sets, np.array([-1.0, 3.0]))
    np.testing.assert_allclose(p, [-1.0, 0.0], atol=1e-10)


def test_dykstra_finds_nearest_point_of_wedge():
    # K = {x <= y} cap {y <= 0}; from (1, 1) the nearest point is the vertex
    # (0, 0): KKT there needs (1, 1) = m1 (1, -1) + m2 (0, 1), m1 = 1, m2 = 2.
    # Plain cyclic projection stalls on a non-nearest boundary point here.
    sets = [Halfspace(np.array([1.0, -1.0]), 0.0),
            Halfspace(np.array([0.0, 1.0]), 0.0)]
    p = dykstra_projection(sets, np.array([1.0, 1.0]))
    np.testing.assert_allclose(p, [0.0, 0.0], atol=1e-8)


def test_dykstra_raises_at_its_cycle_cap():
    # one cycle from (1, 1) ends on a boundary point that is not the vertex
    sets = [Halfspace(np.array([1.0, -1.0]), 0.0),
            Halfspace(np.array([0.0, 1.0]), 0.0)]
    with pytest.raises(NotConvergedError, match="1 cycles"):
        dykstra_projection(sets, np.array([1.0, 1.0]), max_cycles=1)
    with pytest.raises(NotConvergedError):
        dykstra_projection(sets, np.array([[1.0, 1.0]]), max_cycles=1)


def test_dykstra_refuses_a_cycle_cap_below_one():
    sets = [Halfspace(np.array([1.0, -1.0]), 0.0)]
    for cap in (0, -1):
        with pytest.raises(ValueError, match="at least one cycle"):
            dykstra_projection(sets, np.array([1.0, 1.0]), max_cycles=cap)
        with pytest.raises(ValueError, match="at least one cycle"):
            dykstra_projection(sets, np.ones((1, 2)), max_cycles=cap)


def test_intersection_refuses_a_nested_intersection():
    inner = IntersectionSet((_BALL, _HALF))
    with pytest.raises(ValueError, match="cannot hold an intersection"):
        IntersectionSet((inner, _BALL))


def test_intersection_contains_what_every_member_contains():
    # {||x|| <= 1, y <= 0}: a point is inside when both members say so, at
    # the tolerance given to both
    inter = IntersectionSet(sets=(Ball(np.zeros(2), 1.0),
                                  Halfspace(np.array([0.0, 1.0]), 0.0)))
    pts = np.array([[0.5, -0.5], [0.5, 0.5], [2.0, -0.1], [0.0, 5e-10]])
    assert inter.contains(pts).tolist() == [True, False, False, True]
    assert inter.contains(pts, tol=1e-12).tolist() == [
        True, False, False, False]
    for x, inside in zip(pts, inter.contains(pts)):
        assert bool(inter.contains(x)) == inside


def test_intersection_projection_ball_halfspace_hand_case():
    # {||x|| <= 1, y <= 0} from (2, 2): activate y = 0, clamp x to 1.
    # KKT at (1, 0): (1, 2) = m1 (1, 0) + m2 (0, 1) with m1, m2 >= 0.
    inter = IntersectionSet(sets=(Ball(np.zeros(2), 1.0),
                                  Halfspace(np.array([0.0, 1.0]), 0.0)))
    p = inter.project(np.array([2.0, 2.0]))
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-8)
    assert abs(float(inter.distance(np.array([2.0, 2.0]))) - math.sqrt(5.0)) <= 1e-8


# ---------------------------------------------------------------------------
# prox oracles against brute force
# ---------------------------------------------------------------------------


def _grid_prox_1d(value_fn, x, step):
    """Two-stage grid argmin of f(u) + (u - x)^2 / (2 step)."""
    def moreau(u):
        return value_fn(np.array([u])) + (u - x) ** 2 / (2.0 * step)

    grid = np.linspace(x - 5.0, x + 5.0, 2001)
    best = grid[int(np.argmin([moreau(u) for u in grid]))]
    fine = np.linspace(best - 0.01, best + 0.01, 2001)
    return fine[int(np.argmin([moreau(u) for u in fine]))]


@pytest.mark.parametrize("step", [0.2, 1.0, 3.7])
def test_prox_matches_grid_search(step):
    objs = [quadratic_objective(center=[0.7], weight=1.3),
            scaled_l1(dimension=1, weight=0.9)]
    for obj in objs:
        for x in [-2.3, -0.4, 0.0, 0.55, 1.9]:
            u = prox(obj, np.array([x]), step)[0]
            u_grid = _grid_prox_1d(obj.value_fn, x, step)
            assert abs(u - u_grid) <= 2e-5, (obj.name, x, step)


def test_prox_rejects_nonpositive_step():
    obj = scaled_l1(dimension=1, weight=1.0)
    with pytest.raises(ValueError):
        prox(obj, np.zeros(1), 0.0)


@given(st.lists(finite_floats, min_size=2, max_size=2),
       st.lists(finite_floats, min_size=2, max_size=2),
       st.floats(min_value=1e-3, max_value=10.0))
@settings(max_examples=200)
def test_prox_nonexpansive(xs, ys, step):
    x, y = np.asarray(xs), np.asarray(ys)
    for obj in [quadratic_objective(center=[0.3, -0.8], weight=0.9),
                scaled_l1(dimension=2, weight=1.1)]:
        gap = np.linalg.norm(prox(obj, x, step) - prox(obj, y, step))
        assert gap <= np.linalg.norm(x - y) * (1 + 1e-12) + 1e-12


def test_radius_zero_ball_projects_onto_its_center():
    # 1e-170's square underflows to 0, so a norm test alone would keep the
    # point; every point of every batch shape goes to the center's bits
    for center in (np.zeros(2), np.array([-0.0, 1.5])):
        ball = Ball(center, 0.0)
        near = center + np.array([1e-170, 0.0])
        assert _same_bits(ball.project(near), center)
        batch = np.array([near, center, [-0.0, 0.0], [5.0, -2.0],
                          [1e300, -1e300]])
        assert _same_bits(ball.project(batch), np.tile(center, (5, 1)))
        assert _same_bits(ball.project(batch.reshape(5, 1, 2)),
                          np.tile(center, (5, 1, 1)))
        assert not np.shares_memory(ball.project(near), center)


def test_matvec_of_a_point_has_the_bits_of_a_batch_row():
    # a point takes A.dot(x) on one C- or F-ordered block and A @ x on any
    # other layout, a batch the stacked product: the same bits for a
    # matrix, its transpose, strided views of either (on which dot would
    # copy to C order and change the BLAS kernel) and AffineSet.project's
    # pinv, at every shape with m, n in 1..8
    rng = np.random.default_rng(31)
    for m in range(1, 9):
        for n in range(1, 9):
            A = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-3, 4, (m, n))
            W = rng.normal(size=(2 * m, 2 * n)) * 10.0 ** rng.integers(
                -3, 4, (2 * m, 2 * n))
            P = AffineSet(A, rng.normal(size=m))._pinv
            for M in (A, A.T, W[:, ::2], W[::2], W[:, ::2].T, W[::2].T,
                      P, P.T):
                X = rng.normal(size=(12, M.shape[1]))
                batch = _matvec(M, X)
                for x, row in zip(X, batch):
                    assert _same_bits(_matvec(M, x), row), (m, n)


def test_soft_threshold_frozen():
    out = soft_threshold(np.array([3.0, -0.5]), 1.0)
    np.testing.assert_array_equal(out, np.array([2.0, 0.0]))


# ---------------------------------------------------------------------------
# objective builders: convexity, subgradients, gradients
# ---------------------------------------------------------------------------


def _builder_zoo(rng):
    A = rng.normal(size=(3, 2))
    y = rng.normal(size=3)
    sets = (Ball(np.zeros(2), 1.0), Halfspace(np.array([1.0, 1.0]), 0.5))
    return [
        quadratic_objective(center=[0.2, -0.4], weight=0.8),
        scaled_l1(dimension=2, weight=0.6),
        least_squares(A, y),
        lasso_composite(A, y, mu=0.3).objective(),
        feasibility_objective(sets, weights=(0.25, 0.75), dimension=2),
        half_squared_distance(Ball(np.array([1.0, 1.0]), 0.5), dimension=2),
        zero_objective(2),
    ]


def test_builders_are_convex_on_samples(rng):
    # f(t x + (1-t) y) <= t f(x) + (1 - t) f(y) on sampled triples
    for obj in _builder_zoo(rng):
        for _ in range(300):
            x = rng.normal(size=2) * 2.0
            y = rng.normal(size=2) * 2.0
            t = rng.uniform()
            fx = evaluate(obj, x)
            fy = evaluate(obj, y)
            fm = evaluate(obj, t * x + (1 - t) * y)
            assert fm <= t * fx + (1 - t) * fy + 1e-9 * (1 + abs(fx) + abs(fy))


def test_subgradient_inequality_on_samples(rng):
    # f(y) >= f(x) + <g, y - x> for the reported least-norm subgradient
    for obj in _builder_zoo(rng):
        if obj.subgradient_fn is None:
            continue
        for _ in range(300):
            x = rng.normal(size=2) * 2.0
            y = rng.normal(size=2) * 2.0
            g = min_norm_subgradient(obj, x)
            if np.any(np.isnan(g)):
                continue
            fx = evaluate(obj, x)
            fy = evaluate(obj, y)
            assert fy >= fx + float(g @ (y - x)) - 1e-9 * (1 + abs(fx) + abs(fy))


def test_builder_gradients_match_finite_differences(rng):
    h = 1e-6
    for obj in _builder_zoo(rng):
        if obj.gradient_fn is None:
            continue
        for _ in range(20):
            x = rng.normal(size=2) * 2.0
            g = obj.gradient_fn(x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (evaluate(obj, x + e) - evaluate(obj, x - e)) / (2 * h)
                assert abs(g[i] - fd) <= 1e-4 * (1 + abs(g[i]))


def test_indicator_objective_values_and_prox():
    ball = Ball(np.zeros(2), 1.0)
    obj = indicator(ball, dimension=2)
    assert math.isfinite(evaluate(obj, np.array([0.5, 0.0])))
    assert math.isinf(evaluate(obj, np.array([3.0, 0.0])))
    np.testing.assert_allclose(prox(obj, np.array([3.0, 0.0]), 2.0),
                               [1.0, 0.0], atol=1e-12)
    # least-norm normal-cone element on the set is 0
    g = min_norm_subgradient(obj, np.array([1.0, 0.0]))
    np.testing.assert_array_equal(g, np.zeros(2))


@pytest.mark.parametrize("set_, point_at", [
    (Ball(np.zeros(2), 1.0), lambda slack: np.array([1.0 - slack, 0.0])),
    # a normal of norm 2: the slack is measured in distance, not in <a, x>
    (Halfspace(np.array([2.0, 0.0]), 2.0),
     lambda slack: np.array([1.0 - slack, 0.3])),
], ids=["ball", "halfspace"])
def test_indicator_shifted_subgradient_boundary_tolerance(set_, point_at):
    # the outward normal at both points is e_1; v points inward along it
    shifted = indicator(set_, dimension=2).shifted_subgradient_fn
    v = np.array([[-1.0, 0.5], [-1.0, 0.5]])
    x = np.stack([point_at(5e-13), point_at(1e-11)])
    out = shifted(x, v)
    # within 1e-12 of the boundary, the normal-cone step removes the
    # inward component; 1e-11 inside, v is returned as it is
    np.testing.assert_array_equal(out[0], [0.0, 0.5])
    np.testing.assert_array_equal(out[1], v[1])


def test_min_norm_subgradient_requires_an_oracle():
    obj = ConvexObjective(dimension=1, value_fn=lambda x: float(x[0] ** 2))
    with pytest.raises(UnsupportedOracleError):
        min_norm_subgradient(obj, np.zeros(1))


def test_subgradient_norm_sentinel_outside_domain():
    # indicator subgradient oracle returns a NaN row off the set -> +inf norm
    obj = indicator(Ball(np.zeros(2), 1.0), dimension=2)
    assert math.isinf(subgradient_norm(obj, np.array([5.0, 0.0])))
    assert subgradient_norm(obj, np.array([0.5, 0.0])) == 0.0


def test_composite_requires_gradient_and_prox():
    plain = ConvexObjective(dimension=1, value_fn=lambda x: float(x[0] ** 2))
    smooth = quadratic_objective(center=[0.0], weight=0.5)
    with_prox = scaled_l1(dimension=1, weight=1.0)
    with pytest.raises(ValueError):
        CompositeObjective(smooth=plain, nonsmooth=with_prox)
    with pytest.raises(ValueError):
        CompositeObjective(smooth=smooth, nonsmooth=plain)
    comp = CompositeObjective(smooth=smooth, nonsmooth=with_prox)
    assert comp.value(np.array([2.0])) == pytest.approx(4.0)


def test_quadratic_lipschitz_and_least_squares_constant(rng):
    obj = quadratic_objective(center=[0.0, 0.0], weight=1.7)
    assert obj.lipschitz == pytest.approx(3.4)
    A = rng.normal(size=(4, 3))
    ls = least_squares(A, rng.normal(size=4))
    assert ls.lipschitz == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# batched oracles: row i of a batched call is the call on point i
# ---------------------------------------------------------------------------

def _factory_zoo() -> dict:
    rng = np.random.default_rng(17)
    A = rng.normal(size=(4, 3))
    y = rng.normal(size=4)
    return {
        "quadratic": quadratic_objective([0.3, -0.2, 1.0], weight=0.7,
                                         min_value=0.25),
        "scaled-l1": scaled_l1(3, weight=0.6),
        "indicator-ball": indicator(_BALL, 3),
        "indicator-halfspace": indicator(_HALF, 3),
        "least-squares": least_squares(A, y),
        "zero": zero_objective(3),
        "lasso": lasso_composite(A, y, mu=0.4).objective(min_value=0.1),
        "feasibility": feasibility_objective((_BALL, _HALF), weights=(0.3, 0.7),
                                             dimension=3),
        "half-squared-distance": half_squared_distance(_HALF, 3),
        "alternating-ball": _alternating(_BALL, _HALF, 3),
        "alternating-halfspace": _alternating(_HALF, _BALL, 3),
    }


def _probe_points() -> np.ndarray:
    """Interior, exterior and boundary points, some with zero coordinates."""
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(60, 3)) * 1.5
    pts[::7, 0] = 0.0
    pts[::13] = 0.0
    on_ball = _BALL.project(_BALL.center + 3.0 * rng.normal(size=(10, 3)))
    on_half = _HALF.project(rng.normal(size=(10, 3)) + 3.0 * _HALF.normal)
    return np.concatenate([pts, on_ball, on_half])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("name", sorted(_factory_zoo()))
def test_batched_oracles_match_point_calls(name):
    obj = _factory_zoo()[name]
    pts = _probe_points()
    values = evaluate(obj, pts)
    gaps = value_gap(obj, pts)
    subgrads = min_norm_subgradient(obj, pts)
    norms = subgradient_norm(obj, pts)
    assert values.shape == (pts.shape[0],) and subgrads.shape == pts.shape
    for i, x in enumerate(pts):
        v = evaluate(obj, x)
        assert isinstance(v, float)
        assert _same_bits(values[i], v), (name, i)
        assert _same_bits(gaps[i], value_gap(obj, x)), (name, i)
        assert _same_bits(subgrads[i], min_norm_subgradient(obj, x)), (name, i)
        assert _same_bits(norms[i], subgradient_norm(obj, x)), (name, i)
    # any number of batch axes
    grid = pts.reshape(2, -1, 3)
    assert _same_bits(evaluate(obj, grid), values.reshape(2, -1))
    assert _same_bits(min_norm_subgradient(obj, grid), subgrads.reshape(grid.shape))
    # +inf exactly where the subdifferential is empty, never NaN
    assert not np.any(np.isnan(gaps))
    empty = np.isnan(subgrads)
    assert np.array_equal(empty.any(axis=-1), empty.all(axis=-1))
    assert np.array_equal(empty.any(axis=-1), np.isinf(values))
    if name.startswith(("indicator", "alternating")):
        assert 0 < np.count_nonzero(np.isinf(values)) < pts.shape[0]


@pytest.mark.parametrize("name", sorted(_factory_zoo()))
def test_batched_kl_gap_matches_point_calls(name):
    obj = _factory_zoo()[name]
    pts = _probe_points()
    power = PowerDesingularizer(scale=1.3, exponent=2.0, r0=5.0,
                                region=Ball(np.zeros(3), 2.5))
    desingularizers = (power,
                       PowerDesingularizer(scale=0.8, exponent=1.0),
                       globalize(power, junction=1.0))
    for d in desingularizers:
        gaps = kl_gap(d, obj, pts)
        assert gaps.shape == (pts.shape[0],)
        for i, x in enumerate(pts):
            assert _same_bits(gaps[i], kl_gap(d, obj, x)), (name, i)


def _reference_kl_gap(d, obj, x):
    """kl_gap through copies of the counted rows and a scatter into NaN, as
    it runs when only some points count."""
    x = np.asarray(x, dtype=float)
    gap = np.asarray(value_gap(obj, x))
    counts = (np.isfinite(gap) & (gap > 0.0) & (gap < d.r0)
              & np.asarray(d.region.contains(x)))
    norm = np.asarray(subgradient_norm(obj, x[counts]))
    slope = np.asarray(d.phi_prime(gap[counts]))
    out = np.full(gap.shape, math.nan)
    out[counts] = np.where(np.isinf(norm), math.inf, slope * norm - 1.0)
    return out


def test_kl_gap_keeps_its_bits_whether_all_some_or_no_points_count():
    pts = _probe_points()
    power = PowerDesingularizer(scale=1.3, exponent=2.0, r0=5.0,
                                region=Ball(np.zeros(3), 2.5))
    desingularizers = (power,
                       PowerDesingularizer(scale=0.8, exponent=1.0),
                       globalize(power, junction=1.0))
    # subgradients that are empty where x_0 > 0.5, at finite values: there
    # a counted gap is +inf
    kinked = ConvexObjective(
        3, value_fn=lambda x: np.vecdot(x, x),
        subgradient_fn=lambda x: np.where(x[..., :1] > 0.5, math.nan, 2.0 * x))
    seen = set()
    for name, obj in sorted(_factory_zoo().items()) + [("kinked", kinked)]:
        for d in desingularizers:
            want = _reference_kl_gap(d, obj, pts)
            counted = ~np.isnan(want)
            for rows in (counted, ~counted, np.ones_like(counted)):
                if not rows.any():
                    continue
                seen.add(("none", "some", "all")[
                    int(counted[rows].any()) + int(counted[rows].all())])
                batch = pts[rows]
                assert _same_bits(kl_gap(d, obj, batch), want[rows]), name
                assert _same_bits(kl_gap(d, obj, batch[None]),
                                  want[rows][None]), name
            for i, x in enumerate(pts):
                assert _same_bits(kl_gap(d, obj, x), want[i]), (name, i)
    assert seen == {"none", "some", "all"}


_NORM_SHAPES = ((0,), (1,), (6,), (500,), (3, 4))
# signed zeros, subnormals, squares that overflow to inf (1e300) or
# underflow to 0 (1e-300), infinities and NaN
_NORM_POOL = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300,
                       -1e-300, math.inf, -math.inf, math.nan, 1.0, -3.0])


@pytest.mark.parametrize("n", range(1, 13))
def test_batch_norms_have_the_bits_of_numpys_batch_norm(n):
    rng = np.random.default_rng(n)
    point = rng.normal(size=n)
    assert _same_bits(batch_norms(point), np.linalg.norm(point, axis=-1))
    for lead in _NORM_SHAPES:
        shape = lead + (n,)
        wide = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, shape)
        special = _NORM_POOL[rng.integers(0, _NORM_POOL.size, shape)]
        # C order, reversed strides and Fortran order
        for d in (wide, special, special[..., ::-1], np.asfortranarray(wide)):
            with np.errstate(over="ignore"):
                got, want = batch_norms(d), np.linalg.norm(d, axis=-1)
            assert _same_bits(got, want), (lead, n)
    # the data tells summation orders apart: with 3 to 7 coordinates,
    # adding the squares right to left, or pairwise, rounds differently
    # from numpy's order on some row
    if 3 <= n < 8:
        d = rng.normal(size=(500, n)) * 10.0 ** rng.integers(-8, 9, (500, n))
        squares = [d[:, j] * d[:, j] for j in range(n)]
        backwards = squares[-1]
        for column in squares[-2::-1]:
            backwards = backwards + column
        for total in (backwards, _pairwise_sum(squares)):
            assert not _same_bits(np.sqrt(total), np.linalg.norm(d, axis=-1))


@pytest.mark.parametrize("n", range(1, 13))
def test_row_sums_have_the_bits_of_numpys_sum(n):
    # nonnegative terms, as the helper takes: magnitudes and squares
    rng = np.random.default_rng(100 + n)
    point = np.abs(rng.normal(size=n))
    assert _same_bits(row_sums(point), point.sum(axis=-1))
    for lead in _NORM_SHAPES:
        shape = lead + (n,)
        wide = np.abs(rng.normal(size=shape)) * 10.0 ** rng.integers(-8, 9,
                                                                     shape)
        special = np.abs(_NORM_POOL[rng.integers(0, _NORM_POOL.size, shape)])
        with np.errstate(over="ignore"):
            squares = special * special
        # C order, reversed strides and Fortran order
        for v in (wide, special, squares, special[..., ::-1],
                  np.asfortranarray(wide)):
            assert _same_bits(row_sums(v), v.sum(axis=-1)), (lead, n)
        x = wide * np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        assert _same_bits(scaled_l1(n, 0.7).value_fn(x),
                          0.7 * np.abs(x).sum(axis=-1))
    # the data tells summation orders apart: with 3 to 7 coordinates,
    # adding right to left, or pairwise, rounds differently from numpy's
    # order on some row
    if 3 <= n < 8:
        v = np.abs(rng.normal(size=(500, n))) * 10.0 ** rng.integers(
            -8, 9, (500, n))
        columns = [v[:, j] for j in range(n)]
        backwards = columns[-1]
        for column in columns[-2::-1]:
            backwards = backwards + column
        for total in (backwards, _pairwise_sum(columns)):
            assert not _same_bits(total, v.sum(axis=-1))


@pytest.mark.parametrize("n", range(1, 13))
def test_halfspace_projection_keeps_the_broadcast_bits(n):
    rng = np.random.default_rng(70 + n)
    half = Halfspace(rng.normal(size=n), 0.3)
    points = [3.0 * rng.normal(size=n)]
    for lead in _NORM_SHAPES:
        x = 3.0 * rng.normal(size=lead + (n,))
        points += [x, np.asfortranarray(x)]
    outside = []
    for x in points:
        slack = np.vecdot(x, half.normal) - half.offset
        excess = np.maximum(slack, 0.0) / (half.normal @ half.normal)
        want = x - excess[..., None] * half.normal
        assert _same_bits(half.project(x), want), (x.shape, n)
        outside += list(np.ravel(slack > 0.0))
    # both branches of the maximum are taken
    assert any(outside) and not all(outside)


def _pairwise_sum(terms):
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


@pytest.mark.parametrize("n", (1, 2, 3, 7, 9))
def test_minus_point_and_ball_projection_keep_the_broadcast_bits(n):
    rng = np.random.default_rng(50 + n)
    ball = Ball(rng.normal(size=n), 0.8)
    for lead in _NORM_SHAPES:
        x = ball.center + rng.normal(size=lead + (n,))
        x[..., ::3] *= 1e-3
        want = ball.center + np.where(
            np.linalg.norm(x - ball.center, axis=-1, keepdims=True) > 0.8,
            0.8 / np.linalg.norm(x - ball.center, axis=-1, keepdims=True),
            1.0) * (x - ball.center)
        assert _same_bits(minus_point(x, ball.center), x - ball.center)
        assert _same_bits(minus_point(np.asfortranarray(x), ball.center),
                          x - ball.center)
        assert _same_bits(ball.project(x), want), (lead, n)


def _broadcast_ball_sample(ball, rng, dimension, count):
    """Ball.sample as one broadcast formula over the rows."""
    g = rng.standard_normal((count, dimension))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    radial = rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / dimension)
    return ball.center + ball.radius * radial * g


@pytest.mark.parametrize("n", range(1, 11))
def test_metric_ball_sample_keeps_the_broadcast_bits(n):
    center = np.linspace(-1.0, 2.0, n)
    for radius in (0.0, 0.7):
        ball = Ball(center, radius)
        for count in (0, 1, 20000):
            got = ball.sample(np.random.default_rng(n), n, count)
            want = _broadcast_ball_sample(ball, np.random.default_rng(n), n,
                                          count)
            assert got.flags.c_contiguous
            assert _same_bits(got, want), (radius, count)


def _point_distance(x, point):
    """A single point's distance as the set of one point wrote it before
    it became the ball of radius 0."""
    return batch_norms(minus_point(np.asarray(x, dtype=float), point))


@pytest.mark.parametrize("n", range(1, 13))
def test_radius_zero_ball_distance_keeps_the_point_bits(n):
    rng = np.random.default_rng(43 + n)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300,
                        -1e-300, 1e300, -1e300, 1.0, -3.5])
    for point in (rng.normal(size=n), np.zeros(n), -np.zeros(n),
                  rng.choice(special, size=n)):
        ball = Ball(point, 0.0)
        pts = np.concatenate([rng.normal(size=(40, n)) * 10.0,
                              rng.choice(special, size=(60, n)),
                              point[None], point[None] + 1e-300])
        # squares of 1e300 overflow to +inf, of 1e-300 underflow to 0
        with np.errstate(over="ignore", under="ignore"):
            assert _same_bits(ball.distance(pts),
                              _point_distance(pts, point))
            for x in pts[::7]:
                got, want = ball.distance(x), _point_distance(x, point)
                assert np.ndim(got) == 0 and _same_bits(got, want), x
            grid = pts[:60].reshape(3, 20, n)
            assert _same_bits(ball.distance(grid),
                              _point_distance(grid, point))


# ---------------------------------------------------------------------------
# Dykstra: frozen rows keep the bits of cycling the whole batch
# ---------------------------------------------------------------------------


def _reference_dykstra(sets, x, tol=1e-12, max_cycles=5000):
    """Dykstra's loop over the whole batch until its slowest row converges,
    returning the projection and the number of cycles it took."""
    y = np.asarray(x, dtype=float).copy()
    increments = [np.zeros_like(y) for _ in sets]
    for cycle in range(1, max_cycles + 1):
        start = y.copy()
        for i, s in enumerate(sets):
            target = y + increments[i]
            z = s.project(target)
            increments[i] = target - z
            y = z
        move = np.max(np.linalg.norm(y - start, axis=-1))
        violation = max(np.max(np.atleast_1d(s.distance(y))) for s in sets)
        if move <= tol and violation <= 10 * tol:
            return y, cycle
    raise NotConvergedError(
        f"Dykstra projection did not converge in {max_cycles} cycles "
        f"(last move {move:.3e}, violation {violation:.3e})")


def _lens_batch():
    from klcert.experiments import build_pipeline, load_instance, preset_configs

    config, = [c for c in preset_configs("feasibility")
               if c.name == "feasibility-alternating"]
    bundle = build_pipeline(load_instance(config), config)
    pts = bundle.sample_region.sample(np.random.default_rng(6),
                                      len(bundle.start), 20000)
    return bundle.solution_set.sets, pts, 1e-12


def _ball_halfspaces_batch():
    sets = (_BALL, _HALF, Halfspace(np.array([-0.5, 0.3, 1.0]), 0.1))
    pts = np.random.default_rng(37).normal(size=(3000, 3)) * 2.0
    return sets, pts, 1e-12


def _affine_batch():
    from klcert.problems import generate_linear_system_pair

    system = generate_linear_system_pair(dim=3, num_ineq=3, num_eq=1, seed=0)
    raw = system.witness + 2.0 * np.random.default_rng(41).normal(size=(400, 3))
    pts = _reference_dykstra(system.inequality_sets(), raw, tol=1e-13)[0]
    return system.intersection_sets(), pts, 1e-13


@pytest.mark.parametrize(
    "make", [_lens_batch, _ball_halfspaces_batch, _affine_batch],
    ids=["lens", "ball-halfspaces", "affine"])
def test_dykstra_freeze_matches_whole_batch_bits(make):
    sets, pts, tol = make()
    expected, cycles = _reference_dykstra(sets, pts, tol)
    assert cycles > 3
    got = dykstra_projection(sets, pts, tol, max_cycles=cycles)
    assert _same_bits(got, expected)
    # one cycle less: both raise, with the same last move and violation
    with pytest.raises(NotConvergedError) as old:
        _reference_dykstra(sets, pts, tol, max_cycles=cycles - 1)
    with pytest.raises(NotConvergedError) as new:
        dykstra_projection(sets, pts, tol, max_cycles=cycles - 1)
    assert str(new.value) == str(old.value)
    # single points and extra batch axes run the same loop
    for x in pts[:5]:
        assert _same_bits(dykstra_projection(sets, x, tol),
                          _reference_dykstra(sets, x, tol)[0])
    grid = pts[:40].reshape(2, 20, -1)
    assert _same_bits(dykstra_projection(sets, grid, tol),
                      _reference_dykstra(sets, grid, tol)[0])
    columns = np.asfortranarray(grid.transpose(1, 0, 2))
    assert _same_bits(dykstra_projection(sets, columns, tol),
                      _reference_dykstra(sets, columns, tol)[0])


@dataclass
class _CountingSet:
    inner: Ball
    projections: int = 0
    rows: int = 0

    def project(self, x):
        self.projections += 1
        self.rows += x.shape[0]
        return self.inner.project(x)

    def distance(self, x):
        return self.inner.distance(x)


def test_dykstra_raises_at_once_when_every_row_is_frozen():
    # asked for zero violation, a ball projection that rounds one ulp
    # outside the ball is a fixed point that never meets the test
    ball = Ball(np.array([0.1, 0.2]), 0.7)
    pts = np.random.default_rng(43).normal(size=(50, 2)) * 3.0
    assert np.max(ball.distance(ball.project(pts))) > 0.0
    counting = _CountingSet(ball)
    with pytest.raises(NotConvergedError) as new:
        dykstra_projection([counting], pts, tol=0.0, max_cycles=100)
    with pytest.raises(NotConvergedError) as old:
        _reference_dykstra([ball], pts, tol=0.0, max_cycles=100)
    assert str(new.value) == str(old.value)
    assert "100 cycles (last move 0.000e+00" in str(new.value)
    assert counting.projections < 10


def _settled_rows(sets, x, cycles):
    """Cycle the whole batch `cycles` times (at least 3): the rows whose
    (y, increments) equal, to the bit, those of one cycle before (fixed
    points) and those of two cycles before but not one (2-cycles)."""
    y = np.asarray(x, dtype=float).copy()
    increments = [np.zeros_like(y) for _ in sets]
    states = []
    for _ in range(cycles):
        for i, s in enumerate(sets):
            target = y + increments[i]
            y = s.project(target)
            increments[i] = target - y
        states.append(np.concatenate([y] + increments, axis=-1).view(np.int64))
    fixed = np.all(states[-1] == states[-2], axis=-1)
    return fixed, np.all(states[-1] == states[-3], axis=-1) & ~fixed


def test_dykstra_drops_rows_on_a_2_cycle():
    sets, pts, tol = _lens_batch()
    expected, cycles = _reference_dykstra(sets, pts, tol)
    counting = [_CountingSet(s) for s in sets]
    got = dykstra_projection(counting, pts, tol, max_cycles=cycles)
    assert _same_bits(got, expected)
    # cycling the whole batch projects 232584 rows onto each ball
    assert all(c.rows < 100000 for c in counting), [c.rows for c in counting]
    # a cap on either parity raises the whole batch's message
    for cap in (cycles - 1, cycles - 2):
        with pytest.raises(NotConvergedError) as old:
            _reference_dykstra(sets, pts, tol, max_cycles=cap)
        with pytest.raises(NotConvergedError) as new:
            dykstra_projection(sets, pts, tol, max_cycles=cap)
        assert str(new.value) == str(old.value)


@pytest.mark.parametrize("cap", [100, 101])
def test_dykstra_raises_at_once_when_every_row_is_fixed_or_on_a_2_cycle(cap):
    sets, pts, _ = _lens_batch()
    fixed, two = _settled_rows(sets, pts[:3000], 8)
    assert fixed.any() and two.any()
    pts = pts[:3000][fixed | two]
    counting = [_CountingSet(s) for s in sets]
    with pytest.raises(NotConvergedError) as new:
        dykstra_projection(counting, pts, tol=0.0, max_cycles=cap)
    with pytest.raises(NotConvergedError) as old:
        _reference_dykstra(sets, pts, tol=0.0, max_cycles=cap)
    assert str(new.value) == str(old.value)
    assert f"{cap} cycles" in str(new.value)
    assert all(c.projections <= 8 for c in counting)


# 0.0 and -0.0, a quiet NaN and one with another payload, 1 and the
# smallest subnormal: entries that compare equal as floats but not as
# bits, or unequal as floats but equal as bits
_BIT_POOL = np.array([0, 1 << 63, 0x7FF8000000000000, 0x7FF8000000000001,
                      0x3FF0000000000000, 1], dtype=np.uint64).view(float)


@pytest.mark.parametrize("n", range(1, 6))
def test_same_row_bits_matches_a_row_reduction(n):
    def reference(a, b):
        return np.all(a.view(np.int64) == b.view(np.int64), axis=-1)

    rng = np.random.default_rng(n)
    a = _BIT_POOL[rng.integers(0, _BIT_POOL.size, size=(400, n))]
    b = a.copy()
    changed = rng.random(a.shape) < 0.1
    b[changed] = _BIT_POOL[rng.integers(0, _BIT_POOL.size, changed.sum())]
    same = _same_row_bits(a, b)
    assert same.dtype == bool and np.array_equal(same, reference(a, b))
    assert same.any() and not same.all()
    assert _same_row_bits(a[:0], b[:0]).shape == (0,)
    # rows that differ only in the sign of a zero, or a NaN's payload
    for k in range(n):
        for left, right in ((0, 1), (2, 3)):
            x, y = a[:1].copy(), a[:1].copy()
            x[0, k], y[0, k] = _BIT_POOL[left], _BIT_POOL[right]
            assert not _same_row_bits(x, y)[0]
            assert _same_row_bits(x, x.copy())[0]


@dataclass
class _MapSet:
    """A stand-in member set: any row-wise map as its projection, and any
    distance, so that a test can set up a cycle that no convex set gives."""
    project: object
    distance: object


def test_dykstra_stops_on_the_cycle_after_every_row_froze():
    # row 0 enters a 2-cycle between -g and g, and only the point -g is at
    # distance 1; row 1 moves by 2 on cycle 2 and is fixed from then on.
    # Every row is frozen on cycle 3, whose violation is 1, and the whole
    # batch stops on cycle 4, when both moves are at most tol
    g = 2.0 ** -42

    def project_a(v):
        return np.where(np.abs(v) < 1, 0.0, np.where(v == 96.0, 98.0, v))

    def project_b(v):
        near = np.where(v > 0, g, -g)
        return np.where(np.abs(v) < 1, near, np.where(
            v == 100.0, 96.0, np.where(v == 102.0, 98.0, v)))

    sets = [_MapSet(project_a, lambda y: np.zeros(y.shape[0])),
            _MapSet(project_b, lambda y: np.where(y[:, 0] == -g, 1.0, 0.0))]
    pts = np.array([[0.5], [100.0]])
    expected, cycles = _reference_dykstra(sets, pts)
    assert cycles == 4 and _same_bits(expected, np.array([[g], [98.0]]))
    assert _same_bits(dykstra_projection(sets, pts), expected)
    with pytest.raises(NotConvergedError) as old:
        _reference_dykstra(sets, pts, max_cycles=3)
    with pytest.raises(NotConvergedError) as new:
        dykstra_projection(sets, pts, max_cycles=3)
    assert str(new.value) == str(old.value)
    assert "violation 1.000e+00" in str(new.value)
