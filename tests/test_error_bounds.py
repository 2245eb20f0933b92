"""Computable growth constants: Hoffman enumeration, the l1-regularized
least-squares bound, feasibility constants, and growth profiles."""

import math

import numpy as np
import pytest

from klcert.convex import Ball, Halfspace, IntersectionSet, evaluate
from klcert.error_bounds import (
    FeasibilityInstance,
    LassoInstance,
    LinearSystemPair,
    feasibility_bound,
    hoffman_constant,
    lasso_gamma,
    lasso_nu,
    lasso_sign_system,
    uniformly_convex_profile,
)
from klcert.problems import generate_linear_system_pair
from klcert.regions import MetricBall

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# Hoffman constants
# ---------------------------------------------------------------------------


def _eq_only(E, e=None):
    E = np.atleast_2d(np.asarray(E, dtype=float))
    n = E.shape[1]
    witness = np.zeros(n)
    e = E @ witness if e is None else np.asarray(e, dtype=float)
    return LinearSystemPair(A=np.zeros((0, n)), a=np.zeros(0),
                            E=E, e=e, witness=witness)


def test_hoffman_frozen_scalars():
    nu = hoffman_constant(_eq_only([[1.0]]))
    assert nu == pytest.approx(1.0, rel=1e-14)
    nu = hoffman_constant(_eq_only([[2.0]]))
    assert nu == pytest.approx(0.5, rel=1e-14)


def test_hoffman_frozen_diagonal():
    # single full-rank subset; 1/sigma_min of diag(2, 4) is 1/2
    nu = hoffman_constant(_eq_only(np.diag([2.0, 4.0])))
    assert nu == pytest.approx(0.5, rel=1e-14)


def test_hoffman_frozen_golden_ratio():
    # stacked [[-1, 0], [1, 1]]: sigma_min^2 = (3 - sqrt 5)/2, so
    # 1/sigma_min = (1 + sqrt 5)/2
    sys = LinearSystemPair(A=np.array([[-1.0, 0.0]]), a=np.array([0.0]),
                           E=np.array([[1.0, 1.0]]), e=np.array([1.0]),
                           witness=np.array([0.5, 0.5]))
    nu = hoffman_constant(sys)
    assert nu == pytest.approx(GOLDEN, rel=1e-12)


def test_hoffman_sampled_lower_bounds_exact_upper():
    for seed in range(6):
        sys = generate_linear_system_pair(dim=3, num_ineq=3, num_eq=1, seed=seed)
        upper = hoffman_constant(sys, mode="exact")
        lower = hoffman_constant(sys, mode="sampled", samples=100, seed=seed)
        assert lower <= upper * (1 + 1e-9), (seed, lower, upper)


def test_hoffman_enumeration_caps():
    with pytest.raises(ValueError, match="too large"):
        hoffman_constant(_eq_only(np.eye(11)))
    big = LinearSystemPair(A=np.ones((20, 10)), a=np.ones(20),
                           E=np.eye(10), e=np.zeros(10),
                           witness=np.zeros(10))
    with pytest.raises(ValueError, match="too large"):
        hoffman_constant(big)
    with pytest.raises(ValueError, match="unknown mode"):
        hoffman_constant(_eq_only([[1.0]]), mode="typo")


def test_linear_system_pair_rejects_bad_witness():
    with pytest.raises(ValueError, match="witness"):
        LinearSystemPair(A=np.array([[1.0]]), a=np.array([0.0]),
                         E=np.array([[1.0]]), e=np.array([0.0]),
                         witness=np.array([1.0]))


# ---------------------------------------------------------------------------
# l1-regularized least squares
# ---------------------------------------------------------------------------


def _unit_lasso():
    return LassoInstance(A=np.array([[1.0]]), y=np.array([1.0]),
                         mu=1.0, x0=np.array([0.0]))


def test_lasso_radius_bound_formula():
    inst = _unit_lasso()
    # f(x0) = 0.5, so R = max(0.5 / 1, 1 + 0.5) = 1.5
    assert inst.radius_bound() == pytest.approx(1.5, rel=1e-14)


def test_lasso_sign_system_shape_and_nu():
    inst = _unit_lasso()
    sys = lasso_sign_system(inst)
    # 2^1 sign rows + the radius row; equalities [A, 0] and [0, mu]
    assert sys.A.shape == (3, 2)
    assert sys.E.shape == (2, 2)
    nu = lasso_nu(inst)
    # worst pair stacks a sign row against an axis row: golden ratio again
    assert nu == pytest.approx(GOLDEN, rel=1e-12)


def test_lasso_gamma_frozen_hand_case():
    # R = 1.5, G = 2.5: gamma = 1/(4 nu^2 (1 + 1.5 + 2.5 * 7)) = 1/(80 nu^2)
    inst = _unit_lasso()
    consts = lasso_gamma(inst, nu=1.0)
    assert consts.gamma_R == pytest.approx(1.0 / 80.0, rel=1e-14)
    assert consts.R == pytest.approx(1.5, rel=1e-14)


def test_lasso_gamma_scales_as_inverse_nu_squared():
    # gamma_R nu^2 depends on the instance alone, and R is its radius bound
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m = n + int(rng.integers(1, 3))
        inst = LassoInstance(A=rng.normal(size=(m, n)), y=rng.normal(size=m),
                             mu=float(rng.uniform(0.3, 2.0)),
                             x0=rng.normal(size=n) * 0.5)
        nu = float(rng.uniform(0.2, 5.0))
        consts = lasso_gamma(inst, nu=nu)
        assert consts.gamma_R * nu ** 2 == pytest.approx(
            lasso_gamma(inst, nu=1.0).gamma_R, rel=1e-12)
        assert consts.R == inst.radius_bound()


def test_lasso_nu_row_cap():
    rng = np.random.default_rng(0)
    inst = LassoInstance(A=rng.normal(size=(2, 5)), y=rng.normal(size=2),
                         mu=1.0, x0=np.zeros(5))
    with pytest.raises(ValueError, match="supply nu"):
        lasso_nu(inst)


def test_lasso_gamma_rejects_bad_nu():
    with pytest.raises(ValueError):
        lasso_gamma(_unit_lasso(), nu=0.0)


# ---------------------------------------------------------------------------
# feasibility constants
# ---------------------------------------------------------------------------


def _frozen_feasibility():
    ball = Ball(np.zeros(2), 2.0)
    return FeasibilityInstance(sets=(ball, Ball(np.zeros(2), 2.0)),
                               xbar=np.zeros(2), R=1.0, weights=(0.5, 0.5))


def test_feasibility_bound_frozen_constants():
    # t = R/2 gives ratio 2: barycentric 0.25 * 2^-2 * 0.5 = 1/32,
    # alternating 0.125 * 2^-2 = 1/32; both mean phi = sqrt(64 s) = 8 sqrt(s)
    inst = _frozen_feasibility()
    x0 = np.array([0.5, 0.0])
    for variant in ("barycentric", "alternating"):
        d = feasibility_bound(inst, x0, variant)
        assert d.ell == pytest.approx(1.0 / 32.0, rel=1e-14)
        assert d.scale == pytest.approx(8.0, rel=1e-14)
        assert math.isinf(d.r0)
        assert isinstance(d.region, MetricBall)
        assert d.region.radius == pytest.approx(0.5, rel=1e-14)


def test_feasibility_bound_variant_validation():
    inst = _frozen_feasibility()
    with pytest.raises(ValueError, match="unknown variant"):
        feasibility_bound(inst, np.zeros(2), "typo")
    three = FeasibilityInstance(
        sets=(Ball(np.zeros(2), 2.0),) * 3, xbar=np.zeros(2), R=1.0,
        weights=(1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(ValueError, match="two sets"):
        feasibility_bound(three, np.zeros(2), "alternating")


def test_feasibility_instance_validation():
    with pytest.raises(ValueError):
        FeasibilityInstance(sets=(Ball(np.zeros(2), 1.0),),
                            xbar=np.zeros(2), R=1.0, weights=(1.0,))
    with pytest.raises(ValueError):
        FeasibilityInstance(sets=(Ball(np.zeros(2), 1.0),) * 2,
                            xbar=np.zeros(2), R=0.0, weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        FeasibilityInstance(sets=(Ball(np.zeros(2), 1.0),) * 2,
                            xbar=np.zeros(2), R=1.0, weights=(0.9, 0.2))
    with pytest.raises(ValueError, match=r"sets\[1\] is a halfspace in "
                       "dimension 3, but xbar is in dimension 2"):
        FeasibilityInstance(sets=(Ball(np.zeros(2), 1.0),
                                  Halfspace(np.ones(3), 1.0)),
                            xbar=np.zeros(2), R=0.5, weights=(0.5, 0.5))


def test_inner_ball_check():
    assert _frozen_feasibility().check_inner_ball()
    too_big = FeasibilityInstance(sets=(Ball(np.zeros(2), 2.0),) * 2,
                                  xbar=np.array([1.5, 0.0]), R=1.0,
                                  weights=(0.5, 0.5))
    assert not too_big.check_inner_ball()


def test_feasibility_growth_inequality_on_samples():
    # dist(x, intersection) <= phi(f(x)) over the certified metric ball
    inst = FeasibilityInstance(
        sets=(Ball(np.array([-0.5, 0.0]), 1.5), Ball(np.array([0.5, 0.0]), 1.5)),
        xbar=np.zeros(2), R=1.0, weights=(0.4, 0.6))
    assert inst.check_inner_ball()
    x0 = np.array([1.2, 0.3])
    d = feasibility_bound(inst, x0, "barycentric")
    obj = inst.objective()
    inter = IntersectionSet(inst.sets)
    rng = np.random.default_rng(8)
    pts = d.region.sample(rng, 2, 2000)
    gaps = evaluate(obj, pts)
    dists = np.atleast_1d(inter.distance(pts))
    margin = np.array([d.phi(g) for g in gaps]) - dists
    keep = gaps > 1e-15
    assert np.min(margin[keep]) >= -1e-9


# ---------------------------------------------------------------------------
# growth profiles
# ---------------------------------------------------------------------------


def test_uniformly_convex_profile_frozen():
    d = uniformly_convex_profile(sigma=1.0, p=2.0, alpha0=1.0)
    assert d.scale == pytest.approx(2.0, rel=1e-14)
    assert d.psi(1.0) == pytest.approx(0.25, rel=1e-14)
    assert d.ell == pytest.approx(0.5, rel=1e-14)
    quartic = uniformly_convex_profile(sigma=1.0, p=4.0, alpha0=1.0)
    assert quartic.scale == pytest.approx(4.0, rel=1e-14)
    assert quartic.ell == pytest.approx(3.0 / 64.0, rel=1e-14)


def test_uniformly_convex_profile_validation():
    with pytest.raises(ValueError):
        uniformly_convex_profile(sigma=0.0, p=2.0, alpha0=1.0)
    with pytest.raises(ValueError):
        uniformly_convex_profile(sigma=1.0, p=1.5, alpha0=1.0)
    with pytest.raises(ValueError):
        uniformly_convex_profile(sigma=1.0, p=2.0, alpha0=0.0)
