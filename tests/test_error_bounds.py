"""Computable growth constants: Hoffman enumeration, the l1-regularized
least-squares bound, feasibility constants, and growth profiles."""

import math
from itertools import combinations

import numpy as np
import pytest

from klcert import error_bounds
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
from klcert.problems import generate_instance, generate_linear_system_pair

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


def _every_basis(stacked):
    # one batched SVD of every row subset of size rank: the enumeration
    # the bound-ordered one must match bit for bit
    scale = np.linalg.norm(stacked, ord=2)
    tol = 1e-10 * max(scale, 1.0)
    rank = int(np.linalg.matrix_rank(stacked, tol=tol))
    subsets = np.array(list(combinations(range(stacked.shape[0]), rank)))
    smin = np.linalg.svd(stacked[subsets], compute_uv=False)[:, -1]
    ok = smin > tol
    if not np.any(ok):
        raise ValueError("no full-rank row subset found")
    return float(np.max(1.0 / smin[ok]))


def _lasso_stacked(**instance):
    v = generate_instance("lasso", **instance).values()
    inst = LassoInstance(v["A"], v["y"], v["mu"], v["x0"])
    return lasso_sign_system(inst).stacked()


def _rotated(rows, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(
        size=(rows.shape[1],) * 2))
    return rows @ q


def _near_parallel(count, seed):
    # adjacent rows 1e-7 rad apart: count - 1 bases tie at sigma_min of
    # about 7e-8, up to the rounding of the rows, and nearly meet the
    # bound, so their floors and computed sigma_min interleave
    theta = np.random.default_rng(seed).uniform(0.0, math.pi)
    theta = theta + 1e-7 * np.arange(count)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _low_rank(seed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, 4))
    cols = rank + int(rng.integers(1, 3))
    rows = rank + int(rng.integers(2, 6))
    return rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))


def _repeated_rows(seed):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(6, 3))
    return np.vstack([base, base[0], -2.5 * base[1], 3.0 * base[2],
                      base[:2]])


def _near_tolerance(seed):
    # unit rows plus rows whose sigma_min sits a few ulps either side of
    # the rank tolerance 1e-10, rotated so that no entry is exact
    scales = 1e-10 * (1.0 + np.arange(-3, 4) * 2.0 ** -48)
    rows = np.zeros((2 + len(scales), 3))
    rows[0, 0] = rows[1, 1] = 1.0
    rows[2:, 2] = scales
    return _rotated(rows, seed)


BASES_CASES = (
    [pytest.param(lambda s=400 + i: _lasso_stacked(seed=s, n=2 + i % 2),
                  id=f"seed{400 + i}") for i in range(20)]
    + [pytest.param(lambda: _lasso_stacked(seed=7, n=2, m=3),
                    id="tiny-lasso")]
    + [pytest.param(lambda s=s: _near_parallel(80, s), id=f"tied{s}")
       for s in range(4)]
    + [pytest.param(lambda s=s: _low_rank(s), id=f"low-rank{s}")
       for s in range(6)]
    + [pytest.param(lambda s=s: _repeated_rows(s), id=f"repeated{s}")
       for s in range(3)]
    + [pytest.param(lambda s=s: _near_tolerance(s), id=f"tolerance{s}")
       for s in range(3)]
)


@pytest.mark.parametrize("make", BASES_CASES)
def test_enumeration_has_the_bits_of_every_basis(make, monkeypatch):
    stacked = make()
    want = _every_basis(stacked)
    assert error_bounds._max_pinv_norm_over_bases(stacked) == want
    # one basis per SVD: the stop is tested after every basis
    monkeypatch.setattr(error_bounds, "_BASES_PER_SVD", 1)
    assert error_bounds._max_pinv_norm_over_bases(stacked) == want


def test_enumeration_decomposes_few_bases(monkeypatch):
    # seed 405 has 1001 bases; the floors rule out all but a few, its 159
    # singular ones included
    stacked = _lasso_stacked(seed=405, n=3)
    decomposed = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        decomposed.append(a.shape[0] if a.ndim == 3 else 0)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    error_bounds._max_pinv_norm_over_bases(stacked)
    assert 0 < sum(decomposed) <= 50


def test_enumeration_refuses_a_system_without_a_full_rank_basis():
    # the stack has rank 2 (its second singular value is sqrt(3) 6e-11),
    # but every pair of rows is singular or has sigma_min 6e-11, under
    # the tolerance
    stacked = np.array([[1.0, 0.0], [0.0, 6e-11], [0.0, 6e-11],
                        [0.0, 6e-11]])
    for enumerate_bases in (_every_basis,
                            error_bounds._max_pinv_norm_over_bases):
        with pytest.raises(ValueError, match="no full-rank row subset"):
            enumerate_bases(stacked)


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
        assert isinstance(d.region, Ball)
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


def test_inner_ball_check_is_exact_at_tangency(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the check drew samples")

    monkeypatch.setattr(np.random, "default_rng", refuse)

    def holds(*sets):
        return FeasibilityInstance(sets=sets, xbar=np.zeros(2), R=1.0,
                                   weights=(0.5, 0.5)).check_inner_ball()

    # both sets touch B(0, 1): the ball at (0.5, 0) from inside, the
    # halfspace 2 y <= 2 along y = 1
    ball = Ball(np.array([0.5, 0.0]), 1.5)
    half = Halfspace(np.array([0.0, 2.0]), 2.0)
    assert holds(ball, half)
    # one ulp less room in either set leaves it; 256 samples at a distance
    # tolerance of 1e-9 did not see that
    assert not holds(Ball(ball.center, math.nextafter(1.5, 0.0)), half)
    assert not holds(ball, Halfspace(half.normal, math.nextafter(2.0, 0.0)))
    # a ball smaller than B(0, 1), and a halfspace that cuts off its center
    assert not holds(Ball(np.zeros(2), 0.5), half)
    assert not holds(ball, Halfspace(half.normal, -0.5))


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
