"""The scalar worst-case prox sequence and its rate constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klcert.descent import DescentCertificateParams
from klcert.desingularization import PowerDesingularizer, globalize
from klcert.majorant import (
    AssumptionViolationError,
    empirical_prox_steps,
    prox_sequence,
    quadratic_complexity,
    steps_to_epsilon,
    worst_case_sequence,
    zeta,
)

positive = st.floats(min_value=1e-3, max_value=1e3)


# ---------------------------------------------------------------------------
# the step constant
# ---------------------------------------------------------------------------


def test_zeta_frozen_values():
    # b^2 (z + z^2/2) = 1/2 with b = 2: z = sqrt(5/4) - 1
    assert zeta(0.5, 2.0, 1.0) == pytest.approx(math.sqrt(1.25) - 1.0, rel=1e-14)
    # b^2 (z + z^2) = 2 with b = 2: z = (sqrt 3 - 1)/2
    assert zeta(2.0, 2.0, 2.0) == pytest.approx((math.sqrt(3.0) - 1.0) / 2.0,
                                                rel=1e-14)
    # ell = 0 collapses to a / b^2 without cancellation
    assert zeta(1.0, 2.0, 0.0) == pytest.approx(0.25, rel=1e-15)
    assert zeta(1.0, 2.0, 1e-300) == pytest.approx(0.25, rel=1e-12)


@given(positive, positive, st.floats(min_value=0.0, max_value=1e3))
@settings(max_examples=300)
def test_zeta_solves_its_quadratic(a, b, ell):
    z = zeta(a, b, ell)
    assert z > 0
    assert b * b * (z + 0.5 * ell * z * z) == pytest.approx(a, rel=1e-12)


def test_zeta_validation():
    with pytest.raises(ValueError):
        zeta(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        zeta(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        zeta(1.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# worst-case sequence
# ---------------------------------------------------------------------------


PARAMS = DescentCertificateParams(a=0.5, b=2.0)


def test_closed_form_recursion_matches_bisection():
    d = PowerDesingularizer(scale=2.0, exponent=2.0)  # psi = s^2/4, ell = 1/2
    exact = worst_case_sequence(d, r0=1.0, params=PARAMS, steps=40)
    bisect = worst_case_sequence(d, r0=1.0, params=PARAMS, steps=40,
                                 force_bisection=True)
    np.testing.assert_allclose(bisect.alpha, exact.alpha, rtol=1e-12, atol=0)
    np.testing.assert_allclose(bisect.psi_values, exact.psi_values,
                               rtol=1e-12, atol=0)


def _closed_form_loop(alpha0: float, ratio: float, steps: int) -> np.ndarray:
    """The reference recursion: one multiplication per step."""
    alphas = [alpha0]
    for _ in range(steps):
        alphas.append(alphas[-1] * ratio)
    return np.asarray(alphas)


@settings(max_examples=60, deadline=None)
@given(scale=positive, a=positive, b=positive, r0=positive,
       steps=st.integers(min_value=0, max_value=20000))
def test_closed_form_sequence_matches_the_loop_bits(scale, a, b, r0, steps):
    d = PowerDesingularizer(scale=scale, exponent=2.0)
    maj = worst_case_sequence(d, r0=r0, params=DescentCertificateParams(a, b),
                              steps=steps)
    ratio = 1.0 / (1.0 + maj.ell * maj.zeta)
    np.testing.assert_array_equal(
        maj.alpha, _closed_form_loop(float(maj.alpha[0]), ratio, steps))


def test_sequence_starts_at_phi_and_decreases():
    d = PowerDesingularizer(scale=2.0, exponent=2.0)
    maj = worst_case_sequence(d, r0=0.81, params=PARAMS, steps=25)
    assert maj.alpha[0] == pytest.approx(d.phi(0.81), rel=1e-14)
    assert maj.psi_values[0] == pytest.approx(0.81, rel=1e-12)
    assert np.all(np.diff(maj.alpha) < 0)
    # each alpha solves its prox equation
    assert float(np.max(maj.prox_residuals(d))) <= 1e-12


def test_quadratic_rate_is_alpha_ratio_squared():
    d = PowerDesingularizer(scale=2.0, exponent=2.0)
    maj = worst_case_sequence(d, r0=1.0, params=PARAMS, steps=10)
    cf = quadratic_complexity(maj.ell, maj.params, f0=1.0)
    ratio = maj.alpha[1] / maj.alpha[0]
    assert cf.q == pytest.approx(1.0 / ratio ** 2, rel=1e-12)
    # value bounds decay by exactly 1/q in the closed form
    assert cf.value_bound(3) / cf.value_bound(4) == pytest.approx(cf.q, rel=1e-12)


def test_quadratic_complexity_frozen():
    # ell = 1, a = 1/2, b = 2: sigma = 1/4, q = 1 + 2 * (1/2) * (1/4) = 5/4
    cf = quadratic_complexity(1.0, PARAMS, f0=2.0)
    assert cf.sigma == pytest.approx(0.25, rel=1e-14)
    assert cf.q == pytest.approx(1.25, rel=1e-14)
    assert cf.zeta == pytest.approx(zeta(0.5, 2.0, 1.0), rel=1e-14)
    assert cf.value_bound(2) == pytest.approx(2.0 / 1.25 ** 2, rel=1e-14)
    assert cf.distance_bound(1) == pytest.approx(cf.C * math.sqrt(2.0), rel=1e-14)
    with pytest.raises(ValueError):
        cf.distance_bound(0)
    with pytest.raises(ValueError):
        quadratic_complexity(0.0, PARAMS, f0=2.0)


def test_majorant_distance_bound_formula():
    d = PowerDesingularizer(scale=2.0, exponent=2.0)
    maj = worst_case_sequence(d, r0=1.0, params=PARAMS, steps=5)
    a, b = PARAMS.a, PARAMS.b
    # one bound per step k = 1..5, stored at k - 1
    assert maj.distance_bounds.shape == (5,)
    for k in range(1, 6):
        expect = (b / a) * maj.alpha[k] + math.sqrt(maj.psi_values[k - 1] / a)
        assert maj.distance_bounds[k - 1] == expect


def test_sequence_refuses_gap_beyond_validity_radius():
    d = PowerDesingularizer(scale=1.0, exponent=2.0, r0=1.0)
    with pytest.raises(ValueError, match="globalize"):
        worst_case_sequence(d, r0=2.0, params=PARAMS, steps=5)
    # globalizing lifts the restriction
    g = globalize(d, junction=0.5)
    maj = worst_case_sequence(g, r0=2.0, params=PARAMS, steps=5)
    assert maj.alpha[0] == pytest.approx(g.phi(2.0), rel=1e-14)


def test_sequence_refuses_sharp_and_subquadratic_profiles():
    with pytest.raises(AssumptionViolationError, match="vanish"):
        worst_case_sequence(PowerDesingularizer(scale=1.0, exponent=1.0),
                            r0=1.0, params=PARAMS, steps=3)
    with pytest.raises(AssumptionViolationError, match="Lipschitz"):
        worst_case_sequence(PowerDesingularizer(scale=1.0, exponent=1.5),
                            r0=1.0, params=PARAMS, steps=3)


def test_sequence_input_validation():
    d = PowerDesingularizer(scale=1.0, exponent=2.0)
    with pytest.raises(ValueError):
        worst_case_sequence(d, r0=0.0, params=PARAMS, steps=3)
    with pytest.raises(ValueError):
        worst_case_sequence(d, r0=1.0, params=PARAMS, steps=-1)


def test_quartic_profile_runs_through_bisection():
    d = PowerDesingularizer(scale=1.0, exponent=4.0, r0=1.0)
    maj = worst_case_sequence(d, r0=1.0, params=PARAMS, steps=30)
    assert np.all(np.diff(maj.alpha) < 0)
    assert float(np.max(maj.prox_residuals(d))) <= 1e-10


# ---------------------------------------------------------------------------
# comparison principle, empirical steps, rates
# ---------------------------------------------------------------------------


def test_prox_sequence_comparison_principle():
    d = PowerDesingularizer(scale=2.0, exponent=2.0)
    z = zeta(PARAMS.a, PARAMS.b, d.ell)
    small = prox_sequence(d, [z] * 50, beta0=1.0)
    large = prox_sequence(d, [2.0 * z] * 50, beta0=1.0)
    assert small[0] == 1.0 and large[0] == 1.0
    assert np.all(large[1:] <= small[1:] + 1e-15)
    with pytest.raises(ValueError):
        prox_sequence(d, [0.0], beta0=1.0)
    with pytest.raises(ValueError):
        prox_sequence(d, [1.0], beta0=-1.0)


def test_empirical_prox_steps_skips_floor_gaps():
    d = PowerDesingularizer(scale=2.0, exponent=2.0)
    idx, vals = empirical_prox_steps([1.0, 0.5, 1e-15, 0.25], d)
    assert idx.tolist() == [1]
    assert len(vals) == 1 and vals[0] > 0
    # geometric gaps give one step value per transition
    gaps = [2.0 ** (-k) for k in range(6)]
    idx, vals = empirical_prox_steps(gaps, d)
    assert idx.tolist() == [1, 2, 3, 4, 5]
    assert np.all(vals > 0)
    # each value is the one-step formula at its own pair of gaps
    for k, s in zip(idx, vals):
        beta_prev, beta = d.phi(gaps[k - 1]), d.phi(gaps[k])
        assert s == (beta_prev - beta) / d.psi_prime(beta)
    idx, vals = empirical_prox_steps([1.0], d)
    assert idx.size == 0 and vals.size == 0


def test_steps_to_epsilon_frozen():
    assert steps_to_epsilon(2.0, 1.0, 0.125) == 3
    assert steps_to_epsilon(2.0, 1.0, 1.0) == 0
    assert steps_to_epsilon(2.0, 1.0, 2.0) == 0
    assert steps_to_epsilon(2.0, 1.0, 0.9) == 1
    with pytest.raises(ValueError):
        steps_to_epsilon(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        steps_to_epsilon(2.0, 1.0, 0.0)


def test_steps_to_epsilon_is_tight():
    # returned k satisfies the bound and k-1 does not
    for q, f0, eps in [(1.1, 3.0, 1e-6), (1.0001, 1.0, 0.5), (5.0, 10.0, 9.9)]:
        k = steps_to_epsilon(q, f0, eps)
        assert f0 / q ** k <= eps * (1 + 1e-12)
        if k > 0:
            assert f0 / q ** (k - 1) > eps
