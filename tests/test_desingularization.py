"""Desingularizing profiles, error-bound certificates, and conversions."""

import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klcert.convex import Ball, quadratic_objective, scaled_l1
from klcert.desingularization import (
    DESINGULARIZERS,
    ErrorBoundCertificate,
    GlobalizedDesingularizer,
    NonModerateResidualError,
    PowerDesingularizer,
    TabulatedDesingularizer,
    extend_error_bound_globally,
    from_error_bound,
    globalize,
    kl_gap,
    libm_pow,
    to_error_bound,
)
from klcert.regions import L1Ball, WholeSpace
from klcert.tracefmt import read_value, write_value

scales = st.floats(min_value=1e-3, max_value=1e3)
exponents = st.floats(min_value=1.0, max_value=6.0)
gaps = st.floats(min_value=1e-12, max_value=1e6)


# ---------------------------------------------------------------------------
# power profiles
# ---------------------------------------------------------------------------


@given(scales, exponents, gaps)
def test_power_profile_moderation_identity(scale, p, s):
    # s * phi'(s) = phi(s) / p exactly for phi = scale * s^(1/p)
    d = PowerDesingularizer(scale=scale, exponent=p)
    lhs = s * d.phi_prime(s)
    rhs = d.phi(s) / p
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(scales, exponents, gaps)
def test_power_profile_inverse_pair(scale, p, s):
    d = PowerDesingularizer(scale=scale, exponent=p)
    assert d.psi(d.phi(s)) == pytest.approx(s, rel=1e-10)
    alpha = d.phi(s)
    assert d.phi(d.psi(alpha)) == pytest.approx(alpha, rel=1e-10)


def test_power_profile_endpoint_behaviour():
    d = PowerDesingularizer(scale=2.0, exponent=2.0)
    assert math.isinf(d.phi_prime(0.0))
    assert d.psi_prime(0.0) == 0.0
    sharp = PowerDesingularizer(scale=2.0, exponent=1.0)
    assert sharp.phi_prime(0.0) == 2.0
    assert sharp.psi_prime(0.0) == 0.5


def test_power_profile_default_curvature_bounds():
    # p = 2: psi = (a / scale)^2, psi'' = 2 / scale^2 everywhere
    d = PowerDesingularizer(scale=2.0, exponent=2.0)
    assert d.ell == pytest.approx(0.5, rel=1e-14)
    # p = 1: psi is linear, slope bound 0
    assert PowerDesingularizer(scale=3.0, exponent=1.0).ell == 0.0
    # p > 2 needs a finite alpha0 to bound psi'' = p(p-1) a^(p-2) / scale^p
    d4 = PowerDesingularizer(scale=1.0, exponent=4.0, r0=1.0)
    assert d4.ell == pytest.approx(12.0, rel=1e-12)
    assert PowerDesingularizer(scale=1.0, exponent=4.0).ell is None


def test_power_profile_validation():
    with pytest.raises(ValueError):
        PowerDesingularizer(scale=0.0, exponent=2.0)
    with pytest.raises(ValueError):
        PowerDesingularizer(scale=1.0, exponent=0.5)
    with pytest.raises(ValueError):
        PowerDesingularizer(scale=1.0, exponent=2.0, r0=-1.0)


@pytest.mark.parametrize("scale,exponent,r0,ell,message", [
    # psi' divides by scale ** exponent, which overflows or underflows
    (1.4675, 1e6, 4.0, None, "scale ** exponent"),
    (1.4675, 1e6, 4.0, 1.0, "scale ** exponent"),
    (0.5, 1e6, 4.0, None, "scale ** exponent"),
    # scale ** exponent holds, but the default ell on [0, alpha0] does not
    (0.5, 1000.0, 1e308, None, "Lipschitz constant of psi'"),
])
def test_power_profile_refuses_float_overflow(scale, exponent, r0, ell,
                                              message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PowerDesingularizer(scale, exponent, r0=r0, ell=ell)


# ---------------------------------------------------------------------------
# globalization
# ---------------------------------------------------------------------------


def test_globalize_tangent_extension_hand_case():
    # phi = sqrt(s) up to the junction r1 = 1, then 1 + (s - 1)/2:
    # value 2 at s = 3, slope 1/2 on the branch.
    base = PowerDesingularizer(scale=1.0, exponent=2.0, r0=2.0)
    g = globalize(base, junction=1.0)
    assert isinstance(g, GlobalizedDesingularizer)
    assert math.isinf(g.r0)
    assert g.phi(3.0) == pytest.approx(2.0, rel=1e-14)
    assert g.phi(0.25) == pytest.approx(0.5, rel=1e-14)
    assert g.phi_prime(3.0) == pytest.approx(0.5, rel=1e-14)


def test_globalize_is_c1_and_concave_at_junction():
    base = PowerDesingularizer(scale=1.3, exponent=2.0, r0=4.0)
    g = globalize(base, junction=1.7)
    eps = 1e-9
    left = g.phi_prime(1.7 - eps)
    right = g.phi_prime(1.7 + eps)
    assert left == pytest.approx(right, rel=1e-6)
    grid = np.geomspace(1e-6, 50.0, 400)
    slopes = np.array([g.phi_prime(s) for s in grid])
    assert np.all(np.diff(slopes) <= 1e-12)


def test_globalize_inverse_consistency():
    base = PowerDesingularizer(scale=1.0, exponent=2.0, r0=2.0)
    g = globalize(base, junction=1.0)
    # inside: psi = alpha^2; outside: affine inverse of the tangent branch
    assert g.psi(0.5) == pytest.approx(0.25, rel=1e-12)
    assert g.psi(2.0) == pytest.approx(3.0, rel=1e-12)
    for s in [0.3, 0.9, 1.0, 1.5, 4.0, 30.0]:
        assert g.psi(g.phi(s)) == pytest.approx(s, rel=1e-10)


def test_globalize_keeps_curvature_bound_of_inner_branch():
    base = PowerDesingularizer(scale=1.0, exponent=2.0, r0=2.0)
    g = globalize(base, junction=1.0)
    # psi' has slope 2/scale^2 on the parabola and 0 past the junction
    assert g.ell == pytest.approx(2.0, rel=1e-12)


def test_globalize_default_junction_is_half_radius():
    base = PowerDesingularizer(scale=1.0, exponent=2.0, r0=2.0)
    g = globalize(base)
    assert g.phi(1.0) == pytest.approx(base.phi(1.0), rel=1e-14)
    assert g.phi_prime(1.5) == pytest.approx(base.phi_prime(1.0), rel=1e-14)


def test_globalize_rejects_bad_junction():
    base = PowerDesingularizer(scale=1.0, exponent=2.0, r0=2.0)
    with pytest.raises(ValueError):
        globalize(base, junction=2.5)
    with pytest.raises(ValueError):
        globalize(base, junction=0.0)


# ---------------------------------------------------------------------------
# error-bound certificates and conversions
# ---------------------------------------------------------------------------


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1.0, max_value=4.0),
       gaps)
@settings(max_examples=200)
def test_round_trip_residual_domination(gamma, p, s):
    # cert -> profile -> cert loses at most the moderation factor p:
    # the recovered residual is exactly p times the original, never smaller.
    cert = ErrorBoundCertificate(form="power", p=p, gamma=gamma)
    d = from_error_bound(cert)
    back = to_error_bound(d)
    assert back.form == "power"
    assert back.residual(s) == pytest.approx(p * cert.residual(s), rel=1e-10)
    assert back.residual(s) >= cert.residual(s) * (1 - 1e-12)


def test_from_error_bound_power_scale():
    cert = ErrorBoundCertificate(form="power", p=2.0, gamma=4.0)
    d = from_error_bound(cert)
    assert isinstance(d, PowerDesingularizer)
    # phi = p * gamma^(-1/p) * s^(1/p) = s^(1/2) here
    assert d.scale == pytest.approx(1.0, rel=1e-14)
    assert d.exponent == 2.0


def test_two_regime_certificate_frozen_constants():
    # p = 1: gamma0 = 2 gamma for any radius; p = 2: sqrt(gamma) min(1,
    # sqrt(r0))
    g0, cert = extend_error_bound_globally(gamma=0.7, p=1.0, r0=5.0)
    assert g0 == pytest.approx(1.4, rel=1e-14)
    g0, cert = extend_error_bound_globally(gamma=1.0, p=2.0, r0=1.0)
    assert g0 == pytest.approx(1.0, rel=1e-14)
    g0, cert = extend_error_bound_globally(gamma=1.0, p=2.0, r0=4.0)
    assert g0 == pytest.approx(1.0, rel=1e-14)
    g0, cert = extend_error_bound_globally(gamma=4.0, p=2.0, r0=0.25)
    assert g0 == pytest.approx(1.0, rel=1e-14)
    assert cert.form == "two-regime"
    assert math.isinf(cert.r0)
    assert isinstance(cert.region, WholeSpace)


def test_two_regime_certificate_builds_tabulated_profile():
    _, cert = extend_error_bound_globally(gamma=1.0, p=2.0, r0=1.0)
    d = from_error_bound(cert)
    assert isinstance(d, TabulatedDesingularizer)
    # phi(s) = p (s + s^(1/p)) / gamma0 = 2 (s + sqrt(s)) here
    assert d.phi(4.0) == pytest.approx(12.0, rel=1e-12)
    assert d.phi_prime(4.0) == pytest.approx(2.5, rel=1e-12)
    # bisection inverse agrees with phi
    assert d.psi(12.0) == pytest.approx(4.0, rel=1e-8)


def test_general_residual_is_refused():
    cert = ErrorBoundCertificate(form="general", p=1.0,
                                 residual_fn=lambda s: s ** 0.5)
    with pytest.raises(NonModerateResidualError):
        from_error_bound(cert)


# the smallest subnormal, tiny, moderate and huge gaps, and zero
RESIDUAL_GAPS = (0.0, 5e-324, 1e-300, 1e-12, 0.3, 1.0, 2.5, 1e6, 1e300)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_two_regime_residual_matches_mpmath(p):
    # omega(s) = (s + s^(1/p)) / gamma0 within its roundings: the power,
    # the sum and the quotient, a few ulps or, on subnormal results, a few
    # steps of 2^-1074, and the exponent 1/p rounded to a float, which
    # moves s^(1/p) by |ln s| times its error
    cert = ErrorBoundCertificate(form="two-regime", p=p, gamma0=0.7)
    batch = cert.residual(np.array(RESIDUAL_GAPS)).tolist()
    with mpmath.workdps(30):
        exponent = mpmath.mpf(1) / mpmath.mpf(p)
        slip = abs(mpmath.mpf(1.0 / p) - exponent)
        for s, in_batch in zip(RESIDUAL_GAPS, batch):
            got = cert.residual(s)
            assert type(got) is float and got == in_batch
            S = mpmath.mpf(s)
            if s == 0.0:
                assert got == 0.0
                continue
            want = (S + S ** exponent) / mpmath.mpf(0.7)
            slack = mpmath.mpf(2) ** -50 + abs(mpmath.log(S)) * slip
            assert (abs(mpmath.mpf(got) - want)
                    <= slack * want + mpmath.mpf(2) ** -1073), (s, got)


# fractions of r0 below it, and multiples of r0 past it
BELOW_R0 = (0.0, 1e-12, 1e-6, 0.01, 0.1, 0.5, 0.9, 1.0 - 2.0 ** -52)
PAST_R0 = (1.0, 1.5, 10.0, 1e3, 1e6)


@pytest.mark.parametrize("gamma, p, r0", [
    (0.7, 1.0, 5.0), (1.0, 2.0, 1.0), (1.0, 2.0, 4.0), (4.0, 2.0, 0.25),
    (0.3, 3.0, 2.0), (2.0, 3.0, 0.1)])
def test_global_residual_dominates_the_local_bounds(gamma, p, r0):
    # below r0 the local power residual (s / gamma)^(1/p), which
    # f = gamma |x|^p attains; past r0 its convex extension
    # gamma^(-1/p) r0^(1/p - 1) s, which f = (r0 / rho) |x| attains,
    # rho = (r0 / gamma)^(1/p): compared at 30 digits on the stored
    # constants, with room for mpmath's own last digit
    g0, cert = extend_error_bound_globally(gamma=gamma, p=p, r0=r0)
    with mpmath.workdps(30):
        e, G0 = 1 / mpmath.mpf(p), mpmath.mpf(g0)
        G, R0 = mpmath.mpf(gamma), mpmath.mpf(r0)
        room = 1 - mpmath.mpf(10) ** -25

        def omega(s):
            S = mpmath.mpf(s)
            return (S + S ** e) / G0

        for t in BELOW_R0:
            s = r0 * t
            assert omega(s) >= room * (mpmath.mpf(s) / G) ** e, s
        for t in PAST_R0:
            s = r0 * t
            assert omega(s) >= room * mpmath.mpf(s) * R0 ** (e - 1) / G ** e, s
    # and in floats, as the certificates compute them
    local = ErrorBoundCertificate(form="power", p=p, gamma=gamma, r0=r0)
    s = r0 * np.array(BELOW_R0)
    assert (cert.residual(s) >= local.residual(s)).all()


def test_two_regime_extension_of_a_square_bounds_its_distance():
    # f = x^2 meets f >= dist^2 on [f <= r0] for every r0, so the global
    # residual must bound |x| = sqrt(f) at every x
    x = np.array([0.0, 1e-9, 0.01, 0.5, 0.99, 1.0, 2.0, 50.0])
    for r0 in (0.25, 1.0, 4.0):
        _, cert = extend_error_bound_globally(gamma=1.0, p=2.0, r0=r0)
        assert (cert.residual(x * x) >= x).all()


def test_general_certificate_of_a_globalized_profile_is_its_phi():
    # to_error_bound keeps a non-power profile as the "general" residual
    # phi itself, bit for bit, on both sides of the junction (at 1.0)
    d = globalize(PowerDesingularizer(scale=1.7, exponent=3.0, r0=2.0))
    cert = to_error_bound(d)
    assert cert.form == "general" and cert.residual_fn == d.phi
    assert math.isinf(cert.r0) and cert.region is d.region
    s = [0.0, 1e-9, 0.5, 1.0, 1.5, 2.0, 10.0, 1e6]
    assert cert.residual(np.array(s)).tobytes() == d.phi(np.array(s)).tobytes()
    for v in s:
        assert cert.residual(v) == d.phi(v)
    with pytest.raises(NonModerateResidualError):
        from_error_bound(cert)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedDesingularizer(phi_fn=math.sqrt, phi_prime_fn=lambda s: 0.5 / math.sqrt(s),
                                r0=0.0)
    d = TabulatedDesingularizer(phi_fn=math.sqrt, phi_prime_fn=lambda s: 0.5 / math.sqrt(s),
                                r0=1.0)
    with pytest.raises(ValueError):
        d.psi(math.sqrt(1.0) * 1.5)  # beyond phi(r0)


# each record's keys that hold null
ROUND_TRIPS = {
    "l1-ball": (PowerDesingularizer(scale=1.7, exponent=3.0, r0=2.0,
                                    region=L1Ball(1.25)), ()),
    "metric-ball": (PowerDesingularizer(
        scale=0.9, exponent=2.0, ell=0.3,
        region=Ball(np.array([0.1, -0.35, 2.0]), 0.7)), ("r0",)),
    # psi' has no Lipschitz constant on [0, inf) for p = 2.5
    "whole-space": (PowerDesingularizer(scale=1.3, exponent=2.5,
                                        region=WholeSpace()), ("ell", "r0")),
    # no region given: the whole space, written as such
    "default-whole-space": (PowerDesingularizer(scale=1.1, exponent=2.0),
                            ("r0",)),
    "globalized": (globalize(PowerDesingularizer(
        scale=1.0, exponent=2.0, r0=2.0,
        region=Ball(np.array([0.5, -0.25]), 1.5)), junction=0.8), ()),
}


def test_desingularizer_serialization_round_trip():
    for name, (d, nulls) in ROUND_TRIPS.items():
        record = write_value(d, DESINGULARIZERS)
        assert tuple(sorted(k for k, v in record.items()
                            if v is None)) == nulls, name
        back = read_value(json.loads(json.dumps(record)), DESINGULARIZERS,
                          name)
        assert type(back) is type(d), name
        assert write_value(back, DESINGULARIZERS) == record, name
        for s in [0.0, 0.1, 0.5, 0.8, 1.9, 5.0]:
            assert back.phi(s) == d.phi(s), (name, s)
            assert back.phi_prime(s) == d.phi_prime(s), (name, s)
            assert back.psi(s) == d.psi(s), (name, s)


def test_only_tabled_desingularizers_are_written():
    with pytest.raises(ValueError, match="has no record"):
        write_value(TabulatedDesingularizer(math.sqrt, math.sqrt, r0=1.0),
                    DESINGULARIZERS)


def _reference_default_ell(d):
    # the constructor's former private default, kept as an independent copy
    p = d.exponent
    if p == 2.0:
        return 2.0 / d.scale ** 2
    if p > 2.0 and math.isfinite(d.r0):
        return p * (p - 1.0) * d.alpha0() ** (p - 2.0) / d.scale ** p
    if p == 1.0:
        return 0.0
    return None


@pytest.mark.parametrize("p", [1.0, 1.3, 2.0, 2.5, 3.0, 4.7])
def test_default_ell_matches_reference_bits(p):
    for scale in (0.3, 1.0, 1.7, 25.0):
        for r0 in (0.01, 0.5, 1.0, 7.0, math.inf):
            d = PowerDesingularizer(scale=scale, exponent=p, r0=r0)
            assert repr(d.ell) == repr(_reference_default_ell(d)), (scale, r0)


# ---------------------------------------------------------------------------
# one calling convention: a float for a float, an array for an array
# ---------------------------------------------------------------------------


def _profile_zoo() -> dict:
    power = PowerDesingularizer(scale=1.3, exponent=2.0, r0=5.0)
    return {
        "power-p2": PowerDesingularizer(scale=1.3, exponent=2.0),
        "power-p3": PowerDesingularizer(scale=0.7, exponent=3.0, r0=4.0),
        "globalized": globalize(power, junction=1.0),
        "tabulated-two-regime": from_error_bound(ErrorBoundCertificate(
            form="two-regime", p=2.0, gamma0=1.5)),
    }


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("name", sorted(_profile_zoo()))
def test_batched_profiles_match_point_calls(name):
    d = _profile_zoo()[name]
    rng = np.random.default_rng(29)
    # zero, the globalized junction and its value, both sides of each
    args = np.concatenate([[0.0, 1e-300, 1.0, d.phi(1.0), 3.0],
                           rng.uniform(0.0, 3.0, 45),
                           rng.exponential(1e-3, 10)])
    for method in ("phi", "phi_prime", "psi", "psi_prime"):
        fn = getattr(d, method)
        batch = fn(args)
        assert batch.shape == args.shape, (name, method)
        for i, v in enumerate(args.tolist()):
            point = fn(v)
            assert isinstance(point, float), (name, method)
            assert _same_bits(batch[i], point), (name, method, i)
        # any number of batch axes
        assert _same_bits(fn(args.reshape(3, -1)), batch.reshape(3, -1))
    with pytest.raises(ValueError, match="nonnegative"):
        d.psi(np.array([0.5, -1e-3]))


# ---------------------------------------------------------------------------
# libm powers: the bits of Python's ** on every entry
# ---------------------------------------------------------------------------


def _pow_bases() -> np.ndarray:
    rng = np.random.default_rng(2026)
    patterns = rng.integers(0, 0x7FF0000000000000, 2 ** 16, dtype=np.int64)
    edges = [0.0, -0.0, 5e-324, 1.0, np.nextafter(1.0, 0.0),
             np.nextafter(1.0, 2.0), np.finfo(float).max, math.inf, math.nan]
    return np.concatenate([edges, patterns.view(np.float64),
                           rng.uniform(0.0, 10.0, 2 ** 14)])


def _python_pows(bases, exponent):
    """base ** exponent per base, and where ** raises (there the power is 0)."""
    powers, raises = [], []
    for base in bases:
        try:
            powers.append(base ** exponent)
            raises.append(False)
        except (ZeroDivisionError, OverflowError):
            powers.append(0.0)
            raises.append(True)
    return np.array(powers), np.array(raises)


# the exponents of phi, phi', psi, psi' and the two-regime slope of order p
POW_EXPONENTS = sorted({e for p in (1.0, 1.5, 2.0, 3.0, 4.0)
                        for e in (1.0 / p, 1.0 / p - 1.0, p, p - 1.0,
                                  (1.0 - p) / p)})


@pytest.mark.parametrize("exponent", POW_EXPONENTS)
def test_libm_pow_has_the_bits_of_python_pow(exponent):
    # the bases whose ** does not raise: all of those with a finite power
    # in one vectorized call, then the first 1024 with inf and nan among
    # them, which are redone entry by entry
    bases = _pow_bases()
    want, raises = _python_pows(bases.tolist(), exponent)
    finite = ~raises & np.isfinite(want)
    assert _same_bits(libm_pow(bases[finite], exponent), want[finite])
    head = ~raises[:1024]
    assert _same_bits(libm_pow(bases[:1024][head], exponent),
                      want[:1024][head])


@pytest.mark.parametrize("q", [1.0 + 2.0 ** -52, 1.000123, 6.0, 11.0])
def test_libm_pow_integer_exponents_have_the_bits_of_python_pow(q):
    # the rate override's q^k, k = 0, 1, ... up to the first overflow
    # (at most 20000 steps)
    want = []
    for k in range(20001):
        try:
            want.append(q ** float(k))
        except OverflowError:
            break
    assert _same_bits(libm_pow(q, np.arange(len(want))), want), q


@pytest.mark.parametrize("base, exponent, error", [
    (0.0, -0.5, ZeroDivisionError),
    (1e300, 2.0, OverflowError),
    # ** gives a complex number, which is not a float
    (-8.0, 1.0 / 3.0, TypeError),
])
def test_libm_pow_raises_where_python_pow_raises(base, exponent, error):
    batch = np.array([0.5, 2.0, base, 3.0])
    with pytest.raises(error):
        libm_pow(batch, exponent)
    with pytest.raises(error):
        libm_pow(batch, np.full(4, exponent))


# ---------------------------------------------------------------------------
# the pointwise inequality
# ---------------------------------------------------------------------------


def test_kl_gap_zero_for_matched_quadratic():
    # f = ||x||^2 with phi = sqrt(s): phi'(f) * ||grad f|| = 1 identically
    obj = quadratic_objective(center=[0.0], weight=1.0)
    d = PowerDesingularizer(scale=1.0, exponent=2.0)
    for x in [0.1, 0.7, -2.3]:
        g = kl_gap(d, obj, np.array([x]))
        assert abs(g) <= 1e-12


def test_kl_gap_zero_for_matched_sharp():
    # f = ||x||_1 in 1-d with phi = s: slope 1 times unit subgradient
    obj = scaled_l1(dimension=1, weight=1.0)
    d = PowerDesingularizer(scale=1.0, exponent=1.0)
    for x in [0.3, -1.2]:
        assert abs(kl_gap(d, obj, np.array([x]))) <= 1e-12


def test_kl_gap_skips_minimum_and_region():
    obj = quadratic_objective(center=[0.0], weight=1.0)
    d = PowerDesingularizer(scale=1.0, exponent=2.0)
    assert math.isnan(kl_gap(d, obj, np.zeros(1)))  # zero gap
    d_banded = PowerDesingularizer(scale=1.0, exponent=2.0, r0=0.25)
    assert math.isnan(kl_gap(d_banded, obj, np.array([1.0])))  # gap beyond r0
    d_region = PowerDesingularizer(scale=1.0, exponent=2.0,
                                   region=Ball(np.zeros(1), 0.5))
    assert math.isnan(kl_gap(d_region, obj, np.array([2.0])))  # outside region
    assert not math.isnan(kl_gap(d_region, obj, np.array([0.3])))
