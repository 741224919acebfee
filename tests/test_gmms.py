"""Bounded-mixture number distribution, thermal comparison and purification."""

import math
import tracemalloc

import numpy as np
import pytest

from gmeslab import (
    DomainError,
    TruncationError,
    f_coefficient,
    gmes_spectrum,
    gmms_distribution,
    mean_photon,
    purify,
    thermal_distribution,
    tmsv_spectrum,
)


@pytest.mark.parametrize("b", [0.5, 1.0, 5.0])
def test_gmms_matches_f(b):
    # the distribution uses the vectorized profile kernel, the scalar uses an
    # exact-sum recurrence; both are relative-accurate in both tails
    d = gmms_distribution(b)
    for n in range(min(len(d), 30)):
        assert d.probs[n] == pytest.approx(f_coefficient(n, b), rel=5e-12)


def test_gmms_leading_weight():
    d = gmms_distribution(15.0)
    assert d.probs[0] == pytest.approx(-math.expm1(-225.0) / 225.0, rel=1e-14)
    assert float(d.probs.sum()) >= 1.0 - 1e-12


def test_gmms_near_uniform_body():
    # for n far below b^2 the Poisson tail is ~1, so f(n, b) ~ 1/b^2
    assert f_coefficient(100, 15.0) * 225.0 == pytest.approx(1.0, abs=1e-10)


def test_gmms_nonincreasing():
    d = gmms_distribution(5.0)
    assert np.all(np.diff(d.probs) <= 0.0)


def test_gmms_errors():
    with pytest.raises(DomainError):
        gmms_distribution(0.0)
    with pytest.raises(DomainError):
        gmms_distribution(-3.0)


# ---------------------------------------------------------------------------
# thermal distribution
# ---------------------------------------------------------------------------


def test_thermal_vacuum():
    d = thermal_distribution(0.0)
    assert d.probs.tolist() == [1.0]
    assert d.tail_bound == 0.0


@pytest.mark.parametrize("nbar", [0.3, 1.0, 4.0])
def test_thermal_geometric_form(nbar):
    d = thermal_distribution(nbar)
    n = np.arange(len(d))
    want = nbar**n / (1.0 + nbar) ** (n + 1)
    np.testing.assert_allclose(d.probs, want, rtol=1e-12)
    mean = float(np.dot(n, d.probs))
    assert mean == pytest.approx(nbar, abs=1e-9 * (1.0 + nbar))


def test_thermal_is_the_one_expression():
    # built in place, the weights keep the bits of exp(n log q - log1p(nbar))
    for nbar in np.exp(np.random.default_rng(5000).uniform(math.log(1e-6), math.log(7000.0), 40)).tolist():
        d = thermal_distribution(nbar)
        log_q = -math.log1p(1.0 / nbar) if nbar >= 1.0 else math.log(nbar) - math.log1p(nbar)
        want = np.exp(np.arange(len(d), dtype=float) * log_q - math.log1p(nbar))
        assert d.probs.tobytes() == want.tobytes(), nbar


def test_thermal_holds_one_weight_array():
    # 138,169 weights at nbar = 5000, built in one array with no float temporary
    size = thermal_distribution(5000.0).probs.nbytes
    tracemalloc.start()
    try:
        thermal_distribution(5000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * size


def test_thermal_errors():
    with pytest.raises(DomainError):
        thermal_distribution(-0.1)


@pytest.mark.parametrize("nbar", [2e14, 1e15, 1e300, 1.7e308])
def test_thermal_past_the_cap(nbar):
    # here log nbar - log1p(nbar) rounds to 0, so log q needs -log1p(1/nbar),
    # and the cap is checked before the cutoff guess log(tol)/log q
    with pytest.raises(TruncationError, match="hard cap"):
        thermal_distribution(nbar)


# ---------------------------------------------------------------------------
# purification
# ---------------------------------------------------------------------------


def test_purify_identity_cases():
    assert purify([1.0]).coeffs.tolist() == [1.0]
    s = purify([0.5, 0.25, 0.25])
    np.testing.assert_allclose(s.coeffs, np.sqrt([0.5, 0.25, 0.25]))


@pytest.mark.parametrize("b", [0.5, 1.0, 5.0, 15.0])
def test_purify_gmms_matches_gmes(b):
    lifted = purify(gmms_distribution(b))
    direct = gmes_spectrum(b)
    n = min(len(lifted), len(direct))
    assert abs(len(lifted) - len(direct)) <= 1
    np.testing.assert_allclose(lifted.coeffs[:n], direct.coeffs[:n], atol=1e-14, rtol=0)


def test_purify_preserves_mean():
    d = thermal_distribution(2.5)
    direct = float(np.dot(np.arange(len(d)), d.probs))
    assert mean_photon(purify(d)) == pytest.approx(direct, rel=1e-14)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_purified_thermal_is_tmsv(r):
    # p_n = nbar^n/(1+nbar)^{n+1} with nbar = sinh^2 r gives sqrt(p_n) = tanh^n r / cosh r
    lifted = purify(thermal_distribution(math.sinh(r) ** 2))
    direct = tmsv_spectrum(r)
    n = min(len(lifted), len(direct))
    assert abs(len(lifted) - len(direct)) <= 2
    np.testing.assert_allclose(lifted.coeffs[:n], direct.coeffs[:n], atol=1e-10, rtol=0)


def test_purify_rejects_negatives():
    # and every other raw vector that NumberDistribution refuses: nan, an
    # inf - inf pair, 2-d, empty, and a sum above 1
    for probs in ([0.5, -0.1, 0.6], [0.5, math.nan], [math.inf, -math.inf], [[0.5], [0.5]], [], [0.7, 0.7]):
        with pytest.raises(DomainError):
            purify(probs)
