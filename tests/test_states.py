"""Spectrum constructors, the Poisson-tail kernel and the mean-photon solvers."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmeslab import (
    ConfigError,
    DomainError,
    SchmidtSpectrum,
    TruncationError,
    f_coefficient,
    gmes_spectrum,
    mean_photon,
    mes_spectrum,
    poisson_tail,
    solve_b_for_nbar,
    solve_r_for_nbar,
    tmsv_partial_spectrum,
    tmsv_spectrum,
)

TRACE_B_GRID = [0.5, 1.0, 5.0, 15.0, 25.0]


def tail_oracle(n, lam):
    """P(X > n) for X ~ Poisson(lam) via the regularized lower incomplete gamma."""
    with mpmath.workdps(50):
        return float(mpmath.gammainc(n + 1, 0, lam, regularized=True))


# ---------------------------------------------------------------------------
# Poisson tail kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,lam,rel",
    [
        (0, 1.0, 1e-12),
        (5, 1.0, 1e-12),
        (50, 1.0, 1e-12),  # deep tail, value ~ 1e-66
        (10, 225.0, 1e-12),
        (100, 225.0, 1e-12),
        (300, 225.0, 1e-12),
        (224, 225.0, 1e-12),  # right at the mean
        (600, 800.0, 1e-12),  # lam > 700 exercises the log-space branch
        (900, 800.0, 1e-12),
        # |log pmf| ~ 1.3e4 here, so lgamma rounding alone costs ~ 3e-12
        (2000, 800.0, 2e-11),
    ],
)
def test_poisson_tail_matches_mpmath(n, lam, rel):
    want = tail_oracle(n, lam)
    got = poisson_tail(n, lam)
    assert got == pytest.approx(want, rel=rel, abs=1e-300)


def test_poisson_tail_edges():
    assert poisson_tail(0, 0.0) == 0.0
    assert poisson_tail(7, 0.0) == 0.0
    assert poisson_tail(-1, 2.0) == 1.0  # P(X > -1) is certain
    tails = [poisson_tail(n, 4.0) for n in range(40)]
    assert all(b <= a for a, b in zip(tails, tails[1:]))
    assert 0.0 <= tails[-1] <= tails[0] <= 1.0
    with pytest.raises(DomainError):
        poisson_tail(3, -1.0)
    with pytest.raises(DomainError):
        poisson_tail(3, math.inf)


# ---------------------------------------------------------------------------
# f(n, b)
# ---------------------------------------------------------------------------


def test_f_coefficient_reference_value():
    # (1 - e^{-1}(1 + 1 + 1/2)) / 1
    assert f_coefficient(2, 1.0) == pytest.approx(1.0 - 2.5 / math.e, abs=1e-15)


@pytest.mark.parametrize("b", TRACE_B_GRID)
def test_f_zero_term(b):
    want = -math.expm1(-b * b) / (b * b)
    assert f_coefficient(0, b) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("b", TRACE_B_GRID)
def test_f_trace_identity(b):
    # sum_n P(X > n) = E[X] = b^2, so sum_n f(n, b) = 1
    spectrum = gmes_spectrum(b)
    total = float(np.sum(spectrum.coeffs**2))
    assert abs(total + spectrum.tail_bound - 1.0) <= 1e-10


@pytest.mark.parametrize("b", TRACE_B_GRID)
def test_f_nonincreasing(b):
    vals = np.array([f_coefficient(n, b) for n in range(120)])
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0 / (b * b))


def test_f_domain_errors():
    with pytest.raises(DomainError):
        f_coefficient(0, 0.0)
    with pytest.raises(DomainError):
        f_coefficient(0, -2.0)
    with pytest.raises(DomainError):
        f_coefficient(-1, 1.0)


# ---------------------------------------------------------------------------
# TMSV spectra
# ---------------------------------------------------------------------------


def test_tmsv_vacuum():
    s = tmsv_spectrum(0.0)
    assert s.coeffs.tolist() == [1.0]
    assert s.tail_bound == 0.0


def test_tmsv_coefficient_formula():
    r = 1.0
    s = tmsv_spectrum(r)
    n = np.arange(len(s))
    direct = np.tanh(r) ** n / np.cosh(r)
    np.testing.assert_allclose(s.coeffs, direct, rtol=1e-13)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_tmsv_geometric_tail_identity(r):
    # sum_{n<=M} c_n^2 = 1 - tanh(r)^{2(M+1)} exactly for a geometric series
    s = tmsv_spectrum(r)
    m = len(s) - 1
    partial = float(np.sum(s.coeffs**2))
    assert partial == pytest.approx(1.0 - math.tanh(r) ** (2 * (m + 1)), abs=1e-12)
    assert s.tail_bound <= 1e-12
    assert partial >= 1.0 - 1e-12


def test_tmsv_mean_photon():
    s = tmsv_spectrum(5.0)
    assert mean_photon(s) == pytest.approx(math.sinh(5.0) ** 2, rel=1e-9)


def test_tmsv_strictly_decreasing():
    s = tmsv_spectrum(1.3)
    assert np.all(np.diff(s.coeffs) < 0.0)


def test_tmsv_errors():
    with pytest.raises(DomainError):
        tmsv_spectrum(-0.1)
    with pytest.raises(ConfigError):
        tmsv_spectrum(1.0, tol=0.0)
    with pytest.raises(ConfigError):
        tmsv_spectrum(1.0, tol=1.5)
    with pytest.raises(TruncationError):
        tmsv_spectrum(3.0, cap=10)


def test_tmsv_partial_prefix():
    full = tmsv_spectrum(1.0)
    part = tmsv_partial_spectrum(1.0, 5)
    assert len(part) == 5
    np.testing.assert_allclose(part.coeffs, full.coeffs[:5], rtol=0, atol=0)
    norm_sq = float(np.sum(part.coeffs**2))
    assert norm_sq + part.tail_bound == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# GMES spectra
# ---------------------------------------------------------------------------


def test_gmes_leading_coefficient():
    s = gmes_spectrum(1.0)
    assert s.coeffs[0] == pytest.approx(math.sqrt(-math.expm1(-1.0)), rel=1e-14)


def test_gmes_small_b_is_nearly_vacuum():
    s = gmes_spectrum(1e-3)
    assert s.coeffs[0] > 1.0 - 1e-6
    assert len(s) <= 4


@pytest.mark.parametrize("b", [0.5, 1.0, 5.0])
def test_gmes_strictly_decreasing(b):
    s = gmes_spectrum(b)
    assert np.all(np.diff(s.coeffs) < 0.0)


@pytest.mark.parametrize("b", [15.0, 25.0])
def test_gmes_nonincreasing_large_b(b):
    # adjacent f values for large b differ by pmf(n+1)/b^2, which underflows the
    # float spacing near n = 0, so only the nonstrict ordering is representable
    s = gmes_spectrum(b)
    assert np.all(np.diff(s.coeffs) <= 0.0)


def test_gmes_mean_photon_half_b_squared():
    # sum_n n P(X>n) = (E X^2 - E X)/2 = lam^2/2 for Poisson, so nbar = b^2/2
    for b in [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]:
        assert mean_photon(gmes_spectrum(b)) == pytest.approx(b * b / 2.0, rel=1e-10)


def test_gmes_mean_increasing_in_b():
    grid = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    means = [mean_photon(gmes_spectrum(b)) for b in grid]
    assert all(x < y for x, y in zip(means, means[1:]))


def test_gmes_errors():
    with pytest.raises(DomainError):
        gmes_spectrum(0.0)
    with pytest.raises(DomainError):
        gmes_spectrum(-1.0)
    with pytest.raises(TruncationError):
        gmes_spectrum(25.0, cap=100)


# ---------------------------------------------------------------------------
# MES spectra
# ---------------------------------------------------------------------------


def test_mes_examples():
    assert mes_spectrum(1).coeffs.tolist() == [1.0]
    np.testing.assert_allclose(mes_spectrum(4).coeffs, [0.5, 0.5, 0.5, 0.5])
    np.testing.assert_allclose(mes_spectrum(3).coeffs, np.full(3, 1.0 / math.sqrt(3.0)))
    assert mes_spectrum(3).tail_bound == 0.0


def test_mes_mean_photon():
    for n in [1, 2, 5, 40]:
        assert mean_photon(mes_spectrum(n)) == pytest.approx((n - 1) / 2.0, abs=1e-12)


def test_mes_errors():
    with pytest.raises(DomainError):
        mes_spectrum(0)
    with pytest.raises(DomainError):
        mes_spectrum(-3)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def test_solve_r_examples():
    assert solve_r_for_nbar(0.0) == 0.0
    assert solve_r_for_nbar(math.sinh(2.0) ** 2) == pytest.approx(2.0, rel=1e-12)
    assert solve_r_for_nbar(1.0) == pytest.approx(math.asinh(1.0), rel=1e-12)
    with pytest.raises(DomainError):
        solve_r_for_nbar(-0.5)


def test_solve_b_round_trip():
    nbar = mean_photon(gmes_spectrum(3.0))
    b = solve_b_for_nbar(nbar)
    assert b == pytest.approx(3.0, abs=1e-6)
    assert mean_photon(gmes_spectrum(b)) == pytest.approx(nbar, abs=1e-8)


def test_solve_b_closed_form():
    # nbar(b) = b^2/2, so the inverse is sqrt(2 nbar)
    for nbar in [0.5, 2.0, 8.0]:
        assert solve_b_for_nbar(nbar) == pytest.approx(math.sqrt(2.0 * nbar), abs=1e-6)


def test_solve_b_monotone():
    bs = [solve_b_for_nbar(n) for n in [0.5, 2.0, 10.0]]
    assert bs[0] < bs[1] < bs[2]


def test_solve_b_tiny_nbar():
    b = solve_b_for_nbar(1e-6)
    assert 0.0 < b < 0.01
    assert gmes_spectrum(b).coeffs[0] > 0.999999


@given(st.floats(1e-4, 50.0))
def test_solve_b_mean_photon_property(nbar):
    assert abs(mean_photon(gmes_spectrum(solve_b_for_nbar(nbar))) - nbar) <= 1e-8


def test_solve_b_errors():
    # at 1e308, 2 nbar overflows to inf
    for nbar in [0.0, -1.0, math.inf, math.nan, 1e308]:
        with pytest.raises(DomainError):
            solve_b_for_nbar(nbar)


# ---------------------------------------------------------------------------
# SchmidtSpectrum validation
# ---------------------------------------------------------------------------


def test_spectrum_rejects_bad_inputs():
    with pytest.raises(DomainError):
        SchmidtSpectrum(np.array([-0.5, 0.5]), 0.0)
    with pytest.raises(DomainError):
        SchmidtSpectrum(np.array([1.0, 1.0]), 0.0)  # norm > 1
    with pytest.raises(DomainError):
        SchmidtSpectrum(np.array([0.5]), 0.0)  # missing mass, no tail declared
    with pytest.raises(DomainError):
        SchmidtSpectrum(np.array([1.0]), -0.1)
