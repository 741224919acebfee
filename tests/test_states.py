"""Spectrum constructors, the Poisson-tail kernel and the mean-photon solvers."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, pdtrc

from gmeslab import states
from gmeslab import (
    ConfigError,
    DomainError,
    FockVector,
    NumberDistribution,
    SchmidtSpectrum,
    TruncationError,
    TwoModeFock,
    f_coefficient,
    gmes_spectrum,
    fidelity,
    mean_photon,
    mes_overlaps,
    mes_spectrum,
    poisson_tail,
    solve_b_for_nbar,
    solve_r_for_nbar,
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
        (600, 800.0, 1e-12),  # lam > 745: exp(-lam) alone underflows
        (900, 800.0, 1e-12),
        # |log pmf| ~ 1.3e4 here, so lgamma rounding alone costs ~ 3e-12
        (2000, 800.0, 2e-11),
    ],
)
def test_poisson_tail_matches_mpmath(n, lam, rel):
    want = tail_oracle(n, lam)
    got = poisson_tail(n, lam)
    assert got == pytest.approx(want, rel=rel, abs=1e-300)


LAM_398 = 398.0**2


@given(st.floats(0.0, 2e5), st.floats(-45.0, 45.0))
@example(LAM_398, -3.0)
@example(LAM_398, -0.5)
@example(LAM_398, 0.5)
@example(LAM_398, 3.0)
@example(198991.34664984912, 31.11)  # n = 212869, worst seen: 7.5e-10
def test_poisson_tail_matches_pdtrc(lam, z):
    # n = lam + z sqrt(lam) keeps every draw within 45 standard deviations of
    # the mean, where the tail is not trivially 0 or 1
    n = max(0, int(lam + z * math.sqrt(lam)))
    # exp(k log lam - lam - gammaln(k + 1)) cancels terms of size ~ n log n,
    # about 2.6e6 at the top of this range, so each pmf term carries a few
    # eps * 2.6e6 of relative rounding; 2e-9 bounds that with margin.
    want = pdtrc(n, lam)
    got = poisson_tail(n, lam)
    if want > 1e-290:
        assert abs(got - want) <= 2e-9 * want
    else:
        assert 0.0 <= got <= 1e-280


def test_poisson_tail_below_mean_memory():
    # the sum below the mean covers an O(sqrt(lam)) window, not all n + 1 terms
    lam = LAM_398
    tracemalloc.start()
    try:
        poisson_tail(int(lam - 2.0 * math.sqrt(lam)), lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("n,lam", [(1e300, 1e300), (10**20, 1e20)])
def test_poisson_tail_refuses_a_band_past_the_cap(n, lam):
    # lam - 38.7 sqrt(lam) rounds to lam at 1e300, and at 1e20 the terms past n
    # would need a 2.8 TiB array: both sums are refused before any array is built
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match="hard cap"):
            poisson_tail(n, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # the support's ends are integers apart from the mean, and an n outside them
    # still gets its 1.0 or 0.0
    lo, hi = states._pmf_support(lam)
    assert lo < math.floor(lam) < hi
    assert poisson_tail(lo - 1, lam) == 1.0
    assert poisson_tail(hi - 1, lam) == 0.0


def test_poisson_tail_edges():
    assert poisson_tail(0, 0.0) == 0.0
    assert poisson_tail(7, 0.0) == 0.0
    assert poisson_tail(-1, 2.0) == 1.0  # P(X > -1) is certain
    assert poisson_tail(10**6, 2e5) == 0.0  # far below the smallest double
    assert poisson_tail(3.0, 2.0) == poisson_tail(3.5, 2.0) == poisson_tail(3, 2.0)
    tails = [poisson_tail(n, 4.0) for n in range(40)]
    assert all(b <= a for a, b in zip(tails, tails[1:]))
    assert 0.0 <= tails[-1] <= tails[0] <= 1.0
    with pytest.raises(DomainError):
        poisson_tail(3, -1.0)
    with pytest.raises(DomainError):
        poisson_tail(3, math.inf)


def first_underflowing(lam):
    """Least n > lam whose first tail term, P(X = n + 1), has log below -746."""
    n = int(lam)
    while (n + 1) * math.log(lam) - lam - math.lgamma(n + 2) >= -746.0:
        n += 1
    return n


def test_poisson_tail_skips_underflowing_window(monkeypatch):
    # from hi - 1 on no term of the support is left above n, so no kernel
    # term is evaluated; past the first underflowing term the tail is 0.0
    calls = []

    def spy(start, stop, lam):
        calls.append((start, stop))
        return pmf_terms(start, stop, lam)

    pmf_terms = states._pmf_terms
    monkeypatch.setattr(states, "_pmf_terms", spy)
    for lam in (156.25, 800.0, 1e4, LAM_398):
        lo, hi = states._pmf_support(lam)
        for n in (hi - 3, hi - 2, hi - 1, hi, hi + 100, 10**7):
            calls.clear()
            assert poisson_tail(n, lam) == 0.0
            assert all(lo <= start and stop <= hi for start, stop in calls)
            assert (calls == []) == (n >= hi - 1)
        cut = first_underflowing(lam)
        assert [poisson_tail(n, lam) for n in range(cut, cut + 3)] == [0.0] * 3


# ---------------------------------------------------------------------------
# The pmf support: the kernel runs only where a term can be a nonzero double
# ---------------------------------------------------------------------------

SUPPORT_RADII = (60.0, 120.0, 200.0, 300.0, 350.0, 420.0)


def reference_pmf(k, lam):
    """The kernel's formula on every k given."""
    return np.exp(k * math.log(lam) - lam - gammaln(k + 1.0))


def reference_tail_array(lam, nmax):
    """P(X > n), n = 0..nmax, from cumulative sums over every k up to nmax + window."""
    pmf = reference_pmf(np.arange(nmax + 1 + states._tail_window(lam), dtype=float), lam)
    cdf = np.cumsum(pmf[: nmax + 1])
    lower = 1.0 - np.minimum(cdf, 1.0)
    above = np.cumsum(pmf[:0:-1])[::-1][: nmax + 1]
    return np.where(np.arange(nmax + 1) + 1 <= lam, lower, above)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 2.5e5, exclude_min=True))
@example(1490.0)  # lo = 0 just below lam = 1500, positive above it
@example(1500.0)
@example(60.0**2)
@example(120.0**2)
@example(200.0**2)
@example(300.0**2)
@example(350.0**2)
@example(420.0**2)
def test_pmf_support_is_exact(lam):
    lo, hi = states._pmf_support(lam)
    edges = np.array([k for k in (*range(lo - 3, lo), *range(hi, hi + 4)) if k >= 0], dtype=float)
    assert np.all(reference_pmf(edges, lam) == 0.0)
    # the first array of bounded_f_profile and the one of mes_overlaps, and
    # two that end below the support, as a small cap of bounded_f_profile does
    for nmax in (int(lam + 12.0 * math.sqrt(lam) + 30.0), int(lam + states._tail_window(lam)),
                 max(0, lo - 1), lo // 2):
        want = reference_tail_array(lam, nmax)
        assert np.array_equal(bits(states._poisson_tail_array(lam, nmax)), bits(want))


def chernoff_support(lam):
    """The support from the Chernoff bound alone, h(x) >= (1 - x)^2/2 below the mean and (x - 1)^2/(2x) above it."""
    spread = math.sqrt(1500.0) * math.sqrt(lam)
    return max(0, math.floor(lam - spread)), math.ceil(lam + 750.0 + math.hypot(750.0, spread)) + 1


def underflow_bound(k, lam):
    """lam h(k/lam) + log(2 pi k)/2, h(x) = x log x - x + 1, which bounds -log P(X = k) from below."""
    return k * math.log(k / lam) - k + lam + 0.5 * math.log(2.0 * math.pi * k)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 2e5))
@example(1e-3)
@example(2e5)
def test_pmf_support_upper_end_is_the_first_underflowing_bound(lam):
    lo, hi = states._pmf_support(lam)
    chernoff_lo, chernoff_hi = chernoff_support(lam)
    assert chernoff_lo - 1 <= lo <= chernoff_lo and hi <= chernoff_hi
    # every term from hi to past the Chernoff end is 0.0 in both kernels
    for kernel in (states._pmf_terms, states._pmf_saddle):
        assert not kernel(hi, chernoff_hi + 4, lam).any()
    # hi is the first k > lam where the bound reaches 750, up to the rounding of the bound
    assert underflow_bound(hi, lam) >= 750.0 - 1e-6
    assert hi - 1 <= lam or underflow_bound(hi - 1, lam) < 750.0 + 1e-6


@pytest.mark.parametrize("lam,hi", [(2.25, 211), (16.0, 351), (144.0, 818), (1444.0, 3143)])
def test_pmf_support_ends_near_the_last_nonzero_term(lam, hi):
    # the Chernoff end was 1506, 1533, 1778 and 3847 here: mostly exact zeros
    lo = states._pmf_support(lam)[0]
    assert states._pmf_support(lam)[1] == hi
    for kernel in (states._pmf_terms, states._pmf_saddle):
        last = lo + np.flatnonzero(kernel(lo, hi, lam))[-1]
        assert hi - last <= 8


SPECIAL_MEANS = (0.5, 2.99, 3.0, 1500.0, 1508.0, 8.9e307)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-300.0, 6.0), min_size=1, max_size=50), st.lists(st.sampled_from(SPECIAL_MEANS)),
       st.integers(0, 2000), st.integers(0, 2000))
@example([-2.0, 2.0], list(SPECIAL_MEANS), 0, 2)  # fig1's shape
@example([0.0], [], 0, 0)
@example([3.2], [1508.0], 1490, 1510)
def test_tail_array_rows_are_the_scalar_calls(exponents, special, a, b):
    # each row of the call over a vector of means is its own mean's call bit for bit
    lams = np.array([10.0**e for e in exponents] + special)
    nmin, nmax = min(a, b), max(a, b)
    rows = states._poisson_tail_array(lams, nmax, nmin)
    assert rows.shape == (lams.size, nmax + 1 - nmin)
    for lam, row in zip(lams.tolist(), rows):
        assert np.array_equal(bits(row), bits(states._poisson_tail_array(lam, nmax, nmin))), lam


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 2.5e5, exclude_min=True), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
@example(13.69, [0.5])  # n = 13 = floor(lam): the upper sum, though CDF(13) < 0.5
@example(1e-300, [0.0])
@example(1490.0, [0.1])
@example(LAM_398, [0.3, 0.9])
def test_poisson_tail_is_one_point_of_the_tail_array(lam, fractions):
    # one routine: the scalar tail is the tail array's entry bit for bit, for
    # the arrays of bounded_f_profile and of mes_overlaps alike
    lo, hi = states._pmf_support(lam)
    mean = math.floor(lam)
    for nmax in (int(lam + 12.0 * math.sqrt(lam) + 30.0), int(lam + states._tail_window(lam))):
        tails = states._poisson_tail_array(lam, nmax)
        picks = {lo - 1, lo, lo + 1, mean - 1, mean, mean + 1, hi - 2, hi - 1, nmax - 1, nmax}
        picks |= {int(u * nmax) for u in fractions}
        for n in sorted(k for k in picks if 0 <= k <= nmax):
            assert bits(poisson_tail(n, lam)) == bits(tails[n]), n


TABLE = states._LOG_FACTORIAL.size


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 2.5e5, exclude_min=True), st.integers(0, TABLE + 64), st.integers(-64, 64))
@example(1600.0, 0, 0)  # the whole support of lam = 1600 ends inside the table
@example(2.5e5, TABLE - 10, 0)
@example(1e-300, 0, -TABLE)  # start = 0, stop = 0: no term
def test_pmf_terms_read_the_log_factorial_table(lam, start, offset):
    # ranges that end below, at and above the table's end, against gammaln itself
    assert not states._LOG_FACTORIAL.flags.writeable
    for stop in (start + 1, start + 300, TABLE - 1, TABLE, TABLE + 1, TABLE + offset):
        stop = max(start, stop)
        k = np.arange(start, stop, dtype=float)
        assert np.array_equal(bits(states._pmf_terms(start, stop, lam)), bits(reference_pmf(k, lam)))


@pytest.mark.parametrize("lam", [1e-3, 0.5, 3.0, 16.0, 100.0, 1369.0, 1e4, 9e4])
def test_pmf_terms_far_are_relative_accurate(lam):
    # states._pmf_saddle over the whole support: k < 16; the terms near the mean, where
    # k log(k/lam) + lam - k cancels (1.1e-11 at lam = 9e4 without the series); and
    # the far tail, where the plain kernel keeps only ~1e-11 at lam = 1369
    lo, hi = states._pmf_support(lam)
    terms = states._pmf_saddle(lo, hi, lam)
    assert terms.shape == (hi - lo,)
    mean = math.floor(lam)
    ks = {*range(lo, min(hi, 40)), *range(max(lo, mean - 40), min(hi, mean + 40)),
          *range(lo, hi, max(1, (hi - lo) // 150))}
    with mpmath.workdps(40):
        mlam = mpmath.mpf(lam)
        for k in sorted(ks):
            want = mpmath.exp(k * mpmath.log(mlam) - mlam - mpmath.loggamma(k + 1))
            if want > 1e-300:
                assert abs(terms[k - lo] - want) <= 1e-12 * want, k
    # tiny means: k/lam overflows, and every term is 0.0 without a warning
    assert not states._pmf_saddle(21, 1600, 1e-306).any()


def test_log_factorial_table_is_gammaln_bit_for_bit():
    # the committed table stands in for scipy at import, so it must hold gammaln's own bits
    table = states._LOG_FACTORIAL
    assert table.dtype == np.float64 and table.shape == (4096,)
    assert not table.flags.writeable
    assert np.array_equal(table.view(np.int64), gammaln(np.arange(1.0, 4097.0)).view(np.int64))


def test_gammaln_past_the_table_loads_scipy_on_first_use(monkeypatch):
    # gmes_spectrum(60) reaches k ~ 6800, past the table: scipy.special loads
    # then, not at import, and the spectrum is the one scipy's gammaln gives
    script = (
        "import hashlib, sys\n"
        "from gmeslab import gmes_spectrum\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "coeffs = gmes_spectrum(60.0).coeffs\n"
        "print('scipy.special' in sys.modules, hashlib.sha256(coeffs.tobytes()).hexdigest())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(states.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
                          timeout=120)
    calls = []

    def direct(x):
        calls.append(np.size(x))
        return gammaln(x)

    monkeypatch.setattr(states, "gammaln", direct)
    want = hashlib.sha256(gmes_spectrum(60.0).coeffs.tobytes()).hexdigest()
    assert calls
    assert done.stdout == f"[]\nTrue {want}\n"


def test_pmf_support_at_the_top_of_the_float_range():
    lo, hi = states._pmf_support(sys.float_info.max)
    assert 0 < lo < hi
    assert [poisson_tail(n, sys.float_info.max) for n in range(3)] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("b", SUPPORT_RADII)
def test_split_fsum_equals_fsum(b):
    lam = b * b
    f = states._poisson_tail_array(lam, int(lam + 12.0 * b + 30.0)) / lam
    head = states._pmf_support(lam)[0]
    assert head > 0 and np.all(f[:head] == f[0])
    for size in (head, head + 1, head + 1000, f.size):
        values = f[:size]
        assert states._fsum_repeated_head(values, head).hex() == math.fsum(values.tolist()).hex()


def test_the_kernel_runs_on_the_support_only(monkeypatch):
    terms = []

    def spy(x):
        terms.append(np.size(x))
        return gammaln(x)

    monkeypatch.setattr(states, "gammaln", spy)
    gmes_spectrum(350.0)
    # every k up to the cutoff plus the window would be 140,791 terms
    assert 0 < sum(terms) <= 30_000
    # a scalar tail below the mean starts its window 70 sqrt(lam) below the
    # mean, and the support 38.7 sqrt(lam) below it
    terms.clear()
    lam = 1.6e5
    n = int(lam - 30.0 * math.sqrt(lam))
    poisson_tail(n, lam)
    assert terms == [n + 1 - states._pmf_support(lam)[0]]
    # a tail array that ends below the support evaluates no term at all
    terms.clear()
    assert np.array_equal(states._poisson_tail_array(1e4, 1500), np.ones(1501))
    assert terms == []


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
    # b^2 rounds to 0 (and log(0) raised ValueError) or overflows
    for b in (1e-200, 1e155):
        with pytest.raises(DomainError, match="1.6e-162 < b < 1.3e154"):
            f_coefficient(0, b)
        with pytest.raises(DomainError, match="1.6e-162 < b < 1.3e154"):
            states.bounded_f_profile(b)


def test_f_tiny_radius_is_vacuum():
    # b^2 = 1e-322 is subnormal but positive
    assert f_coefficient(0, 1e-161) == 1.0
    assert gmes_spectrum(1e-161).coeffs.tolist() == [1.0]
    assert mes_overlaps("gmes", 1e-161, [1, 4]) == [1.0, 0.5]


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


@pytest.mark.parametrize("r", [1e-300, 1e-17, 3e-17, 1e-10, 0.01, 0.3, 0.35, 0.4, 2.0, 7.3, 30.0])
def test_log_tanh_matches_mpmath(r):
    # 1 - exp(-2r) cancels for small r (it raised below r ~ 1.1e-16)
    with mpmath.workdps(60):
        want = float(mpmath.log(mpmath.tanh(mpmath.mpf(r))))
    assert states._log_tanh(r) == pytest.approx(want, rel=1e-15)


def test_tmsv_extreme_squeezing():
    assert tmsv_spectrum(1e-17).coeffs.tolist() == [1.0]
    assert mes_overlaps("tmsv", 1e-17, [3]) == pytest.approx([1.0 / math.sqrt(3.0)], rel=1e-15)
    # tanh(400) rounds to 1, so the cutoff is unbounded
    with pytest.raises(TruncationError):
        tmsv_spectrum(400.0)


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


def test_cap_past_the_hard_cap_is_refused():
    # refused at once: at r = 30 and cap 1e30 the cutoff search began at
    # 7.9e26, past 2^53, where its cut += 1 no longer moved it
    with pytest.raises(ConfigError, match="cutoff cap"):
        tmsv_spectrum(30.0, cap=10**30)
    with pytest.raises(ConfigError, match="cutoff cap"):
        states.bounded_f_profile(15.0, cap=states.MAX_CUTOFF + 1)
    with pytest.raises(ConfigError, match="cutoff cap"):
        mes_overlaps("gmes", 15.0, [5], cap=-1)


@pytest.mark.parametrize(
    "build",
    [
        lambda cap: gmes_spectrum(1.0, cap=cap),
        lambda cap: tmsv_spectrum(3.0, cap=cap),
        lambda cap: mes_overlaps("gmes", 1.0, [5], cap=cap),
        lambda cap: states.bounded_f_profile(1.0, cap=cap),
    ],
    ids=["gmes_spectrum", "tmsv_spectrum", "mes_overlaps", "bounded_f_profile"],
)
@pytest.mark.parametrize("cap", [2.5, 7.5, 50.5, 50.0, "50", np.float64(50.0)])
def test_non_integer_cap_is_refused(build, cap):
    # a float cap used to reach numpy: 2.5 as a bare TypeError, 50.5 as a
    # spectrum that stopped where the float cap happened to fall
    with pytest.raises(ConfigError, match="cutoff cap must be an integer"):
        build(cap)


def test_integer_like_caps_are_accepted():
    for cap in (5000, np.int64(5000), np.uint16(5000)):
        assert np.array_equal(gmes_spectrum(1.0, cap=cap).coeffs, gmes_spectrum(1.0).coeffs)
        assert tmsv_spectrum(3.0, cap=cap).tail_bound == tmsv_spectrum(3.0).tail_bound


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


@pytest.mark.parametrize(
    "b,tol,cap",
    [(0.5, 1e-12, 200_000), (15.0, 1e-12, 200_000), (60.0, 1e-3, 200_000), (300.0, 1e-12, 200_000),
     (400.0, 1e-12, 200_000), (420.0, 1e-12, 200_000), (15.0, 1e-3, 230)],
)
def test_f_profile_is_one_pass(monkeypatch, b, tol, cap):
    # the f(n, b) past b^2 + 12 b + 30 sum to at most 7.4e-37, so a second,
    # longer profile could never move the cutoff: one profile is built, also
    # at b = 300 and 400, where the running sum stays below 1 - tol
    calls = []
    tail_array = states._poisson_tail_array

    def spy(lam, nmax):
        calls.append(nmax)
        return tail_array(lam, nmax)

    monkeypatch.setattr(states, "_poisson_tail_array", spy)
    nmax = min(int(b * b + 12.0 * b + 30.0), cap)
    try:
        assert states.bounded_f_profile(b, tol, cap)[0].size <= nmax + 1
    except TruncationError as exc:
        # the hard cap only where the profile reached it; below the cap the
        # error names the summed mass instead (b = 300 and 400 at tol 1e-12)
        assert ("hard cap" in str(exc)) == (nmax == cap)
        assert nmax == cap or f"summed up to n = {nmax} is " in str(exc)
    assert calls == [nmax]


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


@pytest.mark.parametrize("N", [states.MAX_CUTOFF + 1, 10**10, 10**400, 10**5000],
                         ids=["cap+1", "1e10", "1e400", "1e5000"])
def test_mes_past_the_hard_cap(N):
    # refused before any array: 10**10 would be 80 GB, sqrt(10**400) overflowed,
    # and str(10**5000) raises ValueError
    assert mes_spectrum(states.MAX_CUTOFF).coeffs.size == states.MAX_CUTOFF
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match="hard cap 200000"):
            mes_spectrum(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# Overlaps with MES_N
# ---------------------------------------------------------------------------


def tmsv_overlap_oracle(r, dim):
    """sum_{n<dim} tanh(r)^n / (cosh(r) sqrt(dim)), summed term by term."""
    with mpmath.workdps(40):
        r = mpmath.mpf(r)
        total = mpmath.fsum(mpmath.tanh(r) ** n for n in range(dim))
        return float(total / (mpmath.cosh(r) * mpmath.sqrt(dim)))


def gmes_overlap_oracle(b, dim):
    """sum_{n<dim} sqrt(P(X > n)) / (b sqrt(dim)) with X ~ Poisson(b^2).

    The pmf runs term by term far past both dim and the mean, and each tail
    is summed from that far end, so no tail loses digits to cancellation.
    """
    with mpmath.workdps(40):
        lam = mpmath.mpf(b) ** 2
        top = dim + int(lam + 60 * math.sqrt(lam)) + 100
        pmf = [mpmath.exp(-lam)]
        for k in range(1, top + 1):
            pmf.append(pmf[-1] * lam / k)
        tails = [mpmath.mpf(0)] * top
        tail = mpmath.mpf(0)
        for n in range(top - 1, -1, -1):
            tail += pmf[n + 1]
            tails[n] = tail
        total = mpmath.fsum(mpmath.sqrt(tails[n]) for n in range(dim))
        return float(total / (mpmath.mpf(b) * mpmath.sqrt(dim)))


# Where the spectra at tol = 1e-12 stop short of N, so a truncated sum is off
# by about 1e-6 and only the untruncated one is within 1e-12.
@pytest.mark.parametrize(
    "family,value,dim",
    [
        ("tmsv", 0.5, 1000),
        ("tmsv", 1.0, 1000),
        ("tmsv", 2.0, 1000),
        ("gmes", 1.0, 1000),
        ("gmes", 5.0, 1000),
        ("gmes", 15.0, 2000),
    ],
)
def test_mes_overlaps_match_mpmath(family, value, dim):
    oracle = tmsv_overlap_oracle if family == "tmsv" else gmes_overlap_oracle
    [got] = mes_overlaps(family, value, [dim])
    assert got == pytest.approx(oracle(value, dim), rel=1e-12)


@pytest.mark.parametrize(
    "family,value,spectrum",
    [
        ("tmsv", 0.3, tmsv_spectrum(0.3)),
        ("tmsv", 5.0, tmsv_spectrum(5.0)),
        ("gmes", 0.5, gmes_spectrum(0.5)),
        ("gmes", 15.0, gmes_spectrum(15.0)),
        ("mes", 7, mes_spectrum(7)),
    ],
)
def test_mes_overlaps_match_fidelity_within_cutoff(family, value, spectrum):
    # below the cutoff a truncated spectrum holds every term the overlap reads
    dims = [1, 2, 5, len(spectrum) // 2, len(spectrum)]
    want = [fidelity(mes_spectrum(dim), spectrum) for dim in dims]
    np.testing.assert_allclose(mes_overlaps(family, value, dims), want, rtol=1e-12)


def test_mes_overlaps_closed_forms():
    assert mes_overlaps("tmsv", 0.0, [1, 4, 100]) == [1.0, 0.5, 0.1]
    assert mes_overlaps("mes", 3, [3, 12]) == [1.0, 0.5]
    assert mes_overlaps("mes", 12, [3]) == [0.5]
    # N M passes the float range
    assert mes_overlaps("mes", 10**200, [10**200, 10**100]) == [1.0, 1e-50]
    # t = tanh(20) is 1 - 8.5e-18, so the first 2e6 terms are all but equal
    [got] = mes_overlaps("tmsv", 20.0, [2_000_000])
    assert got == pytest.approx(math.sqrt(2e6) / math.cosh(20.0), rel=1e-9)
    # tanh(400) rounds to 1: N equal terms
    [got] = mes_overlaps("tmsv", 400.0, [4])
    assert got == pytest.approx(2.0 * math.sqrt(4.0) * math.exp(-400.0), rel=1e-12)
    # -2r overflows past r ~ 9e307, where every c_n is 0.0, without a numpy warning
    assert mes_overlaps("tmsv", [1e308, 1.7976931348623157e308], [1, 5]) == [[0.0, 0.0], [0.0, 0.0]]
    # far past the support every overlap is sum_n c_n / sqrt(N)
    big = mes_overlaps("gmes", 15.0, [10**6, 4 * 10**6, 10**15])
    assert big[1] == pytest.approx(big[0] / 2.0, rel=1e-15)
    assert big[2] == pytest.approx(big[0] * 1e-3 / math.sqrt(1e3), rel=1e-15)


def full_length_overlaps(b, dims):
    """mes_overlaps' gmes branch with its prefix sum run to b^2 + 40 b + 60, whatever N is."""
    lam = b * b
    csum = np.cumsum(np.sqrt(states._poisson_tail_array(lam, int(lam + states._tail_window(lam))) / lam))
    return [min(1.0, float(csum[min(dim, csum.size) - 1]) / math.sqrt(dim)) for dim in dims]


@settings(max_examples=80, deadline=None)
@given(st.floats(1.7e-162, 45.0),  # b^2 a positive float
       st.lists(st.integers(1, 5000) | st.integers(1, 40) | st.integers(1, 10**9), max_size=6))
@example(45.0, [1, 2025, 2025 + 1860, 2025 + 1861, 2025 + 1862, 10**9])  # N at and past nmax + 1
@example(0.5, [])
@example(30.0, [5, 20, 200, 1000])  # fig2 a at its defaults
def test_mes_overlaps_sum_only_to_the_largest_dimension(b, dims):
    # an overlap with MES_N reads no tail past n = N - 1, and the tails it
    # does read are the full-length array's, bit for bit
    assert bits(mes_overlaps("gmes", b, dims)).tolist() == bits(full_length_overlaps(b, dims)).tolist()


# A tmsv r past ~372 has tanh(r) round to 1, and r = 0 has log tanh(r) = -inf.
GRID_VALUES = {
    "tmsv": st.just(0.0) | st.floats(0.0, 8.0) | st.floats(372.0, 720.0),
    "gmes": st.floats(1.7e-162, 30.0),  # b^2 a positive float
}


@pytest.mark.parametrize("family", GRID_VALUES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mes_overlaps_over_a_grid_equal_each_scalar_call(family, data):
    grid = data.draw(st.lists(GRID_VALUES[family], max_size=5))
    dims = data.draw(st.lists(st.integers(1, 5000) | st.integers(1, 10**15), max_size=4))
    if data.draw(st.booleans()):
        grid = np.array(grid)
    rows = mes_overlaps(family, grid, dims)
    assert [bits(row).tolist() for row in rows] == [bits(mes_overlaps(family, v, dims)).tolist() for v in grid]


def test_mes_overlaps_past_the_spectrum_cap():
    # b = 300 and 400 raise in gmes_spectrum (fault F-trunc), but the overlap
    # window b^2 + 40 b + 60 is under the cap
    for b in (300.0, 400.0):
        values = mes_overlaps("gmes", b, [1, int(b * b), 10**7])
        assert all(0.0 < v <= 1.0 for v in values)
    # the cap is checked against the whole window b^2 + 40 b + 60, not the largest N
    for dims in ([5], []):
        with pytest.raises(TruncationError):
            mes_overlaps("gmes", 15.0, dims, cap=100)


def test_mes_overlaps_errors():
    for family, value, dims in [
        ("tmsv", -0.1, [1]),
        ("tmsv", math.nan, [1]),
        ("gmes", 0.0, [1]),
        ("gmes", math.inf, [1]),
        ("gmes", 1e-200, [1]),
        ("gmes", 1e155, [1]),
        ("mes", 0, [1]),
        ("mes", 2.5, [1]),
        ("mes", 10**309, [1]),
        ("tmsv", 1.0, [0]),
        ("gmes", 1.0, [2.5]),
        ("tmsv", 1.0, [10**309]),
        ("tmsv", 1.0, [math.inf]),
        ("custom", 1.0, [1]),
        # M is one dimension; r and b may form a 1-d grid, each point checked
        ("mes", [3, 4], [1]),
        ("mes", np.array([3]), [1]),
        ("tmsv", [[1.0]], [1]),
        ("tmsv", [1.0, -0.1], [1]),
        ("gmes", np.array([1.0, 0.0]), [1]),
    ]:
        with pytest.raises(DomainError):
            mes_overlaps(family, value, dims)


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


@given(st.floats(1e-4, 1000.0))
def test_solve_b_mean_photon_property(nbar):
    assert abs(mean_photon(gmes_spectrum(solve_b_for_nbar(nbar))) - nbar) <= 1e-8


@pytest.mark.parametrize("nbar", [5e-324, 1e-300, 1e-40, 1e-13, 1e-12, 1e-6, 2.0, 1000.0])
def test_solve_b_stays_within_its_newton_step(nbar):
    # the truncated mean lies in [0, nbar], so one Newton step from sqrt(2 nbar)
    # lands within 1.5 sqrt(2 nbar); below nbar ~ 1e-12 the spectrum is c_0 alone,
    # its mean 0, and the step lands at 1.5 sqrt(2 nbar) with residual -nbar
    b = solve_b_for_nbar(nbar)
    seed = math.sqrt(2.0 * nbar)
    assert seed * (1.0 - 1e-12) <= b <= 1.5 * seed * (1.0 + 1e-12)
    assert abs(mean_photon(gmes_spectrum(b)) - nbar) <= 1e-8


def test_solve_b_loads_no_scipy():
    script = (
        "import sys\n"
        "from gmeslab import solve_b_for_nbar\n"
        "solve_b_for_nbar(2.0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(states.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
                          timeout=120)
    assert done.stdout == "[]\n"


def test_solve_b_errors():
    # at 1e308, 2 nbar overflows to inf
    for nbar in [0.0, -1.0, math.inf, math.nan, 1e308]:
        with pytest.raises(DomainError):
            solve_b_for_nbar(nbar)


# ---------------------------------------------------------------------------
# SchmidtSpectrum validation
# ---------------------------------------------------------------------------


# each stored state built from one value carrying the given mass
CONTRACT_STATES = {
    "SchmidtSpectrum": lambda mass, tail: SchmidtSpectrum(np.array([math.sqrt(mass)]), tail),
    "NumberDistribution": lambda mass, tail: NumberDistribution(np.array([mass]), tail),
    "FockVector": lambda mass, tail: FockVector(np.array([math.sqrt(mass)]), 0, tail),
    "TwoModeFock": lambda mass, tail: TwoModeFock(np.array([[math.sqrt(mass)]]), 0, tail),
}


@pytest.mark.parametrize("kind", sorted(CONTRACT_STATES))
@pytest.mark.parametrize(
    "mass,tail",
    [(1.0, -0.1), (1.0, 1.1), (1.0, math.nan), (math.nan, 0.0), (math.inf, 0.0),
     (1.0 + 10.0 * states._NORM_SLACK, 0.0), (0.5, 0.5 - 10.0 * states._NORM_SLACK)],
)
def test_mass_contract(kind, mass, tail):
    # finite values, a tail in [0, 1] and 1 - tail <= mass <= 1, for all four
    build = CONTRACT_STATES[kind]
    with pytest.raises(DomainError):
        build(mass, tail)
    for mass, tail in ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0), (1.0 + 0.5 * states._NORM_SLACK, 0.0)):
        build(mass, tail)


def test_spectrum_rejects_bad_inputs():
    with pytest.raises(DomainError):
        SchmidtSpectrum(np.array([-0.5, 0.5]), 0.0)
    with pytest.raises(DomainError):
        SchmidtSpectrum(np.array([1.0, 1.0]), 0.0)  # norm > 1
    with pytest.raises(DomainError):
        SchmidtSpectrum(np.array([0.5]), 0.0)  # missing mass, no tail declared
    with pytest.raises(DomainError):
        SchmidtSpectrum(np.array([1.0]), -0.1)
    # shapes: an empty or 2-d spectrum, a Fock vector or a two-mode array off its cutoff
    for build in (lambda: SchmidtSpectrum(np.array([]), 1.0), lambda: SchmidtSpectrum(np.eye(2), 0.0),
                  lambda: FockVector(np.array([1.0]), 1), lambda: FockVector(np.eye(2), 1),
                  lambda: TwoModeFock(np.array([1.0]), 0), lambda: TwoModeFock(np.eye(2), 0)):
        with pytest.raises(DomainError):
            build()
